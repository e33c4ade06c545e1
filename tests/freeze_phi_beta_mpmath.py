"""Regenerate the frozen mpmath table of phi_beta (PHI_BETA_MPMATH in test_specfun.py).

Each value is the defining double integral of phi_beta,

    C(beta) e^{-a} a^{-beta/2} Int_0^inf du u^{(beta-1)/2} e^{-u}
        Int_0^inf dxi sinh(xi) cosh(xi) xi / (u + a cosh^2 xi)^{(beta+2)/2},

with C(beta) = Gamma((beta+2)/2) / (sqrt(2) pi), computed by nested
mpmath tanh-sinh quadrature at DPS digits and more. Nothing here uses the
closed form that bdrelab.specfun.phi_beta evaluates (no Tricomi function,
no integration by parts, no change of the order of integration), so the
table checks it independently.

Each integral only changes variables, so that its integrand is of order
one where its mass is: mpmath's quad stops on an absolute error, and an
integrand of size 1e-200 would meet it at once without being resolved.

- The xi-integral: with 1 + a sinh^2(xi) / (u + a) = e^{r/p}, p = (beta+2)/2,
  it is (u + a)^{1-p} / (2 a p) times
  Int_0^inf asinh(sqrt(c expm1(r/p))) e^{-r (1 - 1/p)} dr, c = (u + a)/a.
- The u-integral: u^{(beta-1)/2} e^{-u} (u + a)^{1-p} is divided by its
  largest value (at the root of u^2 + (a + 1/2) u - a (beta-1)/2 for
  beta > 1, else at u = 1), and the integral is split at steps of its
  width around that peak and at powers of 4 times the peak.

Pytest does not collect this file (its name does not start with test_).
Run it from the repository root, optionally with a subset of pairs:

    python tests/freeze_phi_beta_mpmath.py                # every pair
    python tests/freeze_phi_beta_mpmath.py 1 300 5 400    # pairs a beta a beta ...

It prints one line per pair: a, beta, the value to 20 significant digits,
mpmath's error estimate for the u-integral relative to its value, and the
seconds the pair took. Each value is computed twice, at DPS digits with
breakpoints 2 widths apart and at DPS + 5 digits with breakpoints 1.5
widths apart; the two must agree to DPS - 10 digits, and the printed value
is the second.
"""

from __future__ import annotations

import sys
import time

import mpmath as mp

DPS = 30

# (a, beta): beta up to 1000, a down to 1e-3, the two low-beta corners
# where the nested quadrature this table replaced ran out of budget, and
# two values whose prefactor alone overflows a float while the value does not.
PAIRS = [
    (1e-3, 1.0),
    (0.05, 0.3),
    (50.0, 0.2),
    (1.0, 10.0),
    (1e-3, 30.0),
    (1.0, 30.0),
    (1.0, 60.0),
    (1e-3, 100.0),
    (1.0, 100.0),
    (200.0, 100.0),
    (1.0, 300.0),
    (5.0, 400.0),
    (100.0, 1000.0),
]


def phi_beta_mp(a, beta, spacing):
    """phi_beta(a, beta) at the working precision, and the u-integral's
    relative error estimate; spacing is the distance between breakpoints
    around the peak, in widths of the peak."""
    a, beta = mp.mpf(a), mp.mpf(beta)
    p = (beta + 2) / 2

    def xi_integral_scaled(u):
        # the xi-integral divided by (u + a)^{1-p} / (2 a p)
        c = (u + a) / a
        f = lambda r: mp.asinh(mp.sqrt(c * mp.expm1(r / p))) * mp.exp(-r * (1 - 1 / p))
        return mp.quad(f, [0, 1, 4, 16, 64, mp.inf])

    def log_weight(u):
        return (beta - 1) / 2 * mp.log(u) - u + (1 - p) * mp.log(u + a)

    h = a + mp.mpf(1) / 2
    if beta > 1:
        u0 = (-h + mp.sqrt(h * h + 2 * a * (beta - 1))) / 2
        width = 1 / mp.sqrt((beta - 1) / (2 * u0**2) - beta / (2 * (u0 + a) ** 2))
    else:
        u0, width = mp.mpf(1), mp.mpf(1)
    top = log_weight(u0)

    def outer(u):
        if u <= 0:
            return mp.mpf(0)
        return mp.exp(log_weight(u) - top) * xi_integral_scaled(u)

    points = {u0 * mp.mpf(4) ** k for k in range(-3, 4)}
    points |= {u0 + spacing * k * width for k in range(-6, 7) if u0 + spacing * k * width > 0}
    raw, err = mp.quad(outer, [mp.mpf(0)] + sorted(points) + [mp.inf], error=True)
    pref = mp.gamma(p) / (mp.sqrt(2) * mp.pi) * mp.exp(-a) * a ** (-beta / 2)
    return pref * mp.exp(top) / (2 * a * p) * raw, err / raw


def main(argv: list[str]) -> int:
    numbers = [float(x) for x in argv]
    pairs = list(zip(numbers[::2], numbers[1::2])) if argv else PAIRS
    for a, beta in pairs:
        t0 = time.perf_counter()
        with mp.workdps(DPS):
            first, _ = phi_beta_mp(a, beta, 2)
        with mp.workdps(DPS + 5):
            value, err = phi_beta_mp(a, beta, mp.mpf(1.5))
            agree = abs(first / value - 1)
        if agree > mp.mpf(10) ** (10 - DPS):
            raise SystemExit(f"a={a!r}, beta={beta!r}: the two passes differ by {mp.nstr(agree, 3)}")
        print(f"{a!r}, {beta!r}, {mp.nstr(value, 20)}, err {mp.nstr(err, 3)}, "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
