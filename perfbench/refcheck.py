"""Checks of the benchmark's own reference computations (refs.py).

    python3 perfbench/refcheck.py

Each reference is compared with a second derivation that shares no code
with it: a closed form against quadrature, a quadrature against a
different quadrature rule, and both against Monte Carlo with exact gamma
draws. Needs numpy and scipy only, not bdrelab.
"""

from __future__ import annotations

import math
import os
import sys
import traceback

import numpy as np
from scipy import integrate, special

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import refs  # noqa: E402

STD = (refs.STANDARD["alpha"], refs.STANDARD["sigma_e"], refs.STANDARD["sigma_b"])
Z0 = refs.STANDARD["z0"]
BETA = refs.beta(STD[0], STD[1])
RNG = np.random.default_rng(20260821)


def _gamma_draws(n: int) -> np.ndarray:
    return RNG.standard_gamma(BETA, size=n)


def _laguerre_expectation(fn, n_nodes: int = 120) -> float:
    """E[fn(G)], G ~ Gamma(beta), by generalized Gauss-Laguerre."""
    x, w = special.roots_genlaguerre(n_nodes, BETA - 1.0)
    return float(np.sum(w * fn(x)) / special.gamma(BETA))


def test_extinction_closed_form():
    assert abs(refs.extinction_closed_form(Z0, *STD) - 0.25) < 1e-15
    via_law = _laguerre_expectation(lambda g: np.exp(-g))
    assert abs(via_law - 0.25) < 1e-12


def test_rb_variance_and_its_sd():
    assert abs(refs.rb_variance(Z0, *STD) - 7.0 / 144.0) < 1e-15
    q = np.exp(-_gamma_draws(2_000_000))
    assert abs(q.var() - 7.0 / 144.0) < 5 * refs.rb_variance_sd(2_000_000, Z0, *STD)
    # the sd of a sample variance, checked over 400 samples of size 5000
    n = 5000
    sv = np.exp(-_gamma_draws((400, n))).var(axis=1, ddof=0)
    sd = refs.rb_variance_sd(n, Z0, *STD)
    assert 0.85 < sv.std(ddof=1) / sd < 1.15


def test_laplace_reference():
    for lam in (0.5, 1.0, 2.0, 10.0, math.inf):
        inv_lam = 0.0 if math.isinf(lam) else 1.0 / lam
        ref = refs.laplace_limit_reference(lam, Z0, *STD)
        other = _laguerre_expectation(lambda g: np.exp(-Z0 / (1.0 / g + inv_lam)), 200)
        assert abs(ref - other) < 1e-9, (lam, ref, other)
        printed = refs.laplace_limit_reference(lam, Z0, *STD, as_printed=True)
        other = _laguerre_expectation(lambda g: np.exp(-Z0 / (g + inv_lam)), 200)
        assert abs(printed - other) < 1e-6, (lam, printed, other)
    # lambda -> inf recovers the extinction probability
    assert abs(refs.laplace_limit_reference(math.inf, Z0, *STD) - 0.25) < 1e-10
    g = _gamma_draws(1_000_000)
    mc = np.exp(-Z0 / (1.0 / g + 1.0))
    assert abs(mc.mean() - refs.laplace_limit_reference(1.0, Z0, *STD)) < 5 * mc.std() / 1000


def test_bessel_reference():
    # the as-printed reading at beta = 1: E[exp(-1/G)], G ~ Exp(1)
    val, _ = integrate.quad(lambda g: math.exp(-1.0 / g - g), 0.0, math.inf)
    assert abs(val - refs.bessel_as_printed_beta1()) < 1e-9


def test_dufresne_law_and_moments():
    law = refs.dufresne_law(*STD[:2])
    x = 2.0 / _gamma_draws(200_000)  # Dufresne: Int e^{-S} = 2 / (sigma_e^2 G)
    assert abs(np.median(x) - law.median()) < 0.02
    assert abs(law.mean() - refs.dufresne_mean(*STD[:2])) < 1e-12
    # finite-horizon sd: brute-force double integral of the covariance
    a, T = 0.5, 40.0
    second, _ = integrate.dblquad(lambda u, s: 2.0 * math.exp(-a * (u - s)),
                                  0.0, T, lambda s: s, lambda s: T)
    mean = (1.0 - math.exp(-a * T)) / a
    assert abs(refs.dufresne_truncated_sd(*STD[:2], T) - math.sqrt(second - mean**2)) < 1e-6


def test_h_transform_target():
    h = refs.survival_h(Z0, *STD)
    assert abs(h - (1.0 - refs.extinction_closed_form(Z0, *STD))) < 1e-15
    assert abs(refs.h_transform_target(Z0, *STD) - 4.0 / 3.0) < 1e-15
    # small z: h(z) ~ beta x z, kept accurate by the expm1/log1p form
    assert abs(refs.survival_h(1e-12, *STD) / 1e-12 - BETA) < 1e-6


def test_martingale_limit_sd():
    # E[I_T] by quadrature of (sigma_b^2/2) E e^{-S_s}
    T = 5.0
    mean_i, _ = integrate.quad(lambda s: 0.5 * math.exp(-0.5 * s), 0.0, T)
    assert abs(refs.martingale_limit_sd(Z0, *STD, T) - math.sqrt(2 * Z0 * mean_i)) < 1e-12


def test_psi_reference():
    for a in (0.1, 1.0, 5.0):
        # the integrand is below e^-700 past y = 12 for every a used here
        inner, _ = integrate.quad(lambda y: math.exp(-a * math.cosh(y) ** 2) * math.cosh(y),
                                  0.0, 12.0, epsabs=0.0, epsrel=1e-13, limit=200)
        direct = math.sqrt(2.0) / math.pi * inner / math.sqrt(a)
        assert abs(direct - refs.psi_reference(a)) < 1e-10 * refs.psi_reference(a)
    moment, _ = integrate.quad(lambda a: a * refs.psi_reference(a), 0.0, math.inf)
    assert abs(moment - refs.MOMENT_A_PSI) < 1e-10


def test_lognormal_v_sd():
    t = 0.5
    s = STD[0] * t + STD[1] * math.sqrt(t) * RNG.standard_normal(2_000_000)
    assert 0.9 < np.exp(-BETA * s).std() / refs.lognormal_v_sd(*STD[:2], t) < 1.1


def test_simulate_rows():
    # kept steps by counting: every stride-th step, plus the last one when
    # the stride does not divide the step count
    assert refs.simulate_rows("bdre", 40, 5.0, 0.01, 100) == 40 * 501
    assert refs.simulate_rows("quenched", 3, 1.0, 0.25, 7) == 3 * 5
    for n_scale, horizon in ((100, 5.0), (37, 2.0), (5, 3.0)):
        steps, stride = round(horizon * n_scale), max(1, n_scale // 10)
        kept = steps // stride + (1 if steps % stride else 0)
        assert refs.simulate_rows("bpre", 2, horizon, 0.01, n_scale) == 2 * (1 + kept)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:  # report every check, whatever the first one raised
            failed += 1
            print(f"FAIL {name}:\n{traceback.format_exc()}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} reference checks pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
