"""Reference values for the benchmark's correctness checks.

Everything here is computed from closed forms or from scipy directly and
never calls bdrelab, so a check compares the program against a route that
shares no code with it. The model is the standard point of the verify
checklist (alpha = sigma_e = sigma_b = z0 = 1) unless a function takes its
parameters explicitly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

STANDARD = {"alpha": 1.0, "sigma_e": 1.0, "sigma_b": 1.0, "z0": 1.0}

# Gate width in standard errors for every Monte Carlo check. A two-sided
# 5-sigma gate has a false-alarm rate of 5.7e-7 per check, so the few
# thousand checks of a full steadiness campaign fail by chance with
# probability below 1e-3.
Z_GATE = 5.0

# Significance level of the KS checks, for the same reason: at 1 % a
# correct program would fail about one KS check in a hundred.
KS_LEVEL = 1e-6


def beta(alpha: float, sigma_e: float) -> float:
    return 2.0 * alpha / sigma_e**2


def _x(z: float, sigma_e: float, sigma_b: float) -> float:
    return sigma_e**2 * z / sigma_b**2


def extinction_closed_form(z, alpha, sigma_e, sigma_b) -> float:
    """(1 + sigma_e^2 z / sigma_b^2)^(-beta): 1/4 at the standard point."""
    return (1.0 + _x(z, sigma_e, sigma_b)) ** (-beta(alpha, sigma_e))


def rb_raw_moment(k: int, z, alpha, sigma_e, sigma_b) -> float:
    """E[q^k] for the Rao-Blackwell sample q = exp(-z / I_inf).

    By Dufresne's identity I_inf = sigma_b^2 / (sigma_e^2 G), G ~ Gamma(beta),
    so q = exp(-x G) and E[q^k] = (1 + k x)^(-beta).
    """
    return (1.0 + k * _x(z, sigma_e, sigma_b)) ** (-beta(alpha, sigma_e))


def rb_variance(z, alpha, sigma_e, sigma_b) -> float:
    """Per-sample variance of q: (1+2x)^(-beta) - (1+x)^(-2 beta) = 7/144."""
    m1 = rb_raw_moment(1, z, alpha, sigma_e, sigma_b)
    return rb_raw_moment(2, z, alpha, sigma_e, sigma_b) - m1 * m1


def rb_variance_sd(n: int, z, alpha, sigma_e, sigma_b) -> float:
    """Standard deviation of the sample variance of n draws of q.

    Var(s^2) = (mu4 - sigma^4) / n to leading order, with the fourth
    central moment mu4 assembled from the closed-form raw moments.
    """
    m = [rb_raw_moment(k, z, alpha, sigma_e, sigma_b) for k in range(5)]
    mu4 = m[4] - 4 * m[3] * m[1] + 6 * m[2] * m[1] ** 2 - 3 * m[1] ** 4
    var = m[2] - m[1] ** 2
    return math.sqrt((mu4 - var * var) / n)


def _gamma_expectation(fn, shape: float) -> float:
    """E[fn(G)] for G ~ Gamma(shape, 1) by scipy adaptive quadrature."""
    pdf = stats.gamma(shape).pdf
    val, _ = integrate.quad(lambda g: fn(g) * pdf(g), 0.0, math.inf,
                            epsabs=1e-13, epsrel=1e-12, limit=400)
    return float(val)


def laplace_limit_reference(lam, z, alpha, sigma_e, sigma_b, as_printed=False) -> float:
    """E[exp(-z / (B + 1/lambda))] with the gamma variable read either way.

    Inverse-gamma reading (the default): B = sigma_b^2 / (sigma_e^2 G), the
    law of I_inf, which makes this the lambda-transform of the martingale
    limit. As printed: B = (sigma_b^2 / sigma_e^2) G. lambda = inf drops
    the 1/lambda shift.
    """
    inv_lam = 0.0 if math.isinf(lam) else 1.0 / lam
    ratio = sigma_b**2 / sigma_e**2

    def integrand(g: float) -> float:
        if g <= 0.0:
            return 0.0
        b = ratio * g if as_printed else ratio / g
        return math.exp(-z / (b + inv_lam))

    return _gamma_expectation(integrand, beta(alpha, sigma_e))


def bessel_as_printed_beta1() -> float:
    """2 K_1(2): the as-printed reading at beta = 1, lambda = inf, z = 1."""
    return float(2.0 * special.kv(1, 2.0))


def dufresne_truncated_sd(alpha, sigma_e, horizon: float) -> float:
    """Standard deviation of Int_0^T e^{-S_s} ds at a finite horizon T.

    E[X^2] = 2 Int_0^T E[e^{-2 S_s}] Int_s^T e^{-a (u - s)} du ds with
    a = alpha - sigma_e^2/2. At the standard point E[e^{-2 S_s}] = 1 for all
    s and the infinite-horizon law has no variance, so the sample sd, set
    by the largest draws, understates this one.
    """
    a = alpha - 0.5 * sigma_e**2
    b = 2.0 * sigma_e**2 - 2.0 * alpha
    second, _ = integrate.quad(
        lambda s: 2.0 * math.exp(b * s) * -math.expm1(-a * (horizon - s)) / a,
        0.0, horizon, limit=200)
    mean = -math.expm1(-a * horizon) / a
    return math.sqrt(second - mean * mean)


def martingale_limit_sd(z0, alpha, sigma_e, sigma_b, horizon: float) -> float:
    """Standard deviation of Z_T e^{-S_T}: sqrt(2 z0 E[I_T]).

    Given the environment, Z_T e^{-S_T} is compound Poisson with variance
    2 z0 I_T, and E[I_T] = (sigma_b^2/2) (1 - e^{-a T}) / a with
    a = alpha - sigma_e^2/2.
    """
    a = alpha - 0.5 * sigma_e**2
    mean_i = 0.5 * sigma_b**2 * -math.expm1(-a * horizon) / a
    return math.sqrt(2.0 * z0 * mean_i)


def dufresne_law(alpha, sigma_e):
    """Law of Int_0^inf e^{-S_s} ds: inverse gamma (beta, scale 2/sigma_e^2)."""
    return stats.invgamma(beta(alpha, sigma_e), scale=2.0 / sigma_e**2)


def dufresne_as_printed_law(alpha, sigma_e):
    """The gamma law the as-printed statement names instead."""
    return stats.gamma(beta(alpha, sigma_e), scale=2.0 / sigma_e**2)


def dufresne_mean(alpha, sigma_e) -> float:
    """E Int_0^inf e^{-S_s} ds = 1 / (alpha - sigma_e^2 / 2) = 2."""
    return 1.0 / (alpha - 0.5 * sigma_e**2)


def survival_h(z, alpha, sigma_e, sigma_b):
    """h(z) = P_z(survival) = 1 - (1 + sigma_e^2 z / sigma_b^2)^(-beta)."""
    z = np.asarray(z, dtype=float)
    return -np.expm1(-beta(alpha, sigma_e) * np.log1p(sigma_e**2 * z / sigma_b**2))


def h_transform_target(z0, alpha, sigma_e, sigma_b) -> float:
    """E_Q[Z_T e^{-S_T} / h(Z_T)] = z0 / h(z0) = 4/3 under survival conditioning.

    Q has density h(Z_T)/h(z0) against the unconditioned law on F_T, and
    Z_T e^{-S_T} is a martingale there, so the h factors cancel.
    """
    return float(z0 / survival_h(z0, alpha, sigma_e, sigma_b))


def psi_reference(a: float) -> float:
    """e^{-a} / (sqrt(2 pi) a), the reduction of the psi integral."""
    return math.exp(-a) / (math.sqrt(2.0 * math.pi) * a)


MOMENT_A_PSI = 1.0 / math.sqrt(2.0 * math.pi)


def scale_u(z, alpha, sigma_e, sigma_b):
    """U(z) = (sigma_e^2 z + sigma_b^2)^(-beta)."""
    return (sigma_e**2 * np.asarray(z, dtype=float) + sigma_b**2) ** (-beta(alpha, sigma_e))


def lognormal_v_sd(alpha, sigma_e, t: float) -> float:
    """Standard deviation of V(S_t) = exp(-beta S_t).

    S_t is Gaussian under the Euler scheme, so V(S_t) is lognormal with
    mean 1 and variance e^{beta^2 sigma_e^2 t} - 1.
    """
    b = beta(alpha, sigma_e)
    return math.sqrt(math.expm1(b * b * sigma_e**2 * t))


def simulate_rows(kind: str, n_paths: int, horizon: float, dt: float, n_scale: int) -> int:
    """Data rows of the paths.csv that `bdrelab simulate` writes.

    One row for the start of each path and one per kept step. The diffusion
    kinds keep every one of their horizon/dt steps; bpre runs horizon*n_scale
    generations and keeps every max(1, n_scale // 10)-th one and the last.
    """
    if kind == "bpre":
        steps, stride = round(horizon * n_scale), max(1, n_scale // 10)
    else:
        steps, stride = round(horizon / dt), 1
    kept = sum(1 for k in range(1, steps + 1) if k % stride == 0 or k == steps)
    return n_paths * (1 + kept)


def ks_pvalue(samples, cdf) -> float:
    return float(stats.kstest(samples, cdf).pvalue)
