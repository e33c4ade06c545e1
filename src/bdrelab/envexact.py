"""Exact quenched-law machinery built on the environment alone.

Given a frozen environment path S, the conditional law of the population
is explicit: with I_t = (sigma_b^2/2) Int_0^t e^{-S_s} ds,

    E[exp(-lambda Z_t e^{-S_t}) | S] = exp(-z / (I_t + 1/lambda)).

Letting lambda -> infinity gives the conditional extinction probability
e^{-z/I_t}, and the transform factorizes as
z/(I + 1/lambda) = (z/I)(1 - 1/(1 + lambda I)), which identifies the
quenched law of Z_t e^{-S_t} as compound Poisson: N ~ Poisson(z/I_t)
jumps, each exponential with mean I_t. Replacing path-level indicators by
these exact conditional quantities is the variance-reduction backbone of
the whole package: only the scalar pair (S_t, I_t) has to be simulated,
and the branching noise is integrated out in closed form.

Every estimator here runs on one reducer, _environment_batches: it steps
batches of environments and hands (I_t, S_t) at each checkpoint to a
reduction of the estimator's choosing. The survival curve can sample its
environments under an exponential tilt, dQ/dP = e^{theta S_t} / E[e^{theta S_t}],
and weight each path by the exact likelihood ratio dP/dQ (importance
sampling; Asmussen & Glynn, Stochastic Simulation, 2007, ch. VI). The
only approximation anywhere here is still the trapezoid rule for I_t on
the simulation grid.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError
from .model import ModelParams
from .rng import _require_se_sample, _run_batches
from .sde import _checkpoint_steps

__all__ = [
    "environment_survival_curve",
    "environment_laplace",
    "dufresne_samples",
]


def _environment_batches(
    params: ModelParams,
    times: Sequence[float],
    dt: float,
    n: int,
    seed: int,
    threads: int,
    scale: float,
    reduce: Callable,
) -> list:
    """Per batch of environments, {t: reduce(t, I_t, S_t)} at each time.

    The last time T sets the grid: round(T / dt) steps of equal length,
    at least one or ConfigError, and every other time must sit on it. S
    takes exact Gaussian increments and I_t = scale * Int_0^t e^{-S_s} ds
    the trapezoid rule; scale = sigma_b^2 / 2 gives the I_t of the
    quenched law, scale = 1 the raw Dufresne functional. I_t and S_t are
    the running arrays, final only at T, so reduce must not keep or change
    them. Batch k draws from RngStream(seed, k).
    """
    times = sorted(float(t) for t in times)
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    n_steps = int(round(times[-1] / dt))
    if n_steps < 1:
        raise ConfigError(f"t = {times[-1]} is shorter than half a step dt = {dt}")
    step = times[-1] / n_steps
    at = _checkpoint_steps(times, step, n_steps)
    sq = math.sqrt(step)
    weight = scale * 0.5 * step

    def worker(g, b: int):
        s = np.zeros(b)
        acc = np.zeros(b)
        prev = np.ones(b)
        out = {}
        if 0 in at:
            out[at[0]] = reduce(at[0], acc, s)
        for k in range(1, n_steps + 1):
            s += params.alpha * step + params.sigma_e * sq * g.standard_normal(b)
            cur = np.exp(-s)
            acc += weight * (prev + cur)
            prev = cur
            if k in at:
                out[at[k]] = reduce(at[k], acc, s)
        return out

    return _run_batches(worker, n, seed, threads)


def _sums(q: NDArray[np.float64]) -> tuple[float, float]:
    return float(q.sum()), float((q**2).sum())


def _mean_se(sums: list, n: int) -> tuple[float, float]:
    """(mean, std_error) of n values from per-batch (sum, sum of squares)."""
    mean = sum(s1 for s1, _ in sums) / n
    var = max(sum(s2 for _, s2 in sums) / n - mean**2, 0.0)
    return mean, math.sqrt(var / n)


def dufresne_samples(
    params: ModelParams,
    horizon: float,
    n: int,
    dt: float,
    seed: int,
    threads: int = 1,
) -> NDArray[np.float64]:
    """n truncated samples of Int_0^T e^{-S_s} ds, trapezoid on the grid."""
    if params.alpha <= 0:
        raise ValueError("the exponential functional requires alpha > 0")
    parts = _environment_batches(
        params, [horizon], dt, n, seed, threads, 1.0, lambda t, i_t, s_t: i_t
    )
    return np.concatenate([p[float(horizon)] for p in parts])


def environment_survival_curve(
    params: ModelParams,
    checkpoints: Sequence[float],
    n: int,
    dt: float,
    seed: int,
    collect: str = "survival",
    threads: int = 1,
    tilt: float = 0.0,
) -> dict:
    """Conditional probabilities averaged over n environments.

    collect = 'survival' accumulates 1 - e^{-z/I_t}, 'extinct' accumulates
    e^{-z/I_t}, at each checkpoint. The environment drift mu is
    params.alpha as given; callers wanting the extinction-conditioned
    population decay pass alpha negated, which by the conditioning
    identity turns this into the survival curve of the conditioned
    process. Returns {t: (mean, std_error)}.

    tilt = theta samples S with drift mu + theta sigma_e^2 instead and
    multiplies each path's value at t by the exact likelihood ratio
    exp((theta mu + theta^2 sigma_e^2 / 2) t - theta S_t), so the mean is
    the untilted one and only the variance changes. tilt = 0 forms no
    weight and draws, steps and sums exactly as without the option. The
    only approximation either way is the trapezoid rule for I_t. n must
    be at least 2.
    """
    _require_se_sample(n)
    if collect not in ("survival", "extinct"):
        raise ValueError("collect must be 'survival' or 'extinct'")
    if params.sigma_b <= 0:
        raise ValueError("conditional probabilities need sigma_b > 0")
    if not math.isfinite(tilt):
        raise ValueError(f"tilt must be finite, got {tilt}")
    z = params.z0
    survival = collect == "survival"
    theta = float(tilt)
    log_mgf = theta * params.alpha + 0.5 * theta**2 * params.sigma_e**2  # per unit t

    def reduce(t, i_t, s_t):
        if t == 0.0:
            # I_0 = 0: survival is certain for z > 0, extinction for z = 0
            return _sums(np.full(i_t.shape, float((z > 0) == survival)))
        q = -np.expm1(-z / i_t) if survival else np.exp(-z / i_t)
        if theta:
            q *= np.exp(log_mgf * t - theta * s_t)
        return _sums(q)

    stepped = replace(params, alpha=params.alpha + theta * params.sigma_e**2) if theta else params
    parts = _environment_batches(
        stepped, checkpoints, dt, n, seed, threads, params.sigma_b**2 / 2.0, reduce
    )
    return {t: _mean_se([p[t] for p in parts], n) for t in parts[0]}


def environment_laplace(
    params: ModelParams,
    lambdas: Sequence[float],
    t: float,
    n: int,
    dt: float,
    seed: int,
    threads: int = 1,
) -> dict:
    """E[exp(-lambda Z_t e^{-S_t})] by exact conditional transform.

    Averages exp(-z/(I_t + 1/lambda)) over n environments; the branching
    randomness never needs to be simulated. Returns {lambda: (mean, se)};
    n must be at least 2.
    """
    _require_se_sample(n)
    if params.sigma_b <= 0:
        raise ValueError("the quenched transform needs sigma_b > 0")
    z = params.z0
    lambdas = [float(l) for l in lambdas]
    if any(l < 0 for l in lambdas):
        raise ValueError("lambda must be nonnegative")

    def reduce(_, i_t, s_t):
        return {
            lam: _sums(np.ones(i_t.shape) if lam == 0.0 else np.exp(-z / (i_t + 1.0 / lam)))
            for lam in lambdas
        }

    parts = _environment_batches(
        params, [t], dt, n, seed, threads, params.sigma_b**2 / 2.0, reduce
    )
    return {lam: _mean_se([p[float(t)][lam] for p in parts], n) for lam in lambdas}
