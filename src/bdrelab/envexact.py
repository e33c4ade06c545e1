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

The only approximation anywhere here is the trapezoid rule for I_t on the
simulation grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError
from .model import ModelParams
from .rng import RngStream, _run_batches
from .sde import SchemeConfig, _checkpoint_steps

__all__ = [
    "EnvPath",
    "simulate_environment",
    "env_from_samples",
    "quenched_extinct_by",
    "sample_z_given_env",
    "sample_z_given_env_batch",
    "dufresne_functional",
    "environment_survival_curve",
    "environment_laplace",
    "dufresne_samples",
]


@dataclass
class EnvPath:
    """An environment realization with its running exponential functional."""

    times: NDArray[np.float64]
    s_values: NDArray[np.float64]
    i_values: NDArray[np.float64]

    def index_of(self, t: float) -> int:
        k = int(np.searchsorted(self.times, t))
        for cand in (k, k - 1, k + 1):
            if 0 <= cand < len(self.times) and abs(self.times[cand] - t) <= 1e-9 * max(
                1.0, abs(t)
            ):
                return cand
        raise ValueError(f"time {t} is not on the environment grid")


def _trapezoid_i(times, s_values, sigma_b: float) -> NDArray[np.float64]:
    expneg = np.exp(-np.asarray(s_values, dtype=float))
    dt = np.diff(np.asarray(times, dtype=float))
    inc = 0.5 * dt * (expneg[:-1] + expneg[1:])
    return (sigma_b**2 / 2.0) * np.concatenate([[0.0], np.cumsum(inc)])


def simulate_environment(
    params: ModelParams, cfg: SchemeConfig, rng: RngStream
) -> EnvPath:
    """Environment path with exact Gaussian increments and trapezoid I_t."""
    if params.sigma_e <= 0:
        raise ValueError("environment requires sigma_e > 0")
    n_steps = cfg.n_steps
    dt = cfg.horizon / n_steps
    g = rng.generator()
    incs = params.alpha * dt + params.sigma_e * math.sqrt(dt) * g.standard_normal(
        n_steps
    )
    s = np.concatenate([[0.0], np.cumsum(incs)])
    times = dt * np.arange(n_steps + 1)
    return EnvPath(times=times, s_values=s, i_values=_trapezoid_i(times, s, params.sigma_b))


def env_from_samples(
    times: Sequence[float], s_values: Sequence[float], params: ModelParams
) -> EnvPath:
    """Wrap explicit S samples (deterministic or external) as an EnvPath."""
    times = np.asarray(times, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    if times.ndim != 1 or times.shape != s_values.shape:
        raise ValueError("times and s_values must be aligned 1-d arrays")
    if times[0] != 0.0 or s_values[0] != 0.0:
        raise ValueError("environment starts at t = 0 with S = 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return EnvPath(
        times=times, s_values=s_values, i_values=_trapezoid_i(times, s_values, params.sigma_b)
    )


def quenched_extinct_by(env: EnvPath, t: float, z: float) -> float:
    """P(Z_t = 0 | S) = exp(-z / I_t), with c/0 = inf and e^{-inf} = 0."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    i_t = float(env.i_values[env.index_of(t)])
    if z == 0.0:
        return 1.0
    if i_t == 0.0:
        return 0.0
    return math.exp(-z / i_t)


def sample_z_given_env(env: EnvPath, t: float, z: float, rng: RngStream) -> float:
    """One exact draw of Z_t given the environment (gridded I_t).

    Draws the compound-Poisson variable X = Z_t e^{-S_t} (N ~ Poisson(z/I),
    then a Gamma(N, scale I); N = 0 gives the extinction atom) and rescales
    by e^{S_t}. At t = 0 the law is the point mass at z.
    """
    return float(sample_z_given_env_batch(env, t, z, rng, 1)[0])


def sample_z_given_env_batch(
    env: EnvPath, t: float, z: float, rng: RngStream, size: int
) -> NDArray[np.float64]:
    """Vector of exact draws of Z_t given the environment."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    k = env.index_of(t)
    i_t = float(env.i_values[k])
    s_t = float(env.s_values[k])
    if z == 0.0:
        return np.zeros(size)
    if i_t == 0.0:
        return np.full(size, z * math.exp(s_t))
    g = rng.generator()
    n_jumps = g.poisson(z / i_t, size=size)
    x = np.zeros(size)
    pos = n_jumps > 0
    x[pos] = g.standard_gamma(n_jumps[pos]) * i_t
    return math.exp(s_t) * x


def dufresne_functional(params: ModelParams, horizon: float, rng: RngStream) -> float:
    """One truncated sample of Int_0^T e^{-S_s} ds (raw, no sigma_b factor), at dt 0.01.

    The infinite-horizon limit exists only for alpha > 0; the truncation
    tail is exponentially suppressed (for the T used in tests, far below
    sampling noise).
    """
    return float(dufresne_samples(params, horizon, 1, 0.01, rng.seed, stream_base=rng.stream_index)[0])


def _environment_batches(
    params: ModelParams,
    times: Sequence[float],
    dt: float,
    n: int,
    seed: int,
    threads: int,
    scale: float,
    reduce: Callable,
    stream_base: int = 0,
) -> list:
    """Per batch of environments, {t: reduce(t, I_t)} at each time.

    The last time T sets the grid: round(T / dt) steps of equal length,
    at least one or ConfigError, and every other time must sit on it. S
    takes exact Gaussian increments and I_t = scale * Int_0^t e^{-S_s} ds
    the trapezoid rule; scale = sigma_b^2 / 2 gives the I_t of the
    quenched law, scale = 1 the raw Dufresne functional. I_t is the
    running array, final only at T. Batch b draws from stream
    stream_base + b.
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
            out[at[0]] = reduce(at[0], acc)
        for k in range(1, n_steps + 1):
            s += params.alpha * step + params.sigma_e * sq * g.standard_normal(b)
            cur = np.exp(-s)
            acc += weight * (prev + cur)
            prev = cur
            if k in at:
                out[at[k]] = reduce(at[k], acc)
        return out

    return _run_batches(worker, n, seed, threads, stream_base)


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
    stream_base: int = 0,
) -> NDArray[np.float64]:
    """n truncated samples of Int_0^T e^{-S_s} ds, trapezoid on the grid."""
    if params.alpha <= 0:
        raise ValueError("the exponential functional requires alpha > 0")
    parts = _environment_batches(
        params, [horizon], dt, n, seed, threads, 1.0, lambda t, i_t: i_t, stream_base
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
) -> dict:
    """Conditional probabilities averaged over n environments.

    collect = 'survival' accumulates 1 - e^{-z/I_t}, 'extinct' accumulates
    e^{-z/I_t}, at each checkpoint. The environment drift is params.alpha
    as given; callers wanting the extinction-conditioned population decay
    pass alpha negated, which by the conditioning identity turns this into
    the survival curve of the conditioned process. Returns
    {t: (mean, std_error)}.
    """
    if collect not in ("survival", "extinct"):
        raise ValueError("collect must be 'survival' or 'extinct'")
    if params.sigma_b <= 0:
        raise ValueError("conditional probabilities need sigma_b > 0")
    z = params.z0
    survival = collect == "survival"

    def reduce(t, i_t):
        if t == 0.0:
            # I_0 = 0: survival is certain for z > 0, extinction for z = 0
            return _sums(np.full(i_t.shape, float((z > 0) == survival)))
        return _sums(-np.expm1(-z / i_t) if survival else np.exp(-z / i_t))

    parts = _environment_batches(
        params, checkpoints, dt, n, seed, threads, params.sigma_b**2 / 2.0, reduce
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
    randomness never needs to be simulated. Returns {lambda: (mean, se)}.
    """
    if params.sigma_b <= 0:
        raise ValueError("the quenched transform needs sigma_b > 0")
    z = params.z0
    lambdas = [float(l) for l in lambdas]
    if any(l < 0 for l in lambdas):
        raise ValueError("lambda must be nonnegative")

    def reduce(_, i_t):
        return {
            lam: _sums(np.ones(i_t.shape) if lam == 0.0 else np.exp(-z / (i_t + 1.0 / lam)))
            for lam in lambdas
        }

    parts = _environment_batches(
        params, [t], dt, n, seed, threads, params.sigma_b**2 / 2.0, reduce
    )
    return {lam: _mean_se([p[float(t)][lam] for p in parts], n) for lam in lambdas}
