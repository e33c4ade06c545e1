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

The transform always runs its environments, and the survival curve can
run them, in antithetic pairs (Glasserman, Monte Carlo Methods in Financial
Engineering, 2003, sec. 4.2): in a batch of b environments, the first
b // 2 step on xi and the last b // 2 on -xi, and with b odd the one in
between steps alone on normals of its own, so a step draws b - b // 2
normals. Untilted, both values are monotone in every normal, so the
members of a pair are negatively correlated (about -0.76 for e^{-z/I_t}
and the transform) and a pair sum varies far less than two independent
values; a tilt's weight makes the product no longer monotone, and there
the gain is measured, not guaranteed. The mean stays the mean
over all n paths; the se comes from the spread of the pair sums, plus
the share of each odd batch's lone path. The Rao-Blackwell extinction
probability and dufresne_samples stay i.i.d.: criterion 8 runs a KS test
that needs independent samples, and the benchmark checks the RB se
against the i.i.d. variance.
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
    paired: bool = False,
) -> list:
    """Per batch of environments, {t: reduce(t, I_t, S_t)} at each time.

    The last time T sets the grid: round(T / dt) steps of equal length,
    at least one or ConfigError, and every other time must sit on it. S
    takes exact Gaussian increments and I_t = scale * Int_0^t e^{-S_s} ds
    the trapezoid rule; scale = sigma_b^2 / 2 gives the I_t of the
    quenched law, scale = 1 the raw Dufresne functional. I_t and S_t are
    the running arrays, final only at T, so reduce must not keep or change
    them. Batch k draws from RngStream(seed, k). paired runs a batch of b
    in antithetic pairs: column j < b // 2 steps on xi_j and column
    b - b // 2 + j on -xi_j, and with b odd column b // 2 on a normal of
    its own, so each step draws b - b // 2 normals.
    """
    times = sorted(float(t) for t in times)
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    n_steps = int(round(times[-1] / dt))
    if n_steps < 1:
        raise ConfigError(f"t = {times[-1]} is shorter than half a step dt = {dt}")
    step = times[-1] / n_steps
    at = _checkpoint_steps(times, step, n_steps)
    noise = params.sigma_e * math.sqrt(step)
    drift = params.alpha * step
    weight = scale * 0.5 * step

    def worker(g, b: int):
        s = np.zeros(b)
        acc = np.zeros(b)
        prev = np.ones(b)
        h = b // 2 if paired else 0
        out = {}
        if 0 in at:
            out[at[0]] = reduce(at[0], acc, s)
        for k in range(1, n_steps + 1):
            xi = g.standard_normal(b - h)
            s += drift + noise * (np.concatenate((xi, -xi[:h])) if h else xi)
            cur = np.exp(-s)
            acc += weight * (prev + cur)
            prev = cur
            if k in at:
                out[at[k]] = reduce(at[k], acc, s)
        return out

    return _run_batches(worker, n, seed, threads)


def _sums(q: NDArray[np.float64], paired: bool = False) -> tuple:
    """A batch's sums of q for _mean_se: (sum, sum of squares), and when
    paired also its number of pair sums x_j, their sum, their sum of
    squares about their own mean and its number of lone paths (b % 2)."""
    if not paired:
        return float(q.sum()), float((q**2).sum())
    b = q.shape[0]
    h = b // 2
    x = q[:h] + q[b - h :]
    d = x - x.mean() if h else x
    return float(q.sum()), float((q**2).sum()), h, float(x.sum()), float(d @ d), b - 2 * h


def _mean_se(sums: list, n: int, paired: bool = False) -> tuple[float, float]:
    """(mean, std_error) of n values from the batches' _sums.

    Unpaired, se^2 = (E_n[q^2] - p^2) / n. Paired, over the pair sums x_j
    and the m lone paths (one per odd batch),
    se^2 = (sum_j (x_j - 2p)^2 + m (E_n[q^2] - p^2)) / n^2, E_n over all
    n paths; the first sum is taken batch by batch, about each batch's
    mean pair sum and then that mean about 2p.
    """
    mean = sum(s[0] for s in sums) / n
    var = max(sum(s[1] for s in sums) / n - mean**2, 0.0)
    if not paired:
        return mean, math.sqrt(var / n)
    spread = sum(m2 + (x1 - 2.0 * mean * h) ** 2 / h for _, _, h, x1, m2, _ in sums if h)
    lone = sum(s[5] for s in sums)
    if lone:
        spread += lone * var
    return mean, math.sqrt(spread) / n


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
    antithetic: bool = False,
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
    the untilted one and only the variance changes. The only
    approximation is the trapezoid rule for I_t.

    antithetic = True runs the environments in antithetic pairs (see
    _environment_batches), each member weighted by its own likelihood
    ratio under a tilt; the se comes from the pair sums, plus each odd
    batch's lone path (_mean_se). n must be at least 2, or 4 with pairs.
    """
    _require_se_sample(n, 4 if antithetic else 2)
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
            return _sums(np.full(i_t.shape, float((z > 0) == survival)), antithetic)
        q = -np.expm1(-z / i_t) if survival else np.exp(-z / i_t)
        q *= np.exp(log_mgf * t - theta * s_t)
        return _sums(q, antithetic)

    stepped = replace(params, alpha=params.alpha + theta * params.sigma_e**2)
    parts = _environment_batches(
        stepped, checkpoints, dt, n, seed, threads, params.sigma_b**2 / 2.0, reduce, antithetic
    )
    return {t: _mean_se([p[t] for p in parts], n, antithetic) for t in parts[0]}


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
    The environments always run in antithetic pairs (see
    _environment_batches); the se comes from the pair sums, plus each odd
    batch's lone path (_mean_se). n must be at least 4.
    """
    _require_se_sample(n, 4)
    if params.sigma_b <= 0:
        raise ValueError("the quenched transform needs sigma_b > 0")
    z = params.z0
    lambdas = [float(l) for l in lambdas]
    if any(l < 0 for l in lambdas):
        raise ValueError("lambda must be nonnegative")

    def reduce(_, i_t, s_t):
        return {
            lam: _sums(np.ones(i_t.shape) if lam == 0.0 else np.exp(-z / (i_t + 1.0 / lam)), True)
            for lam in lambdas
        }

    parts = _environment_batches(
        params, [t], dt, n, seed, threads, params.sigma_b**2 / 2.0, reduce, True
    )
    return {lam: _mean_se([p[float(t)][lam] for p in parts], n, True) for lam in lambdas}
