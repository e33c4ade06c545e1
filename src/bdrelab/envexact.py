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
batches of environments in blocks of time steps and hands (I_t, S_t) at
each checkpoint to a reduction of the estimator's choosing. The survival
curve can sample its environments under an exponential tilt,
dQ/dP = e^{theta S_t} / E[e^{theta S_t}], and weight each path by the
exact likelihood ratio dP/dQ (importance sampling; Asmussen & Glynn,
Stochastic Simulation, 2007, ch. VI). The only approximation anywhere
here is the trapezoid rule for I_t on the simulation grid.

The transform always runs, and the survival curve can run, the paired
multilevel route (Giles, Operations Research 56, 2008; _paired_levels).
Level 0 runs the n environments in antithetic pairs (Glasserman, Monte
Carlo Methods in Financial Engineering, 2003, sec. 4.2) on the coarsest
grid that holds every checkpoint, of step at most 0.08. Untilted, both
values are monotone in every normal, so the members of a pair are
negatively correlated (about -0.76 for e^{-z/I_t} and the transform) and
a pair sum varies far less than two independent values; a tilt's weight
makes the product no longer monotone, and there the gain is measured,
not guaranteed. Each correction level l = 1..L reduces, on one S path
per environment, its value at the trapezoid on the grid dt 2^{L-l} minus
its value at the trapezoid on the grid twice as coarse; S_t is exact on
every grid, so a tilt's likelihood ratio is shared by the two. On one
Brownian path the two trapezoids differ by O(h), so a correction varies
about 4x less per level and a few hundred to a few thousand environments
serve it. The levels telescope to the expectation of the trapezoid on
dt, from about a fifth (criterion 5's curves) to a twentieth (criterion
7's transform at n = 1e5) of the path-steps of one level on dt. n counts
level 0's environments; L and each level's N_l follow from the grid and
n (_depth, _level_size), with no option. The Rao-Blackwell extinction
probability and dufresne_samples stay i.i.d. on one level: criterion 8
runs a KS test that needs independent samples of the functional itself,
which a difference of levels is not, and the benchmark checks the RB se
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


def _grid(times: Sequence[float], dt: float) -> tuple:
    """(step, {step index: time}) of the grid.

    The last time T sets the grid: round(T / dt) steps of equal length, at
    least one or ConfigError, and every other time must sit on it.
    """
    times = [float(t) for t in times]
    if not times or not all(0.0 <= t < math.inf for t in times):
        raise ConfigError(f"times must be one or more finite times >= 0, got {times}")
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    last = max(times)
    n_steps = int(round(last / dt))
    if n_steps < 1:
        raise ConfigError(f"t = {last} is shorter than half a step dt = {dt}")
    step = last / n_steps
    return step, _checkpoint_steps(times, step, n_steps)


# Doubles per block of steps of a batch of b environments. sde's 2^17 ran
# the batches of 10,000 environments slower, in one process and over runs
_BLOCK_DOUBLES = 2**15


def _trapezoid(acc, x, weight: float, w):
    """acc + weight (x_0 + x_1) + weight (x_1 + x_2) + ..., x_j the rows of
    x, summed in w, an array of one row fewer."""
    np.add(x[:-1], x[1:], out=w)
    w *= weight
    w[0] += acc
    # numpy sums down axis 0 row by row, but one column pairwise
    return w.sum(axis=0) if w.shape[1] > 1 else w.cumsum(axis=0)[-1]


def _environment_batches(
    params: ModelParams,
    step: float,
    at: dict,
    n: int,
    seed: int,
    threads: int,
    scale: float,
    reduce: Callable,
    paired: bool = False,
    level: int = 0,
) -> list:
    """Per batch of environments, {t: reduce(t, I_t, S_t)} at each time.

    S takes exact Gaussian increments on the grid of step h = step to the
    last index of at ({step index: time}, _grid's), and I_t = scale *
    Int_0^t e^{-S_s} ds the trapezoid rule on that grid: scale =
    sigma_b^2 / 2 for the quenched law, 1 for the Dufresne functional.
    level >= 1 (every index of at even) also carries I_2h, the trapezoid
    on the even nodes of the same path, and calls reduce(t, I_t, I_2h,
    S_t). reduce must not keep or change the arrays.

    Batch i draws from RngStream(seed, i, level) one array of normals, a
    row per step, for each block of steps: at most _BLOCK_DOUBLES, an even
    number of steps at level >= 1, and ending at every index of at. S and
    the trapezoids are summed row by row, the arithmetic of a step at a
    time. paired runs antithetic pairs: column j < b // 2 steps on xi_j and
    column b - b // 2 + j on -xi_j, and with b odd column b // 2 alone, so
    a step draws b - b // 2 normals.
    """
    noise = params.sigma_e * math.sqrt(step)
    drift = params.alpha * step
    weight = scale * 0.5 * step
    even = 2 if level else 1
    ends = sorted(k for k in at if k > 0)

    def worker(g, b: int):
        m = b - b // 2 if paired else b  # columns on normals of their own
        room = max(even, _BLOCK_DOUBLES // b // even * even)
        # rows 0..k of a block, the node before it and its k steps: -S in
        # neg, each the exact negative of S + (drift + noise xi), and e^{-S}
        # in ex; one allocation, as four each call faulted in fresh pages
        normals, neg, ex, w = np.empty((4, room + 1, b))
        neg[0], ex[0] = 0.0, 1.0
        acc = list(np.zeros((even, b)))  # I_t, and I_2h at level >= 1
        out = {}
        if 0 in at:
            out[at[0]] = reduce(at[0], *acc, -neg[0])
        done = 0
        for end in ends:
            while done < end:
                k = min(room, end - done)
                ns, x = neg[: k + 1], ex[: k + 1]
                xi = g.standard_normal(out=normals.ravel()[: k * m].reshape(k, m))
                np.multiply(xi, -noise, out=ns[1:, :m])
                np.negative(ns[1:, : b - m], out=ns[1:, m:])
                ns[1:] -= drift
                for above, row in zip(ns, ns[1:]):
                    row += above
                np.exp(ns[1:], out=x[1:])
                acc[0] = _trapezoid(acc[0], x, weight, w[:k])
                if level:
                    acc[1] = _trapezoid(acc[1], x[::2], 2.0 * weight, w[: k // 2])
                ns[0], x[0] = ns[k], x[k]
                done += k
            out[at[end]] = reduce(at[end], *acc, -neg[0])
        return out

    return _run_batches(worker, n, seed, threads, level)


def _sums(q: NDArray[np.float64], paired: bool = False) -> tuple:
    """A batch's sums of q for _mean_se: (sum, sum of squares), and when
    paired also its number of pair sums x_j, their sum, their sum of
    squares about their own mean and its number of lone paths (b % 2)."""
    if not paired:
        return float(q.sum()), float((q**2).sum())
    h = len(q) // 2
    x = q[:h] + q[len(q) - h :]
    d = x - x.mean() if h else x
    return float(q.sum()), float((q**2).sum()), h, float(x.sum()), float(d @ d), len(q) % 2


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
    spread += sum(s[5] for s in sums) * var  # the lone paths
    return mean, math.sqrt(spread) / n


# The paired route's levels: the coarsest grid's step is the largest dt 2^L
# at most _COARSEST_STEP that holds every checkpoint, and level l >= 1 runs
# max(_LEVEL_LEAST, ceil(_LEVEL_SHARE n 2^{-3(l-1)/2})) environments
_COARSEST_STEP = 0.08
_LEVEL_SHARE = 0.1
_LEVEL_LEAST = 256


def _depth(step: float, at: dict) -> int:
    """The number L of correction levels on a grid of step with checkpoint
    indices at: the largest L with step 2^L <= _COARSEST_STEP and every
    index of at a multiple of 2^L."""
    depth = 0
    while step * 2 ** (depth + 1) <= _COARSEST_STEP * (1 + 1e-9) and all(
        k % 2 ** (depth + 1) == 0 for k in at
    ):
        depth += 1
    return depth


def _level_size(n: int, level: int) -> int:
    """N_l, the environments of correction level l >= 1 for n at level 0.

    Giles' allocation N_l ~ sqrt(V_l / C_l): the correction's variance V_l
    falls about 4x per level and its cost C_l doubles, so N_l falls by
    2^{3/2} per level, from _LEVEL_SHARE n, and never below _LEVEL_LEAST,
    since the corrections are heavy-tailed (kurtosis up to about 150).
    """
    return max(_LEVEL_LEAST, math.ceil(_LEVEL_SHARE * n * 2.0 ** (-1.5 * (level - 1))))


def _paired_levels(
    params: ModelParams,
    times: Sequence[float],
    dt: float,
    n: int,
    seed: int,
    threads: int,
    scale: float,
    values: Callable,
) -> tuple:
    """Multilevel means of values(t, I_t, S_t), a list of arrays, at each time.

    One loop runs the levels on _environment_batches: level 0 runs n
    environments in antithetic pairs on the grid dt 2^L (_depth), level
    l = 1..L runs N_l (_level_size) on dt 2^{L-l}, each reducing values at
    its trapezoid minus values at the one twice as coarse. The levels are
    independent, so se^2 is level 0's paired se^2 plus each level's i.i.d.
    se^2. Returns ({t: [(mean, se) per value]}, finest), finest None when
    L = 0, else (level L's {t: [(mean, se) per value]}, N_L): the
    trapezoid on dt minus the trapezoid on 2 dt.
    """
    step, at = _grid(times, dt)
    depth = _depth(step, at)

    def pairs(t, i_t, s_t):
        return [_sums(v, True) for v in values(t, i_t, s_t)]

    def corrections(t, fine, coarse, s_t):
        return [_sums(f - c) for f, c in zip(values(t, fine, s_t), values(t, coarse, s_t))]

    est = finest = None
    for level in range(depth + 1):
        shift = depth - level
        size = _level_size(n, level) if level else n
        parts = _environment_batches(
            params, step * 2**shift, {k >> shift: t for k, t in at.items()}, size, seed,
            threads, scale, corrections if level else pairs, not level, level,
        )
        diff = {t: [_mean_se(x, size, not level) for x in zip(*(p[t] for p in parts))]
                for t in parts[0]}
        est = diff if est is None else {
            t: [(m + dm, math.hypot(se, dse)) for (m, se), (dm, dse) in zip(est[t], diff[t])]
            for t in est
        }
        finest = (diff, size) if level else None
    return est, finest


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
        params, *_grid([horizon], dt), n, seed, threads, 1.0, lambda t, i_t, s_t: i_t
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
    the untilted one and only the variance changes.

    antithetic = True runs the paired multilevel route (_paired_levels),
    whose mean has the expectation of the trapezoid on dt; under a tilt
    each environment carries its own likelihood ratio. n must be at least
    2, or 4 with pairs.
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

    def values(t, i_t, s_t):
        if t == 0.0:
            # I_0 = 0: survival is certain for z > 0, extinction for z = 0
            return [np.full(i_t.shape, float((z > 0) == survival))]
        q = -np.expm1(-z / i_t) if survival else np.exp(-z / i_t)
        q *= np.exp(log_mgf * t - theta * s_t)
        return [q]

    stepped = replace(params, alpha=params.alpha + theta * params.sigma_e**2)
    scale = params.sigma_b**2 / 2.0
    if antithetic:
        est, _ = _paired_levels(stepped, checkpoints, dt, n, seed, threads, scale, values)
        return {t: v[0] for t, v in est.items()}
    parts = _environment_batches(
        stepped, *_grid(checkpoints, dt), n, seed, threads, scale,
        lambda t, i_t, s_t: _sums(values(t, i_t, s_t)[0]),
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

    Averages exp(-z/(I_t + 1/lambda)) over environments; the branching
    randomness never needs to be simulated. The environments always run
    the paired multilevel route (_paired_levels), n of them in antithetic
    pairs on the coarsest grid, so n must be at least 4. Returns
    {lambda: (mean, se, dt_bias)}: dt_bias is the finest level's
    correction (mean, se, environments), the transform with the
    trapezoid on dt minus the one on 2 dt, or None when t on dt allows
    no level.
    """
    _require_se_sample(n, 4)
    if params.sigma_b <= 0:
        raise ValueError("the quenched transform needs sigma_b > 0")
    z = params.z0
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ConfigError("no lambda given to transform at")
    if any(l < 0 for l in lambdas):
        raise ValueError("lambda must be nonnegative")

    def values(_, i_t, s_t):
        return [np.ones(i_t.shape) if lam == 0.0 else np.exp(-z / (i_t + 1.0 / lam))
                for lam in lambdas]

    est, finest = _paired_levels(
        params, [t], dt, n, seed, threads, params.sigma_b**2 / 2.0, values
    )
    (at_t,) = est.values()
    if finest is None:
        return {lam: (*v, None) for lam, v in zip(lambdas, at_t)}
    diff, size = finest
    (bias,) = diff.values()
    return {lam: (*v, (*b, size)) for lam, v, b in zip(lambdas, at_t, bias)}
