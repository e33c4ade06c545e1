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
reduction of the estimator's choosing. Only the correction levels below
run their twin, _coupled_batches, which steps in time blocks and hands
over two trapezoids of I_t per path. The survival curve can sample its
environments under an exponential tilt, dQ/dP = e^{theta S_t} / E[e^{theta S_t}],
and weight each path by the exact likelihood ratio dP/dQ (importance
sampling; Asmussen & Glynn, Stochastic Simulation, 2007, ch. VI). The
only approximation anywhere here is still the trapezoid rule for I_t on
the simulation grid.

The transform always runs, and the survival curve can run, the paired
multilevel route (Giles, Operations Research 56, 2008). Level 0 runs the
n environments in antithetic pairs (Glasserman, Monte Carlo Methods in
Financial Engineering, 2003, sec. 4.2) on the coarsest grid dt 2^L that
holds every checkpoint, with dt 2^L at most 0.08: in a batch of b
environments the first b // 2 step on xi and the last b // 2 on -xi, and
with b odd the one in between steps alone on normals of its own.
Untilted, both values are monotone in every normal, so the members of a
pair are negatively correlated (about -0.76 for e^{-z/I_t} and the
transform) and a pair sum varies far less than two independent values; a
tilt's weight makes the product no longer monotone, and there the gain
is measured, not guaranteed. Level l = 1..L runs N_l independent
environments on the grid dt 2^{L-l}, each reducing its value at the
trapezoid on that grid minus its value at the trapezoid on the grid
twice as coarse, both on the one S path; S_t is exact on every grid, so a
tilt's likelihood ratio is shared by the two. On one Brownian path the
two trapezoids differ by O(h), so a correction varies about 4x less per
level and a few hundred to a few thousand environments serve it. The
levels telescope: the mean has exactly the expectation of the trapezoid
on dt, the same as one level on dt, from about a fifth (criterion 5's
curves) to a twentieth (criterion 7's transform at n = 1e5) of the
path-steps. n counts level 0's environments; N_l is set from n
(_level_size) and L from the grid (_depth), with no option. se^2 is
level 0's paired se^2, from the spread of the pair sums plus the share
of each odd batch's lone path, plus each correction level's i.i.d.
se^2; each level draws from streams of its own. The Rao-Blackwell
extinction probability and dufresne_samples stay i.i.d. on one level:
criterion 8 runs a KS test that needs independent samples of the
functional itself, which a difference of levels is not, and the
benchmark checks the RB se against the i.i.d. variance.
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
from .sde import _BLOCK_DOUBLES, _checkpoint_steps

__all__ = [
    "environment_survival_curve",
    "environment_laplace",
    "dufresne_samples",
]


def _grid(times: Sequence[float], dt: float) -> tuple:
    """(sorted times, step, number of steps, {step index: time}) of the grid.

    The last time T sets the grid: round(T / dt) steps of equal length, at
    least one or ConfigError, and every other time must sit on it.
    """
    times = sorted(float(t) for t in times)
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    n_steps = int(round(times[-1] / dt))
    if n_steps < 1:
        raise ConfigError(f"t = {times[-1]} is shorter than half a step dt = {dt}")
    step = times[-1] / n_steps
    return times, step, n_steps, _checkpoint_steps(times, step, n_steps)


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

    The grid is _grid's. S takes exact Gaussian increments and
    I_t = scale * Int_0^t e^{-S_s} ds the trapezoid rule; scale =
    sigma_b^2 / 2 gives the I_t of the quenched law, scale = 1 the raw
    Dufresne functional. I_t and S_t are the running arrays, final only at
    T, so reduce must not keep or change them. Batch k draws from
    RngStream(seed, k). paired runs a batch of b in antithetic pairs:
    column j < b // 2 steps on xi_j and column b - b // 2 + j on -xi_j,
    and with b odd column b // 2 on a normal of its own, so each step draws
    b - b // 2 normals.
    """
    times, step, n_steps, at = _grid(times, dt)
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


def _coupled_batches(
    params: ModelParams,
    step: float,
    at: dict,
    n: int,
    seed: int,
    level: int,
    threads: int,
    scale: float,
    reduce: Callable,
) -> list:
    """Per batch of environments, {t: reduce(t, I_h, I_2h, S_t)} at each time.

    Each environment steps S on the grid of step h = step, up to the last
    index of at ({step index: time}, every index even), and reduces two
    trapezoids of I_t on that one path: I_h on every node and I_2h on the
    even ones. The steps run in blocks of an even number of steps and at
    most _BLOCK_DOUBLES normals, each block one draw of a (k, b) array and
    one cumulative sum, ending at every index of at. Batch k draws from
    RngStream(seed, k, level), so no level shares a stream with another.
    """
    noise = params.sigma_e * math.sqrt(step)
    drift = params.alpha * step
    weight = scale * 0.5 * step
    ends = sorted(k for k in at if k > 0)

    def worker(g, b: int):
        s = np.zeros(b)
        fine = np.zeros(b)
        coarse = np.zeros(b)
        prev = np.ones(b)
        room = max(2, _BLOCK_DOUBLES // b // 2 * 2)
        out = {}
        if 0 in at:
            out[at[0]] = reduce(at[0], fine, coarse, s)
        done = 0
        for end in ends:
            while done < end:
                k = min(room, end - done)
                # S over the block, then e^{-S}, in place in one (k, b) array
                e = g.standard_normal((k, b))
                e *= noise
                e += drift
                np.cumsum(e, axis=0, out=e)
                e += s
                s = e[-1].copy()
                np.negative(e, out=e)
                np.exp(e, out=e)
                fine += weight * (prev + e[-1] + 2.0 * e[:-1].sum(axis=0))
                coarse += 2.0 * weight * (prev + e[-1] + 2.0 * e[1:-1:2].sum(axis=0))
                prev = e[-1]
                done += k
            out[at[end]] = reduce(at[end], fine, coarse, s)
        return out

    return _run_batches(worker, n, seed, threads, level)


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

    Level 0 runs n environments in antithetic pairs (_environment_batches)
    on the coarsest grid dt 2^L (_depth); level l = 1..L runs N_l
    environments (_level_size) on the grid dt 2^{L-l}, each reducing
    values at its trapezoid on that grid minus values at its trapezoid on
    the grid twice as coarse (_coupled_batches). The levels telescope, so
    the mean has the expectation of the trapezoid on dt, and the levels
    are independent, so se^2 is level 0's paired se^2 plus each level's
    i.i.d. se^2. Returns ({t: [(mean, se) per value]}, finest), finest
    being None when L = 0, else (level L's {t: [(mean, se) per value]},
    N_L): the trapezoid on dt minus the trapezoid on 2 dt.
    """
    times, step, _, at = _grid(times, dt)
    depth = _depth(step, at)
    parts = _environment_batches(
        params, times, step * 2**depth, n, seed, threads, scale,
        lambda t, i_t, s_t: [_sums(v, True) for v in values(t, i_t, s_t)], True,
    )
    est = {t: [_mean_se(x, n, True) for x in zip(*(p[t] for p in parts))] for t in parts[0]}

    def reduce(t, fine, coarse, s_t):
        return [_sums(f - c) for f, c in zip(values(t, fine, s_t), values(t, coarse, s_t))]

    finest = None
    for level in range(1, depth + 1):
        shift = depth - level
        size = _level_size(n, level)
        parts = _coupled_batches(
            params, step * 2**shift, {k >> shift: t for k, t in at.items()}, size, seed,
            level, threads, scale, reduce,
        )
        diff = {t: [_mean_se(x, size) for x in zip(*(p[t] for p in parts))] for t in parts[0]}
        est = {
            t: [(m + dm, math.hypot(se, dse)) for (m, se), (dm, dse) in zip(est[t], diff[t])]
            for t in est
        }
        finest = diff, size
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

    antithetic = True runs the paired multilevel route (_paired_levels):
    n environments in antithetic pairs on the coarsest grid that holds
    every checkpoint, plus the coupled corrections down to dt, so the mean
    has the expectation of the trapezoid on dt. Under a tilt each
    environment carries its own likelihood ratio, shared by a
    correction's two trapezoids, since S_t is exact on every grid. n must
    be at least 2, or 4 with pairs.
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
        stepped, checkpoints, dt, n, seed, threads, scale,
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
