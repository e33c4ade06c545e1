"""Time-discretized simulation of the population/environment system.

Four SDE variants are simulated on a uniform grid: the unconditioned
two-dimensional system, its extinction- and survival-conditioned tilts,
and the one-dimensional quenched forms where the environment equation has
been substituted into the population equation. A discrete-generation
branching process with random geometric offspring provides the
pre-limit bridge. Its offspring law is linear-fractional, so the law of
many generations given the environment is again linear-fractional, with
parameters in the partial sums of the log-means (Kersting & Vatutin,
2017): `simulate_discrete_bpre` steps one generation at a time, while
`bridge_extinction_frequency` draws each n_scale // 10 generations as one
exact binomial/negative-binomial jump, at n_scale = 1000 and 4,000
replications 0.4 s of CPU instead of 2.2-2.5 s with one
negative-binomial call per generation (2-core Xeon, Python 3.11,
numpy 2.4).

Two API layers coexist. The `simulate_*` operations produce a single
`Path` from an explicit `RngStream` and are bit-reproducible. The
`ensemble_*` kernels vectorize over fixed-size batches (one stream per
batch index) and exist because Monte Carlo work at n = 10^5..10^6 paths
is hopeless one path at a time; they are equally reproducible and their
reduction order is fixed, so thread counts never change results.

All variants share the structural update

    dZ = drift_z dt + Z dS + sigma_b sqrt(Z) dW_b
    dS = drift_s dt + sigma_e dW_e

with one environment increment per step used in both coordinates. When
sigma_b = 0 the population equation is reducible (d log Z = dS exactly)
and the engine uses the exact multiplicative update, so Z_t e^{-S_t}
stays constant on the grid to machine precision.

Every kernel of (Z, S) advances its paths with one full-truncation Euler
step, bound once per call by `_stepper`: a negative population proposal
is clamped to 0, except in the survival-conditioned variants, which retry
it as two half steps with fresh noise. Binding checks the kind's
preconditions once, by its model function at z0, and the step runs the
model's drift formula unchecked wherever sigma_b^2 > 0. The ensembles
bind it on numpy arrays in one loop, `_ensemble`, which also steps the
coarse twins of `coupled_refinement_means`, clamped and absorbed as
their fine paths are.
The `simulate_*` loops bind it once per path on Python floats, because one
path at a time pays numpy's per-call cost on every operation, and feed it
the increments sqrt(dt) * normal that the ensembles form, so a path steps
to the bits of a one-element vector on the same normals (with sigma_b = 0,
math.exp may differ from numpy's in the last bit).

`absorbed_fraction` reads Z alone, so it runs the Z-marginal of the
unconditioned step, `_z_chain_step`, one normal per step, not two, with
one Russian-roulette rung below its escape level. Its paths run in
antithetic pairs, one member on xi and its twin on -xi, so a pair draws
one normal per step. The pairs are stratified on the size of one linear
functional of member 0's normals, L = sum_i a_i xi_i with a_i =
exp(-lambda t_i) and lambda = (alpha + sigma_e^2 / 2) / 2, over the
window where a_i >= 0.01 (flat over the horizon when lambda <= 0): two
pairs per stratum of equal probability, the normals drawn exactly given
L, and the se from the differences of the two pair sums in each stratum.
It steps its live paths in blocks of up to 64 steps, eight in-place
array operations each, and looks for events only at block ends. On the
benchmark's call (4,000 paths, dt 1e-3, horizon 30, single-threaded on a
shared 2-core Xeon, numpy 2.4; 12 seeds a side, alternating processes)
the stratified pairs take a median 0.261 s of CPU against 0.260 s for
unstratified pairs, at 0.29 times their median se^2. In verify's call
(1e5 paths) the se is 0.00072 against 0.00116, and 29 % of its se^2 is
the roulette's four weight-20 absorptions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtri

from .errors import ConfigError, NumericalFailure
from .model import (
    ModelParams,
    QuenchedVariant,
    _extinction_drift,
    _survival_coefficient,
    _survival_drift,
    drift_conditioned_extinction,
    drift_conditioned_survival,
    extinction_probability,
    quenched_drift_coefficient,
    scale_U,
    scale_V,
)
from .rng import RngStream, _require_se_sample, _run_batches

__all__ = [
    "SchemeConfig",
    "Path",
    "simulate_bdre",
    "simulate_conditioned_extinction",
    "simulate_conditioned_survival",
    "simulate_quenched",
    "simulate_discrete_bpre",
    "path_functionals",
    "ensemble_final_states",
    "ensemble_quenched_final",
    "ensemble_functional_means",
    "coupled_refinement_means",
    "absorbed_fraction",
    "bridge_extinction_frequency",
]

MAX_HALVINGS = 20


@dataclass(frozen=True)
class SchemeConfig:
    dt: float
    horizon: float
    absorption_threshold: float = 0.0
    store_stride: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if self.dt > self.horizon:
            raise ValueError("dt must not exceed horizon")
        if not self.absorption_threshold >= 0:
            raise ValueError("absorption_threshold must be nonnegative")
        if self.store_stride < 1:
            raise ValueError("store_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))


@dataclass
class Path:
    """One realization on the grid, with absorption metadata."""

    times: NDArray[np.float64]
    z_values: NDArray[np.float64]
    s_values: NDArray[np.float64]
    absorbed_at: Optional[float]
    model_tag: str


class _Variant(enum.Enum):
    BDRE = "bdre"
    COND_EXTINCTION = "cond-extinction"
    COND_SURVIVAL = "cond-survival"


# Variants whose proposals at or below 0 are retried rather than clamped.
_GUARDED = (_Variant.COND_SURVIVAL, QuenchedVariant.COND_SURVIVAL)


def _drifts(kind, params: ModelParams):
    """The drift of a step kind as a function of the state: z -> (drift_z, drift_s).

    z is a state vector or a float. For the quenched kinds drift_z is the
    coefficient c(z) of c(z) Z dt and drift_s the drift of the environment
    the variant carries. A conditioned kind's preconditions are checked
    here, once, by its model function at z0. Where sigma_b^2 > 0 the drift
    is the model's formula, bound unchecked; at sigma_b^2 = 0 it is the
    checking model function, which at sigma_b = 0 refuses a state that
    underflowed to 0.
    """
    if kind is _Variant.BDRE:
        half_se2, alpha = 0.5 * params.sigma_e**2, params.alpha
        return lambda z: (half_se2 * z, alpha)
    bare = params.sigma_b**2 > 0
    if type(kind) is QuenchedVariant:
        env = -params.alpha if kind is QuenchedVariant.COND_EXTINCTION else params.alpha
        c = quenched_drift_coefficient(kind, params.z0, params)
        if kind not in _GUARDED:
            return lambda z: (c, env)  # c depends on z only under survival conditioning
        coefficient = (_survival_coefficient(params) if bare
                       else partial(quenched_drift_coefficient, kind, params=params))
        return lambda z: (coefficient(z), env)
    public, formula = ((drift_conditioned_survival, _survival_drift) if kind in _GUARDED
                       else (drift_conditioned_extinction, _extinction_drift))
    public(params.z0, params)
    return formula(params) if bare else partial(public, params=params)


def _stepper(kind, params: ModelParams, xp):
    """The Euler step of a kind, bound once: step(Z, dt, dwe, dwb) -> (prop, ds).

    kind is a _Variant or a QuenchedVariant; xp is np for a path vector Z
    or math for one path's float. dwe and dwb are Brownian increments and
    ds is the environment increment the step used. A sigma_b = 0
    population takes the exact multiplicative update. The proposal is raw:
    callers clamp it at 0, or retry it where it is not positive for the
    survival-conditioned kinds (_guarded_step).
    """
    drift = _drifts(kind, params)
    se, sb = params.sigma_e, params.sigma_b
    sqrt, exp = xp.sqrt, xp.exp
    if type(kind) is QuenchedVariant:
        if sb == 0:
            half_se2 = 0.5 * se**2

            def step(Z, dt, dwe, dwb):
                dz, d_s = drift(Z)
                return Z * exp((dz - half_se2) * dt + se * dwe), d_s * dt + se * dwe

        else:

            def step(Z, dt, dwe, dwb):
                dz, d_s = drift(Z)
                prop = Z + dz * Z * dt + se * Z * dwe + sb * sqrt(Z) * dwb
                return prop, d_s * dt + se * dwe

    elif sb == 0:

        def step(Z, dt, dwe, dwb):
            dz, d_s = drift(Z)
            ds = d_s * dt + se * dwe
            return Z * exp(ds), ds

    else:

        def step(Z, dt, dwe, dwb):
            dz, d_s = drift(Z)
            ds = d_s * dt + se * dwe
            return Z + dz * dt + Z * ds + sb * sqrt(Z) * dwb, ds

    return step


def _guarded_step(step, Z, S, dt: float, dwe, dwb, g, depth: int = 0):
    """A bound array step of a survival-conditioned kind with rejection; returns (Z, S).

    Paths whose proposal is at or below 0 take the step as two half steps
    instead (_halve). Z stays positive and S adds the increments of the
    steps actually taken.
    """
    prop, ds = step(Z, dt, dwe, dwb)
    S_next = S + ds
    bad = np.flatnonzero(prop <= 0)
    if bad.size:
        prop[bad], S_next[bad] = _halve(step, Z[bad], S[bad], dt, g, depth + 1)
    return prop, S_next


def _halve(step, Z, S, dt: float, g, depth: int):
    """Two guarded half steps with fresh noise in place of a rejected step.

    A proposal at or below 0 is rejected, not clamped, because the true
    process never reaches 0 and clamping would fabricate an atom there.
    Gives up after MAX_HALVINGS levels. Each half step draws the
    environment noise of all its paths, then their branching noise, so a
    path retried alone draws in the order of a one-path recursion.
    """
    if depth > MAX_HALVINGS:
        raise NumericalFailure(
            f"step-halving exhausted after {MAX_HALVINGS} levels at z={Z.min():.3e}"
        )
    half = dt / 2.0
    sq = math.sqrt(half)
    for _ in range(2):
        dwe = sq * g.standard_normal(Z.size)
        dwb = sq * g.standard_normal(Z.size)
        Z, S = _guarded_step(step, Z, S, half, dwe, dwb, g, depth)
    return Z, S


def _simulate(kind, params: ModelParams, cfg: SchemeConfig, rng: RngStream) -> Path:
    """One path of any step kind: recording, absorption and guard.

    The path steps Python floats through the math binding of _stepper, on
    increments sqrt(dt) * normal rounded as the ensembles round theirs. An
    absorbed path keeps stepping at Z = 0, where the step leaves Z at 0
    and S moves with the environment alone.
    """
    n_steps = cfg.n_steps
    dt = cfg.horizon / n_steps
    step = _stepper(kind, params, math)
    g = rng.generator()
    dwe_all, dwb_all = (g.standard_normal((n_steps, 2)) * math.sqrt(dt)).T.tolist()
    guarded = kind in _GUARDED
    retry = _stepper(kind, params, np) if guarded else None
    absorbing = params.sigma_b > 0 and not guarded
    threshold = cfg.absorption_threshold

    z = params.z0
    s = 0.0
    absorbed_at: Optional[float] = None
    zs = [z]
    ss = [s]
    for dwe, dwb in zip(dwe_all, dwb_all):
        prop, ds = step(z, dt, dwe, dwb)
        if guarded and prop <= 0:
            # standard_normal(1) draws what standard_normal() would
            zv, sv = _halve(retry, np.array([z]), np.array([s]), dt, g, 1)
            z, s = float(zv[0]), float(sv[0])
        else:
            # full truncation; a guarded proposal that gets here is positive
            z = 0.0 if prop < 0.0 else prop
            s += ds
        if absorbing and absorbed_at is None and z <= threshold:
            z = 0.0
            absorbed_at = len(zs) * dt  # len(zs) is this step's index on the grid
        zs.append(z)
        ss.append(s)
    # every store_stride-th grid point, and the last
    kept = np.arange(0, n_steps + 1, cfg.store_stride)
    if kept[-1] != n_steps:
        kept = np.append(kept, n_steps)
    return Path(
        times=kept * dt,
        z_values=np.asarray(zs)[kept],
        s_values=np.asarray(ss)[kept],
        absorbed_at=absorbed_at,
        model_tag=kind.value if isinstance(kind, _Variant) else f"quenched-{kind.value}",
    )


def simulate_bdre(params: ModelParams, cfg: SchemeConfig, rng: RngStream) -> Path:
    """One path of the unconditioned two-dimensional system."""
    return _simulate(_Variant.BDRE, params, cfg, rng)


def simulate_conditioned_extinction(
    params: ModelParams, cfg: SchemeConfig, rng: RngStream
) -> Path:
    """One path of the extinction-conditioned two-dimensional diffusion."""
    return _simulate(_Variant.COND_EXTINCTION, params, cfg, rng)


def simulate_conditioned_survival(
    params: ModelParams, cfg: SchemeConfig, rng: RngStream
) -> Path:
    """One path of the survival-conditioned diffusion; never absorbed."""
    return _simulate(_Variant.COND_SURVIVAL, params, cfg, rng)


def simulate_quenched(
    params: ModelParams,
    cfg: SchemeConfig,
    rng: RngStream,
    variant: QuenchedVariant = QuenchedVariant.UNCONDITIONED,
) -> Path:
    """One path of the one-dimensional environment-substituted SDE.

    dZ = c(Z) Z dt + sigma_e Z dW_e + sigma_b sqrt(Z) dW_b with the
    variant's drift coefficient c. s_values carry the driving environment
    consistent with the variant where one exists (drift +alpha
    unconditioned, -alpha under extinction conditioning); for the
    survival-conditioned variant they carry the raw +alpha environment,
    since that variant has no autonomous environment representation.
    """
    return _simulate(variant, params, cfg, rng)


def simulate_discrete_bpre(
    n_scale: int,
    params: ModelParams,
    horizon: float,
    rng: RngStream,
) -> Path:
    """One rescaled path of the discrete-generation pre-limit process.

    Offspring are geometric on {0, 1, 2, ...} with a random mean e^theta,
    theta ~ Normal(alpha/n, sigma_e^2/n) drawn fresh each generation, so a
    generation update is a single negative-binomial draw. The offspring
    variance at criticality is m(1 + m) ~= 2, which fixes the branching
    parameter of the continuum limit near sqrt(2) regardless of
    params.sigma_b; params.sigma_b is ignored here.

    Returns the rescaled pair (Z_gen / n, sum of log-means) on the time
    grid gen / n at every max(1, n // 10)-th generation. Under this
    convention E[Z_gen | env] = z0 n e^{S} holds exactly for every generation.
    """
    if n_scale < 1:
        raise ValueError("n_scale must be >= 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    g = rng.generator()
    n_gens = int(round(horizon * n_scale))
    stride = max(1, n_scale // 10)
    mu = params.alpha / n_scale
    sd = params.sigma_e / math.sqrt(n_scale)

    z_pop = int(round(params.z0 * n_scale))
    s = 0.0
    absorbed_at: Optional[float] = None
    keep = [0.0]
    zs = [z_pop / n_scale]
    ss = [0.0]
    for k in range(n_gens):
        theta = mu + sd * g.standard_normal()
        s += theta
        if z_pop > 0:
            m = math.exp(theta)
            z_pop = int(g.negative_binomial(z_pop, 1.0 / (1.0 + m)))
            if z_pop == 0 and absorbed_at is None:
                absorbed_at = (k + 1) / n_scale
        if (k + 1) % stride == 0 or k + 1 == n_gens:
            keep.append((k + 1) / n_scale)
            zs.append(z_pop / n_scale)
            ss.append(s)
    return Path(
        times=np.asarray(keep),
        z_values=np.asarray(zs),
        s_values=np.asarray(ss),
        absorbed_at=absorbed_at,
        model_tag=f"bpre-n{n_scale}",
    )


def _functionals(Z, S, params: ModelParams) -> dict:
    """The three tracked functionals U(Z), V(S) and Z e^{-S}, by name."""
    return {
        "U_of_Z": scale_U(Z, params),
        "V_of_S": scale_V(S, params),
        "Z_over_expS": Z * np.exp(-S),
    }


def path_functionals(path: Path, params: ModelParams) -> dict:
    """Pointwise U(Z_t), V(S_t), Z_t e^{-S_t} along a path. No aggregation."""
    return _functionals(path.z_values, path.s_values, params)


# ---------------------------------------------------------------------------
# ensemble kernels


def _checkpoint_steps(checkpoints: Sequence[float], dt: float, n_steps: int) -> dict:
    """{step index: time} for checkpoints on the grid k dt, 0 <= k <= n_steps;
    ConfigError for no checkpoint and for one that is not a finite time >= 0."""
    times = [float(t) for t in checkpoints]
    if not times or not all(0.0 <= t < math.inf for t in times):
        raise ConfigError(f"checkpoint times must be one or more finite times >= 0, got {times}")
    table = {}
    for t in times:
        k = int(round(t / dt))
        if k > n_steps or abs(k * dt - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"checkpoint {t} not on the grid")
        table[k] = t
    return table


def _ensemble(kind, params, cfg, checkpoints, n, seed, threads, coarse=False) -> dict:
    """{checkpoint: (Z, S)} over n paths of a step kind, in batch order.

    With coarse, each path of an unguarded kind has a twin that steps 2 dt on
    its path's two fine increments summed, clamped and absorbed alike; a
    checkpoint then holds (Z, S, Z_twin, S_twin) and sits on the twin's grid.
    """
    n_steps = cfg.n_steps
    dt = cfg.horizon / n_steps
    sqdt = math.sqrt(dt)
    span = 2 if coarse else 1
    cps = _checkpoint_steps(checkpoints, span * dt, n_steps // span)
    cps = {span * k: t for k, t in cps.items()}
    step = _stepper(kind, params, np)
    guarded = kind in _GUARDED
    threshold = cfg.absorption_threshold
    absorbing = threshold > 0 and params.sigma_b > 0

    def advance(Z, S, h, dwe, dwb):
        prop, ds = step(Z, h, dwe, dwb)
        Z = np.maximum(prop, 0.0)
        if absorbing:
            Z[Z <= threshold] = 0.0
        return Z, S + ds

    def worker(g, b: int):
        # every step binds new arrays, so a checkpoint keeps them uncopied
        Z = np.full(b, float(params.z0))
        S = np.zeros(b)
        twin = (Z, S) if coarse else ()
        out = {}
        if 0 in cps:
            out[cps[0]] = (Z, S) + twin
        for k in range(1, n_steps + 1):
            dwe = sqdt * g.standard_normal(b)
            dwb = sqdt * g.standard_normal(b)
            if guarded:
                Z, S = _guarded_step(step, Z, S, dt, dwe, dwb, g)
            else:
                Z, S = advance(Z, S, dt, dwe, dwb)
            if coarse:
                if k % 2:
                    held = dwe, dwb
                else:
                    twin = advance(*twin, 2.0 * dt, held[0] + dwe, held[1] + dwb)
            if k in cps:
                out[cps[k]] = (Z, S) + twin
        return out

    parts = _run_batches(worker, n, seed, threads)
    return {t: tuple(map(np.concatenate, zip(*(p[t] for p in parts)))) for t in cps.values()}


def ensemble_final_states(
    variant: str,
    params: ModelParams,
    cfg: SchemeConfig,
    checkpoints: Sequence[float],
    n: int,
    seed: int,
    threads: int = 1,
) -> dict:
    """Vectorized ensemble of the two-dimensional system.

    variant is one of 'bdre', 'cond-extinction', 'cond-survival'. Returns
    {checkpoint: (Z, S)} with arrays of length n in batch order. Absorbed
    paths carry Z = 0 and keep evolving in S. The survival-conditioned
    variant retries its rare nonpositive proposals as guarded half steps.
    """
    return _ensemble(_Variant(variant), params, cfg, checkpoints, n, seed, threads)


def ensemble_quenched_final(
    variant: QuenchedVariant,
    params: ModelParams,
    cfg: SchemeConfig,
    checkpoints: Sequence[float],
    n: int,
    seed: int,
    threads: int = 1,
) -> dict:
    """Vectorized ensemble of the one-dimensional quenched SDE: {t: Z}."""
    states = _ensemble(variant, params, cfg, checkpoints, n, seed, threads)
    return {t: z for t, (z, _) in states.items()}


def ensemble_functional_means(
    params: ModelParams,
    cfg: SchemeConfig,
    checkpoints: Sequence[float],
    n: int,
    seed: int,
    threads: int = 1,
) -> dict:
    """Ensemble means and standard errors of the three tracked functionals.

    Returns {checkpoint: {name: (mean, std_error)}} for U(Z), V(S) and
    Z e^{-S} over n unconditioned paths; n must be at least 2.
    """
    _require_se_sample(n)
    states = ensemble_final_states("bdre", params, cfg, checkpoints, n, seed, threads)
    return {
        t: {name: _mean_se(v) for name, v in _functionals(Z, S, params).items()}
        for t, (Z, S) in states.items()
    }


def _mean_se(v) -> tuple[float, float]:
    """The mean of a sample and its standard error, sd (ddof 1) / sqrt(size)."""
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def coupled_refinement_means(
    params: ModelParams,
    cfg: SchemeConfig,
    checkpoints: Sequence[float],
    n: int,
    seed: int,
    threads: int = 1,
) -> dict:
    """Functional means at step dt and dt/2 driven by the same noise.

    The fine paths are the ensemble that ensemble_functional_means runs at
    dt/2; each has a coarse twin at dt on the same Brownian increments
    pair-summed, clamped and absorbed alike (_ensemble). The difference of
    means is then a pure discretization comparison, free of the O(n^{-1/2})
    sampling noise of independent reruns. Checkpoints sit on the grid of dt.
    Returns {checkpoint: {name: {'coarse': (mean, se), 'fine': (mean, se),
    'diff': (mean_diff, se_diff)}}} without t = 0; n must be at least 2.
    """
    _require_se_sample(n)
    # horizon / (2 n_steps) is exactly half the coarse step horizon / n_steps
    fine = replace(cfg, dt=cfg.horizon / (2 * cfg.n_steps))
    states = _ensemble(_Variant.BDRE, params, fine, checkpoints, n, seed, threads, coarse=True)
    result = {}
    for t, (Zf, Sf, Zc, Sc) in states.items():
        if t == 0.0:
            continue
        ff = _functionals(Zf, Sf, params)
        result[t] = {
            name: dict(coarse=_mean_se(fc), fine=_mean_se(ff[name]), diff=_mean_se(fc - ff[name]))
            for name, fc in _functionals(Zc, Sc, params).items()
        }
    return result


def _residual_level(residual: float, params: ModelParams, sb2: float) -> float:
    """The least z whose residual extinction probability is at most residual.

    The residual from z is (1 + sigma_e^2 z / sb2)^(-beta), and
    exp(-2 alpha z / sb2) when sigma_e = 0. Infinite where no z gets it
    that low (alpha <= 0) and where the level overflows.
    """
    if params.alpha <= 0:
        return math.inf
    if params.sigma_e == 0:
        return -math.log(residual) * sb2 / (2.0 * params.alpha)
    x = -math.log(residual) / params.beta
    return math.inf if x > 700.0 else sb2 / params.sigma_e**2 * math.expm1(x)


def _escape_level(params: ModelParams) -> float:
    """The population above which absorbed_fraction counts a path as surviving.

    The least level whose residual extinction probability is at most 1e-8,
    (sigma_b^2 / sigma_e^2)(1e8^(1/beta) - 1), but never below 1e4: the
    standard point (beta = 2) keeps 1e4. Infinite, so no path escapes,
    when sigma_e = 0 or beta <= 0.
    """
    if params.sigma_e == 0:
        return math.inf
    return max(1e4, _residual_level(1e-8, params, params.sigma_b**2))


# Russian roulette in absorbed_fraction (Kahn & Harris, 1951). The rung is
# the level from which a path's residual extinction probability is this
# share of the run's own extinction probability, 30.6 at the standard
# point: the paths above it carry little of the absorbed mass, yet most of
# the path-steps.
_ROULETTE_RHO = 1 / 250
# A path at the rung goes on with probability 1/_ROULETTE_WEIGHT and then
# counts at this weight; otherwise it stops and counts as surviving. One
# rung, not a ladder, keeps every weight at most this value.
_ROULETTE_WEIGHT = 20


def _roulette_rung(params: ModelParams, escape: float) -> float:
    """The level at which absorbed_fraction plays Russian roulette.

    The least z whose residual extinction probability is at most
    _ROULETTE_RHO * extinction_probability(z0), so always above z0; escape,
    meaning no rung, where that level is not below the escape level.
    """
    if escape == math.inf:
        return escape
    residual = _ROULETTE_RHO * extinction_probability(params.z0, params)
    return min(escape, _residual_level(residual, params, params.sigma_b**2))


def _z_chain_step(params: ModelParams, dt: float):
    """The unconditioned Euler step of Z alone, bound once: step(Z, dw, tmp).

    Given Z, the noise sigma_e Z dW_e + sigma_b sqrt(Z) dW_b of the
    unconditioned _stepper is exactly N(0, (sigma_e^2 Z^2 + sigma_b^2 Z) dt),
    so Z + c Z dt + sqrt(Z (sigma_e^2 Z + sigma_b^2)) sqrt(dt) xi, with xi
    standard normal and c = alpha + sigma_e^2 / 2, has the same transition
    law from one normal instead of two. step(Z, sqrt(dt) * xi, tmp) writes
    it, unclamped, over Z, with tmp as scratch.
    """
    c1 = 1.0 + quenched_drift_coefficient(QuenchedVariant.UNCONDITIONED, 0.0, params) * dt
    se2, sb2 = params.sigma_e**2, params.sigma_b**2

    def step(Z, dw, tmp):
        np.multiply(Z, se2, out=tmp)
        tmp += sb2
        tmp *= Z
        np.sqrt(tmp, out=tmp)
        tmp *= dw
        Z *= c1
        Z += tmp

    return step


# absorbed_fraction steps its paths in blocks of at most this many steps and
# 2^17 increments (1 MB), looking for events only at block ends
_BLOCK_STEPS, _BLOCK_DOUBLES = 64, 2**17

# absorbed_fraction's stratified direction a_i = exp(-lambda t_i) stops
# before its first weight below this
_WINDOW_FLOOR = 0.01


def _stratum_weights(params: ModelParams, dt: float, n_steps: int) -> NDArray[np.float64]:
    """The weights a_i = exp(-lambda i dt) of absorbed_fraction's stratified direction.

    lambda = (alpha + sigma_e^2 / 2) / 2, half the drift coefficient of Z:
    a pair's fate is set mostly by its early normals, the later ones
    weighing less as the pair's populations grow. The window ends before
    the first a_i below _WINDOW_FLOOR, or at the horizon; where lambda <= 0
    every a_i is 1 over the horizon.
    """
    lam = 0.5 * quenched_drift_coefficient(QuenchedVariant.UNCONDITIONED, 0.0, params)
    if lam <= 0:
        return np.ones(n_steps)
    last = math.log(1.0 / _WINDOW_FLOOR) / (lam * dt)
    return np.exp(-lam * dt * np.arange(n_steps if last >= n_steps else int(last) + 1))


def _window_normals(g, a, tail, i: int, k: int, rest):
    """Normals for steps i to i + k of the window, given sum_{j >= i} a_j xi_j = rest.

    tail[j] is sum_{j' >= j} a_{j'}^2, with tail[len(a)] = 0, and rest holds
    one remainder per column. Given it, the block's normals are Gaussian
    with mean a rest / Q and covariance I - a a^T / Q, Q = tail[i] the
    remaining window's sum of a^2, so they are a rest / Q + M eta from k
    rows of standard normals eta, with M = I - c a a^T and c = 1 / (Q (1 +
    sqrt(tail[i + k] / Q))), the c that makes M^2 that covariance. Their
    share B = sum_{i <= j < i + k} a_j xi_j is s rest / Q + sqrt(tail[i +
    k] / Q) a . eta, s the block's sum of a^2; a block that ends the window
    has B = rest. Returns the (k, columns) normals and B.
    """
    q, after = tail[i], tail[i + k]
    root = math.sqrt(after / q)
    xi = g.standard_normal((k, rest.shape[0]))
    ab = a[i : i + k]
    dot = ab @ xi
    xi += np.outer(ab, rest / q - dot / (q * (1.0 + root)))
    return xi, rest * ((q - after) / q) + root * dot


def absorbed_fraction(
    params: ModelParams,
    cfg: SchemeConfig,
    n: int,
    seed: int,
    threads: int = 1,
) -> tuple[float, float]:
    """Fraction of unconditioned paths absorbed by the horizon, with its se.

    Runs the Euler chain of Z alone (_z_chain_step), whose law is the
    Z-marginal of the two-dimensional Euler step's, so the count has the
    law of counting absorbed two-dimensional paths. The paths run in
    antithetic pairs (Glasserman, 2003, sec. 4.2): member 0 of a pair steps
    on xi and member 1 on -xi, so a pair draws one normal per step while
    both members live. Once one member stops, its twin goes on alone on
    normals of its own; with n odd the last path has no twin.

    The pairs are stratified on |L| (Glasserman, 2003, sec. 4.3), where
    L = sum_i a_i xi_i projects member 0's normals on the decaying weights
    of _stratum_weights. Pair j of a batch of q pairs takes |L| = sd_L
    Phi^-1((1 + (floor(j / 2) + V_j) / H) / 2), V_j uniform, so each of the
    H = floor(q / 2) strata of equal probability holds two pairs; with q
    odd the last pair draws V over (0, 1), unstratified, and the lone path
    draws L ~ N(0, sd_L^2). Member 0 runs given L, member 1 given -L, and
    the window's normals are drawn block by block given what is left of L
    (_window_normals), so a member whose twin stops goes on given its own
    remainder. Member 0 alone, run given L >= 0, is no plain Euler path,
    but a pair's sum has the same law given L as given -L, so its mean is
    that of the unstratified pair whatever the direction: the count stays
    unbiased for the Euler chain, and the closed form places nothing in
    the direction.

    The live paths advance in blocks of up to _BLOCK_STEPS steps (cut where
    the window ends), and
    events are looked for only at block ends, absorption first: a path
    whose proposal fell to the absorption threshold anywhere in the block
    is absorbed. A path above _escape_level, from which the residual
    extinction probability is at most 1e-8, counts as surviving. Below it
    sits one Russian-roulette rung (_roulette_rung), from which the
    residual is 1/250 of the run's own extinction probability. A weight-1
    path found between it and the escape level at a block end draws one
    uniform from its batch's generator: with probability 1/20 it goes on at
    weight 20, meeting only the escape level after that; otherwise it stops
    as a survivor. A block end is a stopping time, so each path plays at
    most once and the count stays unbiased for the Euler chain wherever the
    rung sits: the closed form only places the rung and the escape level,
    and the route stays independent of it.

    p is the absorbed weight over n. The se comes from the pair sums x_j,
    each member's absorbed weight (0, 1 or 20) summed: se^2 = (sum_h
    (x_{2h} - x_{2h+1})^2 + [left-over pair] mean_j (x_j - 2p)^2 + [n odd]
    (E_n[X^2] - p^2)) / n^2, the first sum over the strata, the mean over
    all pairs and E_n over all paths. It is exactly 0 when no path or every
    path is absorbed. n must be at least 3: at n = 2 the one pair's spread
    about 2p is 0 whatever it does.
    """
    _require_se_sample(n, 3)
    if params.sigma_b == 0:
        # d log Z = dS exactly, so no path reaches 0
        return 0.0, 0.0
    n_steps = cfg.n_steps
    dt = cfg.horizon / n_steps
    step, sqdt = _z_chain_step(params, dt), math.sqrt(dt)
    threshold = cfg.absorption_threshold
    escape = _escape_level(params)
    rung = _roulette_rung(params, escape)
    w = _ROULETTE_WEIGHT
    a = _stratum_weights(params, dt, n_steps)
    window = a.shape[0]
    tail = np.append(np.cumsum((a * a)[::-1])[::-1], 0.0)
    sd_l = math.sqrt(tail[0])

    def worker(g, b: int):
        # the live paths in three runs: member 0 of q pairs, member 1 of the
        # same pairs, then the singles; x[j] is pair j's absorbed weight, and
        # x[b // 2] a lone path's; rest is each path's remainder of its L
        pairs = q = b // 2
        h = q // 2
        j = np.arange(q)
        stratified = j < 2 * h
        u = (np.where(stratified, j // 2, 0) + g.random(q)) / np.where(stratified, h, 1)
        level = sd_l * ndtri((1.0 + u) / 2.0)
        rest = np.concatenate((level, -level, sd_l * g.standard_normal(b - 2 * q)))
        Z = np.full(b, float(params.z0))
        weight = np.ones(b, dtype=np.int64)
        slot = np.concatenate((j, np.arange(b - q)))
        x = np.zeros(b - q, dtype=np.int64)
        i = 0
        while i < n_steps and Z.shape[0]:
            m = Z.shape[0]
            k = min(n_steps - i, _BLOCK_STEPS, max(1, _BLOCK_DOUBLES // m))
            if i < window:
                k = min(k, window - i)
                xi, share = _window_normals(
                    g, a, tail, i, k, np.concatenate((rest[:q], rest[2 * q :]))
                )
                rest[:q] -= share[:q]
                rest[q : 2 * q] += share[:q]
                rest[2 * q :] -= share[q:]
            else:
                xi = g.standard_normal((k, m - q))
            i += k
            dw = np.empty((k, m))
            np.multiply(xi[:, :q], sqdt, out=dw[:, :q])
            np.negative(dw[:, :q], out=dw[:, q : 2 * q])
            np.multiply(xi[:, q:], sqdt, out=dw[:, 2 * q :])
            tmp, lowest = np.empty_like(Z), np.full_like(Z, np.inf)
            # no clamp at 0: a path that steps below 0 is absorbed at the
            # block end, and the NaNs that its square root gives after that
            # are skipped by fmin, so its running minimum keeps the value < 0
            with np.errstate(invalid="ignore"):
                for row in dw:
                    step(Z, row, tmp)
                    np.fmin(lowest, Z, out=lowest)
            # absorption first
            absorbed = lowest <= threshold
            np.add.at(x, slot[absorbed], weight[absorbed])
            going = ~absorbed & (Z < escape)
            play = np.flatnonzero(going & (weight == 1) & (Z >= rung))
            won = g.random(play.shape[0]) < 1.0 / w
            going[play[~won]] = False
            weight[play[won]] = w
            # a pair whose twin stopped leaves a single at the end
            both = going[:q] & going[q : 2 * q]
            kept = np.flatnonzero(both)
            order = np.concatenate((
                kept,
                kept + q,
                np.flatnonzero(going[2 * q :]) + 2 * q,
                np.flatnonzero(going[:q] & ~both),
                np.flatnonzero(going[q : 2 * q] & ~both) + q,
            ))
            q = kept.shape[0]
            Z, weight, slot, rest = Z[order], weight[order], slot[order], rest[order]
        d = x[1 : 2 * h : 2] - x[: 2 * h : 2]
        hist = np.bincount(x[:pairs], minlength=2 * w + 1)
        return hist, int(d @ d), pairs % 2, int(x[pairs:].sum())

    return _pair_estimate(_run_batches(worker, n, seed, threads), n)


def _pair_estimate(counts: list, n: int) -> tuple[float, float]:
    """absorbed_fraction's (p, se) from its batches' counts.

    Each batch gives (hist, strata, leftover, lone): hist[v] pairs had
    absorbed weight v, strata is sum_h (x_{2h} - x_{2h+1})^2 over its
    strata, leftover is 1 where it has a pair outside every stratum, and
    lone is the weight of the path without a twin (0 when n is even). A
    pair sum of _ROULETTE_WEIGHT or more holds one weight-20 member per
    _ROULETTE_WEIGHT, so the sum of the squared weights is known too.
    n^4 P se^2, P the number of pairs, is formed in integers, so se^2 has
    one rounding before its square root.
    """
    w = _ROULETTE_WEIGHT
    hist = sum(c[0] for c in counts)
    strata, leftover, lone = (sum(c[i] for c in counts) for i in (1, 2, 3))
    pairs = n // 2
    total = lone + sum(v * int(h) for v, h in enumerate(hist))
    spread = n * n * pairs * strata
    if leftover:
        spread += leftover * sum(int(h) * (v * n - 2 * total) ** 2 for v, h in enumerate(hist))
    if n % 2:
        squares = lone * lone + sum(
            int(h) * ((v // w) * w * w + v % w) for v, h in enumerate(hist)
        )
        spread += pairs * (n * squares - total * total)
    return total / n, math.sqrt(spread / pairs) / (n * n)


def _bridge_jump(g, Z, k: int, mu: float, sd: float):
    """The bridge's populations Z after k generations, in one exact draw.

    Each generation's log-mean is mu + sd * (standard normal); see
    bridge_extinction_frequency for the law.
    """
    n = Z.shape[0]
    S = np.zeros(n)
    B = np.zeros(n)
    for _ in range(k):
        B += np.exp(-S)
        S += mu + sd * g.standard_normal(n)
    A = np.exp(-S)
    total = A + B
    N = g.binomial(Z, 1.0 / total)
    live = N > 0
    N[live] += g.negative_binomial(N[live], A[live] / total[live])
    return N


# The bridge's bound on the residual extinction probability of a capped
# replication: about (1 + 100/2)^(-2), its value at 100 individuals per unit
# mass at the standard point.
_BRIDGE_RESIDUAL = 4e-4
# A thousandth of int64's range: a jump multiplies the mean population by
# e^{S_j}, so one more jump from below this cap cannot overflow.
_BRIDGE_MAX_CAP = 2**53


def _bridge_cap(n_scale: int, params: ModelParams) -> tuple[int, bool]:
    """The bridge's cap in individuals, and whether its residual exceeds the bound.

    The cap is the least mass whose residual extinction probability in the
    limit (sigma_b = sqrt(2)) is at most _BRIDGE_RESIDUAL, times n_scale,
    but never below 100 * n_scale individuals and never above
    _BRIDGE_MAX_CAP; only that ceiling can leave the residual above the
    bound.
    """
    individuals = _residual_level(_BRIDGE_RESIDUAL, params, 2.0) * n_scale
    if individuals > _BRIDGE_MAX_CAP:
        return _BRIDGE_MAX_CAP, True
    return max(100 * n_scale, math.ceil(individuals)), False


def bridge_extinction_frequency(
    n_scale: int,
    params: ModelParams,
    n_reps: int,
    seed: int,
    horizon: float = 30.0,
) -> tuple[float, float]:
    """Extinction frequency of the discrete bridge across replications.

    The replications advance together in exact jumps of
    j = max(1, n_scale // 10) generations, the stride at which
    simulate_discrete_bpre records, the last jump cut to end at the
    horizon. Geometric offspring are linear-fractional, and so is their
    j-generation law given the environment: with S_i the partial sums of
    the jump's log-means (S_0 = 0), A = e^{-S_j} and B = sum_{i<j} e^{-S_i},
    each individual leaves a nonzero line with probability 1/(A + B), and
    that line is geometric on {1, 2, ...} with success probability
    A/(A + B). A jump therefore draws one normal per generation and live
    replication, then N ~ Binomial(Z, 1/(A + B)) and, where N > 0,
    Z' = N + NegativeBinomial(N, A/(A + B)); at j = 1 this is the
    one-generation law NegativeBinomial(Z, 1/(1 + e^theta)).

    Extinction and the cap of _bridge_cap are checked at jump ends. A
    replication at or above the cap before the horizon is counted as
    surviving: its residual extinction probability is at most 4e-4, an
    order below the Monte Carlo standard error at 10^4 replications. Where
    no cap int64 can hold gets the residual that low (small beta, or
    alpha <= 0), a replication that reaches the cap raises
    NumericalFailure rather than bias the frequency low. The se is the
    binomial sqrt(p(1-p)/n_reps),
    exactly 0 when no replication or every replication dies out. When
    z0 * n_scale rounds to no individual, every replication starts extinct.
    As in simulate_discrete_bpre, params.sigma_b is ignored.
    """
    if n_scale < 1 or n_reps < 1:
        raise ValueError("n_scale and n_reps must be >= 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    z_start = int(round(params.z0 * n_scale))
    if z_start == 0:
        return 1.0, 0.0
    g = RngStream(seed, 0).generator()
    mu = params.alpha / n_scale
    sd = params.sigma_e / math.sqrt(n_scale)
    cap, cap_is_short = _bridge_cap(n_scale, params)
    n_gens = int(round(horizon * n_scale))
    stride = max(1, n_scale // 10)
    Z = np.full(n_reps, z_start, dtype=np.int64)
    extinct = 0
    for start in range(0, n_gens, stride):
        if Z.shape[0] == 0:
            break
        Z = _bridge_jump(g, Z, min(stride, n_gens - start), mu, sd)
        dead = Z == 0
        extinct += int(np.count_nonzero(dead))
        capped = Z >= cap
        if cap_is_short and start + stride < n_gens and capped.any():
            raise NumericalFailure(
                f"a bridge replication reached the cap of {cap} individuals at "
                f"alpha={params.alpha:g}, where its residual extinction probability "
                f"exceeds {_BRIDGE_RESIDUAL:g}"
            )
        Z = Z[(~dead) & (~capped)]
    p = extinct / n_reps
    se = math.sqrt(p * (1.0 - p) / n_reps)
    return p, se
