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

Every kernel of (Z, S) advances its paths with one full-truncation Euler step,
`_euler_step`: a negative population proposal is clamped to 0, except in
the survival-conditioned variants, which retry it as two half steps with
fresh noise. The `simulate_*` loops use a scalar twin of the step,
`_path_step`, bound once per path to its kind, parameters and dt, because
one path at a time pays numpy's per-call cost on every operation; the
model's drifts keep the path's Python float a float for it. Per step,
counting each path's stream, draws and arrays (60 paths, dt 0.01, horizon
5, median of five alternating runs on a 2-core Xeon, Python 3.11, numpy
2.4): bdre 0.88 us against 1.74 us with a twin that tested its kind and
built numpy 0-d arrays every step, cond-extinction 2.77 against 12.7,
cond-survival 4.62 against 14.2, quenched 0.94 against 3.13.

`absorbed_fraction` reads Z alone, so it runs the Z-marginal of the
unconditioned step, `_z_chain_step`: given Z, the step's noise
sigma_e Z dW_e + sigma_b sqrt(Z) dW_b is exactly normal with variance
(sigma_e^2 Z^2 + sigma_b^2 Z) dt, so the same Markov chain in Z takes one
normal per step, not two. On the benchmark's call (4,000 paths, dt 1e-3,
horizon 30, single-threaded on a 2-core Xeon, numpy 2.4) that is about
0.9-1.0 s of CPU instead of 1.7-1.9 s. A path escapes, and counts as
surviving, above the level from which its residual extinction
probability is at most 1e-8 (`_escape_level`, 1e4 at the standard point).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import NumericalFailure
from .model import (
    ModelParams,
    QuenchedVariant,
    drift_conditioned_extinction,
    drift_conditioned_survival,
    quenched_drift_coefficient,
    scale_U,
    scale_V,
)
from .rng import RngStream, _run_batches

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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.dt > self.horizon:
            raise ValueError("dt must not exceed horizon")
        if self.absorption_threshold < 0:
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
    the variant carries.
    """
    if kind is _Variant.BDRE:
        half_se2, alpha = 0.5 * params.sigma_e**2, params.alpha
        return lambda z: (half_se2 * z, alpha)
    if type(kind) is QuenchedVariant:
        env = -params.alpha if kind is QuenchedVariant.COND_EXTINCTION else params.alpha
        if kind in _GUARDED:
            return lambda z: (quenched_drift_coefficient(kind, z, params), env)
        # c depends on z only under survival conditioning
        c = quenched_drift_coefficient(kind, 0.0, params)
        return lambda z: (c, env)
    model = drift_conditioned_survival if kind in _GUARDED else drift_conditioned_extinction
    return lambda z: model(z, params)


def _euler_step(kind, params: ModelParams, Z, dt: float, dwe, dwb):
    """One full-truncation Euler step of a path vector; returns (Z, ds).

    kind is a _Variant or a QuenchedVariant, Z is nonnegative and ds is
    the environment increment the step used. A sigma_b = 0 population
    takes the exact multiplicative update. The survival-conditioned kinds
    return the raw proposal, which _guarded_step retries where it is not
    positive.
    """
    dz, d_s = _drifts(kind, params)(Z)
    ds = d_s * dt + params.sigma_e * dwe
    if type(kind) is QuenchedVariant:
        if params.sigma_b == 0:
            return Z * np.exp((dz - 0.5 * params.sigma_e**2) * dt + params.sigma_e * dwe), ds
        prop = Z + dz * Z * dt + params.sigma_e * Z * dwe + params.sigma_b * np.sqrt(Z) * dwb
    else:
        if params.sigma_b == 0:
            return Z * np.exp(ds), ds
        prop = Z + dz * dt + Z * ds + params.sigma_b * np.sqrt(Z) * dwb
    if kind in _GUARDED:
        return prop, ds
    return np.maximum(prop, 0.0), ds


def _guarded_step(kind, params: ModelParams, Z, S, dt: float, dwe, dwb, g, depth: int = 0):
    """_euler_step of a survival-conditioned kind with rejection; returns (Z, S).

    Paths whose proposal is at or below 0 take the step as two half steps
    instead (_halve). Z stays positive and S adds the increments of the
    steps actually taken.
    """
    prop, ds = _euler_step(kind, params, Z, dt, dwe, dwb)
    S_next = S + ds
    bad = np.flatnonzero(prop <= 0)
    if bad.size:
        prop[bad], S_next[bad] = _halve(kind, params, Z[bad], S[bad], dt, g, depth + 1)
    return prop, S_next


def _halve(kind, params: ModelParams, Z, S, dt: float, g, depth: int):
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
        Z, S = _guarded_step(kind, params, Z, S, half, dwe, dwb, g, depth)
    return Z, S


def _path_step(kind, params: ModelParams, dt: float):
    """The Euler step of one path, bound once: step(z, ne, nb) -> (prop, ds).

    The scalar twin of _euler_step for the simulate_* loops, from raw
    normals ne, nb: it returns the raw proposal, which the loop clamps or
    retries. The kind is tested here once per path, not once per step,
    and the constants are hoisted where Python's left-to-right association
    leaves the rounding as it was. Several noise terms round in another
    order than in _euler_step (the coefficient times sqrt(dt) first, then
    the normal); that order fixes the last bits of every recorded path, so
    keep it.
    """
    drift = _drifts(kind, params)
    se, sb = params.sigma_e, params.sigma_b
    sqdt = math.sqrt(dt)
    sqrt, exp = math.sqrt, math.exp
    if type(kind) is QuenchedVariant:
        if sb == 0:
            half_se2 = 0.5 * se**2

            def step(z, ne, nb):
                dz, d_s = drift(z)
                dwe = sqdt * ne
                return z * exp((dz - half_se2) * dt + se * dwe), d_s * dt + se * dwe

        else:

            def step(z, ne, nb):
                dz, d_s = drift(z)
                dwe = sqdt * ne
                prop = z + dz * z * dt + se * z * dwe + sb * sqrt(z) * sqdt * nb
                return prop, d_s * dt + se * dwe

    elif kind in _GUARDED:
        if sb == 0:

            def step(z, ne, nb):
                dz, d_s = drift(z)
                ds = d_s * dt + se * (sqdt * ne)
                return z * exp(ds), ds

        else:

            def step(z, ne, nb):
                dz, d_s = drift(z)
                ds = d_s * dt + se * (sqdt * ne)
                return z + dz * dt + z * ds + sb * sqrt(z) * (sqdt * nb), ds

    else:
        se_sqdt = se * sqdt
        if sb == 0:

            def step(z, ne, nb):
                dz, d_s = drift(z)
                ds = d_s * dt + se_sqdt * ne
                return z * exp(ds), ds

        else:

            def step(z, ne, nb):
                dz, d_s = drift(z)
                ds = d_s * dt + se_sqdt * ne
                return z + dz * dt + z * ds + sb * sqrt(z) * sqdt * nb, ds

    return step


def _simulate(kind, params: ModelParams, cfg: SchemeConfig, rng: RngStream) -> Path:
    """One path of any step kind: recording, absorption and guard.

    An absorbed path keeps stepping at Z = 0, where the step leaves Z at 0
    and S moves with the environment alone.
    """
    n_steps = cfg.n_steps
    dt = cfg.horizon / n_steps
    step = _path_step(kind, params, dt)
    g = rng.generator()
    ne_all, nb_all = g.standard_normal((n_steps, 2)).T.tolist()
    guarded = kind in _GUARDED
    absorbing = params.sigma_b > 0 and not guarded
    threshold = cfg.absorption_threshold

    z = params.z0
    s = 0.0
    absorbed_at: Optional[float] = None
    zs = [z]
    ss = [s]
    for ne, nb in zip(ne_all, nb_all):
        prop, ds = step(z, ne, nb)
        if guarded and prop <= 0:
            # standard_normal(1) draws what standard_normal() would
            zv, sv = _halve(kind, params, np.array([z]), np.array([s]), dt, g, 1)
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
    if params.sigma_b == 0 and params.z0 == 0:
        raise ValueError("need sigma_b + z0 > 0")
    return _simulate(_Variant.BDRE, params, cfg, rng)


def simulate_conditioned_extinction(
    params: ModelParams, cfg: SchemeConfig, rng: RngStream
) -> Path:
    """One path of the extinction-conditioned two-dimensional diffusion."""
    if params.alpha <= 0:
        raise ValueError("extinction conditioning requires alpha > 0")
    if params.sigma_b == 0 and params.z0 == 0:
        raise ValueError("need sigma_b + z0 > 0")
    return _simulate(_Variant.COND_EXTINCTION, params, cfg, rng)


def simulate_conditioned_survival(
    params: ModelParams, cfg: SchemeConfig, rng: RngStream
) -> Path:
    """One path of the survival-conditioned diffusion; never absorbed."""
    if params.alpha <= 0:
        raise ValueError("survival conditioning requires alpha > 0")
    if params.z0 <= 0:
        raise ValueError("survival conditioning requires z0 > 0")
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
    if params.sigma_b == 0 and params.z0 == 0:
        raise ValueError("need sigma_b + z0 > 0")
    if variant is QuenchedVariant.COND_SURVIVAL and params.z0 <= 0:
        raise ValueError("survival conditioning requires z0 > 0")
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
    """{step index: time} for checkpoints on the grid k dt, 0 <= k <= n_steps."""
    table = {}
    for t in checkpoints:
        k = int(round(t / dt))
        if not (0 <= k <= n_steps) or abs(k * dt - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"checkpoint {t} not on the grid")
        table[k] = float(t)
    return table


def _ensemble(kind, params, cfg, checkpoints, n, seed, threads) -> dict:
    """{checkpoint: (Z, S)} over n paths of a step kind, in batch order."""
    n_steps = cfg.n_steps
    dt = cfg.horizon / n_steps
    sqdt = math.sqrt(dt)
    cps = _checkpoint_steps(checkpoints, dt, n_steps)
    guarded = kind in _GUARDED
    threshold = cfg.absorption_threshold
    absorbing = threshold > 0 and params.sigma_b > 0

    def worker(g, b: int):
        Z = np.full(b, float(params.z0))
        S = np.zeros(b)
        out = {}
        if 0 in cps:
            out[cps[0]] = (Z.copy(), S.copy())
        for k in range(1, n_steps + 1):
            dwe = sqdt * g.standard_normal(b)
            dwb = sqdt * g.standard_normal(b)
            if guarded:
                Z, S = _guarded_step(kind, params, Z, S, dt, dwe, dwb, g)
            else:
                Z, ds = _euler_step(kind, params, Z, dt, dwe, dwb)
                if absorbing:
                    Z[Z <= threshold] = 0.0
                S = S + ds
            if k in cps:
                out[cps[k]] = (Z.copy(), S.copy())
        return out

    parts = _run_batches(worker, n, seed, threads)
    return {
        t: (
            np.concatenate([p[t][0] for p in parts]),
            np.concatenate([p[t][1] for p in parts]),
        )
        for t in cps.values()
    }


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
    var = _Variant(variant)
    if var is not _Variant.BDRE and params.alpha <= 0:
        raise ValueError("conditioned variants require alpha > 0")
    return _ensemble(var, params, cfg, checkpoints, n, seed, threads)


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
    if variant is QuenchedVariant.COND_SURVIVAL and params.z0 <= 0:
        raise ValueError("survival conditioning requires z0 > 0")
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
    Z e^{-S} over n unconditioned paths.
    """
    states = ensemble_final_states("bdre", params, cfg, checkpoints, n, seed, threads)
    return {
        t: {
            name: (float(v.mean()), float(v.std(ddof=1) / math.sqrt(n)))
            for name, v in _functionals(Z, S, params).items()
        }
        for t, (Z, S) in states.items()
    }


def coupled_refinement_means(
    params: ModelParams,
    cfg: SchemeConfig,
    checkpoints: Sequence[float],
    n: int,
    seed: int,
    threads: int = 1,
) -> dict:
    """Functional means at step dt and dt/2 driven by the same noise.

    The fine path uses steps of dt/2; the coarse path consumes the same
    Brownian increments pair-summed. Coupling turns the refinement check
    into a pure discretization comparison: the difference of means is free
    of the O(n^{-1/2}) sampling noise that independent reruns would add.
    Returns {checkpoint: {name: {'coarse': (mean, se), 'fine': (mean, se),
    'diff': (mean_diff, se_diff)}}}.
    """
    n_coarse = cfg.n_steps
    dt_c = cfg.horizon / n_coarse
    dt_f = dt_c / 2.0
    sq_f = math.sqrt(dt_f)
    cps = _checkpoint_steps(checkpoints, dt_c, n_coarse)

    def advance(Z, S, z_dt, dwe, dwb):
        Z, ds = _euler_step(_Variant.BDRE, params, Z, z_dt, dwe, dwb)
        return Z, S + ds

    def worker(g, b: int):
        Zf = np.full(b, float(params.z0))
        Sf = np.zeros(b)
        Zc = np.full(b, float(params.z0))
        Sc = np.zeros(b)
        out = {}
        for k in range(1, n_coarse + 1):
            dwe1 = sq_f * g.standard_normal(b)
            dwb1 = sq_f * g.standard_normal(b)
            dwe2 = sq_f * g.standard_normal(b)
            dwb2 = sq_f * g.standard_normal(b)
            Zf, Sf = advance(Zf, Sf, dt_f, dwe1, dwb1)
            Zf, Sf = advance(Zf, Sf, dt_f, dwe2, dwb2)
            Zc, Sc = advance(Zc, Sc, dt_c, dwe1 + dwe2, dwb1 + dwb2)
            if k in cps:
                out[cps[k]] = (Zc.copy(), Sc.copy(), Zf.copy(), Sf.copy())
        return out

    parts = _run_batches(worker, n, seed, threads)
    result = {}
    for t in cps.values():
        if t == 0.0:
            continue
        Zc = np.concatenate([p[t][0] for p in parts])
        Sc = np.concatenate([p[t][1] for p in parts])
        Zf = np.concatenate([p[t][2] for p in parts])
        Sf = np.concatenate([p[t][3] for p in parts])
        fine = _functionals(Zf, Sf, params)
        per = {}
        for name, fc in _functionals(Zc, Sc, params).items():
            ff = fine[name]
            d = fc - ff
            per[name] = {
                "coarse": (float(fc.mean()), float(fc.std(ddof=1) / math.sqrt(n))),
                "fine": (float(ff.mean()), float(ff.std(ddof=1) / math.sqrt(n))),
                "diff": (float(d.mean()), float(d.std(ddof=1) / math.sqrt(n))),
            }
        result[t] = per
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


def _z_chain_step(params: ModelParams, dt: float):
    """The unconditioned Euler step of Z alone, bound once: step(Z, xi) -> proposal.

    Given Z, the noise sigma_e Z dW_e + sigma_b sqrt(Z) dW_b of
    _euler_step(_Variant.BDRE, ...) is exactly N(0, (sigma_e^2 Z^2 + sigma_b^2 Z) dt),
    so Z + c Z dt + sqrt(Z (sigma_e^2 Z + sigma_b^2)) sqrt(dt) xi, with xi
    standard normal and c = alpha + sigma_e^2 / 2, has the same transition
    law from one normal instead of two. The proposal is not clamped.
    """
    cdt = quenched_drift_coefficient(QuenchedVariant.UNCONDITIONED, 0.0, params) * dt
    se2, sb2, sqdt = params.sigma_e**2, params.sigma_b**2, math.sqrt(dt)
    return lambda Z, xi: Z + cdt * Z + np.sqrt(Z * (se2 * Z + sb2)) * (sqdt * xi)


def absorbed_fraction(
    params: ModelParams,
    cfg: SchemeConfig,
    n: int,
    seed: int,
    threads: int = 1,
) -> tuple[float, float]:
    """Fraction of unconditioned paths absorbed by the horizon, with its se.

    Runs the Euler chain of Z alone (_z_chain_step): it reads only Z, and
    its transition law is the Z-marginal of the two-dimensional Euler step,
    so the estimator's law is that of counting absorbed two-dimensional
    paths, at one standard normal per live path and step instead of two.
    A proposal at or below the absorption threshold is absorbed. Tracks
    only the still-active, still-small paths: a path above the escape
    level of _escape_level counts as surviving, its residual extinction
    probability at most 1e-8, far below Monte Carlo resolution. Arrays
    shrink as paths resolve and the batch exits early once none remain.
    The se is the binomial sqrt(p(1-p)/n), exactly 0 when no path or
    every path is absorbed.
    """
    if params.sigma_b == 0:
        return 0.0, 0.0
    n_steps = cfg.n_steps
    step = _z_chain_step(params, cfg.horizon / n_steps)
    threshold = cfg.absorption_threshold
    escape = _escape_level(params)

    def worker(g, b: int):
        Z = np.full(b, float(params.z0))
        absorbed = 0
        for _ in range(n_steps):
            na = Z.shape[0]
            if na == 0:
                break
            prop = step(Z, g.standard_normal(na))
            # the threshold is >= 0, so this is the test on the clamped proposal
            dead = prop <= threshold
            absorbed += int(np.count_nonzero(dead))
            Z = prop[~dead & (prop < escape)]
        return absorbed

    counts = _run_batches(worker, n, seed, threads)
    p = sum(counts) / n
    se = math.sqrt(p * (1.0 - p) / n)
    return p, se


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
