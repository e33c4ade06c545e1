"""Monte Carlo experiments connecting the simulators to the closed forms.

Each experiment estimates one quantity by at least two genuinely
independent routes (different kernels, different noise, often different
dimensionality) and reports agreement in units of combined standard
error. The estimators never share code with the closed forms they are
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .envexact import environment_laplace, environment_survival_curve
from .model import (
    ModelParams,
    QuenchedVariant,
    Regime,
    classify_regime,
    extinction_probability,
    scale_U,
)
from .rng import _require_se_sample
from .sde import (
    SchemeConfig,
    _mean_se,
    absorbed_fraction,
    ensemble_final_states,
    ensemble_functional_means,
    ensemble_quenched_final,
)
from .specfun import QuadratureConfig, DEFAULT_QUAD, Reading, laplace_Y

__all__ = [
    "MCEstimate",
    "RateFit",
    "ExtinctionMethod",
    "SurvivalRoute",
    "Functional",
    "KSReport",
    "LaplacePoint",
    "estimate_extinction",
    "estimate_conditioned_survival",
    "survival_points",
    "fit_decay_rate_from_points",
    "martingale_test",
    "functional_reference",
    "laplace_limit_test",
    "conditioned_law_equivalence_test",
]

KS_CRITICAL_1PCT = 1.628  # asymptotic two-sample coefficient at the 1% level


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n: int
    method_tag: str

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.n < 1:
            raise ValueError("n must be a positive count")

    @staticmethod
    def from_samples(x: np.ndarray, method_tag: str) -> "MCEstimate":
        x = np.asarray(x, dtype=float)
        _require_se_sample(x.size)
        mean, se = _mean_se(x)
        return MCEstimate(mean=mean, std_error=se, n=x.size, method_tag=method_tag)


@dataclass(frozen=True)
class RateFit:
    exponential_rate: float
    polynomial_power: float
    fit_rmse: float
    t_window: tuple[float, float]

    def __post_init__(self) -> None:
        if self.polynomial_power not in (0.0, -0.5, -1.5):
            raise ValueError("polynomial_power must be one of 0, -1/2, -3/2")
        if self.fit_rmse < 0:
            raise ValueError("fit_rmse must be nonnegative")


class ExtinctionMethod(Enum):
    PATHWISE = "Pathwise"
    RAO_BLACKWELL = "RaoBlackwell"
    CLOSED_FORM = "ClosedForm"


class SurvivalRoute(Enum):
    H_TRANSFORM_SIM = "HTransformSim"
    NEGATED_ALPHA_SIM = "NegatedAlphaSim"
    REWEIGHTING = "Reweighting"


class Functional(Enum):
    U_OF_Z = "U_of_Z"
    V_OF_S = "V_of_S"
    Z_OVER_EXPS = "Z_over_expS"


@dataclass(frozen=True)
class KSReport:
    statistic: float
    p_value: float
    n_x: int
    n_y: int
    critical_1pct: float


@dataclass(frozen=True)
class LaplacePoint:
    """The transform at lam against its reference; dt_bias is the finest
    level's correction (the transform with the trapezoid on dt minus the
    one on 2 dt), None when the grid allows no level."""

    lam: float
    estimate: MCEstimate
    reference: float
    dt_bias: MCEstimate | None = None


def estimate_extinction(
    params: ModelParams,
    method: ExtinctionMethod,
    n: int,
    horizon: float,
    cfg: SchemeConfig,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """Probability of eventual extinction, by one of three routes.

    Pathwise counts paths of the Euler chain of Z absorbed by the horizon
    (sde.absorbed_fraction: one normal per step, with the transition law
    of the two-dimensional Euler step's Z, paths in antithetic pairs
    stratified on a decaying projection of their normals, whose sums give
    the se, and one Russian-roulette rung that keeps the count unbiased);
    RaoBlackwell averages the exact conditional extinction probability
    e^{-z/I_t} over environments, n of them i.i.d. on the coarsest grid
    plus the multilevel corrections down to cfg.dt (see envexact);
    ClosedForm evaluates the scale-function formula and has zero spread.
    """
    if params.sigma_b <= 0:
        raise ValueError("extinction estimation needs sigma_b > 0")
    if method is ExtinctionMethod.CLOSED_FORM:
        if params.alpha <= 0:
            raise ValueError("the closed form applies to the supercritical case")
        return MCEstimate(
            mean=extinction_probability(params.z0, params),
            std_error=0.0,
            n=1,
            method_tag=method.value,
        )
    if params.z0 == 0:
        return MCEstimate(mean=1.0, std_error=0.0, n=n, method_tag=method.value)
    run_cfg = replace(cfg, horizon=horizon)
    if method is ExtinctionMethod.PATHWISE:
        p, se = absorbed_fraction(params, run_cfg, n, seed, threads=threads)
        return MCEstimate(mean=p, std_error=se, n=n, method_tag=method.value)
    curve = environment_survival_curve(
        params, [horizon], n, run_cfg.dt, seed, collect="extinct", threads=threads
    )
    mean, se = curve[horizon]
    return MCEstimate(mean=mean, std_error=se, n=n, method_tag=method.value)


def estimate_conditioned_survival(
    params: ModelParams,
    t: float,
    route: SurvivalRoute,
    n: int,
    cfg: SchemeConfig,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """P(Z_t > 0) for the process conditioned on eventual extinction.

    HTransformSim runs the drift-corrected quenched population SDE and
    counts survivors. NegatedAlphaSim runs the plain quenched SDE with
    alpha negated, which has the same law. Reweighting never conditions:
    it reweights unconditioned paths by the scale function,
    E[U(Z_t) 1{Z_t > 0}]/U(z0). n must be at least 2.
    """
    if params.alpha <= 0:
        raise ValueError("conditioning on extinction requires alpha > 0")
    if t < 0:
        raise ValueError("t must be nonnegative")
    _require_se_sample(n)
    if t == 0:
        return MCEstimate(mean=1.0, std_error=0.0, n=n, method_tag=route.value)
    run_cfg = replace(cfg, horizon=t)
    if route is SurvivalRoute.H_TRANSFORM_SIM:
        z = ensemble_quenched_final(
            QuenchedVariant.COND_EXTINCTION, params, run_cfg, [t], n, seed, threads=threads
        )[t]
        return MCEstimate.from_samples((z > 0).astype(float), route.value)
    if route is SurvivalRoute.NEGATED_ALPHA_SIM:
        neg = replace(params, alpha=-params.alpha)
        z = ensemble_quenched_final(
            QuenchedVariant.UNCONDITIONED, neg, run_cfg, [t], n, seed, threads=threads
        )[t]
        return MCEstimate.from_samples((z > 0).astype(float), route.value)
    states = ensemble_final_states("bdre", params, run_cfg, [t], n, seed, threads=threads)
    z, _ = states[t]
    w = np.where(z > 0, scale_U(np.maximum(z, 0.0), params), 0.0) / scale_U(
        params.z0, params
    )
    return MCEstimate.from_samples(w, route.value)


def survival_points(
    params: ModelParams,
    t_grid: Sequence[float],
    n_per_t: int,
    route: SurvivalRoute,
    seed: int,
    dt: float = 0.01,
    threads: int = 1,
) -> dict:
    """Conditioned-survival estimates {t: (mean, se)} on a time grid.

    For NegatedAlphaSim the survival probability is Rao-Blackwellized over
    the environment: given the negated-drift environment,
    P(survive t | S) = 1 - e^{-z/I_t} exactly, so only environment paths
    are simulated. The environments are sampled under the exponential
    tilt theta = min(alpha / sigma_e^2, 1), with the positive alpha of
    params, and each path is weighted by its exact likelihood ratio (see
    environment_survival_curve). The tilted drift is -alpha + theta
    sigma_e^2: 0 in the weak and intermediate regimes, sigma_e^2 - alpha
    in the strong one. This keeps the relative error of p(t) nearly flat
    in t, so the deep-t tail stays resolvable; the only approximation is
    still the trapezoid rule for I_t on dt. The environments run the
    paired multilevel route (see envexact): n_per_t of them in antithetic
    pairs, one on xi and its twin on -xi, on the coarsest grid of step at
    most 0.08 that holds every t, each weighted by its own likelihood
    ratio, plus the coupled corrections down to dt, each sharing one
    ratio between its two trapezoids. The mean has the expectation of the
    trapezoid on dt; the se comes from the pair sums (plus the lone
    path's share when n_per_t is odd) and the corrections' own spread, so
    n_per_t must be at least 4. NegatedAlphaSim is the only route; any
    other raises ValueError.
    """
    if route is not SurvivalRoute.NEGATED_ALPHA_SIM:
        raise ValueError(f"survival_points supports only NegatedAlphaSim, not {route}")
    if classify_regime(params) not in (
        Regime.WEAKLY_SUPERCRITICAL,
        Regime.INTERMEDIATE_SUPERCRITICAL,
        Regime.STRONGLY_SUPERCRITICAL,
    ):
        raise ValueError("decay-rate experiments require a supercritical regime")
    neg = replace(params, alpha=-params.alpha)
    tilt = min(params.alpha / params.sigma_e**2, 1.0)
    return environment_survival_curve(
        neg, sorted(float(t) for t in t_grid), n_per_t, dt, seed,
        collect="survival", threads=threads, tilt=tilt, antithetic=True,
    )


def fit_decay_rate_from_points(params: ModelParams, points: dict) -> RateFit:
    """Least-squares decay fit of precomputed survival estimates.

    Regresses log p(t) - power * log t on t, where the polynomial power is
    preset by the regime (-3/2 weak, -1/2 intermediate, 0 strong), and
    returns the negated slope. Points with a zero estimate or relative
    standard error above 20% are refused; at least 4 usable points are
    required.
    """
    regime = classify_regime(params)
    power = {
        Regime.WEAKLY_SUPERCRITICAL: -1.5,
        Regime.INTERMEDIATE_SUPERCRITICAL: -0.5,
        Regime.STRONGLY_SUPERCRITICAL: 0.0,
    }.get(regime)
    if power is None:
        raise ValueError("decay-rate fitting requires a supercritical regime")
    usable = []
    for t, (p, se) in sorted(points.items()):
        if t <= 0 or p <= 0.0:
            continue
        if se > 0.2 * p:
            continue
        usable.append((t, p))
    if len(usable) < 4:
        raise ValueError(
            f"only {len(usable)} usable time points (need >= 4): "
            "estimates zero or too noisy"
        )
    ts = np.array([t for t, _ in usable])
    ys = np.log([p for _, p in usable]) - power * np.log(ts)
    design = np.column_stack([ts, np.ones_like(ts)])
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    rmse = float(np.sqrt(np.mean(resid**2)))
    return RateFit(
        exponential_rate=float(-coef[0]),
        polynomial_power=power,
        fit_rmse=rmse,
        t_window=(float(ts[0]), float(ts[-1])),
    )


def functional_reference(functional: Functional, params: ModelParams) -> float:
    """The exact t = 0 value the martingale mean must hold."""
    if functional is Functional.U_OF_Z:
        return float(scale_U(params.z0, params))
    if functional is Functional.V_OF_S:
        return 1.0
    return params.z0


def martingale_test(
    params: ModelParams,
    t_checkpoints: Sequence[float],
    n: int,
    cfg: SchemeConfig,
    seed: int,
    threads: int = 1,
) -> dict[Functional, list[MCEstimate]]:
    """Ensemble means of every conserved functional at several checkpoints.

    One ensemble serves all three functionals; each gets its estimates in
    checkpoint order.
    """
    cps = sorted(float(t) for t in t_checkpoints)
    run_cfg = replace(cfg, horizon=max(cps))
    means = ensemble_functional_means(params, run_cfg, cps, n, seed, threads=threads)
    return {
        f: [MCEstimate(*means[t][f.value], n=n, method_tag=f"{f.value}@t={t:g}") for t in cps]
        for f in Functional
    }


def laplace_limit_test(
    params: ModelParams,
    lambda_grid: Sequence[float],
    t_large: float,
    n: int,
    cfg: SchemeConfig,
    seed: int,
    q: QuadratureConfig = DEFAULT_QUAD,
    threads: int = 1,
) -> list[LaplacePoint]:
    """Empirical transform of Z_t e^{-S_t} against the limit-law quadrature.

    The empirical side is computed exactly over environments (the
    conditional transform integrates out the branching noise) on the
    paired multilevel route (see envexact): n environments in antithetic
    pairs on the coarsest grid of step at most 0.08 that holds t_large,
    plus the coupled corrections down to cfg.dt, so the mean has the
    expectation of the trapezoid on cfg.dt and the se comes from the pair
    sums (plus each odd batch's lone path) and the corrections' own
    spread; n must be at least 4. Each point's dt_bias is the finest
    correction, the transform on cfg.dt minus on 2 cfg.dt, over its own
    environments. The reference side is laplace_Y under the inverse-gamma
    reading. t_large should satisfy alpha * t_large >> 1 for the limit to
    have set in.
    """
    if params.alpha <= 0:
        raise ValueError("the martingale limit requires alpha > 0")
    if t_large <= 0:
        raise ValueError("t_large must be positive")
    lams = [float(l) for l in lambda_grid]
    # the references first: a quadrature budget that cannot converge
    # fails before any environment is simulated
    refs = [laplace_Y(lam, params.z0, params, Reading.INVERSE_GAMMA, q) for lam in lams]
    emp = environment_laplace(params, lams, t_large, n, cfg.dt, seed, threads=threads)
    out = []
    for lam, ref in zip(lams, refs):
        mean, se, bias = emp[lam]
        out.append(
            LaplacePoint(
                lam=lam,
                estimate=MCEstimate(mean=mean, std_error=se, n=n, method_tag=f"lam={lam:g}"),
                reference=ref,
                dt_bias=None if bias is None else MCEstimate(
                    *bias, method_tag=f"dt_bias@lam={lam:g}"),
            )
        )
    return out


def conditioned_law_equivalence_test(
    params: ModelParams,
    t: float,
    n: int,
    cfg: SchemeConfig,
    seed: int,
    negative_control: bool = False,
    threads: int = 1,
) -> KSReport:
    """Two-sample KS: conditioned-on-extinction marginal vs negated-drift law.

    Simulates Z_t under the extinction-conditioned two-dimensional system
    and under the plain system with alpha negated (the law it should
    equal), then compares marginals. With negative_control the
    second sample keeps +alpha, which must be detectably different.

    The conditioned drifts satisfy drift_z + z drift_s = (sigma_e^2/2 -
    alpha) z, the population drift of the -alpha process, and the
    population noise is the same on both sides. So this checks only that
    identity of the Z-marginal generators, which holds for any environment
    law with these coefficients; the two Euler chains even take the same
    one-step law of Z, so a bias of the chain at this dt does not show.
    """
    from scipy.stats import ks_2samp  # here, so that import bdrelab skips scipy.stats

    if params.alpha <= 0:
        raise ValueError("conditioning on extinction requires alpha > 0")
    if n < 1000:
        raise ValueError("KS comparison uses the asymptotic formula; need n >= 1000")
    if t == 0:
        crit = KS_CRITICAL_1PCT * math.sqrt(2.0 / n)
        return KSReport(statistic=0.0, p_value=1.0, n_x=n, n_y=n, critical_1pct=crit)
    run_cfg = replace(cfg, horizon=t)
    x, _ = ensemble_final_states("cond-extinction", params, run_cfg, [t], n, seed, threads=threads)[t]
    other = params if negative_control else replace(params, alpha=-params.alpha)
    y, _ = ensemble_final_states("bdre", other, run_cfg, [t], n, seed + 1, threads=threads)[t]
    stat, p = ks_2samp(x, y)
    crit = KS_CRITICAL_1PCT * math.sqrt((x.size + y.size) / (x.size * y.size))
    return KSReport(
        statistic=float(stat), p_value=float(p), n_x=x.size, n_y=y.size, critical_1pct=crit
    )
