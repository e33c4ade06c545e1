"""Core model: parameters, regimes, scale functions, generator, drifts.

The model is the two-dimensional diffusion (Z, S) with

    dZ = (1/2) sigma_e^2 Z dt + Z dS + sqrt(sigma_b^2 Z) dW_b
    dS = alpha dt + sigma_e dW_e

driven by independent Brownian motions W_e, W_b, started from Z_0 = z0,
S_0 = 0. Z is the population mass and S the environment level. Everything
in this module is a closed-form function of the state and the parameter
quadruple (alpha, sigma_e, sigma_b, z0); no randomness enters here.

Two harmonic functions organize the theory:

    U(z) = (sigma_e^2 z + sigma_b^2)^(-beta)     with beta = 2 alpha / sigma_e^2
    V(s) = exp(-beta s)

Both are annihilated by the generator, which makes U(Z_t), V(S_t)
martingales and yields the extinction probability U(z)/U(0) in closed
form. Conditioning the process on eventual extinction or on survival
tilts the drifts; the tilted coefficients are produced here as
`DriftPair`s in the same structural form the SDE display uses, that is,
the population equation keeps its `Z dS` term and `drift_z` is only the
coefficient of the explicit dt term. The total population drift is
therefore always `drift_z + z * drift_s`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ModelParams",
    "Regime",
    "DriftPair",
    "FunctionBundle",
    "QuenchedVariant",
    "classify_regime",
    "scale_U",
    "scale_V",
    "extinction_probability",
    "rao_blackwell_se_ratio",
    "generator_apply",
    "bundle_U",
    "bundle_V",
    "survival_ratio",
    "drift_conditioned_extinction",
    "drift_conditioned_survival",
    "quenched_drift_coefficient",
]

ArrayLike = Union[float, NDArray[np.float64]]


@dataclass(frozen=True)
class ModelParams:
    """The parameter quadruple (alpha, sigma_e, sigma_b, z0).

    alpha is the environment drift per unit time (the criticality
    parameter), sigma_e the environmental standard deviation, sigma_b the
    branching standard-deviation parameter, and z0 the initial population
    mass. The standing assumption sigma_b + z0 > 0 is enforced; beta is
    recomputed on access, never stored.
    """

    alpha: float
    sigma_e: float
    sigma_b: float
    z0: float

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(v) for v in (self.alpha, self.sigma_e, self.sigma_b, self.z0)
        ):
            raise ValueError("parameters must be finite")
        if self.sigma_e < 0 or self.sigma_b < 0:
            raise ValueError("sigma_e and sigma_b must be nonnegative")
        if self.z0 < 0:
            raise ValueError("z0 must be nonnegative")
        if self.sigma_b + self.z0 <= 0:
            raise ValueError("need sigma_b + z0 > 0")

    @property
    def beta(self) -> float:
        if self.sigma_e == 0:
            raise ValueError("beta undefined for sigma_e = 0")
        return 2.0 * self.alpha / self.sigma_e**2

    def require_supercritical_branching(self) -> None:
        """Check alpha > 0, sigma_e > 0, sigma_b > 0 (the decay-rate setting)."""
        if not (self.alpha > 0 and self.sigma_e > 0 and self.sigma_b > 0):
            raise ValueError(
                "operation requires alpha > 0, sigma_e > 0, sigma_b > 0; "
                f"got alpha={self.alpha}, sigma_e={self.sigma_e}, sigma_b={self.sigma_b}"
            )


class Regime(enum.Enum):
    STRONGLY_SUPERCRITICAL = "StronglySupercritical"
    INTERMEDIATE_SUPERCRITICAL = "IntermediateSupercritical"
    WEAKLY_SUPERCRITICAL = "WeaklySupercritical"
    CRITICAL = "Critical"
    WEAKLY_SUBCRITICAL = "WeaklySubcritical"
    INTERMEDIATE_SUBCRITICAL = "IntermediateSubcritical"
    STRONGLY_SUBCRITICAL = "StronglySubcritical"


class DriftPair(NamedTuple):
    """Structural drift coefficients of a conditioned diffusion.

    drift_z multiplies dt in the population equation alongside the Z dS
    term, drift_s multiplies dt in the environment equation. Fields may be
    scalars or aligned arrays when evaluated on a vector of states.
    """

    drift_z: ArrayLike
    drift_s: ArrayLike


class QuenchedVariant(enum.Enum):
    """Drift selector for the one-dimensional (environment-substituted) SDE."""

    UNCONDITIONED = "unconditioned"
    COND_EXTINCTION = "conditioned-on-extinction"
    COND_SURVIVAL = "conditioned-on-survival"


def classify_regime(params: ModelParams) -> Regime:
    """Classify by comparing alpha against -sigma_e^2, 0, sigma_e^2.

    Boundary cases map to the intermediate labels exactly; comparisons are
    exact floating-point comparisons by design, so callers wanting
    tolerance bands must apply them beforehand.
    """
    if params.sigma_e <= 0:
        raise ValueError("classification requires sigma_e > 0")
    a, s2 = params.alpha, params.sigma_e**2
    if a > s2:
        return Regime.STRONGLY_SUPERCRITICAL
    if a == s2:
        return Regime.INTERMEDIATE_SUPERCRITICAL
    if a > 0:
        return Regime.WEAKLY_SUPERCRITICAL
    if a == 0:
        return Regime.CRITICAL
    if a > -s2:
        return Regime.WEAKLY_SUBCRITICAL
    if a == -s2:
        return Regime.INTERMEDIATE_SUBCRITICAL
    return Regime.STRONGLY_SUBCRITICAL


def _state(z: ArrayLike) -> ArrayLike:
    """A Python float as it is, any other state as a float array.

    The single-path loops of sde call the drifts once per step with a
    float. There np.asarray, np.any and np.ndim cost more than the
    arithmetic (np.ndim(0.7) alone takes 1.8 us on a 2-core Xeon with
    numpy 2.4), while + - * / on floats round exactly as numpy's do, so
    each formula below runs on the float itself. Its transcendentals stay
    numpy's, called on the float: math.log1p differs from np.log1p in the
    last bit at some points. Where a float division by zero raises, the
    formula reruns on a 0-d array and returns numpy's inf or nan.
    """
    return z if type(z) is float else np.asarray(z, dtype=float)


def _scalar(z: ArrayLike) -> bool:
    """Whether a _state stands for one value (a float or a 0-d array)."""
    return type(z) is float or z.ndim == 0


def _any(mask) -> bool:
    """np.any of a comparison on a _state, without numpy for a float's bool."""
    return mask if type(mask) is bool else bool(mask.any())


def _check_state_z(z: ArrayLike) -> None:
    if z < 0 if type(z) is float else np.any(np.asarray(z) < 0):
        raise ValueError("z must be nonnegative")


def scale_U(z: ArrayLike, params: ModelParams) -> ArrayLike:
    """U(z) = (sigma_e^2 z + sigma_b^2)^(-beta); harmonic in the population."""
    if params.sigma_e <= 0:
        raise ValueError("scale_U requires sigma_e > 0")
    _check_state_z(z)
    if params.sigma_b == 0 and np.any(np.asarray(z) == 0):
        raise ValueError("U(0) undefined for sigma_b = 0")
    base = params.sigma_e**2 * np.asarray(z, dtype=float) + params.sigma_b**2
    out = base ** (-params.beta)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def scale_V(s: ArrayLike, params: ModelParams) -> ArrayLike:
    """V(s) = exp(-beta s); harmonic in the environment."""
    if params.sigma_e <= 0:
        raise ValueError("scale_V requires sigma_e > 0")
    out = np.exp(-params.beta * np.asarray(s, dtype=float))
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


def extinction_probability(z: ArrayLike, params: ModelParams) -> ArrayLike:
    """P(Z dies out | Z_0 = z) = U(z)/U(0) = (1 + sigma_e^2 z / sigma_b^2)^(-beta).

    Evaluated as exp(-beta * log1p(.)), which is exact where the direct
    power is and keeps full precision for small z.
    """
    params.require_supercritical_branching()
    _check_state_z(z)
    x = params.sigma_e**2 * np.asarray(z, dtype=float) / params.sigma_b**2
    out = np.exp(-params.beta * np.log1p(x))
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def rao_blackwell_se_ratio(z: float, params: ModelParams) -> float:
    """Infinite-horizon se ratio of pathwise over Rao-Blackwell extinction.

    Given the environment, Z started at z dies out with probability
    q = exp(-2 z / (sigma_b^2 I)), I = Int_0^inf e^{-S_s} ds. By Dufresne's
    identity I has the law of 2 / (sigma_e^2 G) with G ~ Gamma(beta, 1), so
    q = exp(-x G) with x = sigma_e^2 z / sigma_b^2, and the gamma Laplace
    transform gives E[q^k] = (1 + k x)^(-beta) = extinction_probability(k z).
    The pathwise indicator has variance p(1 - p) with p = E[q]; the
    Rao-Blackwell sample q has variance E[q^2] - p^2. At equal sample size
    the ratio is the square root of their quotient: sqrt(27/7) = 1.9640 at
    alpha = sigma_e = sigma_b = z = 1. The ratio always exceeds 1.

    Dividing both variances by p^2 gives the cancellation-free form
    ratio^2 = expm1(beta log1p(x)) / expm1(beta log1p(x^2 / (1 + 2x))).
    """
    params.require_supercritical_branching()
    if z <= 0:
        raise ValueError("the ratio needs z > 0 (both estimators are exact at z = 0)")
    x = params.sigma_e**2 * z / params.sigma_b**2
    b = params.beta
    var_indicator = math.expm1(b * math.log1p(x))
    var_rb = math.expm1(b * math.log1p(x * x / (1.0 + 2.0 * x)))
    return math.sqrt(var_indicator / var_rb)


@dataclass(frozen=True)
class FunctionBundle:
    """A scalar field on (z, s) together with its first and second partials.

    Derivatives are caller-supplied. Each callable takes (z, s) and may be
    numpy-vectorized; `generator_apply` broadcasts whatever the callables
    return.
    """

    f: Callable[[ArrayLike, ArrayLike], ArrayLike]
    f_z: Callable[[ArrayLike, ArrayLike], ArrayLike]
    f_s: Callable[[ArrayLike, ArrayLike], ArrayLike]
    f_zz: Callable[[ArrayLike, ArrayLike], ArrayLike]
    f_ss: Callable[[ArrayLike, ArrayLike], ArrayLike]
    f_zs: Callable[[ArrayLike, ArrayLike], ArrayLike]


def generator_apply(
    bundle: FunctionBundle, z: ArrayLike, s: ArrayLike, params: ModelParams
) -> ArrayLike:
    """Apply the diffusion generator to a twice-differentiable field.

    Gen f = (alpha + sigma_e^2/2) z f_z + alpha f_s
          + (1/2)(sigma_e^2 z^2 + sigma_b^2 z) f_zz
          + (1/2) sigma_e^2 f_ss + sigma_e^2 z f_zs
    """
    _check_state_z(z)
    a, se2, sb2 = params.alpha, params.sigma_e**2, params.sigma_b**2
    z = np.asarray(z, dtype=float)
    s = np.asarray(s, dtype=float)
    out = (
        (a + 0.5 * se2) * z * bundle.f_z(z, s)
        + a * bundle.f_s(z, s)
        + 0.5 * (se2 * z**2 + sb2 * z) * bundle.f_zz(z, s)
        + 0.5 * se2 * bundle.f_ss(z, s)
        + se2 * z * bundle.f_zs(z, s)
    )
    return float(out) if out.ndim == 0 else out


def _zero(z: ArrayLike, s: ArrayLike) -> ArrayLike:
    return np.zeros(np.broadcast(np.asarray(z), np.asarray(s)).shape)


def bundle_U(params: ModelParams) -> FunctionBundle:
    """U with analytic derivatives (depends on z only)."""
    beta, se2, sb2 = params.beta, params.sigma_e**2, params.sigma_b**2

    def f(z, s):
        return (se2 * np.asarray(z, float) + sb2) ** (-beta)

    def f_z(z, s):
        return -beta * se2 * (se2 * np.asarray(z, float) + sb2) ** (-beta - 1.0)

    def f_zz(z, s):
        return beta * (beta + 1.0) * se2**2 * (se2 * np.asarray(z, float) + sb2) ** (
            -beta - 2.0
        )

    return FunctionBundle(f=f, f_z=f_z, f_s=_zero, f_zz=f_zz, f_ss=_zero, f_zs=_zero)


def bundle_V(params: ModelParams) -> FunctionBundle:
    """V with analytic derivatives (depends on s only)."""
    beta = params.beta

    def f(z, s):
        return np.exp(-beta * np.asarray(s, float))

    def f_s(z, s):
        return -beta * np.exp(-beta * np.asarray(s, float))

    def f_ss(z, s):
        return beta**2 * np.exp(-beta * np.asarray(s, float))

    return FunctionBundle(f=f, f_z=_zero, f_s=f_s, f_zz=_zero, f_ss=f_ss, f_zs=_zero)


def survival_ratio(z: ArrayLike, params: ModelParams) -> ArrayLike:
    """The ratio R(z) = U(z) / (U(0) - U(z)), evaluated without cancellation.

    Algebra: R = 1 / (exp(beta * log1p(sigma_e^2 z / sigma_b^2)) - 1),
    computed via expm1 so small z keeps full precision (R ~ sigma_b^2 /
    (beta sigma_e^2 z) there, and the naive difference U(0) - U(z) loses
    every digit). For sigma_b = 0 the ratio is taken as 0: U(0) is infinite
    and survival conditioning is vacuous because extinction cannot occur.
    """
    z = _state(z)
    if params.sigma_b == 0:
        out = 0.0 if type(z) is float else np.zeros_like(z)
    else:
        try:
            g = params.beta * np.log1p(params.sigma_e**2 * z / params.sigma_b**2)
        except ZeroDivisionError:
            # sigma_b^2 underflowed to 0: numpy's inf, as on an array
            return survival_ratio(np.asarray(z), params)
        out = 1.0 / np.expm1(g)
    return float(out) if _scalar(z) else out


def drift_conditioned_extinction(z: ArrayLike, params: ModelParams) -> DriftPair:
    """Structural drift coefficients of the extinction-conditioned diffusion.

    With D = sigma_e^2 z + sigma_b^2:

        drift_z = (sigma_e^2/2 - 2 alpha sigma_b^2 / D) z
        drift_s = alpha - 2 alpha sigma_e^2 z / D

    The identity drift_z + z * drift_s = (sigma_e^2/2 - alpha) z makes the
    population coordinate, on its own, the one-dimensional diffusion with
    criticality -alpha.
    """
    if params.alpha <= 0:
        raise ValueError("extinction conditioning requires alpha > 0")
    if params.sigma_e <= 0:
        raise ValueError("requires sigma_e > 0")
    z = _state(z)
    _check_state_z(z)
    if params.sigma_b == 0 and _any(z == 0):
        raise ValueError("state 0 invalid when sigma_b = 0")
    se2, sb2, a = params.sigma_e**2, params.sigma_b**2, params.alpha
    try:
        D = se2 * z + sb2
        drift_z = (0.5 * se2 - 2.0 * a * sb2 / D) * z
        drift_s = a - 2.0 * a * se2 * z / D
    except ZeroDivisionError:
        # D underflowed to 0: numpy's inf or nan, as on an array
        return drift_conditioned_extinction(np.asarray(z), params)
    if _scalar(z):
        return DriftPair(float(drift_z), float(drift_s))
    return DriftPair(drift_z, drift_s)


def drift_conditioned_survival(z: ArrayLike, params: ModelParams) -> DriftPair:
    """Structural drift coefficients of the survival-conditioned diffusion.

    With D = sigma_e^2 z + sigma_b^2 and R = U(z)/(U(0) - U(z)):

        drift_z = (sigma_e^2/2 + 2 alpha (sigma_b^2 / D) R) z
        drift_s = alpha + 2 alpha (sigma_e^2 z / D) R

    drift_s decreases from alpha + sigma_e^2 (the z -> 0 limit, where
    R ~ sigma_b^2/(beta sigma_e^2 z) cancels the sigma_e^2 z / D prefactor
    and leaves 2 alpha / beta = sigma_e^2) down to alpha as z -> infinity.
    Rejects z = 0: the conditioned process never occupies it and R diverges
    there.
    """
    if params.alpha <= 0:
        raise ValueError("survival conditioning requires alpha > 0")
    if params.sigma_e <= 0:
        raise ValueError("requires sigma_e > 0")
    z = _state(z)
    if _any(z <= 0):
        raise ValueError("survival-conditioned drift needs z > 0")
    se2, sb2, a = params.sigma_e**2, params.sigma_b**2, params.alpha
    R = survival_ratio(z, params)
    try:
        D = se2 * z + sb2
        drift_z = (0.5 * se2 + 2.0 * a * (sb2 / D) * R) * z
        drift_s = a + 2.0 * a * (se2 * z / D) * R
    except ZeroDivisionError:
        # D underflowed to 0: numpy's nan, as on an array
        return drift_conditioned_survival(np.asarray(z), params)
    if _scalar(z):
        return DriftPair(float(drift_z), float(drift_s))
    return DriftPair(drift_z, drift_s)


def quenched_drift_coefficient(
    variant: QuenchedVariant, z: ArrayLike, params: ModelParams
) -> ArrayLike:
    """Drift coefficient c(z) of the one-dimensional SDE dZ = c(z) Z dt + noise.

    These are the environment-substituted forms of the three variants: the
    dS term of the two-dimensional system is replaced by its drift plus
    noise, so the coefficient here is the total population drift per unit
    mass.
    """
    a, se2 = params.alpha, params.sigma_e**2
    if variant is QuenchedVariant.UNCONDITIONED:
        c = a + 0.5 * se2
        return np.full(np.shape(z), c) if np.ndim(z) > 0 else c
    if variant is QuenchedVariant.COND_EXTINCTION:
        if a <= 0:
            raise ValueError("extinction conditioning requires alpha > 0")
        c = 0.5 * se2 - a
        return np.full(np.shape(z), c) if np.ndim(z) > 0 else c
    if variant is QuenchedVariant.COND_SURVIVAL:
        if a <= 0:
            raise ValueError("survival conditioning requires alpha > 0")
        z = _state(z)
        if _any(z <= 0):
            raise ValueError("survival-conditioned drift needs z > 0")
        out = 0.5 * se2 + a + 2.0 * a * survival_ratio(z, params)
        return float(out) if _scalar(z) else out
    raise ValueError(f"unknown variant {variant!r}")
