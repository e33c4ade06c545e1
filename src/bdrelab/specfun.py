"""Special functions and constants behind the decay-rate asymptotics.

Everything here is deterministic quadrature: the survival-kernel density
psi and its first moment, the two-parameter density phi_beta, inverse
moments of the gamma law, the Laplace transform of the martingale limit,
and the assembled leading constants for the three supercritical decay
regimes.

Improper integrals over (0, inf) are mapped to (0, 1) by an explicit
substitution and handed to adaptive quadrature (QUADPACK via
scipy.integrate.quad). A quadrature that exhausts its subdivision budget
or reports non-convergence raises NumericalFailure rather than returning
a half-trusted number.

QUADPACK calls the integrands one Python float at a time, up to a few
hundred thousand times per phi_beta, so they use scalar math calls and not
numpy or scipy.stats, whose per-call dispatch costs more than the
arithmetic. Measured on a 2-core Xeon (Python 3.11, numpy 2.4, scipy 1.17):
np.logaddexp on two floats takes 1.7 us against 0.3 us for _logaddexp,
which puts phi_beta's inner integrand at 1.3 us instead of 4 us per
evaluation; scipy.stats.gamma.pdf on a scalar takes 82 us against 2.4 us
for the same formula written out in laplace_Y. Each replacement repeats
the floating-point operations of what it replaces, so the values are
unchanged to the last bit; laplace_Y keeps np.exp because math.exp
differs from it in the last bit at some points.

phi_beta's inner quadratures share their nodes: QUADPACK subdivides
(0, 1) the same way for every outer node u, so the nine PHI_BETA_GOLDEN
calls make 996,093 inner-integrand calls over 3,051 inner quadratures at
only 735 distinct nodes. What the inner integrand computes from its node
alone (sinh, cosh, three logs and the exp-map log1p) therefore goes into a
table local to one phi_beta call, filled on first use of each node; an
evaluation then does only the u-dependent _logaddexp, one multiply, one
exp and one division. On the same machine the nine calls take a median
0.77 s against 1.46 s without the table (eight alternating runs each),
every value equal to the last bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _special

from .errors import NotComputableError, NumericalFailure
from .model import ModelParams, Regime, classify_regime

__all__ = [
    "INFINITE",
    "DomainMap",
    "QuadratureConfig",
    "DEFAULT_QUAD",
    "Reading",
    "integrate_semi_infinite",
    "psi",
    "psi_closed_form",
    "integral_a_psi",
    "phi_beta",
    "phi_beta_tensor_oracle",
    "mean_inverse_gamma",
    "laplace_Y",
    "theorem1_constant",
    "strong_level_limit",
]

# Distinguished "diverges" value. Quadrature never overflows to inf in this
# module (failures raise instead), so an inf in a report always means a
# genuinely divergent quantity, not a float accident.
INFINITE: float = math.inf


class DomainMap(Enum):
    """Substitution used to fold (0, inf) onto (0, 1)."""

    EXP_SUBSTITUTION = "ExpSubstitution"
    TAN_SUBSTITUTION = "TanSubstitution"


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    infinite_domain_map: DomainMap = DomainMap.EXP_SUBSTITUTION

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be a positive integer")
        if not isinstance(self.infinite_domain_map, DomainMap):
            raise ValueError("infinite_domain_map must be a DomainMap")


DEFAULT_QUAD = QuadratureConfig()


class Reading(Enum):
    """Which direction the gamma variable enters the limit-law transform."""

    AS_PRINTED = "AsPrinted"
    INVERSE_GAMMA = "InverseGamma"


def integrate_semi_infinite(
    f: Callable[[float], float],
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Adaptive quadrature of f over (0, inf) via a (0,1) substitution.

    ExpSubstitution uses y = -log(1 - u); TanSubstitution uses
    y = tan(pi u / 2). Raises NumericalFailure if QUADPACK does not
    converge within the subdivision budget.
    """
    if cfg.infinite_domain_map is DomainMap.EXP_SUBSTITUTION:

        def g(u: float) -> float:
            if u >= 1.0:
                return 0.0
            y = -math.log1p(-u)
            return f(y) / (1.0 - u)

    else:

        def g(u: float) -> float:
            if u >= 1.0:
                return 0.0
            h = 0.5 * math.pi * u
            t = math.tan(h)
            c = math.cos(h)
            return f(t) * 0.5 * math.pi / (c * c)

    return _quad_unit(g, cfg)


def _quad_unit(g: Callable[[float], float], cfg: QuadratureConfig) -> float:
    """Adaptive quadrature of g over (0, 1) within cfg's budget.

    Raises NumericalFailure if QUADPACK does not converge within the
    subdivision budget.
    """
    out = _integrate.quad(
        g,
        0.0,
        1.0,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        full_output=1,
    )
    if len(out) > 3:
        # QUADPACK flagged trouble; keep the answer only if its own error
        # estimate still meets the requested tolerance.
        val, abserr = float(out[0]), float(out[1])
        if abserr <= max(cfg.abs_tol, cfg.rel_tol * abs(val)):
            return val
        raise NumericalFailure(
            f"quadrature did not converge within max_subdivisions={cfg.max_subdivisions}, "
            f"rel_tol={cfg.rel_tol:g}, abs_tol={cfg.abs_tol:g}: "
            f"QUADPACK error estimate {abserr:.3g} on value {val:.6g}"
        )
    return float(out[0])


def _psi_integrand(y: float, a: float) -> float:
    # exp(-a cosh^2 y) * cosh y, evaluated through logs so the huge-y
    # region underflows cleanly instead of overflowing cosh.
    lc = y + math.log1p(math.exp(-2.0 * y)) - math.log(2.0)
    if 2.0 * lc > 700.0:
        return 0.0
    m = a * math.exp(2.0 * lc)
    if m - lc > 745.0:
        return 0.0
    return math.exp(lc - m)


def psi(a: float, q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Survival-kernel density: (sqrt(2)/pi) a^{-1/2} Int exp(-a cosh^2 y) cosh y dy."""
    if not (a > 0):
        raise ValueError("psi requires a > 0")
    inner = integrate_semi_infinite(lambda y: _psi_integrand(y, a), q)
    return (math.sqrt(2.0) / math.pi) * inner / math.sqrt(a)


def psi_closed_form(a: float) -> float:
    """Analytic reduction of psi: e^{-a} / (sqrt(2 pi) a).

    The substitution u = sinh y turns the defining integral into
    Int_0^inf e^{-a(1+u^2)} du = e^{-a} sqrt(pi/a)/2, and the prefactor
    collapses the rest.
    """
    if not (a > 0):
        raise ValueError("psi requires a > 0")
    return math.exp(-a) / (math.sqrt(2.0 * math.pi) * a)


def integral_a_psi(
    q: QuadratureConfig = DEFAULT_QUAD, use_closed_form: bool = True
) -> float:
    """Int_0^inf a psi(a) da, the intermediate-regime moment (= 1/sqrt(2 pi)).

    With use_closed_form the integrand is a * psi_closed_form(a); otherwise
    psi is re-evaluated by quadrature at every node (a genuinely independent
    second route, used by the two-route agreement test).
    """
    if use_closed_form:
        fn = lambda a: a * psi_closed_form(a) if a > 0 else 0.0
    else:
        inner_cfg = replace(
            q,
            rel_tol=min(q.rel_tol, 1e-11),
            abs_tol=min(q.abs_tol, 1e-13),
        )
        fn = lambda a: a * psi(a, inner_cfg) if a > 0 else 0.0
    return integrate_semi_infinite(fn, q)


_LN2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y), branch for branch as numpy's npy_logaddexp, so the
    two agree to the last bit."""
    if x == y:
        return x + _LN2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    return y + math.log1p(math.exp(d))


def _phi_xi_table(
    beta: float, log_a: float
) -> Callable[[float], Callable[[float], float]]:
    """Inner integrands of one phi_beta call, sharing one node table.

    The returned function maps an outer node u to the xi-integrand
    sinh(xi) cosh(xi) xi / (u + a cosh^2 xi)^{(beta+2)/2}, written in the
    exp-map variable v (xi = -log(1 - v), dxi = dv / (1 - v)) and evaluated
    in log space. What depends on v alone is kept in a table keyed by v and
    built on first use: (lsinh + lcosh + log xi, log a + 2 lcosh, 1 - v),
    or () where the integrand is zero. Each entry is formed in the
    association the direct formula uses, so every value is the same to the
    last bit. The table lives as long as the returned function.
    """
    power = 0.5 * (beta + 2.0)
    table: dict[float, tuple] = {}

    def row(v: float) -> tuple:
        if v >= 1.0:
            return ()
        xi = -math.log1p(-v)
        if xi <= 0.0:
            return ()
        if xi > 20.0:
            e = math.exp(-2.0 * xi)
            lsinh = xi + math.log1p(-e) - _LN2
            lcosh = xi + math.log1p(e) - _LN2
        else:
            lsinh = math.log(math.sinh(xi))
            lcosh = math.log(math.cosh(xi))
        return (lsinh + lcosh + math.log(xi), log_a + 2.0 * lcosh, 1.0 - v)

    def at(u: float) -> Callable[[float], float]:
        log_u = math.log(u)

        def g(v: float) -> float:
            r = table.get(v)
            if r is None:
                r = table[v] = row(v)
            if not r:
                return 0.0
            lk, lc2, w = r
            le = lk - power * _logaddexp(log_u, lc2)
            if le < -745.0:
                return 0.0
            return math.exp(le) / w

        return g

    return at


def phi_beta(a: float, beta: float, q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """The two-parameter density of the weak-regime kernel, by iterated quadrature.

    Evaluates the double integral over (xi, u) in (0, inf)^2 of

        C(beta) e^{-a} a^{-beta/2} u^{(beta-1)/2} e^{-u}
            * sinh(xi) cosh(xi) xi / (u + a cosh^2 xi)^{(beta+2)/2}

    with C(beta) = Gamma((beta+2)/2) / (sqrt(2) pi). The inner xi integral
    decays like xi e^{-beta xi} and uses the exponential map; the outer u
    integral carries the u^{(beta-1)/2} endpoint singularity (for beta < 1)
    and the slower effective tail, and uses the tangent map.
    """
    if not (a > 0 and beta > 0):
        raise ValueError("phi_beta requires a > 0 and beta > 0")
    log_a = math.log(a)
    # the prefactor first, so an overflow fails before the quadrature runs
    try:
        pref = (
            math.gamma(0.5 * (beta + 2.0))
            / (math.sqrt(2.0) * math.pi)
            * math.exp(-a - 0.5 * beta * log_a)
        )
    except OverflowError:
        pref = math.inf
    if not math.isfinite(pref):
        raise NumericalFailure(f"phi_beta prefactor overflows at a={a!r}, beta={beta!r}")
    # Iterated quadrature cannot certify tolerances near machine precision
    # (the outer integrand carries the inner quadrature's own noise), so
    # both passes run with floors well inside the 1e-6 route-agreement
    # budget but loose enough for QUADPACK to reach.
    inner_cfg = replace(
        q,
        rel_tol=max(q.rel_tol, 1e-10),
        abs_tol=max(q.abs_tol, 1e-12),
    )
    outer_cfg = replace(
        q,
        rel_tol=max(q.rel_tol, 1e-9),
        abs_tol=max(q.abs_tol, 1e-12),
        infinite_domain_map=DomainMap.TAN_SUBSTITUTION,
    )

    xi_integrand = _phi_xi_table(beta, log_a)

    def outer(u: float) -> float:
        if u <= 0.0:
            return 0.0
        log_w = 0.5 * (beta - 1.0) * math.log(u) - u
        if log_w < -720.0:
            return 0.0
        inner = _quad_unit(xi_integrand(u), inner_cfg)
        return math.exp(log_w) * inner

    raw = integrate_semi_infinite(outer, outer_cfg)
    return pref * raw


@functools.cache
def _legendre_rule() -> tuple:
    """The oracle's 2000-node Gauss-Legendre rule, read-only; built on first
    use, not at import, because the build takes about a second."""
    x, w = np.polynomial.legendre.leggauss(2000)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def phi_beta_tensor_oracle(a: float, beta: float) -> float:
    """Independent brute-force route for phi_beta on a fixed tensor grid.

    Generalized Gauss-Laguerre (weight u^{(beta-1)/2} e^{-u}, 200 nodes)
    handles the u direction exactly; Gauss-Legendre (2000 nodes) on a
    truncated xi interval handles the other. No adaptivity and no shared
    code path with phi_beta, which is the point: the two routes agree only
    if both are right.
    """
    if not (a > 0 and beta > 0):
        raise ValueError("phi_beta requires a > 0 and beta > 0")
    log_a = math.log(a)
    try:
        pref = (
            math.gamma(0.5 * (beta + 2.0))
            / (math.sqrt(2.0) * math.pi)
            * math.exp(-a - 0.5 * beta * log_a)
        )
    except OverflowError:
        pref = math.inf
    if not math.isfinite(pref):
        raise NumericalFailure(
            f"phi_beta_tensor_oracle prefactor overflows at a={a!r}, beta={beta!r}"
        )
    u_nodes, u_weights = _special.roots_genlaguerre(200, 0.5 * (beta - 1.0))
    xi_hi = max(60.0, 800.0 / (beta + 2.0))
    x, w = _legendre_rule()
    xi = 0.5 * xi_hi * (x + 1.0)
    xi_w = 0.5 * xi_hi * w
    lsinh = np.where(xi > 20.0, xi + np.log1p(-np.exp(-2.0 * xi)) - math.log(2.0), np.log(np.sinh(xi)))
    lcosh = np.where(xi > 20.0, xi + np.log1p(np.exp(-2.0 * xi)) - math.log(2.0), np.log(np.cosh(xi)))
    # (Laguerre, Legendre) grid of the log kernel
    ld = np.logaddexp(np.log(u_nodes)[:, None], log_a + 2.0 * lcosh[None, :])
    le = (lsinh + lcosh + np.log(xi))[None, :] - 0.5 * (beta + 2.0) * ld
    kern = np.where(le < -745.0, 0.0, np.exp(le))
    raw = float(u_weights @ kern @ xi_w)
    return pref * raw


def mean_inverse_gamma(nu: float) -> float:
    """E[1/G] for G gamma(nu, 1): 1/(nu-1) for nu > 1, INFINITE for nu <= 1."""
    if not (nu > 0):
        raise ValueError("mean_inverse_gamma requires nu > 0")
    if nu <= 1.0:
        return INFINITE
    return 1.0 / (nu - 1.0)


def laplace_Y(
    lam: float,
    z: float,
    params: ModelParams,
    reading: Reading = Reading.INVERSE_GAMMA,
    q: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Laplace transform of the martingale limit: E[exp(-z / (B + 1/lambda))].

    Under Reading.AS_PRINTED, B = (sigma_b^2/sigma_e^2) G_beta; under
    Reading.INVERSE_GAMMA, B = sigma_b^2/(sigma_e^2 G_beta). The two
    readings disagree, and only the inverse-gamma one reproduces the
    extinction probability in the lambda -> inf limit; both are kept so
    the disagreement stays checkable. Conventions: lambda = 0 gives 1
    (c/inf := 0) and lambda = inf drops the 1/lambda shift.
    """
    if params.alpha <= 0 or params.sigma_e <= 0 or params.sigma_b <= 0:
        raise ValueError("laplace_Y requires alpha, sigma_e, sigma_b > 0")
    if z < 0:
        raise ValueError("z must be nonnegative")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if z == 0.0 or lam == 0.0:
        return 1.0
    inv_lam = 0.0 if math.isinf(lam) else 1.0 / lam
    beta = params.beta
    ratio = params.sigma_b**2 / params.sigma_e**2
    log_gamma_beta = _special.gammaln(beta)

    def integrand(g: float) -> float:
        if g <= 0.0:
            return 0.0
        b = ratio * g if reading is Reading.AS_PRINTED else ratio / g
        # scipy.stats.gamma.pdf(g, beta) by scipy's own formula, without
        # its per-call argument handling; np.exp keeps its last bit
        density = np.exp(_special.xlogy(beta - 1.0, g) - g - log_gamma_beta)
        return math.exp(-z / (b + inv_lam)) * float(density)

    val = integrate_semi_infinite(integrand, q)
    return min(max(val, 0.0), 1.0)


def theorem1_constant(
    params: ModelParams,
    regime: Regime,
    z: float,
    q: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Leading constant of the conditioned-survival decay, per regime.

    Intermediate: (2 z sigma_e / sigma_b^2) Int a psi(a) da.
    Strong: (z sigma_e^2 / sigma_b^2) E[1/G_nu] with nu = 2(alpha/sigma_e^2 - 1);
    returns INFINITE when that inverse moment diverges (nu <= 1).
    Weak: raises NotComputableError, because the density the weak-regime
    constant integrates against phi_beta is never specified; only the
    weak decay exponents are verifiable.
    """
    if regime not in (
        Regime.WEAKLY_SUPERCRITICAL,
        Regime.INTERMEDIATE_SUPERCRITICAL,
        Regime.STRONGLY_SUPERCRITICAL,
    ):
        raise ValueError("theorem1_constant applies to supercritical regimes only")
    actual = classify_regime(params)
    if actual is not regime:
        raise ValueError(
            f"parameters classify as {actual.value}, not {regime.value}"
        )
    if params.sigma_b <= 0 or z < 0:
        raise ValueError("requires sigma_b > 0 and z >= 0")
    if regime is Regime.WEAKLY_SUPERCRITICAL:
        raise NotComputableError(
            "the weak-regime constant integrates an unspecified function "
            "against phi_beta; only the decay exponents are checkable"
        )
    if regime is Regime.INTERMEDIATE_SUPERCRITICAL:
        return (2.0 * z * params.sigma_e / params.sigma_b**2) * integral_a_psi(q)
    nu = 2.0 * (params.alpha / params.sigma_e**2 - 1.0)
    m = mean_inverse_gamma(nu)
    if m == INFINITE:
        return INFINITE
    return (z * params.sigma_e**2 / params.sigma_b**2) * m


def strong_level_limit(params: ModelParams, z: float) -> float:
    """Strong-regime level lim e^{(alpha - sigma_e^2/2) t} p(t) of conditioned survival.

    It is z sigma_e^2 nu / sigma_b^2 with nu = 2(alpha/sigma_e^2 - 1), from
    tilting the environment by e^{S_t} and Dufresne's identity: 2 at
    alpha = 2 and sigma_e = sigma_b = z = 1, where theorem1_constant gives 1.
    """
    return z * params.sigma_e**2 * 2.0 * (params.alpha / params.sigma_e**2 - 1.0) / params.sigma_b**2
