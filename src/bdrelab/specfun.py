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

QUADPACK calls the integrands one Python float at a time, so they use
scalar math calls and not numpy or scipy.stats, whose per-call dispatch
costs more than the arithmetic: on a 2-core Xeon (Python 3.11, numpy 2.4,
scipy 1.17) scipy.stats.gamma.pdf on a scalar takes 45-60 us against
0.5-0.8 us for the same formula written out in laplace_Y (1.2-1.9 us with
scipy.special.xlogy for its one product). laplace_Y keeps np.exp because
math.exp differs from it in the last bit at some points.

phi_beta is defined by a double integral but evaluated as a single one:
the double integral reduces to Tricomi's confluent hypergeometric function
U(beta/2, 1, a) (DLMF 13.4), whose integral representation over (0, 1)
goes to QUADPACK once, split at the integrand's peak where it has one
inside (0, 1); the steps are in phi_beta's docstring. The nine
PHI_BETA_GOLDEN calls take about 2 ms of CPU, against 0.6-0.7 s for the
nested quadrature this replaced, which also went silently wrong at large
beta (1.7 % low at a = 1, beta = 300). The independent second route is
phi_beta_tensor_oracle, which shares no code with phi_beta and evaluates
the double integral as defined, on a fixed 200 x 2000 Gauss-Laguerre by
Gauss-Legendre tensor grid. Both rules come from Golub and Welsch's
eigenvalue method on a banded Jacobi matrix (scipy.special.roots_*), so the
2000-node Legendre rule is built once in about 0.15 s; the grid is formed
in full only on the columns where the Laguerre nodes survive rounding
against a cosh^2 xi, so a repeated call costs about a tenth of the full
grid.
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


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be a positive integer")


DEFAULT_QUAD = QuadratureConfig()


class Reading(Enum):
    """Which direction the gamma variable enters the limit-law transform."""

    AS_PRINTED = "AsPrinted"
    INVERSE_GAMMA = "InverseGamma"


def integrate_semi_infinite(
    f: Callable[[float], float],
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Adaptive quadrature of f over (0, inf) via y = -log(1 - u), u in (0, 1).

    Raises NumericalFailure if QUADPACK does not converge within the
    subdivision budget.
    """

    def g(u: float) -> float:
        if u >= 1.0:
            return 0.0
        y = -math.log1p(-u)
        return f(y) / (1.0 - u)

    return _quad_unit(g, cfg)


def _quad_unit(
    g: Callable[[float], float], cfg: QuadratureConfig, split_at: float | None = None
) -> float:
    """Adaptive quadrature of g over (0, 1) within cfg's budget, split at
    split_at if one is given.

    QUADPACK needs more subintervals than breakpoints, so a budget of one
    subinterval drops the breakpoint and the budget alone decides. Raises
    NumericalFailure if QUADPACK does not converge within the subdivision
    budget.
    """
    out = _integrate.quad(
        g,
        0.0,
        1.0,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        points=None if split_at is None or cfg.max_subdivisions < 2 else (split_at,),
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


_LOG_4_SQRT_2PI = math.log(4.0 * math.sqrt(2.0 * math.pi))


def phi_beta(a: float, beta: float, q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """The two-parameter density of the weak-regime kernel, through Tricomi's U.

    phi_beta is the double integral over (xi, u) in (0, inf)^2 of

        C(beta) e^{-a} a^{-beta/2} u^{(beta-1)/2} e^{-u}
            * sinh(xi) cosh(xi) xi / (u + a cosh^2 xi)^{(beta+2)/2}

    with C(beta) = Gamma((beta+2)/2) / (sqrt(2) pi). It reduces to

        Gamma(beta/2)^2 e^{-a} U(beta/2, 1, a) / (4 sqrt(2 pi) a^{beta/2+1})

    with U Tricomi's confluent hypergeometric function (DLMF 13.4):

    1. d/dxi (u + a cosh^2 xi)^{-beta/2}
           = -beta a sinh xi cosh xi (u + a cosh^2 xi)^{-(beta+2)/2},
       so by parts (the boundary terms vanish) the xi-integral is
       (1/(beta a)) Int_0^inf (u + a cosh^2 xi)^{-beta/2} dxi.
    2. Swapping the order, the u-integral
       Int_0^inf u^{(beta-1)/2} e^{-u} (u + A)^{-beta/2} du
       is Gamma((beta+1)/2) sqrt(A) U((beta+1)/2, 3/2, A), A = a cosh^2 xi.
    3. With s = sinh xi, U's integral representation gives
       Int_0^inf U((beta+1)/2, 3/2, a(1+s^2)) ds
           = sqrt(pi) Gamma(beta/2) U(beta/2, 1, a) / (2 sqrt(a) Gamma((beta+1)/2)).
    4. Collecting the constants, and writing Gamma(b) e^{-a} U(b, 1, a)
       = Int_0^1 w^{b-1} (1-w)^{-1} e^{-a/(1-w)} dw (t = w/(1-w) in
       U's representation), with b = beta/2,

           phi_beta = Gamma(b) a^{-b-1} / (4 sqrt(2 pi))
                      * Int_0^1 w^{b-1} (1-w)^{-1} e^{-a/(1-w)} dw.

    The integral runs through _quad_unit, so q's tolerances and budget
    hold. Its integrand is evaluated in logs and divided by its largest
    value, and the prefactor joins in logs, so only a value that itself
    overflows fails (NumericalFailure naming a and beta); one that
    underflows returns the nearest float. For beta > 2 the largest value is
    at the root in (0, 1) of (b-2) w^2 + (3-2b-a) w + (b-1), where the log
    integrand's derivative vanishes, and QUADPACK gets it as a breakpoint.
    For beta <= 2 the factor w^{b-1} is infinite at w = 0 when beta < 2,
    so the integral runs in t = w^b, where w^{b-1} dw = dt / b and the
    integrand (1-w)^{-1} e^{-a/(1-w)} / b is bounded; its largest value is
    at w = 1 - a for a < 1 (the breakpoint) and at w = 0 otherwise.
    """
    if not (0.0 < a < math.inf and 0.0 < beta < math.inf):
        raise ValueError("phi_beta requires finite a > 0 and beta > 0")
    b = 0.5 * beta
    log_a = math.log(a)
    if b > 1.0:
        qa, qb, qc = b - 2.0, 3.0 - 2.0 * b - a, b - 1.0
        # the quadratic is qc > 0 at w = 0 and -a < 0 at w = 1, so exactly
        # one root lies in (0, 1); both roots by the cancellation-free form
        disc = math.sqrt(qb * qb - 4.0 * qa * qc)
        half = -0.5 * (qb - disc if qb < 0.0 else qb + disc)
        peak = qc / half
        if not 0.0 < peak < 1.0:
            peak = half / qa
        x = 1.0 / (1.0 - peak)
        log_scale = (b - 1.0) * math.log(peak) + math.log(x) - a * x

        def g(w: float) -> float:
            if not 0.0 < w < 1.0:
                return 0.0
            x = 1.0 / (1.0 - w)
            le = (b - 1.0) * math.log(w) + math.log(x) - a * x - log_scale
            return math.exp(le) if le > -745.0 else 0.0

    else:
        # the largest log((1-w)^{-1} e^{-a/(1-w)}), at w = 1 - a or w = 0
        if a < 1.0:
            peak = math.exp(b * math.log1p(-a))
            log_top = -1.0 - log_a
        else:
            peak = None
            log_top = -a
        log_scale = log_top - math.log(b)

        def g(t: float) -> float:
            if not 0.0 < t < 1.0:
                return 0.0
            x = -1.0 / math.expm1(math.log(t) / b)
            le = math.log(x) - a * x - log_top
            return math.exp(le) if le > -745.0 else 0.0

    try:
        integral = _quad_unit(g, q, peak)
    except NumericalFailure as failure:
        raise NumericalFailure(f"phi_beta at a={a!r}, beta={beta!r}: {failure}") from None
    log_value = (
        math.lgamma(b) - (b + 1.0) * log_a - _LOG_4_SQRT_2PI + log_scale + math.log(integral)
    )
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericalFailure(
            f"phi_beta overflows at a={a!r}, beta={beta!r}: its value is e^{log_value:.1f}"
        ) from None


def _read_only(*arrays) -> tuple:
    """The arrays, marked read-only because a cache hands them to every caller."""
    for x in arrays:
        x.flags.writeable = False
    return arrays


@functools.cache
def _legendre_rule() -> tuple:
    """The oracle's 2000-node Gauss-Legendre rule, read-only; built on first
    use, not at import, because the build takes about 0.15 s. It is Golub and
    Welsch's (Math. Comp. 23, 1969) on the banded Jacobi matrix, as the
    Laguerre side is, not a dense 2000 x 2000 eigenproblem."""
    return _read_only(*_special.roots_legendre(2000))


@functools.lru_cache(maxsize=16)
def _laguerre_side(beta: float) -> tuple:
    """The oracle's u side for one beta, read-only: ascending nodes and
    weights of the 200-node generalized Gauss-Laguerre rule, about 1.3 ms to
    build."""
    return _read_only(*_special.roots_genlaguerre(200, 0.5 * (beta - 1.0)))


@functools.lru_cache(maxsize=16)
def _legendre_side(xi_hi: float) -> tuple:
    """The oracle's xi side on (0, xi_hi), read-only: 2 log cosh xi,
    log(sinh xi cosh xi xi) and the weights at the Legendre nodes."""
    x, w = _legendre_rule()
    xi = 0.5 * xi_hi * (x + 1.0)
    xi_w = 0.5 * xi_hi * w
    lsinh = np.where(xi > 20.0, xi + np.log1p(-np.exp(-2.0 * xi)) - math.log(2.0), np.log(np.sinh(xi)))
    lcosh = np.where(xi > 20.0, xi + np.log1p(np.exp(-2.0 * xi)) - math.log(2.0), np.log(np.cosh(xi)))
    return _read_only(2.0 * lcosh, lsinh + lcosh + np.log(xi), xi_w)


# ln 2^54: A > u 2^54 makes u + A round to A
_FAR_LOG_GAP = 54.0 * math.log(2.0)


def phi_beta_tensor_oracle(a: float, beta: float) -> float:
    """Independent brute-force route for phi_beta on a fixed tensor grid.

    Generalized Gauss-Laguerre (weight u^{(beta-1)/2} e^{-u}, 200 nodes)
    handles the u direction exactly; Gauss-Legendre (2000 nodes) on a
    truncated xi interval handles the other. No adaptivity and no shared
    code path with phi_beta, which is the point: the two routes agree only
    if both are right. The rules and the xi-side arrays are cached per beta
    and per interval, and a call evaluates the full grid only on its near
    columns: where A_j = a cosh^2 xi_j tops the largest Laguerre node by a
    factor 2^54, u_i + A_j rounds to A_j for every node, so a far column's
    kernel is the one value e^{l_xi,j} A_j^{-(beta+2)/2} times the sum of
    the Laguerre weights, the value a full-grid evaluation holds in each of
    its entries. At the nine PHI_BETA_GOLDEN pairs 343-542 of the 2000
    columns are near, and a repeated call takes 0.5-1.8 ms against 6.5-11 ms
    for the full grid (the spread is the machine's, from run to run).

    The fixed grid is accurate only where it covers the integrand's mass.
    Against phi_beta (itself within 1e-9 of the nested-mpmath table in
    tests/test_specfun.py), on a grid of a in [1e-3, 700] and beta in
    [0.01, 400], it meets 1e-6 relative for 0.05 <= beta <= 50 min(a, 1)^2
    and misses it just outside: below beta = 0.05 the xi truncation cuts
    mass; at small a the Laguerre nodes miss the pole of the u-integrand at
    -a cosh^2 xi (2.7e-3 off at a = 1e-3, beta = 1); at large beta they sit
    near u = (beta-1)/2, far above the mass (1.6e-3 off at a = 1, beta =
    100). Outside that region it raises NumericalFailure naming a and beta,
    before building the grid.
    """
    if not (a > 0 and beta > 0):
        raise ValueError("phi_beta requires a > 0 and beta > 0")
    if not 0.05 <= beta <= 50.0 * min(a, 1.0) ** 2:
        raise NumericalFailure(
            f"phi_beta_tensor_oracle is not accurate at a={a!r}, beta={beta!r}: "
            "its grid meets 1e-6 only for 0.05 <= beta <= 50 min(a, 1)^2"
        )
    log_a = math.log(a)
    pref = (
        math.gamma(0.5 * (beta + 2.0))
        / (math.sqrt(2.0) * math.pi)
        * math.exp(-a - 0.5 * beta * log_a)
    )
    u_nodes, u_weights = _laguerre_side(beta)
    two_lcosh, l_xi, xi_w = _legendre_side(max(60.0, 800.0 / (beta + 2.0)))
    power = 0.5 * (beta + 2.0)
    # log A_j = log(a cosh^2 xi_j) rises along the nodes; from column `near`
    # on it tops log max(u) by 54 ln 2, so u_i + A_j rounds to A_j there
    near = int(np.searchsorted(two_lcosh, math.log(u_nodes[-1]) + _FAR_LOG_GAP - log_a))
    # (Laguerre, Legendre) grid of the log kernel on the near columns
    le = l_xi[:near] - power * np.log(u_nodes[:, None] + np.exp(log_a + two_lcosh[:near]))
    kern = np.where(le < -745.0, 0.0, np.exp(le))
    # a far column's kernel is one value for every Laguerre node
    le_far = l_xi[near:] - power * (log_a + two_lcosh[near:])
    kern_far = np.where(le_far < -745.0, 0.0, np.exp(le_far))
    raw = float(u_weights @ kern @ xi_w[:near])
    raw += float(u_weights.sum()) * float(kern_far @ xi_w[near:])
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
        # its per-call argument handling; xlogy(beta - 1, g) is the product
        # below for g > 0, and np.exp keeps its last bit
        density = np.exp((beta - 1.0) * math.log(g) - g - log_gamma_beta)
        return math.exp(-z / (b + inv_lam)) * float(density)

    val = integrate_semi_infinite(integrand, q)
    return min(max(val, 0.0), 1.0)


def theorem1_constant(
    params: ModelParams,
    z: float,
    q: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Leading constant of the conditioned-survival decay in the regime of params.

    Intermediate: (2 z sigma_e / sigma_b^2) Int a psi(a) da.
    Strong: (z sigma_e^2 / sigma_b^2) E[1/G_nu] with nu = 2(alpha/sigma_e^2 - 1);
    returns INFINITE when that inverse moment diverges (nu <= 1).
    Weak: raises NotComputableError, because the density the weak-regime
    constant integrates against phi_beta is never specified; only the
    weak decay exponents are verifiable.
    """
    regime = classify_regime(params)
    if regime not in (
        Regime.WEAKLY_SUPERCRITICAL,
        Regime.INTERMEDIATE_SUPERCRITICAL,
        Regime.STRONGLY_SUPERCRITICAL,
    ):
        raise ValueError("theorem1_constant applies to supercritical regimes only")
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
