"""Estimator layer: extinction, conditioned survival, rates, KS, Laplace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdrelab import estimators, sde
from bdrelab.envexact import dufresne_samples, environment_laplace, environment_survival_curve
from bdrelab.errors import ConfigError, NumericalFailure
from bdrelab.estimators import (
    KS_CRITICAL_1PCT,
    ExtinctionMethod,
    Functional,
    MCEstimate,
    SurvivalRoute,
    conditioned_law_equivalence_test,
    estimate_conditioned_survival,
    estimate_extinction,
    fit_decay_rate_from_points,
    functional_reference,
    laplace_limit_test,
    martingale_test,
    survival_points,
)
from bdrelab.model import (
    ModelParams,
    extinction_probability,
    rao_blackwell_se_ratio,
    scale_U,
)
from bdrelab.sde import SchemeConfig, absorbed_fraction, bridge_extinction_frequency
from bdrelab.specfun import QuadratureConfig

STD = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)


def scheme(dt=0.01, horizon=2.0):
    return SchemeConfig(dt=dt, horizon=horizon)


def test_mcestimate_from_samples():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    est = MCEstimate.from_samples(x, "demo")
    assert est.mean == pytest.approx(2.5)
    assert est.std_error == pytest.approx(x.std(ddof=1) / 2.0)
    # one sample has no spread to measure, so it gets no error bar
    with pytest.raises(ValueError, match="n >= 2"):
        MCEstimate.from_samples(np.array([0.5]), "demo")


def test_closed_form_extinction_route():
    est = estimate_extinction(STD, ExtinctionMethod.CLOSED_FORM, 1, 30.0, scheme(), 1)
    assert est.mean == pytest.approx(0.25, abs=1e-15)
    assert est.std_error == 0.0


def test_rao_blackwell_extinction_matches_closed_form():
    est = estimate_extinction(
        STD, ExtinctionMethod.RAO_BLACKWELL, 20_000, 30.0, scheme(horizon=30.0), 211
    )
    assert abs(est.mean - 0.25) < 4 * est.std_error


def test_pathwise_extinction_matches_closed_form():
    est = estimate_extinction(
        STD, ExtinctionMethod.PATHWISE, 5000, 20.0, scheme(dt=0.005, horizon=20.0), 223
    )
    assert abs(est.mean - 0.25) < 4 * est.std_error


def test_rao_blackwell_beats_pathwise_strictly():
    """Holds at seeds 227 and 229 because the pathwise call at seed 229
    draws one weight-20 roulette absorption, which adds 380 / n^2 to its
    se^2. Without one the stratified se is the smaller: over pathwise
    seeds 7001-7040 it is below Rao-Blackwell's in 29 of 40 calls. The
    bound that holds whether or not the roulette fires is in
    test_pathwise_se_is_below_the_binomial_se."""
    cfg = scheme(horizon=30.0)
    rb = estimate_extinction(STD, ExtinctionMethod.RAO_BLACKWELL, 20_000, 30.0, cfg, 227)
    pw = estimate_extinction(STD, ExtinctionMethod.PATHWISE, 20_000, 30.0, cfg, 229)
    assert rb.std_error < pw.std_error


@pytest.mark.parametrize("seed,heavy_pairs", [(229, 1), (7003, 0), (7004, 0)])
def test_pathwise_se_is_below_the_binomial_se(seed, heavy_pairs, monkeypatch):
    # the stratified antithetic pairs report an se below plain counting's
    # sqrt(p(1 - p)/n), with one weight-20 roulette absorption (seed 229)
    # or none (0.00203 against 0.00306 at worst over seeds 7001-7040)
    heavy = []

    def spy(counts, n):
        hist = sum(c[0] for c in counts)
        heavy.append(sum(int(h) for v, h in enumerate(hist) if v >= sde._ROULETTE_WEIGHT))
        return pair_estimate(counts, n)

    pair_estimate = sde._pair_estimate
    monkeypatch.setattr(sde, "_pair_estimate", spy)
    n = 20_000
    pw = estimate_extinction(STD, ExtinctionMethod.PATHWISE, n, 30.0, scheme(horizon=30.0), seed)
    assert heavy == [heavy_pairs]
    assert pw.std_error < math.sqrt(pw.mean * (1 - pw.mean) / n)


def test_rao_blackwell_variance_reduction_factor():
    # Closed form (Dufresne): the Rao-Blackwell sample is q = exp(-x G) with
    # G ~ Gamma(beta, 1), so E[q^k] = extinction_probability(k z0) and the
    # se ratio pathwise/RB is sqrt(27/7) = 1.964 at the standard point. The
    # band is 4 sampling sd of the measured ratio, by the delta method from
    # the two kurtoses: Var(log sd_hat) ~ (kurt - 1) / (4 n) per side. The
    # closed form is that of plain counting, so the pathwise side is the
    # binomial se at the pathwise mean, not the se of the stratified pairs.
    n = 20_000
    cfg = scheme(horizon=30.0)
    rb = estimate_extinction(STD, ExtinctionMethod.RAO_BLACKWELL, n, 30.0, cfg, 227)
    pw = estimate_extinction(STD, ExtinctionMethod.PATHWISE, n, 30.0, cfg, 229)
    pw_se = math.sqrt(pw.mean * (1 - pw.mean) / n)
    ratio = pw_se / rb.std_error
    expected = rao_blackwell_se_ratio(STD.z0, STD)
    assert expected == pytest.approx(math.sqrt(27 / 7), rel=1e-12)

    m1, m2, m3, m4 = (extinction_probability(k * STD.z0, STD) for k in (1, 2, 3, 4))
    kurt_pw = (1 - 3 * m1 * (1 - m1)) / (m1 * (1 - m1))
    var_rb = m2 - m1**2
    kurt_rb = (m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4) / var_rb**2
    ratio_sd = expected * math.sqrt((kurt_pw - 1 + kurt_rb - 1) / (4 * n))
    assert abs(ratio - expected) <= 4 * ratio_sd, (
        f"standard-error ratio pathwise/rao-blackwell = {ratio:.4f} "
        f"({pw_se:.6f} / {rb.std_error:.6f}) at n={n}; "
        f"closed form {expected:.4f} +- {4 * ratio_sd:.4f}"
    )


def test_extinction_estimators_validate_inputs():
    with pytest.raises(ValueError):
        estimate_extinction(ModelParams(-1.0, 1.0, 1.0, 1.0),
                            ExtinctionMethod.CLOSED_FORM, 1, 30.0, scheme(), 1)
    with pytest.raises(ValueError):
        estimate_extinction(ModelParams(1.0, 1.0, 0.0, 1.0),
                            ExtinctionMethod.RAO_BLACKWELL, 10, 30.0, scheme(), 1)


def test_conditioned_survival_route_triangle():
    # Three estimation routes for P(Z_t > 0 | eventual extinction) must
    # agree within Monte Carlo error. Separate seeds per route: two of
    # the kernels are arithmetically identical under shared noise, so
    # agreement evidence has to come from independent randomness.
    t, n = 1.0, 20_000
    cfg = scheme(horizon=1.0)
    ests = {
        route: estimate_conditioned_survival(STD, t, route, n, cfg, 300 + i)
        for i, route in enumerate(SurvivalRoute)
    }
    for a in ests.values():
        for b in ests.values():
            comb = math.hypot(a.std_error, b.std_error)
            assert abs(a.mean - b.mean) <= 4 * comb, (a.method_tag, b.method_tag)


@pytest.mark.parametrize("alpha,sigma_e,theta", [(0.5, 1.0, 0.5), (2.0, 1.0, 1.0), (0.9, 0.6, 1.0)])
def test_survival_points_tilts_by_min_alpha_over_sigma_e2_and_one(alpha, sigma_e, theta):
    # theta = alpha / sigma_e^2 below the strong regime, 1 in it, on antithetic pairs
    p = ModelParams(alpha=alpha, sigma_e=sigma_e, sigma_b=1.0, z0=1.0)
    pts = survival_points(p, [1.0, 2.0], 300, SurvivalRoute.NEGATED_ALPHA_SIM, 5, dt=0.05)
    neg = ModelParams(alpha=-alpha, sigma_e=sigma_e, sigma_b=1.0, z0=1.0)
    assert pts == environment_survival_curve(
        neg, [1.0, 2.0], 300, 0.05, 5, tilt=theta, antithetic=True
    )


@pytest.mark.parametrize("route", [SurvivalRoute.H_TRANSFORM_SIM, SurvivalRoute.REWEIGHTING])
def test_survival_points_refuses_every_other_route(route):
    with pytest.raises(ValueError, match="NegatedAlphaSim"):
        survival_points(STD, [1.0, 2.0], 100, route, 5, dt=0.05)


def test_conditioned_survival_at_time_zero_is_one():
    est = estimate_conditioned_survival(
        STD, 0.0, SurvivalRoute.REWEIGHTING, 100, scheme(), 1
    )
    assert est.mean == 1.0 and est.std_error == 0.0


def test_fit_recovers_planted_decay():
    # exact points from p(t) = C t^{-1/2} e^{-0.5 t}: the regression must
    # return the planted exponential rate to numerical precision
    pts = {
        t: (0.8 * t**-0.5 * math.exp(-0.5 * t), 1e-9)
        for t in (4.0, 6.0, 8.0, 10.0, 12.0)
    }
    fit = fit_decay_rate_from_points(STD, pts)
    assert fit.exponential_rate == pytest.approx(0.5, abs=1e-9)
    assert fit.polynomial_power == -0.5
    assert fit.fit_rmse < 1e-9
    assert fit.t_window == (4.0, 12.0)


def test_fit_regime_sets_polynomial_power():
    strong = ModelParams(2.0, 1.0, 1.0, 1.0)
    pts = {t: (math.exp(-1.5 * t), 1e-9) for t in (4.0, 6.0, 8.0, 10.0)}
    fit = fit_decay_rate_from_points(strong, pts)
    assert fit.polynomial_power == 0.0
    assert fit.exponential_rate == pytest.approx(1.5, abs=1e-9)


def test_fit_refuses_thin_or_noisy_input():
    with pytest.raises(ValueError):
        fit_decay_rate_from_points(STD, {4.0: (0.1, 1e-9), 6.0: (0.05, 1e-9)})
    noisy = {t: (0.1, 0.09) for t in (4.0, 6.0, 8.0, 10.0)}
    with pytest.raises(ValueError):
        fit_decay_rate_from_points(STD, noisy)


def test_functional_references():
    assert functional_reference(Functional.U_OF_Z, STD) == pytest.approx(scale_U(1.0, STD))
    assert functional_reference(Functional.V_OF_S, STD) == 1.0
    assert functional_reference(Functional.Z_OVER_EXPS, STD) == STD.z0


def test_martingale_test_small_n():
    by_functional = martingale_test(STD, [0.5, 1.0], 20_000, scheme(), 401)
    assert list(by_functional) == list(Functional)
    ests = by_functional[Functional.Z_OVER_EXPS]
    assert [e.method_tag for e in ests] == ["Z_over_expS@t=0.5", "Z_over_expS@t=1"]
    for est in ests:
        assert abs(est.mean - 1.0) < 4 * est.std_error


def test_laplace_points_near_the_limit():
    # t large enough that the finite-horizon transform is inside the
    # Monte Carlo band around the limit law
    pts = laplace_limit_test(STD, [0.0, 0.5, 2.0], 16.0, 2000, scheme(horizon=16.0), 433)
    by_lam = {p.lam: p for p in pts}
    assert by_lam[0.0].estimate.mean == 1.0
    assert by_lam[0.0].reference == 1.0
    for p in pts:
        slack = max(3.0 * p.estimate.std_error, 1e-12)
        assert abs(p.estimate.mean - p.reference) <= slack, (p.lam, p.estimate.mean, p.reference)


def test_laplace_references_fail_before_the_simulation(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("environments simulated before the references")

    monkeypatch.setattr(estimators, "environment_laplace", no_simulation)
    tight = QuadratureConfig(max_subdivisions=1, rel_tol=0.5)
    with pytest.raises(NumericalFailure):
        laplace_limit_test(STD, [0.5, 2.0], 2.0, 200, scheme(horizon=2.0), 3, q=tight)


def test_ks_equivalence_and_negative_control():
    cfg = scheme(horizon=0.5)
    ks = conditioned_law_equivalence_test(STD, 0.5, 2000, cfg, 443)
    assert ks.statistic <= ks.critical_1pct
    assert ks.critical_1pct == pytest.approx(KS_CRITICAL_1PCT * math.sqrt(2 / 2000))
    ctrl = conditioned_law_equivalence_test(STD, 0.5, 2000, cfg, 443, negative_control=True)
    assert ctrl.statistic > ctrl.critical_1pct


def test_ks_requires_enough_samples():
    with pytest.raises(ValueError):
        conditioned_law_equivalence_test(STD, 0.5, 500, scheme(horizon=0.5), 1)


# Edge cases whose answers are exact, whatever the drift, the environment
# noise and the seed.
_alphas = st.floats(0.05, 3.0)
_sigma_es = st.floats(0.1, 2.0)
_seeds = st.integers(0, 2**32 - 1)


@given(_alphas, _sigma_es, _seeds)
@settings(max_examples=20, deadline=None)
def test_zero_mass_is_extinct_on_every_route(alpha, sigma_e, seed):
    p = ModelParams(alpha=alpha, sigma_e=sigma_e, sigma_b=1.0, z0=0.0)
    for method in (ExtinctionMethod.RAO_BLACKWELL, ExtinctionMethod.PATHWISE):
        est = estimate_extinction(p, method, 200, 1.0, scheme(), seed)
        assert (est.mean, est.std_error) == (1.0, 0.0)
    curve = environment_survival_curve(p, [0.0, 0.5, 1.0], 200, 0.01, seed)
    assert list(curve.values()) == [(0.0, 0.0)] * 3
    lap = environment_laplace(p, [0.0, 1.0, math.inf], 1.0, 200, 0.01, seed)
    assert [v[:2] for v in lap.values()] == [(1.0, 0.0)] * 3


@given(_alphas, _sigma_es, st.floats(0.01, 10.0), _seeds)
@settings(max_examples=20, deadline=None)
def test_no_branching_noise_absorbs_nothing(alpha, sigma_e, z0, seed):
    p = ModelParams(alpha=alpha, sigma_e=sigma_e, sigma_b=0.0, z0=z0)
    assert absorbed_fraction(p, scheme(horizon=1.0), 200, seed) == (0.0, 0.0)


@given(_alphas, _sigma_es, st.floats(1e-3, 0.5), st.floats(1e-6, 0.499), _seeds)
@settings(max_examples=20, deadline=None)
def test_reducers_refuse_a_time_under_half_a_step(alpha, sigma_e, dt, frac, seed):
    p = ModelParams(alpha=alpha, sigma_e=sigma_e, sigma_b=1.0, z0=1.0)
    t = frac * dt
    with pytest.raises(ConfigError):
        dufresne_samples(p, t, 200, dt, seed)
    with pytest.raises(ConfigError):
        environment_survival_curve(p, [t], 200, dt, seed)
    with pytest.raises(ConfigError):
        environment_laplace(p, [1.0], t, 200, dt, seed)


@given(st.floats(-1.0, 2.0), st.floats(0.1, 1.0), _seeds)
@settings(max_examples=20, deadline=None)
def test_binomial_se_is_exactly_zero_at_p_zero_and_one(alpha, sigma_e, seed):
    short = SchemeConfig(dt=0.01, horizon=0.05)
    # z0 = 0 sits on the absorbing boundary, so every path is absorbed at
    # its first step; from z0 = 50, five steps would need a draw near -10
    # sd to reach 0
    dead = ModelParams(alpha=alpha, sigma_e=sigma_e, sigma_b=1.0, z0=0.0)
    far = ModelParams(alpha=alpha, sigma_e=sigma_e, sigma_b=1.0, z0=50.0)
    assert absorbed_fraction(dead, short, 200, seed) == (1.0, 0.0)
    assert absorbed_fraction(far, short, 200, seed) == (0.0, 0.0)
    # 1000 individuals all die in one generation with probability
    # (1 + e^theta)^-1000, below 2e-8 unless theta falls 4 sd under its
    # positive mean
    crowd = ModelParams(alpha=abs(alpha) + 0.05, sigma_e=sigma_e, sigma_b=1.0, z0=1000.0)
    assert bridge_extinction_frequency(1, dead, 200, seed) == (1.0, 0.0)
    assert bridge_extinction_frequency(1, crowd, 200, seed, horizon=1.0) == (0.0, 0.0)
    for horizon in (0.0, -1.0):
        with pytest.raises(ValueError):
            bridge_extinction_frequency(1, crowd, 200, seed, horizon=horizon)
