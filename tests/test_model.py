"""Closed-form layer: scale functions, generator, drifts, regimes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdrelab.model import (
    DriftPair,
    FunctionBundle,
    ModelParams,
    QuenchedVariant,
    Regime,
    bundle_U,
    bundle_V,
    classify_regime,
    drift_conditioned_extinction,
    drift_conditioned_survival,
    extinction_probability,
    generator_apply,
    quenched_drift_coefficient,
    rao_blackwell_se_ratio,
    scale_U,
    scale_V,
    survival_ratio,
)

STD = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)

params_st = st.builds(
    ModelParams,
    alpha=st.floats(-3.0, 3.0),
    sigma_e=st.floats(0.1, 3.0),
    sigma_b=st.floats(0.05, 3.0),
    z0=st.floats(0.0, 10.0),
)


def test_extinction_probability_standard_set():
    assert extinction_probability(1.0, STD) == pytest.approx(0.25, abs=1e-15)


def test_extinction_probability_boundaries():
    assert extinction_probability(0.0, STD) == 1.0
    big = extinction_probability(1e6, STD)
    assert 0.0 < big < 1e-10


def test_rao_blackwell_se_ratio_closed_form():
    assert rao_blackwell_se_ratio(1.0, STD) == pytest.approx(math.sqrt(27 / 7), rel=1e-14)
    # moderate z: agrees with the direct moment formula
    p = ModelParams(alpha=0.7, sigma_e=1.3, sigma_b=0.9, z0=1.0)
    for z in (0.3, 5.0, 100.0):
        m1, m2 = extinction_probability(z, p), extinction_probability(2 * z, p)
        direct = math.sqrt(m1 * (1 - m1) / (m2 - m1 * m1))
        assert rao_blackwell_se_ratio(z, p) == pytest.approx(direct, rel=1e-10)
    # small z, where the direct formula cancels: ratio -> 1/sqrt(x)
    x = p.sigma_e**2 * 1e-9 / p.sigma_b**2
    assert rao_blackwell_se_ratio(1e-9, p) == pytest.approx(x**-0.5, rel=1e-6)
    with pytest.raises(ValueError):
        rao_blackwell_se_ratio(0.0, p)


@given(params_st, st.floats(1e-6, 50.0), st.floats(1e-6, 50.0))
@settings(max_examples=200, deadline=None)
def test_extinction_probability_monotone_in_z(p, z1, z2):
    if not (p.alpha > 0 and p.sigma_b > 0):
        return
    lo, hi = sorted([z1, z2])
    assert extinction_probability(hi, p) <= extinction_probability(lo, p) + 1e-15


def test_scale_functions_known_values():
    # U(z) = (sigma_e^2 z + sigma_b^2)^(-beta), V(s) = e^(-beta s)
    assert scale_U(1.0, STD) == pytest.approx(0.25)
    assert scale_U(0.0, STD) == pytest.approx(1.0)
    assert scale_V(0.0, STD) == 1.0
    assert scale_V(1.0, STD) == pytest.approx(math.exp(-2.0))


@pytest.mark.parametrize("alpha,regime", [
    (0.5, Regime.WEAKLY_SUPERCRITICAL),
    (1.0, Regime.INTERMEDIATE_SUPERCRITICAL),
    (2.0, Regime.STRONGLY_SUPERCRITICAL),
    (-0.5, Regime.WEAKLY_SUBCRITICAL),
    (-1.0, Regime.INTERMEDIATE_SUBCRITICAL),
    (-2.0, Regime.STRONGLY_SUBCRITICAL),
])
def test_regime_trichotomy_at_unit_volatility(alpha, regime):
    p = ModelParams(alpha=alpha, sigma_e=1.0, sigma_b=1.0, z0=1.0)
    assert classify_regime(p) is regime


def test_generator_annihilates_scale_functions():
    z = np.array([0.01, 0.5, 1.0, 7.3, 40.0])
    s = np.array([-2.0, -0.3, 0.0, 1.1, 2.5])
    for p in (STD, ModelParams(0.7, 1.3, 0.4, 2.0), ModelParams(-1.2, 0.8, 1.5, 1.0)):
        for bundle in (bundle_U(p), bundle_V(p)):
            res = np.abs(generator_apply(bundle, z, s, p))
            # relative to the size of the individual generator terms, since
            # the cancellation is what is being checked
            scale = np.maximum(np.abs(bundle.f(z, s)), 1e-300)
            assert float(np.max(res / scale)) < 1e-10


def test_generator_not_zero_on_non_harmonic_function():
    f = FunctionBundle(
        f=lambda z, s: z**2,
        f_z=lambda z, s: 2 * z,
        f_s=lambda z, s: 0.0,
        f_zz=lambda z, s: 2.0,
        f_ss=lambda z, s: 0.0,
        f_zs=lambda z, s: 0.0,
    )
    assert abs(generator_apply(f, 1.0, 0.0, STD)) > 0.1


def finite_difference_bundle(f, h: float = 1e-5) -> FunctionBundle:
    """Central-difference derivative bundle for a smooth f."""

    def f_z(z, s):
        return (f(z + h, s) - f(z - h, s)) / (2 * h)

    def f_s(z, s):
        return (f(z, s + h) - f(z, s - h)) / (2 * h)

    def f_zz(z, s):
        return (f(z + h, s) - 2 * f(z, s) + f(z - h, s)) / h**2

    def f_ss(z, s):
        return (f(z, s + h) - 2 * f(z, s) + f(z, s - h)) / h**2

    def f_zs(z, s):
        return (
            f(z + h, s + h) - f(z + h, s - h) - f(z - h, s + h) + f(z - h, s - h)
        ) / (4 * h**2)

    return FunctionBundle(f=f, f_z=f_z, f_s=f_s, f_zz=f_zz, f_ss=f_ss, f_zs=f_zs)


def test_analytic_derivatives_match_finite_differences():
    p = ModelParams(0.9, 1.1, 0.7, 1.0)
    ana = bundle_U(p)
    num = finite_difference_bundle(ana.f, h=1e-5)
    for z in (0.3, 1.0, 5.0):
        for name in ("f_z", "f_s", "f_zz", "f_ss", "f_zs"):
            a = getattr(ana, name)(z, 0.4)
            b = getattr(num, name)(z, 0.4)
            assert a == pytest.approx(b, rel=5e-5, abs=5e-6), name


supercritical_st = st.builds(
    ModelParams,
    alpha=st.floats(0.01, 3.0),
    sigma_e=st.floats(0.1, 3.0),
    sigma_b=st.floats(0.05, 3.0),
    z0=st.floats(0.0, 10.0),
)


@given(supercritical_st, st.floats(1e-4, 30.0))
@settings(max_examples=200, deadline=None)
def test_extinction_drift_identity(p, z):
    # The two structural coefficients recombine into the total population
    # drift (sigma_e^2/2 - alpha) z, whatever the state.
    pair = drift_conditioned_extinction(z, p)
    total = pair.drift_z + z * pair.drift_s
    expected = (0.5 * p.sigma_e**2 - p.alpha) * z
    assert total == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_survival_drift_exceeds_unconditioned():
    p = STD
    for z in (0.05, 0.5, 2.0):
        pair = drift_conditioned_survival(z, p)
        total = pair.drift_z + z * pair.drift_s
        assert total > (p.alpha + 0.5 * p.sigma_e**2) * z


def test_quenched_drift_variants_at_standard_set():
    c_u = quenched_drift_coefficient(QuenchedVariant.UNCONDITIONED, 1.0, STD)
    c_e = quenched_drift_coefficient(QuenchedVariant.COND_EXTINCTION, 1.0, STD)
    assert c_u == pytest.approx(1.5)
    assert c_e == pytest.approx(-0.5)
    c_s = quenched_drift_coefficient(QuenchedVariant.COND_SURVIVAL, 1.0, STD)
    assert c_s > c_u


def test_survival_ratio_small_z_stability():
    # expm1-based form: R(z) ~ U(0)/(beta sigma_e^2 z / sigma_b^2) as z -> 0
    p = STD
    z = 1e-12
    r = survival_ratio(z, p)
    assert r == pytest.approx(1.0 / (p.beta * z), rel=1e-6)


@pytest.mark.parametrize("bad", [
    dict(alpha=math.nan, sigma_e=1.0, sigma_b=1.0, z0=1.0),
    dict(alpha=1.0, sigma_e=-1.0, sigma_b=1.0, z0=1.0),
    dict(alpha=1.0, sigma_e=1.0, sigma_b=-0.1, z0=1.0),
    dict(alpha=1.0, sigma_e=1.0, sigma_b=0.0, z0=0.0),
])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        ModelParams(**bad)


def test_beta_undefined_without_environment_noise():
    p = ModelParams(alpha=1.0, sigma_e=0.0, sigma_b=1.0, z0=1.0)
    with pytest.raises(ValueError):
        _ = p.beta


def _outcome(f, z, p, entry=None):
    """f(z, p) as reprs of its floats (entry `entry` of an array result), or
    the ValueError it raises; numpy's inf and nan pass without warnings."""
    try:
        with np.errstate(all="ignore"):
            out = f(z, p)
    except ValueError as exc:
        return f"ValueError: {exc}"
    values = (out.drift_z, out.drift_s) if isinstance(out, DriftPair) else (out,)
    if entry is not None:
        return tuple(repr(float(v[entry])) for v in values)
    assert all(type(v) is float for v in values)
    return tuple(repr(v) for v in values)


STATE_FUNCTIONS = [
    drift_conditioned_extinction,
    drift_conditioned_survival,
    survival_ratio,
    lambda z, p: quenched_drift_coefficient(QuenchedVariant.COND_SURVIVAL, z, p),
]

conditioning_st = st.builds(
    ModelParams,
    alpha=st.floats(0.01, 3.0),
    sigma_e=st.floats(0.1, 3.0),
    sigma_b=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
    z0=st.just(1.0),
)


@given(conditioning_st, st.floats(-10.0, 100.0))
@example(STD, -0.5)  # negative state
@example(STD, 0.0)  # z = 0 under survival conditioning
@example(ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=0.0, z0=1.0), 0.0)  # z = 0, sigma_b = 0
@example(ModelParams(alpha=1.0, sigma_e=0.5, sigma_b=0.0, z0=1.0), 5e-324)  # D underflows
@example(ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1e-170, z0=1.0), 0.5)  # sigma_b^2 underflows
@settings(max_examples=300, deadline=None)
def test_a_float_state_is_a_zero_d_array_and_an_array_entry(p, z):
    # The single-path loops pass Python floats, which the model functions
    # keep as floats; they must give numpy's values and numpy's errors.
    for f in STATE_FUNCTIONS:
        as_float = _outcome(f, z, p)
        assert _outcome(f, np.array(z), p) == as_float
        assert _outcome(f, np.array([1.0, z, 2.0]), p, entry=1) == as_float


def test_drift_pair_unpacks_as_a_pair_of_its_fields():
    for f in (drift_conditioned_extinction, drift_conditioned_survival):
        out = f(0.5, STD)
        assert isinstance(out, DriftPair) and isinstance(out, tuple)
        drift_z, drift_s = out
        assert (drift_z, drift_s) == (out.drift_z, out.drift_s)
        assert type(drift_z) is float and type(drift_s) is float
        vec = f(np.array([0.5, 2.0]), STD)
        assert vec.drift_z[0] == drift_z and vec.drift_s[0] == drift_s
