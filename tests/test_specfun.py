"""Quadrature layer: two independent routes for everything."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from bdrelab import specfun
from bdrelab.errors import NotComputableError, NumericalFailure
from bdrelab.model import ModelParams, Regime, classify_regime
from bdrelab.specfun import (
    DEFAULT_QUAD,
    INFINITE,
    QuadratureConfig,
    Reading,
    integral_a_psi,
    integrate_semi_infinite,
    laplace_Y,
    mean_inverse_gamma,
    phi_beta,
    phi_beta_tensor_oracle,
    psi,
    psi_closed_form,
    strong_level_limit,
    theorem1_constant,
)

# Values frozen from an independent brute-force tensor quadrature run
# before the adaptive implementation existed.
PHI_GOLDEN = {
    (1.0, 1.0): 0.09911666173345045,
    (0.5, 1.0): 0.6002633324909991,
    (2.0, 1.0): 0.009680389691228449,
    (1.0, 0.5): 0.4626788358934655,
    (1.0, 2.0): 0.021880381767816205,
    (0.5, 0.5): 2.1029072758878704,
    (2.0, 2.0): 0.0012192800784163617,
    (5.0, 1.0): 8.091950436743643e-05,
    (1.0, 4.0): 0.007070097742159484,
}


@pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_psi_quadrature_matches_closed_form(a):
    assert psi(a) == pytest.approx(psi_closed_form(a), rel=1e-10)


def test_psi_closed_form_spot_value():
    # e^{-1} / sqrt(2 pi) at a = 1
    assert psi_closed_form(1.0) == pytest.approx(0.1467626632, rel=1e-9)


def test_psi_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        psi(0.0)


def test_integral_a_psi_both_routes():
    ref = 1.0 / math.sqrt(2.0 * math.pi)
    assert integral_a_psi() == pytest.approx(ref, abs=1e-9)
    assert integral_a_psi(use_closed_form=False) == pytest.approx(ref, abs=1e-7)


@pytest.mark.parametrize("a,beta", sorted(PHI_GOLDEN))
def test_phi_beta_against_frozen_goldens(a, beta):
    assert phi_beta(a, beta) == pytest.approx(PHI_GOLDEN[(a, beta)], rel=1e-8)


def test_phi_beta_adaptive_vs_tensor_oracle():
    for (a, beta) in ((0.5, 0.5), (1.0, 1.0), (2.0, 2.0)):
        assert phi_beta(a, beta) == pytest.approx(
            phi_beta_tensor_oracle(a, beta), rel=1e-8
        )


# The defining double integral by nested mpmath quadrature at 30 and 35
# digits, from tests/freeze_phi_beta_mpmath.py (which never uses the
# Tricomi-U closed form phi_beta evaluates); 17 significant digits kept.
PHI_BETA_MPMATH = {
    (1e-3, 1.0): 43116.852577813228,
    (0.05, 0.3): 164.52724415659661,
    (50.0, 0.2): 1.5920528339356686e-23,
    (1.0, 10.0): 0.023357231083592216,
    (1e-3, 30.0): 2.7400429675123114e58,
    (1.0, 30.0): 2261951.0979252336,
    (1.0, 60.0): 7.5726363770778023e24,
    (1e-3, 100.0): 1.2400062307363248e215,
    (1.0, 100.0): 1.8629393633968276e55,
    (200.0, 100.0): 7.2726021335875298e-200,
    (1.0, 300.0): 2.7659171082020216e248,
    (5.0, 400.0): 1.1267927760913841e202,
    (100.0, 1000.0): 1.0172347771651035e-90,
}


@pytest.mark.parametrize("a,beta", sorted(PHI_BETA_MPMATH))
def test_phi_beta_against_the_mpmath_table(a, beta):
    assert phi_beta(a, beta) == pytest.approx(PHI_BETA_MPMATH[(a, beta)], rel=1e-9)


@pytest.mark.parametrize("a,beta", [(5.0, 400.0), (100.0, 1000.0)])
def test_phi_beta_is_finite_where_its_prefactor_overflows(a, beta):
    # Gamma((beta+2)/2) e^-a a^(-beta/2) alone is beyond a float
    with pytest.raises(OverflowError):
        math.gamma(0.5 * (beta + 2.0)) * math.exp(-a - 0.5 * beta * math.log(a))
    assert phi_beta(a, beta) == pytest.approx(PHI_BETA_MPMATH[(a, beta)], rel=1e-9)


@pytest.mark.parametrize("a,beta", [(1e-3, 300.0), (0.05, 300.0)])
def test_phi_beta_overflow_is_judged_on_the_value(a, beta):
    # the values themselves are about 4.5e712 and 4.7e453
    with pytest.raises(NumericalFailure) as failure:
        phi_beta(a, beta)
    message = str(failure.value)
    assert "\n" not in message
    assert message.startswith(f"phi_beta overflows at a={a!r}, beta={beta!r}")


@pytest.mark.parametrize("a,beta", sorted(PHI_GOLDEN))
def test_phi_beta_matches_scipy_hyperu(a, beta):
    # Gamma(b)^2 e^-a U(b, 1, a) / (4 sqrt(2 pi) a^(b+1)), b = beta/2, with
    # scipy's own Tricomi function (which returns NaN at beta = 100, a = 1)
    b = 0.5 * beta
    closed = (
        special.gamma(b) ** 2 * math.exp(-a) * special.hyperu(b, 1.0, a)
        / (4.0 * math.sqrt(2.0 * math.pi) * a ** (b + 1.0))
    )
    assert phi_beta(a, beta) == pytest.approx(closed, rel=1e-12)


def _oracle_accepts(a, beta):
    return 0.05 <= beta <= 50.0 * min(a, 1.0) ** 2


@pytest.mark.parametrize("a,beta", sorted(PHI_BETA_MPMATH))
def test_tensor_oracle_meets_the_mpmath_table_or_refuses(a, beta):
    if _oracle_accepts(a, beta):
        value = phi_beta_tensor_oracle(a, beta)
        assert value == pytest.approx(PHI_BETA_MPMATH[(a, beta)], rel=1e-6)
    else:
        with pytest.raises(NumericalFailure):
            phi_beta_tensor_oracle(a, beta)


ORACLE_EDGE = [(1.0, 50.0), (0.5, 12.5), (0.1, 0.5), (0.0317, 0.05), (300.0, 50.0)]


@pytest.mark.parametrize("a,beta", ORACLE_EDGE)
def test_tensor_oracle_meets_1e6_at_the_edge_of_its_range(a, beta):
    assert _oracle_accepts(a, beta)
    assert phi_beta_tensor_oracle(a, beta) == pytest.approx(phi_beta(a, beta), rel=1e-6)


@pytest.mark.parametrize(
    "a,beta", [(1e-3, 300.0), (0.05, 300.0), (1.0, 100.0), (1e-3, 1.0), (1.0, 0.01)]
)
def test_tensor_oracle_refuses_before_building_its_grid(a, beta, monkeypatch):
    # without the range check the grid reads 1.6e-3 off at (1, 100) and
    # 2.7e-3 off at (1e-3, 1)
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built before the range check")

    monkeypatch.setattr(specfun, "_legendre_rule", no_grid)
    monkeypatch.setattr(specfun._special, "roots_genlaguerre", no_grid)
    # the cached sides too, which earlier calls may have filled
    monkeypatch.setattr(specfun, "_laguerre_side", no_grid)
    monkeypatch.setattr(specfun, "_legendre_side", no_grid)
    with pytest.raises(NumericalFailure) as failure:
        phi_beta_tensor_oracle(a, beta)
    message = str(failure.value)
    assert "\n" not in message
    assert f"a={a!r}" in message and f"beta={beta!r}" in message


def _full_grid_oracle(a, beta):
    """The tensor oracle's value with every column of its grid formed by
    logaddexp, on the same cached rules."""
    u_nodes, u_weights = specfun._laguerre_side(beta)
    two_lcosh, l_xi, xi_w = specfun._legendre_side(max(60.0, 800.0 / (beta + 2.0)))
    log_a = math.log(a)
    ld = np.logaddexp(np.log(u_nodes)[:, None], log_a + two_lcosh[None, :])
    le = l_xi[None, :] - 0.5 * (beta + 2.0) * ld
    kern = np.where(le < -745.0, 0.0, np.exp(le))
    pref = (
        math.gamma(0.5 * (beta + 2.0))
        / (math.sqrt(2.0) * math.pi)
        * math.exp(-a - 0.5 * beta * log_a)
    )
    return pref * float(u_weights @ kern @ xi_w)


@pytest.mark.parametrize("a,beta", sorted(PHI_GOLDEN) + ORACLE_EDGE)
def test_tensor_oracle_matches_its_full_grid(a, beta):
    assert phi_beta_tensor_oracle(a, beta) == pytest.approx(
        _full_grid_oracle(a, beta), rel=1e-14
    )


@given(st.floats(math.log(0.0317), math.log(300.0)), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_tensor_oracle_matches_its_full_grid_where_it_accepts(log_a, frac):
    # beta log-uniform over the accepted [0.05, 50 min(a, 1)^2]
    a = math.exp(log_a)
    top = 50.0 * min(a, 1.0) ** 2
    beta = min(max(0.05 * (top / 0.05) ** frac, 0.05), top)
    assert phi_beta_tensor_oracle(a, beta) == pytest.approx(
        _full_grid_oracle(a, beta), rel=1e-14
    )


def test_legendre_rule_integrates_polynomials_to_degree_3998():
    # 2000 Gauss nodes are exact to degree 3999: Int_{-1}^{1} x^k dx is
    # 2/(k+1) for even k and 0 for odd k
    x, w = specfun._legendre_rule()
    assert math.fsum(w) == pytest.approx(2.0, rel=1e-14)
    power = np.ones_like(x)
    for k in range(3999):
        exact = 2.0 / (k + 1)
        moment = float(w @ power)
        if k % 2:
            assert abs(moment) <= 1e-9 * exact, k
        else:
            assert moment == pytest.approx(exact, rel=1e-9), k
        power *= x


def test_integrate_semi_infinite_exp_map():
    assert integrate_semi_infinite(lambda x: math.exp(-x)) == pytest.approx(1.0, rel=1e-10)


def test_quadrature_budget_exhaustion_raises():
    tight = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=1)
    with pytest.raises(NumericalFailure) as failure:
        integrate_semi_infinite(lambda x: math.exp(-x) * math.cos(7.0 * x) ** 2, tight)
    message = str(failure.value)
    assert "\n" not in message
    assert "max_subdivisions=1" in message


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


def test_mean_inverse_gamma_values_and_blowup():
    assert mean_inverse_gamma(2.0) == pytest.approx(1.0)
    assert mean_inverse_gamma(3.0) == pytest.approx(0.5)
    assert mean_inverse_gamma(1.0) == INFINITE
    assert mean_inverse_gamma(0.5) == INFINITE


def test_laplace_Y_readings_disagree_in_the_limit():
    std = ModelParams(1.0, 1.0, 1.0, 1.0)
    inv = laplace_Y(math.inf, 1.0, std, Reading.INVERSE_GAMMA)
    printed = laplace_Y(math.inf, 1.0, std, Reading.AS_PRINTED)
    assert inv == pytest.approx(0.25, abs=1e-10)
    # the as-printed orientation lands on a Bessel value instead
    assert printed == pytest.approx(0.5075195091321117, rel=1e-10)
    assert abs(printed - 0.25) > 0.2


def test_laplace_Y_as_printed_beta_one_bessel_value():
    p = ModelParams(0.5, 1.0, 1.0, 1.0)
    assert laplace_Y(math.inf, 1.0, p, Reading.AS_PRINTED) == pytest.approx(
        0.2797317636330449, rel=1e-10
    )


def test_laplace_Y_degenerate_arguments():
    std = ModelParams(1.0, 1.0, 1.0, 1.0)
    assert laplace_Y(0.0, 1.0, std) == 1.0
    assert laplace_Y(2.0, 0.0, std) == 1.0
    v = laplace_Y(1.0, 1.0, std)
    assert 0.0 < v < 1.0


def test_theorem1_constant_by_regime():
    strong = ModelParams(2.0, 1.0, 1.0, 1.0)
    inter = ModelParams(1.0, 1.0, 1.0, 1.0)
    weak = ModelParams(0.5, 1.0, 1.0, 1.0)
    assert theorem1_constant(strong, Regime.STRONGLY_SUPERCRITICAL, 1.0) == pytest.approx(1.0)
    assert theorem1_constant(inter, Regime.INTERMEDIATE_SUPERCRITICAL, 1.0) == pytest.approx(
        2.0 / math.sqrt(2.0 * math.pi)
    )
    with pytest.raises(NotComputableError):
        theorem1_constant(weak, Regime.WEAKLY_SUPERCRITICAL, 1.0)


def test_strong_level_limit_is_two_at_the_standard_point():
    # z sigma_e^2 nu / sigma_b^2 with nu = 2 (alpha / sigma_e^2 - 1) = 2, where
    # the printed constant (theorem1_constant) is 1
    assert strong_level_limit(ModelParams(2.0, 1.0, 1.0, 1.0), 1.0) == 2.0


def test_theorem1_constant_regime_mismatch_rejected():
    strong = ModelParams(2.0, 1.0, 1.0, 1.0)
    assert classify_regime(strong) is Regime.STRONGLY_SUPERCRITICAL
    with pytest.raises(ValueError):
        theorem1_constant(strong, Regime.INTERMEDIATE_SUPERCRITICAL, 1.0)


def test_theorem1_constant_strong_with_infinite_moment():
    # nu = 2 (alpha / sigma_e^2 - 1) <= 1 makes E[1/Gamma] blow up
    p = ModelParams(1.2, 1.0, 1.0, 1.0)
    assert classify_regime(p) is Regime.STRONGLY_SUPERCRITICAL
    assert theorem1_constant(p, Regime.STRONGLY_SUPERCRITICAL, 1.0) == INFINITE
