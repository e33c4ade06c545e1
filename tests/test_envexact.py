"""The environment reducer and the exact quenched formulas it averages."""

import math

import pytest

from bdrelab.envexact import dufresne_samples, environment_laplace, environment_survival_curve
from bdrelab.errors import ConfigError
from bdrelab.model import ModelParams
from bdrelab.specfun import strong_level_limit

STD = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)
# the extinction-conditioned survival curve runs on the negated drift
NEGATED = {alpha: ModelParams(-alpha, 1.0, 1.0, 1.0) for alpha in (0.5, 1.0, 2.0)}


def test_quenched_extinction_formula_on_flat_environment():
    # alpha = sigma_e = 0 keeps S = 0: I_t = (sigma_b^2 / 2) t, extinct prob exp(-z / I_t)
    flat = ModelParams(alpha=0.0, sigma_e=0.0, sigma_b=1.0, z0=1.0)
    out = environment_survival_curve(flat, [0.0, 4.0], 10, 0.01, 1, collect="extinct")
    assert out[4.0][0] == pytest.approx(math.exp(-1.0 / 2.0), rel=1e-9)
    assert out[0.0] == (0.0, 0.0)  # I_0 = 0, no time to die


def test_quenched_extinction_degenerate_cases():
    flat = ModelParams(alpha=0.0, sigma_e=0.0, sigma_b=1.0, z0=0.0)
    out = environment_survival_curve(flat, [0.0, 1.0], 10, 0.1, 1, collect="extinct")
    assert out == {0.0: (1.0, 0.0), 1.0: (1.0, 0.0)}  # zero mass is extinct already


def test_conditional_population_mean_is_exact():
    # E[Z_t e^{-S_t} | S] = z on every environment path, so the slope of the
    # quenched transform at lambda = 0 is z, up to O(lambda) and no Monte Carlo error
    z0, lam = 1.5, 1e-6
    p = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=z0)
    m, _ = environment_laplace(p, [lam], t=2.0, n=2000, dt=0.01, seed=101)[lam]
    assert (1.0 - m) / lam == pytest.approx(z0, rel=1e-4)


def test_conditional_atom_at_zero_matches_formula():
    # P(Z_t = 0 | S) = e^{-z/I_t} is the lambda -> inf limit of the transform
    # e^{-z/(I_t + 1/lambda)}, which decreases to it along the same environments
    t, n, dt, seed = 2.0, 2000, 0.01, 103
    lap = environment_laplace(STD, [1.0, 1e3, math.inf], t, n, dt, seed)
    atom = environment_survival_curve(STD, [t], n, dt, seed, collect="extinct")[t]
    alive = environment_survival_curve(STD, [t], n, dt, seed)[t]
    assert lap[math.inf] == atom
    assert lap[1.0][0] > lap[1e3][0] > atom[0] > 0.0
    assert atom[0] + alive[0] == pytest.approx(1.0, abs=1e-12)


def test_environment_laplace_endpoints():
    out = environment_laplace(STD, [0.0, 1.0], t=2.0, n=2000, dt=0.01, seed=109)
    m0, se0 = out[0.0]
    assert m0 == 1.0 and se0 == 0.0
    m1, _ = out[1.0]
    assert 0.0 < m1 < 1.0


def test_survival_curve_monotone_in_time():
    out = environment_survival_curve(STD, [0.5, 1.0, 2.0], n=2000, dt=0.01, seed=113)
    vals = [out[t][0] for t in (0.5, 1.0, 2.0)]
    # pathwise I_t is nondecreasing, so mean survival cannot increase
    assert vals[0] >= vals[1] >= vals[2]


def test_dufresne_truncated_mean():
    # E[ Int_0^inf e^{-S} ] = 1 / (alpha - sigma_e^2 / 2) = 2 at the standard set
    s = dufresne_samples(STD, horizon=30.0, n=20_000, dt=0.01, seed=127)
    m = float(s.mean())
    se = float(s.std(ddof=1) / math.sqrt(len(s)))
    assert abs(m - 2.0) < 4 * se


def test_dufresne_requires_positive_drift():
    with pytest.raises(ValueError):
        dufresne_samples(ModelParams(-1.0, 1.0, 1.0, 1.0), horizon=10.0, n=10, dt=0.01, seed=1)


def test_time_shorter_than_half_a_step_is_a_config_error():
    # round(t / dt) = 0 leaves no grid to step on
    with pytest.raises(ConfigError):
        environment_survival_curve(STD, [0.004], n=10, dt=0.01, seed=1)
    with pytest.raises(ConfigError):
        environment_laplace(STD, [1.0], t=0.004, n=10, dt=0.01, seed=1)
    with pytest.raises(ConfigError):
        dufresne_samples(STD, horizon=0.004, n=10, dt=0.01, seed=1)


@pytest.mark.parametrize("alpha", sorted(NEGATED))
def test_tilted_and_untilted_curves_agree(alpha):
    # the likelihood ratio makes the tilted mean the untilted one; fresh noise
    times, n = [1.0, 2.0, 4.0], 20_000
    theta = min(alpha, 1.0)
    tilted = environment_survival_curve(NEGATED[alpha], times, n, 0.01, 131, tilt=theta)
    plain = environment_survival_curve(NEGATED[alpha], times, n, 0.01, 137)
    for t in times:
        (m1, se1), (m0, se0) = tilted[t], plain[t]
        assert abs(m1 - m0) <= 5 * math.hypot(se1, se0), (t, m1, m0)


def test_tilted_strong_level_has_an_honest_standard_error():
    # e^{1.5 t} p(t) at alpha = 2, t = 12 against its closed-form limit 2.
    # Untilted, n = 5e4 gave relative se 8-47% and one seed landed 5.4 se off.
    t, n = 12.0, 10_000
    limit = strong_level_limit(ModelParams(2.0, 1.0, 1.0, 1.0), 1.0)
    for seed in range(5):
        m, se = environment_survival_curve(NEGATED[2.0], [t], n, 0.01, 140 + seed, tilt=1.0)[t]
        assert se < 0.05 * m
        level, level_se = math.exp(1.5 * t) * m, math.exp(1.5 * t) * se
        assert abs(level - limit) < 4 * level_se, (seed, level, level_se)


def test_tilt_must_be_finite():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            environment_survival_curve(STD, [1.0], n=10, dt=0.01, seed=1, tilt=bad)
