"""Exact quenched formulas on explicit environments."""

import math

import numpy as np
import pytest

from bdrelab.envexact import (
    dufresne_samples,
    env_from_samples,
    environment_laplace,
    environment_survival_curve,
    quenched_extinct_by,
    sample_z_given_env,
    sample_z_given_env_batch,
    simulate_environment,
)
from bdrelab.errors import ConfigError
from bdrelab.model import ModelParams
from bdrelab.rng import RngStream
from bdrelab.sde import SchemeConfig

STD = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)
CFG = SchemeConfig(dt=0.01, horizon=2.0)


def test_quenched_extinction_formula_on_flat_environment():
    # S = 0 throughout: I_t = (sigma_b^2 / 2) t, extinct prob = exp(-z / I_t)
    times = np.linspace(0.0, 4.0, 401)
    env = env_from_samples(times, np.zeros(401), STD)
    q = quenched_extinct_by(env, 4.0, 1.0)
    assert q == pytest.approx(math.exp(-1.0 / 2.0), rel=1e-9)


def test_quenched_extinction_degenerate_cases():
    times = np.linspace(0.0, 1.0, 11)
    env = env_from_samples(times, np.zeros(11), STD)
    assert quenched_extinct_by(env, 1.0, 0.0) == 1.0
    assert quenched_extinct_by(env, 0.0, 1.0) == 0.0  # I_0 = 0, no time to die


def test_env_from_samples_validation():
    with pytest.raises(ValueError):
        env_from_samples(np.array([0.0, 1.0]), np.array([0.5, 0.0]), STD)  # S_0 != 0
    with pytest.raises(ValueError):
        env_from_samples(np.array([0.0, 0.0]), np.array([0.0, 0.0]), STD)


def test_conditional_population_mean_is_exact():
    # E[Z_t | S] = z e^{S_t} whatever the path; check on a simulated one.
    env = simulate_environment(STD, CFG, RngStream(101, 0))
    z0, t = 1.5, 2.0
    draws = sample_z_given_env_batch(env, t, z0, RngStream(101, 1), size=200_000)
    target = z0 * math.exp(env.s_values[env.index_of(t)])
    se = float(draws.std(ddof=1) / math.sqrt(len(draws)))
    assert abs(float(draws.mean()) - target) < 4 * se


def test_conditional_atom_at_zero_matches_formula():
    env = simulate_environment(STD, CFG, RngStream(103, 0))
    q = quenched_extinct_by(env, 2.0, 1.0)
    draws = sample_z_given_env_batch(env, 2.0, 1.0, RngStream(103, 1), size=200_000)
    frac = float(np.mean(draws == 0.0))
    se = math.sqrt(q * (1 - q) / len(draws))
    assert abs(frac - q) < 4 * se


def test_single_draw_matches_batch_distribution():
    env = simulate_environment(STD, CFG, RngStream(107, 0))
    one = sample_z_given_env(env, 1.0, 1.0, RngStream(107, 1))
    assert one >= 0.0


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
