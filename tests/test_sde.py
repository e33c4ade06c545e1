"""Path-level simulation engine checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from bdrelab.envexact import environment_survival_curve
from bdrelab.errors import NumericalFailure
from bdrelab.estimators import ExtinctionMethod, estimate_extinction
from bdrelab.model import (
    ModelParams,
    QuenchedVariant,
    drift_conditioned_survival,
    extinction_probability,
    scale_U,
)
from bdrelab.rng import RngStream
from bdrelab.sde import (
    MAX_HALVINGS,
    SchemeConfig,
    _bridge_cap,
    _bridge_jump,
    _escape_level,
    _euler_step,
    _guarded_step,
    _halve,
    _Variant,
    _z_chain_step,
    absorbed_fraction,
    bridge_extinction_frequency,
    coupled_refinement_means,
    ensemble_final_states,
    ensemble_functional_means,
    path_functionals,
    simulate_bdre,
    simulate_conditioned_extinction,
    simulate_conditioned_survival,
    simulate_discrete_bpre,
    simulate_quenched,
)

STD = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)
CFG = SchemeConfig(dt=0.01, horizon=2.0)


def test_rng_streams_are_reproducible_and_distinct():
    a = RngStream(11, 0).generator().standard_normal(4)
    b = RngStream(11, 0).generator().standard_normal(4)
    c = RngStream(11, 1).generator().standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_grid_and_nonnegativity():
    path = simulate_bdre(STD, CFG, RngStream(3, 0))
    assert path.times[0] == 0.0
    assert path.times[-1] == pytest.approx(2.0)
    assert len(path.times) == CFG.n_steps + 1
    assert np.all(path.z_values >= 0.0)


def test_absorption_is_permanent():
    # small z0 and strong branching noise to force hits of zero
    p = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=2.0, z0=0.05)
    hit = 0
    for i in range(200):
        path = simulate_bdre(p, CFG, RngStream(17, i))
        if path.absorbed_at is not None:
            hit += 1
            k = int(np.searchsorted(path.times, path.absorbed_at))
            assert np.all(path.z_values[k:] == 0.0)
    assert hit > 50


def test_no_branching_noise_gives_exact_exponential_of_environment():
    p = ModelParams(alpha=0.4, sigma_e=0.8, sigma_b=0.0, z0=2.0)
    path = simulate_bdre(p, CFG, RngStream(5, 0))
    assert np.allclose(path.z_values, p.z0 * np.exp(path.s_values), rtol=1e-12)


def test_conditioned_variants_run_and_tag_paths():
    pe = simulate_conditioned_extinction(STD, CFG, RngStream(7, 0))
    ps = simulate_conditioned_survival(STD, CFG, RngStream(7, 1))
    assert pe.model_tag != ps.model_tag
    assert np.all(ps.z_values > 0.0)  # survival conditioning never absorbs


def test_quenched_environment_sign_convention():
    # The extinction-conditioned quenched kernel carries the negated-drift
    # environment in s_values; over many paths the mean environment slope
    # should be close to -alpha.
    slopes = []
    for i in range(400):
        path = simulate_quenched(STD, CFG, RngStream(23, i), QuenchedVariant.COND_EXTINCTION)
        slopes.append(path.s_values[-1] / CFG.horizon)
    m = float(np.mean(slopes))
    se = float(np.std(slopes, ddof=1) / math.sqrt(len(slopes)))
    assert abs(m - (-STD.alpha)) < 4 * se


def test_path_functionals_keys_and_values():
    path = simulate_bdre(STD, CFG, RngStream(9, 0))
    fns = path_functionals(path, STD)
    assert set(fns) == {"U_of_Z", "V_of_S", "Z_over_expS"}
    assert fns["U_of_Z"][0] == pytest.approx(scale_U(STD.z0, STD))
    assert fns["Z_over_expS"][0] == pytest.approx(STD.z0)


def test_ensemble_thread_count_does_not_change_results():
    # 60 000 paths make two batches, so threads=2 runs them in the pool
    short = SchemeConfig(dt=0.01, horizon=0.05)
    noisy = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=2.0, z0=0.05)
    n = 60_000
    kernels = {
        "bdre": lambda th: ensemble_final_states("bdre", STD, short, [0.05], n, 31, th),
        "cond-survival": lambda th: ensemble_final_states(
            "cond-survival", noisy, short, [0.05], n, 31, th
        ),
        "coupled": lambda th: coupled_refinement_means(STD, short, [0.05], n, 31, th),
        "absorbed": lambda th: absorbed_fraction(noisy, short, n, 31, th),
        "environment": lambda th: environment_survival_curve(
            STD, [0.02, 0.05], n, 0.01, seed=7, threads=th
        ),
    }
    for name, run in kernels.items():
        one, two = run(1), run(2)
        if name in ("bdre", "cond-survival"):
            for (z1, s1), (z2, s2) in zip(one.values(), two.values()):
                assert np.array_equal(z1, z2) and np.array_equal(s1, s2), name
        else:
            assert one == two, name
        if name == "absorbed":
            assert one[0] > 0, "no absorption to count"


def test_survival_guard_retries_with_half_steps_and_carries_s():
    z = np.array([0.05, 1.0, 0.02])
    s = np.array([0.1, 0.2, 0.3])
    dt = 0.25
    dwe = np.array([0.1, 0.1, 0.1])
    dwb = np.array([-3.0, 0.0, -3.0])  # drives paths 0 and 2 below zero

    def step(zi, si, h, we, wb):
        pair = drift_conditioned_survival(zi, STD)
        ds = pair.drift_s * h + STD.sigma_e * we
        return zi + pair.drift_z * h + zi * ds + STD.sigma_b * math.sqrt(zi) * wb, si + ds

    assert step(0.05, 0.1, dt, 0.1, -3.0)[0] <= 0 and step(0.02, 0.3, dt, 0.1, -3.0)[0] <= 0
    got_z, got_s = _guarded_step(
        _Variant.COND_SURVIVAL, STD, z, s, dt, dwe, dwb, np.random.default_rng(5)
    )

    # hand replay: the two rejected paths take two half steps each, drawing
    # environment noise for both, then branching noise for both, per half
    g = np.random.default_rng(5)
    sq = math.sqrt(dt / 2)
    want = {1: step(1.0, 0.2, dt, 0.1, 0.0)}
    state = {0: (0.05, 0.1), 2: (0.02, 0.3)}
    for _ in range(2):
        we, wb = sq * g.standard_normal(2), sq * g.standard_normal(2)
        for j, i in enumerate((0, 2)):
            state[i] = step(*state[i], dt / 2, we[j], wb[j])
            assert state[i][0] > 0  # no deeper halving at this seed
    want.update(state)
    for i in range(3):
        assert got_z[i] == pytest.approx(want[i][0], rel=1e-14)
        assert got_s[i] == pytest.approx(want[i][1], rel=1e-14)
    with pytest.raises(NumericalFailure):
        _halve(_Variant.COND_SURVIVAL, STD, z, s, dt, g, MAX_HALVINGS + 1)


def test_ensemble_checkpoint_must_sit_on_grid():
    with pytest.raises(ValueError):
        ensemble_final_states("bdre", STD, CFG, [0.105], 100, seed=1)


def test_martingale_mean_small_n():
    means = ensemble_functional_means(STD, CFG, [2.0], 20_000, seed=41)
    m, se = means[2.0]["U_of_Z"]
    assert abs(m - 0.25) < 4 * se


def test_coupled_refinement_shares_environment_exactly():
    out = coupled_refinement_means(STD, CFG, [1.0, 2.0], 2000, seed=13)
    for t in (1.0, 2.0):
        d_mean, d_se = out[t]["V_of_S"]["diff"]
        # same Brownian increments, same S: the difference is pure float noise
        assert abs(d_mean) < 1e-12
        assert d_se < 1e-12
        assert out[t]["U_of_Z"]["coarse"][0] != out[t]["U_of_Z"]["fine"][0]


def test_discrete_bpre_grid_and_rescaling():
    n = 50
    path = simulate_discrete_bpre(n, STD, horizon=1.0, rng=RngStream(19, 0))
    assert path.times[0] == 0.0
    assert path.times[-1] == pytest.approx(1.0)
    scaled = path.z_values * n
    assert np.allclose(scaled, np.round(scaled))  # counts divided by n
    assert path.model_tag == f"bpre-n{n}"


def test_discrete_bpre_quenched_mean_identity():
    # E[Z_gen | environment] = z0 n e^{S_gen} holds exactly for the
    # negative-binomial offspring convention; check the annealed version
    # E[Z e^{-S}] = z0 at the horizon across replications.
    n = 30
    vals = []
    for i in range(2000):
        path = simulate_discrete_bpre(n, STD, horizon=0.5, rng=RngStream(29, i))
        vals.append(path.z_values[-1] * math.exp(-path.s_values[-1]))
    m = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(m - STD.z0) < 4 * se


def _binomial_z(p_a: float, n_a: int, p_b: float, n_b: int) -> float:
    se = math.hypot(math.sqrt(p_a * (1 - p_a) / n_a), math.sqrt(p_b * (1 - p_b) / n_b))
    return (p_a - p_b) / se


@pytest.mark.parametrize("n_scale, z0", [(100, 0.05), (5, 0.4)])
def test_bridge_jump_has_the_law_of_its_generations(n_scale, z0):
    # one jump of j generations against j one-generation steps of
    # simulate_discrete_bpre; at n_scale 5 the jump is a single generation
    params = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=z0)
    j = max(1, n_scale // 10)
    n = 4000
    ref = np.array([
        round(simulate_discrete_bpre(n_scale, params, j / n_scale, RngStream(41, i)).z_values[-1]
              * n_scale)
        for i in range(n)
    ])
    start = np.full(n, round(z0 * n_scale), dtype=np.int64)
    jump = _bridge_jump(RngStream(43).generator(), start, j, params.alpha / n_scale,
                        params.sigma_e / math.sqrt(n_scale))
    assert 0.1 < np.mean(ref == 0) < 0.9
    assert abs(_binomial_z(np.mean(jump == 0), n, np.mean(ref == 0), n)) < 5
    assert ks_2samp(jump, ref).pvalue > 0.01


def test_bridge_frequency_by_a_horizon_that_cuts_the_last_jump():
    # 15 generations at n_scale 100: one jump of 10, then one cut to 5
    params = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=0.05)
    n = 4000
    ref = np.mean([
        simulate_discrete_bpre(100, params, 0.15, RngStream(47, i)).absorbed_at is not None
        for i in range(n)
    ])
    p, _ = bridge_extinction_frequency(100, params, n, seed=53, horizon=0.15)
    assert abs(_binomial_z(p, n, ref, n)) < 5


def test_binomial_se_is_zero_when_no_path_resolves():
    # z0 = 50 over a short horizon: nothing is absorbed, so p = 0 and the
    # binomial se is exactly 0, not a floored 1e-152
    far = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=50.0)
    assert absorbed_fraction(far, SchemeConfig(dt=0.01, horizon=0.1), 200, seed=1) == (0.0, 0.0)
    assert bridge_extinction_frequency(1, far, 200, seed=1, horizon=1.0) == (0.0, 0.0)


def test_z_chain_step_is_the_euler_step_on_its_combined_noise():
    # at xi = (sigma_e Z dwe + sigma_b sqrt(Z) dwb) / sqrt((sigma_e^2 Z^2 +
    # sigma_b^2 Z) dt) the one-normal step proposes what the two-normal
    # step does; these proposals stay above Z / 2, so none is clamped
    params = ModelParams(alpha=0.7, sigma_e=1.3, sigma_b=0.9, z0=1.0)
    dt = 1e-3
    g = np.random.default_rng(59)
    Z = np.exp(g.uniform(math.log(0.5), math.log(50.0), 1000))
    dwe, dwb = math.sqrt(dt) * np.clip(g.standard_normal((2, 1000)), -3.0, 3.0)
    want, _ = _euler_step(_Variant.BDRE, params, Z, dt, dwe, dwb)
    xi = (params.sigma_e * Z * dwe + params.sigma_b * np.sqrt(Z) * dwb) / np.sqrt(
        (params.sigma_e**2 * Z**2 + params.sigma_b**2 * Z) * dt
    )
    got = _z_chain_step(params, dt)(Z, xi)
    assert np.all(want > Z / 2)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_absorbed_fraction_has_the_law_of_the_two_normal_chain():
    # the one-normal chain against P(Z_T = 0) of the two-dimensional Euler
    # ensemble, where Z = 0 is absorbing and nothing escapes
    cfg = SchemeConfig(dt=0.05, horizon=5.0)
    n = 100_000
    p, se = absorbed_fraction(STD, cfg, n, seed=61)
    Z, _ = ensemble_final_states("bdre", STD, cfg, [5.0], n, seed=67)[5.0]
    q = float(np.mean(Z == 0))
    assert 0.05 < q < 0.95
    assert abs(p - q) <= 4 * math.hypot(se, math.sqrt(q * (1 - q) / n))


def test_escape_level_follows_beta():
    # the residual extinction probability from the escape level is 1e-8,
    # and the standard point (beta = 2) keeps its level of 1e4
    assert _escape_level(STD) == 1e4
    for alpha in (0.25, 0.1):
        p = replace(STD, alpha=alpha)
        level = _escape_level(p)
        assert level > 1e4
        assert extinction_probability(level, p) == pytest.approx(1e-8, rel=1e-9)
    assert _escape_level(replace(STD, sigma_e=0.0)) == math.inf
    assert _escape_level(replace(STD, alpha=-0.5)) == math.inf
    assert _escape_level(replace(STD, alpha=1e-3)) == math.inf


def test_absorbed_fraction_tracks_a_path_above_1e4_where_its_residual_is_large():
    # at beta = 0.2 a path at 2e4 still dies out with probability
    # (1 + 2e4 / 100)^(-0.2) = 0.35, so it must not escape; absorption by
    # t = 10 against the Rao-Blackwell route at the same horizon (the
    # Euler chain reads about 0.002 high at dt 0.005)
    p = ModelParams(alpha=0.1, sigma_e=1.0, sigma_b=10.0, z0=2e4)
    cfg = SchemeConfig(dt=0.005, horizon=10.0)
    n = 20_000
    pw, pw_se = absorbed_fraction(p, cfg, n, seed=71)
    rb = estimate_extinction(p, ExtinctionMethod.RAO_BLACKWELL, n, 10.0, cfg, seed=73)
    assert pw > 10 * pw_se
    assert abs(pw - rb.mean) <= 4 * math.hypot(pw_se, rb.std_error)


BRIDGE = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=math.sqrt(2.0), z0=2.0)


def test_bridge_cap_follows_beta():
    # the standard point keeps 100 individuals per unit mass
    assert _bridge_cap(1000, BRIDGE) == (100_000, False)
    # at beta = 0.5 the cap is the least count whose residual is <= 4e-4
    low = replace(BRIDGE, alpha=0.25)
    cap, short = _bridge_cap(100, low)
    assert not short
    assert extinction_probability((cap - 1) / 100, low) > 4e-4
    assert extinction_probability(cap / 100, low) <= 4e-4 * (1 + 1e-12)  # exactly 4e-4 here
    # at beta = 0.2 no int64-safe cap reaches the bound
    assert _bridge_cap(100, replace(BRIDGE, alpha=0.1))[1]
    assert _bridge_cap(100, replace(BRIDGE, alpha=-0.5))[1]


def test_bridge_refuses_a_capped_replication_whose_residual_is_large():
    # started at 2^52 individuals, a replication passes the 2^53 ceiling in
    # one generation with probability 0.28; at beta = 0.2 its residual
    # there is about 2e-3, so counting it as surviving would bias the
    # frequency low
    p = replace(BRIDGE, alpha=0.1, z0=2.0**52)
    with pytest.raises(NumericalFailure, match="alpha=0.1"):
        bridge_extinction_frequency(1, p, 50, seed=79, horizon=2.0)
    # at the horizon there is nothing left to resolve: every replication survives
    assert bridge_extinction_frequency(1, p, 50, seed=79, horizon=1.0) == (0.0, 0.0)
