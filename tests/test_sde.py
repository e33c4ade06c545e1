"""Path-level simulation engine checks."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, kstest

from bdrelab import rng
from bdrelab.envexact import dufresne_samples, environment_laplace, environment_survival_curve
from bdrelab.errors import ConfigError, NumericalFailure
from bdrelab.estimators import (
    ExtinctionMethod,
    SurvivalRoute,
    estimate_conditioned_survival,
    estimate_extinction,
    laplace_limit_test,
    survival_points,
)
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
    _ensemble,
    _escape_level,
    _guarded_step,
    _halve,
    _roulette_rung,
    _stepper,
    _stratum_weights,
    _Variant,
    _window_normals,
    _z_chain_step,
    absorbed_fraction,
    bridge_extinction_frequency,
    coupled_refinement_means,
    ensemble_final_states,
    ensemble_functional_means,
    ensemble_quenched_final,
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
    # a multilevel estimator's level l >= 1 has streams of its own; level 0
    # is the plain pair
    d = RngStream(11, 0, 1).generator().standard_normal(4)
    e = RngStream(11, 0, 2).generator().standard_normal(4)
    assert np.array_equal(RngStream(11, 0, 0).generator().standard_normal(4), a)
    assert not any(np.array_equal(x, y) for x, y in ((a, d), (c, d), (d, e)))


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


_SIMULATED_KINDS = [
    (_Variant.BDRE, simulate_bdre),
    (_Variant.COND_EXTINCTION, simulate_conditioned_extinction),
    (_Variant.COND_SURVIVAL, simulate_conditioned_survival),
    *(
        (v, lambda p, c, r, v=v: simulate_quenched(p, c, r, v))
        for v in QuenchedVariant
    ),
]


def _one_element_replay(kind, params, cfg, stream):
    """(z, s) on the grid from the array step on a one-element vector.

    The path's normals come from the (n_steps, 2) block that a simulate_*
    call draws, scaled by sqrt(dt) in one multiply; the survival-conditioned
    kinds retry through _guarded_step on the same generator.
    """
    n_steps = cfg.n_steps
    dt = cfg.horizon / n_steps
    step = _stepper(kind, params, np)
    g = stream.generator()
    dw = g.standard_normal((n_steps, 2)) * math.sqrt(dt)
    guarded = kind in (_Variant.COND_SURVIVAL, QuenchedVariant.COND_SURVIVAL)
    Z, S = np.array([params.z0]), np.zeros(1)
    zs, ss = [Z[0]], [S[0]]
    for k in range(n_steps):
        dwe, dwb = dw[k, :1], dw[k, 1:]
        if guarded:
            Z, S = _guarded_step(step, Z, S, dt, dwe, dwb, g)
        else:
            prop, ds = step(Z, dt, dwe, dwb)
            Z, S = np.maximum(prop, 0.0), S + ds
            Z[Z <= cfg.absorption_threshold] = 0.0
        zs.append(Z[0])
        ss.append(S[0])
    return np.array(zs), np.array(ss)


@pytest.mark.parametrize("kind,simulate", _SIMULATED_KINDS, ids=lambda k: getattr(k, "value", ""))
@pytest.mark.parametrize("params", [STD, ModelParams(alpha=0.7, sigma_e=1.3, sigma_b=0.9, z0=1.0)])
@pytest.mark.parametrize("cfg", [CFG, SchemeConfig(dt=0.2, horizon=4.0)])
def test_a_simulated_path_is_the_array_step_on_one_element(kind, simulate, params, cfg):
    # one Euler step for paths and ensembles: a simulate_* path equals, bit
    # for bit, the numpy binding run on a one-element vector fed the same
    # increments; sigma_b = 0 is left out, where math.exp and np.exp may
    # differ in the last bit; at dt 0.2 the second point retries guarded steps
    for i in range(3):
        path = simulate(params, cfg, RngStream(29, i))
        z, s = _one_element_replay(kind, params, cfg, RngStream(29, i))
        assert np.array_equal(path.z_values, z)
        assert np.array_equal(path.s_values, s)


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


def test_ensemble_thread_count_does_not_change_results(monkeypatch):
    # 60 000 paths make two batches, so threads=2 runs them in the pool
    short = SchemeConfig(dt=0.01, horizon=0.05)
    noisy = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=2.0, z0=0.05)
    # the roulette rung sits at 0.205, and about a fifth of the paths of
    # each batch reach it within the horizon and draw their uniform
    steep = ModelParams(alpha=20.0, sigma_e=1.0, sigma_b=1.0, z0=0.05)
    n = 60_000
    kernels = {
        "bdre": lambda th: ensemble_final_states("bdre", STD, short, [0.05], n, 31, th),
        "cond-survival": lambda th: ensemble_final_states(
            "cond-survival", noisy, short, [0.05], n, 31, th
        ),
        "coupled": lambda th: coupled_refinement_means(STD, short, [0.05], n, 31, th),
        "absorbed": lambda th: absorbed_fraction(noisy, short, n, 31, th),
        "absorbed_roulette": lambda th: absorbed_fraction(steep, short, n, 31, th),
        "environment": lambda th: environment_survival_curve(
            STD, [0.02, 0.05], n, 0.01, seed=7, threads=th
        ),
        # antithetic pairs, tilted, with a lone path in the second batch
        "environment_paired": lambda th: environment_survival_curve(
            replace(STD, alpha=-1.0), [0.02, 0.05], n + 1, 0.01, seed=7, threads=th,
            tilt=1.0, antithetic=True,
        ),
        "laplace": lambda th: environment_laplace(STD, [0.5, 2.0], 0.05, n, 0.01, 7, th),
        # the multilevel route: level 0 in two batches on h0 = 0.04 and two
        # correction levels, then three for the transform on h0 = 0.08
        "environment_levels": lambda th: environment_survival_curve(
            replace(STD, alpha=-1.0), [0.04, 0.08], n + 1, 0.01, seed=7, threads=th,
            tilt=1.0, antithetic=True,
        ),
        "laplace_levels": lambda th: environment_laplace(STD, [0.5, 2.0], 0.08, n, 0.01, 7, th),
    }
    results = {}
    for name, run in kernels.items():
        one, two = run(1), run(2)
        results[name] = one
        if name in ("bdre", "cond-survival"):
            for (z1, s1), (z2, s2) in zip(one.values(), two.values()):
                assert np.array_equal(z1, z2) and np.array_equal(s1, s2), name
        else:
            assert one == two, name
        if name.startswith("absorbed"):
            assert one[0] > 0, "no absorption to count"
    # the roulette was played: without the rung no uniform is drawn, so the
    # same streams give other normals and another count
    monkeypatch.setattr("bdrelab.sde._roulette_rung", lambda params, escape: escape)
    assert kernels["absorbed_roulette"](1) != results["absorbed_roulette"]


@pytest.mark.parametrize("n", [0, -5])
def test_every_kernel_refuses_a_sample_size_below_one(n):
    # the batch scheduler refuses it, or before it the check of a kernel
    # that reports an se, so no kernel divides by it or concatenates no
    # batches; absorbed_fraction's sigma_b = 0 shortcut too
    short = SchemeConfig(dt=0.01, horizon=0.05)
    calls = [
        lambda: ensemble_final_states("bdre", STD, short, [0.05], n, 1),
        lambda: ensemble_quenched_final(QuenchedVariant.UNCONDITIONED, STD, short, [0.05], n, 1),
        lambda: ensemble_functional_means(STD, short, [0.05], n, 1),
        lambda: coupled_refinement_means(STD, short, [0.05], n, 1),
        lambda: absorbed_fraction(STD, short, n, 1),
        lambda: absorbed_fraction(replace(STD, sigma_b=0.0), short, n, 1),
        lambda: environment_survival_curve(STD, [0.05], n, 0.01, 1),
        lambda: environment_laplace(STD, [1.0], 0.05, n, 0.01, 1),
        lambda: dufresne_samples(STD, 0.05, n, 0.01, 1),
        lambda: estimate_extinction(STD, ExtinctionMethod.RAO_BLACKWELL, n, 0.05, short, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"n={n}"):
            call()


_SHORT = SchemeConfig(dt=0.01, horizon=0.05)
# each kernel that reports an se, with the least n it takes: one draw has
# no spread to measure (a ddof-1 se over it is NaN, a ddof-0 se exactly
# 0); absorbed_fraction forms its se over pairs, and the one pair of
# n = 2 has a spread of 0 about 2p whatever it does; the antithetic
# environments take two pairs, so that their pair sums have a spread
_SE_KERNELS = {
    "ensemble_functional_means": (
        2, lambda n: ensemble_functional_means(STD, _SHORT, [0.05], n, 1)),
    "coupled_refinement_means": (
        2, lambda n: coupled_refinement_means(STD, _SHORT, [0.05], n, 1)),
    "environment_survival_curve": (
        2, lambda n: environment_survival_curve(STD, [0.05], n, 0.01, 1)),
    "environment_laplace": (
        4, lambda n: environment_laplace(STD, [1.0], 0.05, n, 0.01, 1)),
    "environment_survival_curve_paired": (
        4, lambda n: environment_survival_curve(STD, [0.05], n, 0.01, 1, antithetic=True)),
    # three correction levels below h0 = 0.08
    "environment_survival_curve_levels": (
        4, lambda n: environment_survival_curve(STD, [0.08], n, 0.01, 1, antithetic=True)),
    "environment_laplace_levels": (
        4, lambda n: environment_laplace(STD, [1.0], 0.08, n, 0.01, 1)),
    "survival_points": (4, lambda n: survival_points(
        STD, [0.05], n, SurvivalRoute.NEGATED_ALPHA_SIM, 1, dt=0.01)),
    "laplace_limit_test": (
        4, lambda n: laplace_limit_test(STD, [1.0], 0.05, n, _SHORT, 1)),
    "rao_blackwell": (2, lambda n: estimate_extinction(
        STD, ExtinctionMethod.RAO_BLACKWELL, n, 0.05, _SHORT, 1)),
    "absorbed_fraction": (3, lambda n: absorbed_fraction(STD, _SHORT, n, 1)),
    "absorbed_fraction_no_branching": (
        3, lambda n: absorbed_fraction(replace(STD, sigma_b=0.0), _SHORT, n, 1)),
    "pathwise": (3, lambda n: estimate_extinction(
        STD, ExtinctionMethod.PATHWISE, n, 0.05, _SHORT, 1)),
    **{
        f"conditioned_survival_{route.name.lower()}": (
            2, lambda n, route=route: estimate_conditioned_survival(STD, 0.05, route, n, _SHORT, 3))
        for route in SurvivalRoute
    },
}


@pytest.mark.parametrize("kernel", _SE_KERNELS)
def test_a_kernel_that_reports_an_se_refuses_too_few_draws(kernel):
    least, call = _SE_KERNELS[kernel]
    for n in range(1, least):
        with pytest.raises(ValueError, match=f"n={n}"):
            call(n)
    call(least)


def test_what_reports_no_se_still_takes_a_single_draw():
    assert dufresne_samples(STD, 0.05, 1, 0.01, 1).shape == (1,)
    assert ensemble_final_states("bdre", STD, _SHORT, [0.05], 1, 1)[0.05][0].shape == (1,)
    assert estimate_extinction(STD, ExtinctionMethod.CLOSED_FORM, 1, 0.05, _SHORT, 1).n == 1


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
    bound = _stepper(_Variant.COND_SURVIVAL, STD, np)
    got_z, got_s = _guarded_step(bound, z, s, dt, dwe, dwb, np.random.default_rng(5))

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
        _halve(bound, z, s, dt, g, MAX_HALVINGS + 1)


def test_ensemble_checkpoint_must_sit_on_grid():
    with pytest.raises(ValueError, match="not on the grid"):
        ensemble_final_states("bdre", STD, CFG, [0.105], 100, seed=1)
    # on the fine grid of dt / 2, off the coarse grid of dt
    with pytest.raises(ValueError, match="not on the grid"):
        coupled_refinement_means(STD, CFG, [0.105], 100, seed=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ensemble_final_states("bdre", STD, CFG, [], 100, seed=1),
        lambda: ensemble_final_states("bdre", STD, CFG, [1.0, math.nan], 100, seed=1),
        lambda: ensemble_quenched_final(QuenchedVariant.UNCONDITIONED, STD, CFG, [-0.5], 100, 1),
        lambda: coupled_refinement_means(STD, CFG, [], 100, seed=1),
        lambda: coupled_refinement_means(STD, CFG, [math.inf], 100, seed=1),
        lambda: ensemble_functional_means(STD, CFG, [-1.0, 1.0], 100, seed=1),
    ],
    ids=["no-checkpoint", "nan", "negative", "coupled-none", "coupled-inf", "means-negative"],
)
def test_no_checkpoint_a_nonfinite_or_a_negative_one_is_a_config_error(call):
    # refused before any path is stepped
    with pytest.raises(ConfigError, match="checkpoint times"):
        call()


def test_martingale_mean_small_n():
    means = ensemble_functional_means(STD, CFG, [2.0], 20_000, seed=41)
    m, se = means[2.0]["U_of_Z"]
    assert abs(m - 0.25) < 4 * se


@pytest.mark.parametrize(
    "params, cfg",
    [
        (STD, CFG),
        (replace(STD, sigma_b=0.0), CFG),
        (STD, replace(CFG, absorption_threshold=0.01)),
    ],
    ids=["branching", "no-branching", "absorbing"],
)
def test_the_fine_half_of_the_coupled_pair_is_the_ensemble_at_half_the_step(params, cfg):
    coupled = coupled_refinement_means(params, cfg, [1.0, 2.0], 2000, seed=13)
    plain = ensemble_functional_means(params, replace(cfg, dt=cfg.dt / 2), [1.0, 2.0], 2000, 13)
    for t, means in plain.items():
        for name, mean_se in means.items():
            assert coupled[t][name]["fine"] == mean_se, (t, name)


def test_the_coarse_twin_replays_a_step_at_a_time():
    # 5 paths over 6 fine steps; z0 = 0.05 and sigma_b = 2 clamp some at 0
    p = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=2.0, z0=0.05)
    cfg = SchemeConfig(dt=0.05, horizon=0.3)
    times = [0.0, 0.1, 0.2, 0.3]
    got = _ensemble(_Variant.BDRE, p, cfg, times, 5, 11, 1, coarse=True)
    h = cfg.horizon / cfg.n_steps
    sq = math.sqrt(h)

    def euler(z, s, dt, dwe, dwb):
        ds = p.alpha * dt + p.sigma_e * dwe
        prop = z + 0.5 * p.sigma_e**2 * z * dt + z * ds + p.sigma_b * np.sqrt(z) * dwb
        return np.maximum(prop, 0.0), s + ds

    g = RngStream(11, 0).generator()
    fine = coarse = (np.full(5, 0.05), np.zeros(5))
    want = {0.0: fine + coarse}
    for t in times[1:]:  # one coarse step: two fine steps' normals, in draw order
        dwe1, dwb1, dwe2, dwb2 = (sq * g.standard_normal(5) for _ in range(4))
        fine = euler(*euler(*fine, h, dwe1, dwb1), h, dwe2, dwb2)
        coarse = euler(*coarse, 2 * h, dwe1 + dwe2, dwb1 + dwb2)
        want[t] = fine + coarse
    assert list(got) == times
    for t in times:
        for a, b in zip(got[t], want[t], strict=True):
            assert np.array_equal(a, b), t
    assert np.any(want[0.3][0] == 0) and np.any(want[0.3][2] == 0)


def test_both_chains_of_the_coupled_pair_absorb_at_the_threshold():
    noisy = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=2.0, z0=0.05)
    cfg = SchemeConfig(dt=0.01, horizon=0.5, absorption_threshold=0.01)
    free = replace(cfg, absorption_threshold=0.0)
    got, clamped = (
        _ensemble(_Variant.BDRE, noisy, replace(c, dt=0.005), [0.5], 2000, 3, 1, coarse=True)[0.5]
        for c in (cfg, free)
    )
    for z, z_free in ((got[0], clamped[0]), (got[2], clamped[2])):  # Z, then the twin's
        assert not np.any((z > 0) & (z <= 0.01))
        # absorbed paths that the clamp at 0 alone would have kept alive
        assert np.any((z == 0) & (z_free > 0))

    def coarse_u(c):
        return coupled_refinement_means(noisy, c, [0.5], 2000, 3)[0.5]["U_of_Z"]["coarse"]

    assert coarse_u(cfg) != coarse_u(free)


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
    want, _ = _stepper(_Variant.BDRE, params, np)(Z, dt, dwe, dwb)
    xi = (params.sigma_e * Z * dwe + params.sigma_b * np.sqrt(Z) * dwb) / np.sqrt(
        (params.sigma_e**2 * Z**2 + params.sigma_b**2 * Z) * dt
    )
    got = Z.copy()
    _z_chain_step(params, dt)(got, math.sqrt(dt) * xi, np.empty_like(Z))
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


def test_absorbed_fraction_absorbs_a_dip_below_the_threshold_inside_a_block():
    # above threshold 0 a path can dip to the threshold and climb back
    # within one block of steps; it is absorbed all the same, as in the
    # two-dimensional ensemble, which zeroes it at the step it dips. At
    # threshold 0.2 a count that read only block ends would be about 0.019
    # low, 9 combined se
    cfg = SchemeConfig(dt=0.05, horizon=5.0, absorption_threshold=0.2)
    n = 100_000
    p, se = absorbed_fraction(STD, cfg, n, seed=97)
    Z, _ = ensemble_final_states("bdre", STD, cfg, [5.0], n, seed=101)[5.0]
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


def test_roulette_rung_follows_the_runs_own_probability():
    # the residual from the rung is 1/250 of the run's extinction
    # probability: (1 + z)^-2 = 0.25 / 250 at the standard point
    assert _roulette_rung(STD, _escape_level(STD)) == pytest.approx(
        math.sqrt(1000.0) - 1.0, rel=1e-12
    )
    for p in (replace(STD, z0=5.0), replace(STD, alpha=0.3), replace(STD, sigma_b=2.0, z0=0.05)):
        escape = _escape_level(p)
        rung = _roulette_rung(p, escape)
        assert p.z0 < rung < escape
        assert extinction_probability(rung, p) == pytest.approx(
            extinction_probability(p.z0, p) / 250, rel=1e-9
        )
    # no rung where no path escapes, nor where the level is not below escape
    assert _roulette_rung(replace(STD, sigma_e=0.0), math.inf) == math.inf
    assert _roulette_rung(STD, 20.0) == 20.0


def test_roulette_is_unbiased_where_most_paths_reach_the_rung():
    # from z0 = 5 nearly every path reaches the rung at 93.9 and plays;
    # the Euler chain reads about 0.0009 high at dt 0.005 here, so dt 0.002
    p5 = replace(STD, z0=5.0)
    n = 20_000
    pw, pw_se = absorbed_fraction(p5, SchemeConfig(dt=0.002, horizon=30.0), n, seed=83)
    rb = estimate_extinction(p5, ExtinctionMethod.RAO_BLACKWELL, n, 30.0,
                             SchemeConfig(dt=0.01, horizon=30.0), seed=89)
    assert abs(pw - rb.mean) <= 4 * math.hypot(pw_se, rb.std_error)


# the members' absorbed weights behind each pair sum of absorbed_fraction
_PAIR_SUMS = {0: (), 1: (1,), 2: (1, 1), 20: (20,), 21: (20, 1), 40: (20, 20)}


def _counted(monkeypatch) -> list:
    """The (pair-sum histogram, strata, leftover, lone) of each batch absorbed_fraction runs."""
    seen = []

    def run_batches(worker, n, seed, threads):
        out = rng._run_batches(worker, n, seed, threads)
        seen.extend(out)
        return out

    monkeypatch.setattr("bdrelab.sde._run_batches", run_batches)
    return seen


def _pair_sum_estimate(counts: list, n: int) -> tuple[float, float, np.ndarray]:
    """(p, se, histogram) from the batch counts, by absorbed_fraction's stated formula.

    se^2 = (sum_h (x_{2h} - x_{2h+1})^2 + [left-over pair] mean_j (x_j -
    2p)^2 + [n odd] (E_n[X^2] - p^2)) / n^2 is formed exactly; n^4 P se^2,
    P = n // 2 pairs, is an integer, whose quotient by P has its square
    root over n^2 taken as the se.
    """
    hist = sum(c[0] for c in counts)
    strata = sum(c[1] for c in counts)
    leftover = sum(c[2] for c in counts)
    lone = sum(c[3] for c in counts)
    assert {v for v, h in enumerate(hist) if h} <= set(_PAIR_SUMS)
    pairs = n // 2
    assert hist.sum() == pairs
    # a batch of b paths has (b // 2) // 2 strata of two pairs; the one
    # pair left over is in the last batch, where b // 2 is odd
    assert leftover == (n % rng.ENSEMBLE_BATCH) // 2 % 2
    p = Fraction(lone + sum(v * int(h) for v, h in enumerate(hist)), n)
    var = Fraction(strata)
    if leftover:
        var += Fraction(sum(int(h) * (v - 2 * p) ** 2 for v, h in enumerate(hist)), pairs)
    if n % 2:
        squares = lone**2 + sum(
            int(h) * sum(x * x for x in _PAIR_SUMS[v]) for v, h in enumerate(hist) if h
        )
        var += Fraction(squares, n) - p * p
    scaled = var * n**2 * pairs  # n^4 P se^2
    assert scaled.denominator == 1
    return float(p), math.sqrt(scaled.numerator / pairs) / (n * n), hist


def test_pathwise_se_is_the_pair_sum_se_of_its_counts(monkeypatch):
    counts = _counted(monkeypatch)
    # by t = 0.5 no path from z0 = 1 reaches the rung at 30.6: every pair
    # sum is 0, 1 or 2; 1001 pairs leave one over after 500 strata, and n
    # is odd, so the left-over pair's and the lone path's shares are in the
    # se too
    n = 2_003
    got = absorbed_fraction(STD, SchemeConfig(dt=0.01, horizon=0.5), n, seed=5)
    p, se, hist = _pair_sum_estimate(counts, n)
    assert got == (p, se) and p > 0
    assert hist[1] > 0 and not hist[3:].any()
    assert counts[0][1] > 0 and counts[0][2] == 1 and counts[0][3] in (0, 1)
    # n even with every pair in a stratum
    counts.clear()
    n = 2_000
    got = absorbed_fraction(STD, SchemeConfig(dt=0.01, horizon=0.5), n, seed=5)
    assert got == _pair_sum_estimate(counts, n)[:2]
    assert counts[0][2:] == (0, 0)
    # by t = 20 about 3 paths in 1e5 are absorbed at weight 20 (5 here, one
    # of them in a pair sum of 21); two full batches, then one of three
    # paths: a left-over pair and the lone path
    counts.clear()
    n = 100_003
    got = absorbed_fraction(STD, SchemeConfig(dt=0.02, horizon=20.0), n, seed=93)
    p, se, hist = _pair_sum_estimate(counts, n)
    assert got == (p, se)
    assert hist[20:].sum() >= 1 and hist[21] >= 1
    assert len(counts) == 3 and counts[2][1:3] == (0, 1)


def _through_the_window(g, a, tail, levels, blocks) -> np.ndarray:
    """The window's normals for columns given L = levels, in blocks of the given lengths."""
    rest, rows, i = levels.copy(), [], 0
    for k in blocks:
        xi, share = _window_normals(g, a, tail, i, k, rest)
        rest -= share
        rows.append(xi)
        i += k
    assert i == a.shape[0]
    return np.concatenate(rows)


def _tail(a: np.ndarray) -> np.ndarray:
    return np.append(np.cumsum((a * a)[::-1])[::-1], 0.0)


def test_stratum_weights_decay_to_the_floor_or_stay_flat():
    # lambda = (alpha + sigma_e^2 / 2) / 2 = 0.75 at the standard point: the
    # window keeps the weights down to 0.01, 6.14 time units at dt 0.01
    a = _stratum_weights(STD, 0.01, 3000)
    assert a.shape == (615,) and a[0] == 1.0
    assert a[-1] >= 0.01 > math.exp(-0.75 * 0.01 * 615)
    np.testing.assert_allclose(a, np.exp(-0.75 * 0.01 * np.arange(615)), rtol=1e-15)
    # a short horizon cuts the window; lambda <= 0 makes it flat
    assert _stratum_weights(STD, 0.01, 100).shape == (100,)
    flat = _stratum_weights(replace(STD, alpha=-0.5), 0.01, 300)
    assert np.array_equal(flat, np.ones(300))


def test_window_normals_meet_their_level_where_a_path_lives_through_the_window(monkeypatch):
    # sigma_e = 0 places no rung and no escape level, and from z0 = 1000 no
    # path is absorbed, so every pair lives through the window (lambda =
    # 0.5, 922 steps at dt 0.01) and keeps its column; member 0's normals
    # meet its level, and the blocks end where the window ends
    calls = []

    def recorded(g, a, tail, i, k, rest):
        xi, share = _window_normals(g, a, tail, i, k, rest)
        calls.append((i, k, rest.copy(), xi, share))
        return xi, share

    monkeypatch.setattr("bdrelab.sde._window_normals", recorded)
    params = ModelParams(alpha=1.0, sigma_e=0.0, sigma_b=1.0, z0=1000.0)
    cfg = SchemeConfig(dt=0.01, horizon=10.0)
    assert absorbed_fraction(params, cfg, 11, seed=3) == (0.0, 0.0)
    a = _stratum_weights(params, cfg.dt, cfg.n_steps)
    assert a.shape == (922,)
    assert calls[0][0] == 0 and calls[-1][0] + calls[-1][1] == 922
    assert len(calls) >= 2
    levels = calls[0][2]
    assert levels.shape == (6,)  # five pairs' member 0, then the lone path
    assert np.all(levels[:5] >= 0)
    xi = np.concatenate([c[3] for c in calls])
    np.testing.assert_allclose(a @ xi, levels, rtol=1e-12, atol=1e-12)
    # and in uneven blocks, down to one step
    g = np.random.default_rng(5)
    a = _stratum_weights(STD, 0.05, 600)
    levels = math.sqrt(_tail(a)[0]) * g.standard_normal(7)
    xi = _through_the_window(g, a, _tail(a), levels, [1, 64, 3, a.shape[0] - 68])
    np.testing.assert_allclose(a @ xi, levels, rtol=1e-12, atol=1e-12)


def test_window_normals_pooled_over_their_level_are_standard_and_uncorrelated():
    # L ~ N(0, sum a^2) drawn first and the normals given L: pooled over L,
    # each step's normal is N(0, 1), and two steps are uncorrelated; steps 5
    # and 70 sit in different blocks, 70 where the weights have fallen to 0.07
    g = np.random.default_rng(17)
    a = _stratum_weights(STD, 0.05, 600)
    tail = _tail(a)
    cols = 20_000
    levels = math.sqrt(tail[0]) * g.standard_normal(cols)
    xi = _through_the_window(g, a, tail, levels, [32, 32, 32, a.shape[0] - 96])
    for i in (5, 70):
        assert kstest(xi[i], "norm").pvalue > 1e-3, i
    r = np.corrcoef(xi[5], xi[70])[0, 1]
    assert abs(r) <= 4 / math.sqrt(cols)
    # and each given its level the mean a_i L / sum a^2, not 0
    slope = np.polyfit(levels, xi[5], 1)[0]
    assert slope == pytest.approx(a[5] / tail[0], rel=0.1)


def _assert_se_matches_the_spread(params: ModelParams, first_seed: int) -> None:
    # 20 independent calls: their sample variance over the mean reported
    # se^2 is chi^2_19 / 19 if the se is honest; the band holds 99.8 % of
    # that law
    cfg = SchemeConfig(dt=0.02, horizon=30.0)
    runs = [absorbed_fraction(params, cfg, 10_000, seed=first_seed + i) for i in range(20)]
    ps = np.array([p for p, _ in runs])
    ratio = ps.var(ddof=1) / np.mean([se**2 for _, se in runs])
    assert chi2.ppf(0.001, 19) / 19 <= ratio <= chi2.ppf(0.999, 19) / 19, ratio


def test_roulette_se_matches_the_spread_across_seeds():
    # at z0 = 5, where the roulette is played most
    _assert_se_matches_the_spread(replace(STD, z0=5.0), 400)


def test_pair_se_matches_the_spread_across_seeds():
    # at z0 = 1 (p = 0.25), where the twins of a pair are most strongly
    # anticorrelated and the pair sums carry the se
    _assert_se_matches_the_spread(STD, 500)


def test_pairs_give_an_se_below_the_binomial_one():
    # at the standard point the twins' absorptions are anticorrelated, so
    # the count's se falls below that of n independent paths (about 0.8x
    # here, with the roulette's weight-20 paths in it)
    n = 20_000
    p, se = absorbed_fraction(STD, SchemeConfig(dt=0.02, horizon=30.0), n, seed=13)
    assert 0.2 < p < 0.3
    assert se < math.sqrt(p * (1 - p) / n)


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
