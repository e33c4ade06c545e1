"""The environment reducer and the exact quenched formulas it averages."""

import math

import numpy as np
import pytest

from bdrelab.envexact import (
    _depth,
    _environment_batches,
    _grid,
    _mean_se,
    _sums,
    dufresne_samples,
    environment_laplace,
    environment_survival_curve,
)
from bdrelab.errors import ConfigError
from bdrelab.model import ModelParams
from bdrelab.rng import RngStream
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
    m, _, _ = environment_laplace(p, [lam], t=2.0, n=2000, dt=0.01, seed=101)[lam]
    assert (1.0 - m) / lam == pytest.approx(z0, rel=1e-4)


def test_conditional_atom_at_zero_matches_formula():
    # P(Z_t = 0 | S) = e^{-z/I_t} is the lambda -> inf limit of the transform
    # e^{-z/(I_t + 1/lambda)}, which decreases to it along the same environments
    t, n, dt, seed = 2.0, 2000, 0.01, 103
    lap = environment_laplace(STD, [1.0, 1e3, math.inf], t, n, dt, seed)
    atom = environment_survival_curve(STD, [t], n, dt, seed, "extinct", antithetic=True)[t]
    alive = environment_survival_curve(STD, [t], n, dt, seed, antithetic=True)[t]
    assert lap[math.inf][:2] == atom
    assert lap[1.0][0] > lap[1e3][0] > atom[0] > 0.0
    assert atom[0] + alive[0] == pytest.approx(1.0, abs=1e-12)


def test_environment_laplace_endpoints():
    out = environment_laplace(STD, [0.0, 1.0], t=2.0, n=2000, dt=0.01, seed=109)
    m0, se0, _ = out[0.0]
    assert m0 == 1.0 and se0 == 0.0
    m1, _, _ = out[1.0]
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


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: environment_survival_curve(STD, [], n=10, dt=0.01, seed=1), "times"),
        (lambda: environment_survival_curve(STD, [1.0, math.nan], 10, 0.01, 1), "times"),
        (lambda: environment_laplace(STD, [1.0], t=math.nan, n=10, dt=0.01, seed=1), "times"),
        (lambda: dufresne_samples(STD, horizon=math.inf, n=10, dt=0.01, seed=1), "times"),
        (lambda: environment_laplace(STD, [], t=1.0, n=10, dt=0.01, seed=1), "lambda"),
        (lambda: environment_survival_curve(STD, [-1.0, 1.0], 10, 0.01, 1), "times"),
    ],
    ids=["no-time", "nan-checkpoint", "nan-t", "infinite-horizon", "no-lambda", "negative-time"],
)
def test_no_time_a_nonfinite_time_or_no_lambda_is_a_config_error(call, name):
    with pytest.raises(ConfigError, match=name):
        call()


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


def test_antithetic_pairs_replay_by_hand():
    # n = 7 in one batch: columns 0-2 step on xi, 4-6 on -xi and 3 alone;
    # each column carries its own likelihood ratio, and the se comes from
    # the three pair sums and the lone path's share
    neg, theta, z, dt, n = NEGATED[0.5], 0.5, 1.0, 0.05, 7
    out = environment_survival_curve(neg, [0.25, 0.5], n, dt, 23, tilt=theta, antithetic=True)
    g = RngStream(23, 0).generator()
    s, i_t, prev = np.zeros(n), np.zeros(n), np.ones(n)
    for k in range(1, 11):
        xi = g.standard_normal(4)
        s = s + (neg.alpha + theta) * dt + math.sqrt(dt) * np.concatenate((xi, -xi[:3]))
        cur = np.exp(-s)
        i_t = i_t + 0.25 * dt * (prev + cur)
        prev = cur
        if k % 5:
            continue
        t = k * dt
        q = -np.expm1(-z / i_t) * np.exp((-0.5 * theta + 0.5 * theta**2) * t - theta * s)
        x = q[:3] + q[4:]
        p = q.mean()
        se = math.sqrt(((x - 2 * p) ** 2).sum() + (q**2).mean() - p**2) / n
        assert out[t] == pytest.approx((p, se), rel=1e-12)


def test_paired_se_counts_the_lone_path_of_every_odd_batch():
    # two batches of 5 (an odd batch size) leave two lone paths and n even
    g = np.random.default_rng(3)
    q1, q2 = g.random(5), g.random(5)
    q = np.concatenate((q1, q2))
    p = q.mean()
    x = np.concatenate((q1[:2] + q1[3:], q2[:2] + q2[3:]))
    se = math.sqrt(((x - 2 * p) ** 2).sum() + 2 * ((q**2).mean() - p**2)) / 10
    assert _mean_se([_sums(q1, True), _sums(q2, True)], 10, True) == pytest.approx(
        (p, se), rel=1e-12
    )


def test_antithetic_and_independent_environments_agree():
    # the same means on fresh noise, the pairs at a smaller se
    times, n = [1.0, 5.0], 20_000
    paired = environment_survival_curve(STD, times, n, 0.01, 151, "extinct", antithetic=True)
    plain = environment_survival_curve(STD, times, n, 0.01, 157, "extinct")
    for t in times:
        (m1, se1), (m0, se0) = paired[t], plain[t]
        assert se1 < 0.8 * se0
        assert abs(m1 - m0) <= 4 * math.hypot(se1, se0), (t, m1, m0)


@pytest.mark.parametrize("b", [5, 20_000])
def test_a_correction_level_replays_by_hand(b):
    # level 2 of a tilted curve on h = 0.02 to t = 0.32: one S path per
    # environment, the trapezoid of I_t on every node and the one on the
    # even nodes; 5 environments step in one block per checkpoint, 20 000
    # in blocks of 2 steps
    p, h, scale = NEGATED[1.0], 0.02, 0.5
    at = {8: 0.16, 16: 0.32}
    (out,) = _environment_batches(
        p, h, at, b, 29, 1, scale, lambda t, f, c, s: (f.copy(), c.copy(), s.copy()),
        level=2,
    )
    xi = RngStream(29, 0, 2).generator().standard_normal((16, b))
    s = np.zeros((17, b))
    for k in range(16):
        s[k + 1] = s[k] + p.alpha * h + math.sqrt(h) * xi[k]
    e = np.exp(-s)
    for k, t in at.items():
        fine = sum(scale * 0.5 * h * (e[j - 1] + e[j]) for j in range(1, k + 1))
        coarse = sum(scale * h * (e[j - 2] + e[j]) for j in range(2, k + 1, 2))
        np.testing.assert_allclose(out[t][0], fine, rtol=1e-12)
        np.testing.assert_allclose(out[t][1], coarse, rtol=1e-12)
        # S_t crosses 0, where only an absolute tolerance means anything
        np.testing.assert_allclose(out[t][2], s[k], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "paired, level, b, at",
    [
        # i.i.d. on an odd checkpoint index, with t = 0 handed over too
        (False, 0, 5_000, {0: 0.0, 9: 0.18, 16: 0.32}),
        # pairs with a lone column, b // 2
        (True, 0, 5_001, {9: 0.18, 16: 0.32}),
        # a correction level, which also carries the trapezoid on the even nodes
        (False, 2, 5_000, {8: 0.16, 16: 0.32}),
    ],
    ids=["iid-level-0", "paired-level-0", "level-2"],
)
def test_the_block_stepper_replays_a_step_at_a_time(paired, level, b, at):
    # on h = 0.02 to t = 0.32 a block holds 6 steps, so blocks end between
    # checkpoints; S and the trapezoid on every node are the ones of a step
    # at a time, bit for bit
    p, h, scale, seed = NEGATED[1.0], 0.02, 0.5, 29
    (out,) = _environment_batches(
        p, h, at, b, seed, 1, scale, lambda t, *x: [a.copy() for a in x], paired, level
    )
    g = RngStream(seed, 0, level).generator()
    half = b // 2 if paired else 0
    drift, noise, w = p.alpha * h, p.sigma_e * math.sqrt(h), scale * 0.5 * h
    s, fine, prev = np.zeros(b), np.zeros(b), np.ones(b)
    e = [prev]  # e^{-S} on every node, for the trapezoid on the even ones
    for k in range(1, 17):
        xi = g.standard_normal(b - half)
        s = s + (drift + noise * np.concatenate((xi, -xi[:half])))
        cur = np.exp(-s)
        fine = fine + w * (prev + cur)
        prev = cur
        e.append(cur)
        if k not in at:
            continue
        got = out[at[k]]
        assert np.array_equal(got[0], fine) and np.array_equal(got[-1], s)
        if level:
            coarse = sum(2.0 * w * (e[j - 2] + e[j]) for j in range(2, k + 1, 2))
            np.testing.assert_allclose(got[1], coarse, rtol=1e-12)
    if 0 in at:
        assert all(np.array_equal(x, np.zeros(b)) for x in out[0.0])


def test_levels_stop_at_the_coarsest_grid_that_holds_every_checkpoint():
    def depth(times, dt):
        return _depth(*_grid(times, dt))

    # criterion 5's grid and criterion 7's transform: the coarsest step 0.08
    assert depth([4.0, 6.0, 8.0, 10.0, 12.0], 0.01) == 3
    assert depth([20.0], 0.0025) == 5
    # t = 6 is on the grid 0.04 but not on 0.16, which the cap forbids anyway
    assert depth([6.0, 8.0], 0.02) == 2
    # a checkpoint on no coarser grid, and a dt whose double tops the cap
    assert depth([0.03, 0.08], 0.01) == 0
    assert depth([1.0], 0.05) == 0


@pytest.mark.parametrize("alpha", sorted(NEGATED))
def test_multilevel_and_single_level_curves_agree(alpha):
    # the levels telescope to the trapezoid on dt: the paired multilevel
    # curve against the i.i.d. curve on dt, both tilted, on fresh noise
    times, n, theta = [2.0, 4.0], 20_000, min(alpha, 1.0)
    levels = environment_survival_curve(
        NEGATED[alpha], times, n, 0.01, 161, tilt=theta, antithetic=True
    )
    plain = environment_survival_curve(NEGATED[alpha], times, n, 0.01, 163, tilt=theta)
    for t in times:
        (m1, se1), (m0, se0) = levels[t], plain[t]
        assert abs(m1 - m0) <= 4 * math.hypot(se1, se0), (t, m1, m0)


def test_multilevel_and_single_level_transforms_agree():
    # five levels down to dt 0.005 against the i.i.d. transform on dt, on fresh noise
    lams, t, n, dt = [0.5, 10.0], 4.0, 20_000, 0.005
    levels = environment_laplace(STD, lams, t, n, dt, 167)
    parts = _environment_batches(
        STD, *_grid([t], dt), n, 173, 1, 0.5,
        lambda _, i_t, s_t: [_sums(np.exp(-1.0 / (i_t + 1.0 / lam))) for lam in lams],
    )
    for j, lam in enumerate(lams):
        m0, se0 = _mean_se([p[t][j] for p in parts], n)
        m1, se1, (bias, bias_se, size) = levels[lam]
        assert abs(m1 - m0) <= 4 * math.hypot(se1, se0), (lam, m1, m0)
        # the finest level: the transform on dt minus the one on 2 dt
        assert size == 256 and abs(bias) <= 4 * bias_se + 1e-4
