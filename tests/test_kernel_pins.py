"""Small-n outputs of the Monte Carlo kernels, pinned to their known values.

The environment reducer and the Euler step are shared by many kernels, so
a change to either must keep every kernel's draw order and arithmetic.
These values are checked at rel 1e-12. The survival-conditioned ensembles
are left out: the draws a retried path takes depend on which other paths
are retried in the same step. The untilted environment pins also hold the
tilt = 0 path of environment_survival_curve to its steps and sums from
before the tilt existed; the tilted cases pin the weighted path.

The quadrature values (phi_beta, laplace_Y) are deterministic and pinned
bit for bit, so a change that moves a last bit shows; laplace_Y's
integrand calls scalar math functions chosen to repeat scipy's
floating-point operations exactly.
"""

import math

import numpy as np
import pytest

from bdrelab.envexact import dufresne_samples, environment_laplace, environment_survival_curve
from bdrelab.errors import NumericalFailure
from bdrelab.model import ModelParams, QuenchedVariant
from bdrelab.rng import RngStream
from bdrelab.sde import (
    SchemeConfig,
    absorbed_fraction,
    bridge_extinction_frequency,
    coupled_refinement_means,
    ensemble_final_states,
    ensemble_quenched_final,
    simulate_bdre,
    simulate_conditioned_extinction,
    simulate_conditioned_survival,
    simulate_quenched,
)
from bdrelab.specfun import DEFAULT_QUAD, QuadratureConfig, Reading, laplace_Y, phi_beta
from bdrelab.verify import PHI_BETA_GOLDEN

STD = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)
NOISY = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=2.0, z0=0.05)  # frequent absorption
NO_BRANCHING = ModelParams(alpha=0.4, sigma_e=0.8, sigma_b=0.0, z0=2.0)
STRONG_NEGATED = ModelParams(alpha=-2.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)
WEAK_NEGATED = ModelParams(alpha=-0.4, sigma_e=0.8, sigma_b=1.5, z0=2.0)
BRIDGE = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=math.sqrt(2.0), z0=2.0)  # criterion 9
FEW = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=0.05)
STEEP = ModelParams(alpha=20.0, sigma_e=1.0, sigma_b=1.0, z0=0.05)  # roulette rung at 0.205
CFG = SchemeConfig(dt=0.01, horizon=0.5)
CPS = [0.0, 0.25, 0.5]


def _summary(x) -> list:
    x = np.asarray(x, dtype=float)
    return [float(x.sum()), float(x[0]), float(x[len(x) // 2]), float(x[-1])]


def _states(variant, params, cfg=CFG):
    out = ensemble_final_states(variant, params, cfg, CPS, 200, seed=11)
    return [v for t in CPS for arr in out[t] for v in _summary(arr)]


def _quenched(variant, params):
    out = ensemble_quenched_final(variant, params, CFG, CPS, 200, seed=13)
    return [v for t in CPS for v in _summary(out[t])]


def _coupled(params):
    out = coupled_refinement_means(params, CFG, [0.25, 0.5], 200, seed=17)
    return [
        v
        for t in (0.25, 0.5)
        for name in ("U_of_Z", "V_of_S", "Z_over_expS")
        for key in ("coarse", "fine", "diff")
        for v in out[t][name][key]
    ]


def _path(path) -> list:
    absorbed = -1.0 if path.absorbed_at is None else path.absorbed_at
    return _summary(path.z_values) + _summary(path.s_values) + [absorbed]


def _curve(out) -> list:
    return [v for t in sorted(out) for v in out[t]]


def compute() -> dict:
    """Every pinned quantity, as a flat list of floats per case."""
    coarse = SchemeConfig(dt=0.25, horizon=5.0)
    return {
        # two batches: 60 000 > ENSEMBLE_BATCH
        "dufresne_two_batches": _summary(dufresne_samples(STD, 0.05, 60_000, 0.01, seed=3)),
        "dufresne": _summary(dufresne_samples(STD, 1.0, 50, 0.1, seed=5)),
        "survival_curve_two_batches": _curve(
            environment_survival_curve(STD, [0.02, 0.05], 60_000, 0.01, seed=7)
        ),
        "extinct_curve": _curve(
            environment_survival_curve(STD, [0.0, 0.5, 1.0], 500, 0.05, seed=9, collect="extinct")
        ),
        # the tilts of survival_points in the strong and weak regimes, and a negative one
        "survival_curve_tilted": _curve(environment_survival_curve(
            STRONG_NEGATED, [0.0, 0.5, 1.0], 500, 0.05, seed=9, tilt=1.0)),
        "survival_curve_tilted_two_batches": _curve(environment_survival_curve(
            WEAK_NEGATED, [0.25, 1.0], 60_000, 0.05, seed=7, tilt=0.625)),
        "extinct_curve_tilted": _curve(environment_survival_curve(
            STD, [0.5, 1.0], 500, 0.05, seed=9, collect="extinct", tilt=-0.5)),
        "laplace": _curve(environment_laplace(STD, [0.0, 0.5, 2.0], 1.0, 500, 0.05, seed=19)),
        "states_bdre": _states("bdre", STD),
        "states_bdre_absorbing": _states(
            "bdre", NOISY, SchemeConfig(dt=0.01, horizon=0.5, absorption_threshold=0.01)
        ),
        "states_bdre_no_branching": _states("bdre", NO_BRANCHING),
        # without branching noise nothing is absorbed, whatever the threshold
        "states_no_branching_threshold": _states(
            "bdre", NO_BRANCHING, SchemeConfig(dt=0.01, horizon=0.5, absorption_threshold=2.0)
        ),
        "states_cond_extinction": _states("cond-extinction", STD),
        "quenched_unconditioned": _quenched(QuenchedVariant.UNCONDITIONED, NOISY),
        "quenched_no_branching": _quenched(QuenchedVariant.UNCONDITIONED, NO_BRANCHING),
        "quenched_cond_extinction": _quenched(QuenchedVariant.COND_EXTINCTION, STD),
        "coupled": _coupled(STD),
        "coupled_no_branching": _coupled(NO_BRANCHING),
        # jumps of 100 generations to horizon 30; then 15 generations at
        # n_scale 100, a jump of 10 and one cut to 5
        "bridge": list(bridge_extinction_frequency(1000, BRIDGE, 500, seed=31)),
        "bridge_cut_jump": list(bridge_extinction_frequency(100, FEW, 500, seed=37,
                                                            horizon=0.15)),
        "absorbed_fraction": list(absorbed_fraction(NOISY, SchemeConfig(dt=0.01, horizon=2.0),
                                                    500, seed=23)),
        # n odd: the last path runs without a twin, and its share is in the se
        "absorbed_fraction_odd_n": list(absorbed_fraction(
            NOISY, SchemeConfig(dt=0.01, horizon=2.0), 501, seed=23)),
        # most paths reach the rung: pins where the roulette's uniforms are
        # drawn; 20,000 paths make blocks of 6 steps, so the uniforms drawn at
        # the first block ends move the normals of the later blocks
        "absorbed_fraction_roulette": list(absorbed_fraction(
            STEEP, SchemeConfig(dt=0.01, horizon=0.2), 20_000, seed=23)),
        "simulate_bdre": _path(simulate_bdre(NOISY, CFG, RngStream(29, 0))),
        "simulate_cond_extinction": _path(
            simulate_conditioned_extinction(STD, CFG, RngStream(29, 1))
        ),
        # at dt 0.25 each of streams 8, 10 and 11 retries a nonpositive proposal
        "simulate_cond_survival": [
            v for i in (8, 10, 11) for v in _path(simulate_conditioned_survival(
                STD, coarse, RngStream(7, i)))
        ],
        "simulate_quenched": _path(simulate_quenched(NOISY, CFG, RngStream(29, 3))),
        # Z only: S on a retried step follows its half steps (test_sde checks it)
        "simulate_quenched_cond_survival": [
            v for i in (8, 10, 11) for v in _summary(simulate_quenched(
                STD, coarse, RngStream(7, i), QuenchedVariant.COND_SURVIVAL).z_values)
        ],
    }


# reference values, computed before the kernels shared one step and one reducer
# unless noted
PINNED = {
    # computed when absorbed_fraction stratified its antithetic pairs
    'absorbed_fraction': [
        0.948, 0.00848528137423857,
    ],
    'absorbed_fraction_odd_n': [
        0.9560878243512974, 0.007479567906363717,
    ],
    'absorbed_fraction_roulette': [
        0.1113, 0.0013322912594474227,
    ],
    # computed when the bridge moved to exact multi-generation jumps
    'bridge': [
        0.27, 0.019854470529329156,
    ],
    'bridge_cut_jump': [
        0.66, 0.021184900282984576,
    ],
    'coupled': [
        0.24730050939496778, 0.013132568248714713, 0.24747986626748492, 0.01302507817589768,
        -0.00017935687251712423, 0.0008077600052625963, 0.8691608064438304,
        0.08071411272284115, 0.8691608064438304, 0.08071411272284115, -8.98586760555986e-18,
        3.9203548567445103e-17, 0.9555552140372313, 0.031440641087688376,
        0.9526129931792846, 0.031132237290786992, 0.002942220857946882,
        0.0029071709590215333, 0.26626284371507725, 0.018638038233299604,
        0.26579515431796386, 0.01845408154046682, 0.00046768939711331773,
        0.0012558563604748297, 0.8056857807255802, 0.11046012506246107, 0.80568578072558,
        0.11046012506246108, 8.571268694801403e-17, 8.95720786565445e-17,
        0.9244532722082792, 0.0440484170035421, 0.92230756097014, 0.043919594260989084,
        0.002145711238139335, 0.004125185016921055,
    ],
    'coupled_no_branching': [
        0.6851493337359403, 0.02581758051873932, 0.6851493337359404, 0.025817580518739332,
        -1.837419105754634e-16, 4.428957902382841e-17, 0.9328196839430256,
        0.0351502163307157, 0.9328196839430256, 0.0351502163307157, 2.1649348980190553e-17,
        1.4306550325160854e-17, 2.0, 5.5270733170055636e-17, 1.9999999999999993,
        7.161415303712348e-17, 3.9523939676655573e-16, 8.851270385592775e-17,
        0.6808719975071077, 0.035658332834745766, 0.6808719975071081, 0.03565833283474579,
        -3.440997486947595e-16, 6.529532513047571e-17, 0.926996160175818,
        0.04854824069297335, 0.926996160175818, 0.048548240692973345, 4.85722573273506e-19,
        1.68802993110361e-17, 1.9999999999999993, 7.445522995102725e-17, 1.9999999999999987,
        1.0195430065305917e-16, 7.23865412055602e-16, 1.3282857043117337e-16,
    ],
    'dufresne': [
        45.064590098931646, 1.027236525269264, 0.8517126471743577, 0.5878042848750715,
    ],
    'dufresne_two_batches': [
        2960.7480248202883, 0.039934097071483626, 0.04043150814368893, 0.04558012364177317,
    ],
    'extinct_curve': [
        0.0, 0.0, 0.020439552631484934, 0.0016212477301888527, 0.08741578853273074,
        0.004735082997993335,
    ],
    # computed when the tilt was added
    'extinct_curve_tilted': [
        0.01945002910318362, 0.001045388904927754, 0.08703635879778747, 0.002873096514457644,
    ],
    'laplace': [
        1.0, 0.0, 0.657157334673236, 0.001073757007026907, 0.31878123690766486,
        0.0035905390049503724,
    ],
    'quenched_cond_extinction': [
        200.0, 1.0, 1.0, 1.0, 181.66276699544974, 0.7097838539032179, 0.6106401896507349,
        1.4487668377744503, 153.07585743388108, 0.16934545092330178, 1.2607925521590455,
        1.8330430874785086,
    ],
    'quenched_no_branching': [
        400.0, 2.0, 2.0, 2.0, 496.3993475355364, 2.291432146475545, 3.4228692242153542,
        3.262664325278468, 581.2626392808485, 1.2043965627547566, 5.5061404907733635,
        3.849039062430574,
    ],
    'quenched_unconditioned': [
        10.0, 0.05, 0.05, 0.05, 15.949049146941114, 0.0, 0.0, 0.0, 20.567916381315353, 0.0,
        0.0, 0.0,
    ],
    'simulate_bdre': [
        0.22652233428539276, 0.05, 0.0, 0.0, 18.860109563333257, 0.0, 0.12574274696140883,
        0.941209971235139, 0.06,
    ],
    'simulate_cond_extinction': [
        28.415458199358852, 1.0, 0.46081021470101374, 0.2518395317215024,
        22.090563389984226, 0.0, 0.13921199060343578, 0.9000505635320778, -1.0,
    ],
    'simulate_cond_survival': [
        3540.722365007663, 1.0, 51.686783624257345, 1096.1742638997075, 77.65773928565216,
        0.0, 4.152072125211862, 7.019251663530902, -1.0, 119.43695579566142, 1.0,
        10.707371469255285, 1.4032580811434077, 29.778366498840416, 0.0, 2.0636224637948857,
        1.643784444954794, -1.0, 266.3473779044056, 1.0, 8.342416505982671,
        81.77254244005131, 27.531066100264283, 0.0, 1.2841728438726348, 4.467721209912696,
        -1.0,
    ],
    'simulate_quenched': [
        1.5894593486917739, 0.05, 0.0, 0.0, 37.1561117024392, 0.0, 1.1497515216625818,
        0.43598580781402885, 0.13,
    ],
    'simulate_quenched_cond_survival': [
        3540.7223650076635, 1.0, 51.68678362425734, 1096.1742638997075, 119.43695579566142,
        1.0, 10.707371469255284, 1.4032580811434077, 266.34737790440556, 1.0,
        8.34241650598267, 81.7725424400513,
    ],
    'states_bdre': [
        200.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 310.6572282730607, 3.8379312032777895,
        0.48477948643004487, 0.7457860902577926, 54.75925785647374, 0.5934610073955491,
        -0.33733791634250365, 0.10483014821490097, 438.4352862709644, 4.159540581395724,
        0.4110111426039498, 0.8602094563662891, 101.3067889721647, 0.6000066555198507,
        -0.6191638487272656, -0.5802396927185538,
    ],
    'states_bdre_absorbing': [
        10.0, 0.05, 0.05, 0.05, 0.0, 0.0, 0.0, 0.0, 18.019528415737504, 1.8423412279002447,
        0.0, 0.0, 54.75925785647374, 0.5934610073955491, -0.33733791634250365,
        0.10483014821490097, 24.04136997211821, 2.294063624636628, 0.0, 0.0,
        101.3067889721647, 0.6000066555198507, -0.6191638487272656, -0.5802396927185538,
    ],
    'states_bdre_no_branching': [
        400.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 488.47115793754006, 2.9093101361873415,
        1.3816478036835493, 1.9679872090291184, 23.807406285178992, 0.3747688059164394,
        -0.3698703330740031, -0.016135881428079146, 579.3434084962353, 2.6462737144991517,
        0.9978184845492535, 1.029378710322309, 41.04543117773176, 0.28000532441588055,
        -0.6953310789818128, -0.6641917541748431,
    ],
    'states_no_branching_threshold': [
        400.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 488.47115793754006, 2.9093101361873415,
        1.3816478036835493, 1.9679872090291184, 23.807406285178992, 0.3747688059164394,
        -0.3698703330740031, -0.016135881428079146, 579.3434084962353, 2.6462737144991517,
        0.9978184845492535, 1.029378710322309, 41.04543117773176, 0.28000532441588055,
        -0.6953310789818128, -0.6641917541748431,
    ],
    'states_cond_extinction': [
        200.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 190.13222992664072, 2.5140105217700714,
        0.2396670853485297, 0.42191433837992287, 8.130082527274308, 0.26991996688409536,
        -0.5148488391763646, -0.07758099822429988, 162.7309449985741, 1.6671719884852763,
        0.09390681281320463, 0.4123492476135598, 15.90343451846011, -0.0687973985838328,
        -0.8725017479756366, -0.8320362008265431,
    ],
    'survival_curve_two_batches': [
        1.0, 0.0, 0.9999999999999812, 0.0,
    ],
    # computed when the tilt was added
    'survival_curve_tilted': [
        1.0, 0.0, 0.8701046903894226, 0.026189339240234234, 0.45910028526382474,
        0.013834128015135476,
    ],
    'survival_curve_tilted_two_batches': [
        0.9964217960258157, 0.0010187872787080442, 0.7336198596133412, 0.0010183235977368032,
    ],
}


@pytest.fixture(scope="module")
def outputs():
    return compute()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_kernel_output_is_pinned(outputs, case):
    assert outputs[case] == pytest.approx(PINNED[case], rel=1e-12, abs=0.0)


# phi_beta at the nine route-agreement pairs, through the Tricomi-U
# reduction, and laplace_Y at the standard point (z = 1), computed with
# scipy.stats.gamma.pdf in its integrand
PHI_BETA_PINNED = {
    (1.0, 1.0): 0.0991166617335014,
    (0.5, 1.0): 0.6002633324910179,
    (2.0, 1.0): 0.00968038969121952,
    (1.0, 0.5): 0.46267883589490794,
    (1.0, 2.0): 0.021880381767796782,
    (0.5, 0.5): 2.10290727589412,
    (2.0, 2.0): 0.0012192800784167866,
    (5.0, 1.0): 8.09195043673523e-05,
    (1.0, 4.0): 0.007070097742158609,
}

LAPLACE_Y_PINNED = {
    (0.5, Reading.INVERSE_GAMMA): 0.6960630647759368,
    (0.5, Reading.AS_PRINTED): 0.7604595956766645,
    (1.0, Reading.INVERSE_GAMMA): 0.559418056063197,
    (1.0, Reading.AS_PRINTED): 0.6774750858393769,
    (2.0, Reading.INVERSE_GAMMA): 0.434711680040026,
    (2.0, Reading.AS_PRINTED): 0.6083245160680107,
    (10.0, Reading.INVERSE_GAMMA): 0.28886356200561114,
    (10.0, Reading.AS_PRINTED): 0.5299806636978285,
    (math.inf, Reading.INVERSE_GAMMA): 0.2499999999999998,
    (math.inf, Reading.AS_PRINTED): 0.5075195091321254,
}


@pytest.mark.parametrize("a,beta", sorted(PHI_BETA_GOLDEN))
def test_phi_beta_is_pinned(a, beta):
    assert phi_beta(a, beta) == PHI_BETA_PINNED[(a, beta)]


LOOSE_QUAD = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-9)

# phi_beta away from the golden pairs and the default config. Below
# beta = 2 the integral runs in t = w^{beta/2}, with the peak as a
# breakpoint when a < 1 ((1e-3, 1), (0.05, 0.3), (0.05, 0.5)) and none
# otherwise ((50, 0.2)); above it, in w, split at the peak ((20, 6),
# (3, 10), (200, 100)).
PHI_BETA_FAR_PINNED = [
    (1e-3, 1.0, DEFAULT_QUAD, 43116.85257781349),
    (20.0, 6.0, DEFAULT_QUAD, 4.354609864959834e-19),
    (3.0, 10.0, DEFAULT_QUAD, 3.361405782231124e-07),
    (1e-3, 1.0, LOOSE_QUAD, 43116.852577978934),
    (20.0, 6.0, LOOSE_QUAD, 4.354609864959834e-19),
    (3.0, 10.0, LOOSE_QUAD, 3.3614057822003314e-07),
    (0.05, 0.3, LOOSE_QUAD, 164.52724415699228),
    (50.0, 0.2, LOOSE_QUAD, 1.592052833935671e-23),
    (0.05, 0.5, QuadratureConfig(max_subdivisions=1000), 89.04056229408347),
    (200.0, 100.0, DEFAULT_QUAD, 7.27260213358783e-200),
    (200.0, 100.0, LOOSE_QUAD, 7.27260213358783e-200),
]

_BUDGET = (
    "phi_beta at a={!r}, beta={!r}: quadrature did not converge within "
    "max_subdivisions={}, rel_tol=1e-10, abs_tol=1e-12: QUADPACK error estimate "
)

# Budgets that phi_beta cannot meet, with the message each failure carries.
# A budget of one subinterval drops the breakpoint at the peak, (1, 300)'s
# budget of two keeps it.
PHI_BETA_FAILURES = [
    (0.05, 0.3, QuadratureConfig(max_subdivisions=1), _BUDGET.format(0.05, 0.3, 1) + "0.0612 on value 0.1715"),
    (50.0, 0.2, QuadratureConfig(max_subdivisions=1), _BUDGET.format(50.0, 0.2, 1) + "0.117 on value 0.643218"),
    (1.0, 300.0, QuadratureConfig(max_subdivisions=1), _BUDGET.format(1.0, 300.0, 1) + "0.0711 on value 0.0388199"),
    (1.0, 300.0, QuadratureConfig(max_subdivisions=2), _BUDGET.format(1.0, 300.0, 2) + "0.0403 on value 0.0373383"),
    (1.0, 1.0, QuadratureConfig(max_subdivisions=1), _BUDGET.format(1.0, 1.0, 1) + "0.00367 on value 0.762054"),
    (1.0, 1.0, QuadratureConfig(max_subdivisions=3), _BUDGET.format(1.0, 1.0, 3) + "2.98e-07 on value 0.762055"),
]


@pytest.mark.parametrize("a,beta,q,value", PHI_BETA_FAR_PINNED)
def test_phi_beta_is_pinned_beyond_the_golden_pairs(a, beta, q, value):
    assert phi_beta(a, beta, q) == value


@pytest.mark.parametrize("a,beta,q,message", PHI_BETA_FAILURES)
def test_phi_beta_budget_failures_are_pinned(a, beta, q, message):
    with pytest.raises(NumericalFailure) as err:
        phi_beta(a, beta, q)
    assert str(err.value) == message


@pytest.mark.parametrize("lam,reading", sorted(LAPLACE_Y_PINNED, key=lambda k: (k[0], k[1].value)))
def test_laplace_Y_is_pinned(lam, reading):
    assert laplace_Y(lam, 1.0, STD, reading) == LAPLACE_Y_PINNED[(lam, reading)]


def test_laplace_Y_weak_point_is_pinned():
    weak = ModelParams(alpha=0.5, sigma_e=1.0, sigma_b=1.0, z0=1.0)
    assert laplace_Y(math.inf, 1.0, weak, Reading.AS_PRINTED) == 0.2797317636330451
