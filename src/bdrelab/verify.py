"""The full verification checklist: every headline identity at desk scale.

run_verify executes nine numbered checks (harmonicity, the extinction
triangle, martingale conservation with step-halving, conditioned-law
equivalence, the three decay rates, special-function cross-routes, the
limit-law Laplace suite, the exponential-functional law selection, and
the discrete-to-continuum bridge), collects every result as a
ResultRecord, and reports pass/fail per check. Each check only returns
its records; run_verify walks one table of the checks, times each, and
passes a check by a single rule: every gated record passes. A record is
gated when it carries a results.Gate, whose verdict on the record's
value against its reference is the record's pass; no check computes a
pass of its own. verify.log and the summary print each record, its gate
included, by one formatter, _record_line. A tenth property, byte
reproducibility of the written outputs, is checked by running verify
twice and comparing files, and the test suite pins the sha256 of each
data file at the default seed; the writer here is deterministic by
construction so that comparison is meaningful.

Failures are reported, never patched over: two recorded checks fail
persistently (the weak-regime rate at reachable horizons, and the
strong-regime level constant, which simulation puts at about twice the
printed value and at the closed form that tilting the environment gives,
recorded beside it). The records carry the measured numbers either way.

Seed policy: check k derives its streams from seed + 1000 k, so checks
are independent and individually reproducible. Distinct estimation
routes inside one check always get distinct sub-seeds; two of the
conditioned-survival kernels coincide arithmetic-for-arithmetic under a
shared seed (the drift identity holds pathwise), and evidence of
agreement has to come from fresh noise, not from the identity itself.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.special import kv as _bessel_kv

from .config import DEFAULT_SEED, ExperimentConfig, config_hash
from .envexact import dufresne_samples, environment_survival_curve
from .estimators import (
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
from .model import (
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
    survival_ratio,
)
from .results import Gate, Provenance, ResultRecord, stamper, write_decay_plot, write_results
from .rng import RngStream
from .sde import (
    SchemeConfig,
    bridge_extinction_frequency,
    coupled_refinement_means,
    path_functionals,
    simulate_bdre,
    simulate_conditioned_extinction,
    simulate_conditioned_survival,
    simulate_discrete_bpre,
    simulate_quenched,
)
from .specfun import (
    DEFAULT_QUAD,
    INFINITE,
    Reading,
    integral_a_psi,
    laplace_Y,
    mean_inverse_gamma,
    phi_beta,
    phi_beta_tensor_oracle,
    psi,
    psi_closed_form,
    strong_level_limit,
    theorem1_constant,
)

__all__ = [
    "CriterionOutcome",
    "VerifyReport",
    "REQUIRED_COVERAGE",
    "PHI_BETA_GOLDEN",
    "run_verify",
    "format_summary",
]

STANDARD = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)

# Independent brute-force tensor-quadrature values, frozen before the
# adaptive implementation existed; the nine route-agreement pairs.
PHI_BETA_GOLDEN = {
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

REQUIRED_COVERAGE = frozenset(
    {
        "classify_regime",
        "scale_U",
        "scale_V",
        "extinction_probability",
        "rao_blackwell_se_ratio",
        "generator_apply",
        "survival_ratio",
        "drift_conditioned_extinction",
        "drift_conditioned_survival",
        "quenched_drift_coefficient",
        "simulate_bdre",
        "simulate_conditioned_extinction",
        "simulate_conditioned_survival",
        "simulate_quenched",
        "simulate_discrete_bpre",
        "path_functionals",
        "psi",
        "integral_a_psi",
        "phi_beta",
        "mean_inverse_gamma",
        "laplace_Y",
        "theorem1_constant",
        "strong_level_limit",
        "estimate_extinction",
        "estimate_conditioned_survival",
        "martingale_test",
        "laplace_limit_test",
        "conditioned_law_equivalence_test",
    }
)


@dataclass
class CriterionOutcome:
    index: int
    name: str
    passed: bool
    records: list
    duration_s: float
    sub_durations: dict = field(default_factory=dict)


@dataclass
class VerifyReport:
    outcomes: list
    records: list
    coverage: frozenset
    passed: bool
    seed: int
    config_hash: str
    durations: dict


class _Ctx:
    def __init__(self, seed: int, cfg_hash: str, threads: int):
        self.seed = seed
        self.threads = threads
        self.rec = stamper(seed, cfg_hash)
        self.coverage: set[str] = set()
        self.rate_curves: dict = {}
        self.rate_fits: dict = {}
        # sub-timings of the check that is running, by label
        self.sub_durations: dict = {}


def _seed(ctx: _Ctx, k: int, sub: int = 0) -> int:
    return ctx.seed + 1000 * k + sub


# ---------------------------------------------------------------------------
# criterion 1: harmonicity of the scale functions


def _generator_term_scale(bundle, z, s, p: ModelParams):
    # Independent recomputation of the five generator terms, used as the
    # magnitude scale for the relative residual.
    a, se2, sb2 = p.alpha, p.sigma_e**2, p.sigma_b**2
    terms = [
        (a + 0.5 * se2) * z * bundle.f_z(z, s),
        a * bundle.f_s(z, s),
        0.5 * (se2 * z**2 + sb2 * z) * bundle.f_zz(z, s),
        0.5 * se2 * bundle.f_ss(z, s),
        se2 * z * bundle.f_zs(z, s),
    ]
    return sum(np.abs(np.asarray(t, dtype=float)) for t in terms)


def _criterion_1(ctx: _Ctx) -> list:
    g = np.random.default_rng(np.random.SeedSequence((_seed(ctx, 1), 0)))
    n_params, n_states = 100, 100
    worst_u = 0.0
    worst_v = 0.0
    for _ in range(n_params):
        p = ModelParams(
            alpha=float(g.uniform(-2.0, 2.0)),
            sigma_e=float(g.uniform(0.3, 2.0)),
            sigma_b=float(g.uniform(0.0, 2.0)),
            z0=1.0,
        )
        z = np.exp(g.uniform(math.log(1e-3), math.log(50.0), n_states))
        s = g.uniform(-3.0, 3.0, n_states)
        for bundle, tracker in ((bundle_U(p), "U"), (bundle_V(p), "V")):
            val = np.abs(np.asarray(generator_apply(bundle, z, s, p)))
            scale = _generator_term_scale(bundle, z, s, p)
            rel = val / np.maximum(scale, 1e-300)
            m = float(rel.max())
            if tracker == "U":
                worst_u = max(worst_u, m)
            else:
                worst_v = max(worst_v, m)
    ctx.coverage.update({"generator_apply", "scale_U", "scale_V"})
    tol = Gate("absolute", 1e-8)
    return [
        ctx.rec("harmonicity.U.max_rel_residual", worst_u, None, n_params * n_states,
                0.0, Provenance.CLOSED_FORM, tol),
        ctx.rec("harmonicity.V.max_rel_residual", worst_v, None, n_params * n_states,
                0.0, Provenance.CLOSED_FORM, tol),
    ]


# ---------------------------------------------------------------------------
# criterion 2: extinction probability by three routes


def _criterion_2(ctx: _Ctx) -> list:
    p = STANDARD
    closed = estimate_extinction(
        p, ExtinctionMethod.CLOSED_FORM, 1, 30.0,
        SchemeConfig(dt=0.01, horizon=30.0),
        _seed(ctx, 2),
    )
    t0 = time.perf_counter()
    rb = estimate_extinction(
        p, ExtinctionMethod.RAO_BLACKWELL, 100_000, 30.0,
        SchemeConfig(dt=0.01, horizon=30.0),
        _seed(ctx, 2, 1), threads=ctx.threads,
    )
    ctx.sub_durations["rao_blackwell"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    pw = estimate_extinction(
        p, ExtinctionMethod.PATHWISE, 100_000, 30.0,
        SchemeConfig(dt=1e-3, horizon=30.0),
        _seed(ctx, 2, 2), threads=ctx.threads,
    )
    ctx.sub_durations["pathwise"] = time.perf_counter() - t0
    ctx.coverage.update(
        {"estimate_extinction", "extinction_probability", "rao_blackwell_se_ratio"}
    )

    ests = {"closed_form": closed, "rao_blackwell": rb, "pathwise": pw}
    worst_z = 0.0
    for a in ests.values():
        for b in ests.values():
            if a is b:
                continue
            comb = math.hypot(a.std_error, b.std_error)
            if comb == 0.0:
                continue
            worst_z = max(worst_z, abs(a.mean - b.mean) / comb)
    # plain counting's se at the pathwise mean: what the closed-form
    # variance-reduction factor describes
    binomial_se = math.sqrt(pw.mean * (1.0 - pw.mean) / pw.n)
    ratio = binomial_se / rb.std_error
    se_over_binomial = pw.std_error / binomial_se
    return [
        ctx.rec("extinction.closed_form", closed.mean, 0.0, 1, 0.25,
                Provenance.CLOSED_FORM, Gate("absolute", 1e-15)),
        ctx.rec("extinction.rao_blackwell", rb.mean, rb.std_error, rb.n, 0.25,
                Provenance.CLOSED_FORM, Gate("3 se", 3 * rb.std_error)),
        ctx.rec("extinction.pathwise", pw.mean, pw.std_error, pw.n, 0.25,
                Provenance.CLOSED_FORM, Gate("3 se", 3 * pw.std_error)),
        ctx.rec("extinction.max_pairwise_zscore", worst_z, None, 100_000, 3.0,
                Provenance.SIMULATION, Gate("z-score bound")),
        # informational: the closed-form variance-reduction factor of plain
        # counting over Rao-Blackwell is sqrt(27/7) = 1.964 here
        ctx.rec("extinction.se_ratio_pathwise_over_rb", ratio, None, 100_000,
                rao_blackwell_se_ratio(p.z0, p), Provenance.SIMULATION),
        # informational: the pathwise se over plain counting's; the
        # antithetic pairs, stratified on a decaying projection of their
        # normals, pull it to about 0.5, and the roulette's weight-20
        # paths push it up (at the default seed: 0.525, the four weight-20
        # absorptions 29 % of se^2)
        ctx.rec("extinction.pathwise.se_over_binomial", se_over_binomial, None, 100_000, None,
                Provenance.NONE),
    ]


# ---------------------------------------------------------------------------
# criterion 3: martingale means with coupled step refinement


def _exact_v_se(p: ModelParams, t: float, n: int) -> float:
    # V(S_t) is the exponential of a Gaussian, so the estimator's standard
    # error is available exactly; the empirical one underestimates badly
    # when the lognormal tail is undersampled.
    var = math.exp(p.beta**2 * p.sigma_e**2 * t) - 1.0
    return math.sqrt(var / n)


def _criterion_3(ctx: _Ctx) -> list:
    p = STANDARD
    n = 100_000
    cps = [0.5, 1.0, 2.0]
    cfg = SchemeConfig(dt=0.01, horizon=2.0)
    data = coupled_refinement_means(p, cfg, cps, n, _seed(ctx, 3), threads=ctx.threads)
    refs = {f.value: functional_reference(f, p) for f in Functional}
    records = []
    for t in cps:
        for name, ref in refs.items():
            fine_m, fine_se = data[t][name]["fine"]
            coarse_m, coarse_se = data[t][name]["coarse"]
            diff_m, diff_se = data[t][name]["diff"]
            gate_se = _exact_v_se(p, t, n) if name == "V_of_S" else fine_se
            comb = max(math.hypot(coarse_se, fine_se), 1e-12)
            records += [
                ctx.rec(f"martingale.{name}.t={t:g}.mean", fine_m, gate_se, n, ref,
                        Provenance.CLOSED_FORM, Gate("3 se", 3 * gate_se)),
                # the shift carries its own se; its gate is the se of two independent runs
                ctx.rec(f"martingale.{name}.t={t:g}.refine_shift", diff_m, diff_se, n, 0.0,
                        Provenance.SIMULATION, Gate("coarse and fine se combined", comb)),
            ]
    return records


# ---------------------------------------------------------------------------
# criterion 4: conditioned law equals the negated-drift law


def _criterion_4(ctx: _Ctx) -> list:
    p = STANDARD
    cfg = SchemeConfig(dt=0.01, horizon=1.0)
    ks = conditioned_law_equivalence_test(p, 1.0, 10_000, cfg, _seed(ctx, 4), threads=ctx.threads)
    ctrl = conditioned_law_equivalence_test(
        p, 1.0, 10_000, cfg, _seed(ctx, 4, 7), negative_control=True, threads=ctx.threads
    )
    ctx.coverage.add("conditioned_law_equivalence_test")
    return [
        ctx.rec("law_equivalence.ks_statistic", ks.statistic, None, ks.n_x,
                ks.critical_1pct, Provenance.REFERENCE_LAW, Gate("KS 1 % critical value")),
        ctx.rec("law_equivalence.ks_pvalue", ks.p_value, None, ks.n_x, None,
                Provenance.REFERENCE_LAW),
        ctx.rec("law_equivalence.negative_control_statistic", ctrl.statistic, None,
                ctrl.n_x, ctrl.critical_1pct, Provenance.REFERENCE_LAW,
                Gate("KS 1 % critical value", negate=True)),
    ]


# ---------------------------------------------------------------------------
# criterion 5: the three decay rates


def _criterion_5(ctx: _Ctx) -> list:
    t_grid = (4.0, 6.0, 8.0, 10.0, 12.0)
    n = 100_000
    cases = [
        (0.5, 0.125, Regime.WEAKLY_SUPERCRITICAL),
        (1.0, 0.5, Regime.INTERMEDIATE_SUPERCRITICAL),
        (2.0, 1.5, Regime.STRONGLY_SUPERCRITICAL),
    ]
    records = []
    for i, (alpha, target, regime) in enumerate(cases):
        p = replace(STANDARD, alpha=alpha)
        pts = survival_points(
            p, t_grid, n, SurvivalRoute.NEGATED_ALPHA_SIM, _seed(ctx, 5, i),
            dt=0.01, threads=ctx.threads,
        )
        fit = fit_decay_rate_from_points(p, pts)
        ctx.rate_curves[alpha] = pts
        ctx.rate_fits[alpha] = fit
        records += [
            ctx.rec(f"decay.alpha={alpha:g}.rate", fit.exponential_rate, None, n,
                    target, Provenance.CLOSED_FORM, Gate("10 %", 0.10 * target)),
            ctx.rec(f"decay.alpha={alpha:g}.fit_rmse", fit.fit_rmse, None, n, None,
                    Provenance.REGRESSION),
        ]
        # the tilted curve against one without the tilt, on fresh noise,
        # at a t where both resolve p(t)
        um, use = environment_survival_curve(
            replace(p, alpha=-alpha), [4.0], n, 0.01, _seed(ctx, 5, 10 + i),
            threads=ctx.threads,
        )[4.0]
        tm, tse = pts[4.0]
        records.append(
            ctx.rec(f"decay.alpha={alpha:g}.untilted_t=4", um, use, n, tm,
                    Provenance.SIMULATION, Gate("5 combined se", 5 * math.hypot(use, tse)))
        )
        if regime is Regime.STRONGLY_SUPERCRITICAL:
            c_ref = theorem1_constant(p, p.z0)
            pm, pse = pts[12.0]
            level = math.exp(1.5 * 12.0) * pm
            level_se = math.exp(1.5 * 12.0) * pse
            records.append(
                ctx.rec("decay.alpha=2.level_t=12", level, level_se, n, c_ref,
                        Provenance.PRINTED_CONSTANT, Gate("15 %", 0.15 * c_ref))
            )
            # the same level read against the closed form from the tilt
            c_closed = strong_level_limit(p, p.z0)
            records.append(
                ctx.rec("decay.alpha=2.level_t=12.closed_form", level, level_se, n, c_closed,
                        Provenance.CLOSED_FORM, Gate("15 %", 0.15 * c_closed))
            )
        if regime is Regime.INTERMEDIATE_SUPERCRITICAL:
            c_ref = theorem1_constant(p, p.z0)
            pm, pse = pts[12.0]
            level = math.exp(0.5 * 12.0) * math.sqrt(12.0) * pm
            level_se = math.exp(0.5 * 12.0) * math.sqrt(12.0) * pse
            records.append(ctx.rec("decay.alpha=1.level_t=12", level, level_se, n, c_ref,
                                   Provenance.QUADRATURE))
    ctx.coverage.update({"theorem1_constant", "strong_level_limit"})
    return records


# ---------------------------------------------------------------------------
# criterion 6: special functions by independent routes


def _criterion_6(ctx: _Ctx) -> list:
    q = DEFAULT_QUAD
    abscissae = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    worst_psi = max(
        abs(psi(a, q) - psi_closed_form(a)) / psi_closed_form(a) for a in abscissae
    )
    moment = integral_a_psi(q)
    moment_ref = 1.0 / math.sqrt(2.0 * math.pi)
    moment_two_route = integral_a_psi(q, use_closed_form=False)
    worst_phi = 0.0
    for (a, beta), golden in PHI_BETA_GOLDEN.items():
        adaptive = phi_beta(a, beta, q)
        oracle = phi_beta_tensor_oracle(a, beta)
        d = max(abs(adaptive - golden), abs(adaptive - oracle)) / max(abs(golden), 1e-300)
        worst_phi = max(worst_phi, d)
    ctx.coverage.update({"psi", "integral_a_psi", "phi_beta", "mean_inverse_gamma"})
    return [
        ctx.rec("specfun.psi.max_rel_diff", worst_psi, None, len(abscissae), 0.0,
                Provenance.CLOSED_FORM, Gate("absolute", 1e-8)),
        ctx.rec("specfun.integral_a_psi", moment, None, 1, moment_ref,
                Provenance.CLOSED_FORM, Gate("absolute", 1e-6)),
        ctx.rec("specfun.integral_a_psi.two_route_diff",
                abs(moment - moment_two_route), None, 1, 0.0,
                Provenance.QUADRATURE, Gate("absolute", 1e-8)),
        ctx.rec("specfun.phi_beta.max_rel_diff", worst_phi, None,
                len(PHI_BETA_GOLDEN), 0.0, Provenance.QUADRATURE, Gate("absolute", 1e-6)),
    ] + [
        ctx.rec(f"specfun.mean_inverse_gamma.nu={nu:g}", mean_inverse_gamma(nu), None, 1,
                ref, Provenance.CLOSED_FORM, Gate("exact", 0.0))
        for nu, ref in ((2.0, 1.0), (1.0, INFINITE))
    ]


# ---------------------------------------------------------------------------
# criterion 7: Laplace transform of the martingale limit


def _criterion_7(ctx: _Ctx) -> list:
    p = STANDARD
    cfg = SchemeConfig(dt=0.0025, horizon=20.0)
    points = laplace_limit_test(
        p, (0.5, 1.0, 2.0, 10.0), 20.0, 100_000, cfg, _seed(ctx, 7), threads=ctx.threads
    )
    ctx.coverage.update({"laplace_limit_test", "laplace_Y"})
    records = []
    for pt in points:
        records.append(
            ctx.rec(f"laplace.lam={pt.lam:g}", pt.estimate.mean, pt.estimate.std_error,
                    pt.estimate.n, pt.reference, Provenance.QUADRATURE,
                    Gate("3 se", max(3.0 * pt.estimate.std_error, 1e-12)))
        )
        # ungated: the transform on dt minus the transform on 2 dt
        bias = pt.dt_bias
        records.append(
            ctx.rec(f"laplace.lam={pt.lam:g}.dt_bias", bias.mean, bias.std_error, bias.n,
                    None, Provenance.NONE)
        )
    inv_limit = laplace_Y(1e6, p.z0, p, Reading.INVERSE_GAMMA)
    ext = extinction_probability(p.z0, p)
    printed_limit = laplace_Y(1e6, p.z0, p, Reading.AS_PRINTED)
    p_beta1 = ModelParams(alpha=0.5, sigma_e=1.0, sigma_b=1.0, z0=1.0)
    printed_beta1 = laplace_Y(math.inf, 1.0, p_beta1, Reading.AS_PRINTED)
    bessel_ref = float(2.0 * _bessel_kv(1, 2.0))
    return records + [
        ctx.rec("laplace.inverse_gamma_limit", inv_limit, None, 1, ext,
                Provenance.CLOSED_FORM, Gate("absolute", 1e-4)),
        ctx.rec("laplace.as_printed_limit", printed_limit, None, 1, ext,
                Provenance.QUADRATURE, Gate("absolute", 1e-4, negate=True)),
        ctx.rec("laplace.as_printed_beta1", printed_beta1, None, 1, bessel_ref,
                Provenance.QUADRATURE, Gate("absolute", 1e-8)),
    ]


# ---------------------------------------------------------------------------
# criterion 8: which way the gamma law enters the exponential functional


def _criterion_8(ctx: _Ctx) -> list:
    from scipy.stats import gamma, invgamma, kstest  # here, so that import bdrelab skips it

    p = STANDARD
    n = 100_000
    samples = dufresne_samples(p, horizon=40.0, n=n, dt=0.01, seed=_seed(ctx, 8),
                               threads=ctx.threads)
    beta = p.beta
    scale = 2.0 / p.sigma_e**2
    stat_inv, p_inv = kstest(samples, lambda x: invgamma.cdf(x, a=beta, scale=scale))
    stat_gam, p_gam = kstest(samples, lambda x: gamma.cdf(x, a=beta, scale=scale))
    crit = KS_CRITICAL_1PCT / math.sqrt(n)
    est = MCEstimate.from_samples(samples, "dufresne")
    return [
        ctx.rec("dufresne.ks_inverse_gamma", stat_inv, None, n, crit,
                Provenance.REFERENCE_LAW, Gate("KS 1 % critical value")),
        ctx.rec("dufresne.ks_inverse_gamma_pvalue", p_inv, None, n, None,
                Provenance.REFERENCE_LAW),
        ctx.rec("dufresne.ks_as_printed_gamma", stat_gam, None, n, crit,
                Provenance.REFERENCE_LAW, Gate("KS 1 % critical value", negate=True)),
        ctx.rec("dufresne.sample_mean", est.mean, est.std_error, est.n,
                1.0 / (p.alpha - 0.5 * p.sigma_e**2), Provenance.CLOSED_FORM),
    ]


# ---------------------------------------------------------------------------
# criterion 9: discrete-to-continuum bridge


def _criterion_9(ctx: _Ctx) -> list:
    bridge_params = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=math.sqrt(2.0), z0=2.0)
    target = extinction_probability(bridge_params.z0, bridge_params)
    freq, se = bridge_extinction_frequency(
        1000, bridge_params, n_reps=10_000, seed=_seed(ctx, 9)
    )
    records = [
        ctx.rec("bridge.extinction_nscale=1000", freq, se, 10_000, target,
                Provenance.CLOSED_FORM, Gate("3 se", 3 * se)),
    ]
    # ungated: how the frequency approaches the diffusion value in n_scale
    for j, n_scale in enumerate((250, 500), start=1):
        f, f_se = bridge_extinction_frequency(
            n_scale, bridge_params, n_reps=10_000, seed=_seed(ctx, 9, j)
        )
        records.append(
            ctx.rec(f"bridge.extinction_nscale={n_scale}", f, f_se, 10_000, target,
                    Provenance.CLOSED_FORM)
        )
    return records


# ---------------------------------------------------------------------------
# coverage probe: cheap touches for operations the nine checks skip


def _coverage_probe(ctx: _Ctx) -> None:
    p = STANDARD
    cfg = SchemeConfig(dt=0.01, horizon=0.5)
    assert classify_regime(p) is Regime.INTERMEDIATE_SUPERCRITICAL
    assert abs(survival_ratio(1.0, p) - 1.0 / 3.0) < 1e-12
    pair_e = drift_conditioned_extinction(1.0, p)
    pair_s = drift_conditioned_survival(1.0, p)
    assert abs(pair_e.drift_z + pair_e.drift_s * 1.0 - (0.5 - 1.0)) < 1e-12
    assert pair_s.drift_z > 0
    assert abs(quenched_drift_coefficient(QuenchedVariant.UNCONDITIONED, 1.0, p) - 1.5) < 1e-15

    path = simulate_bdre(p, cfg, RngStream(_seed(ctx, 11), 0))
    fns = path_functionals(path, p)
    assert set(fns) == {"U_of_Z", "V_of_S", "Z_over_expS"}
    simulate_conditioned_extinction(p, cfg, RngStream(_seed(ctx, 11), 1))
    simulate_conditioned_survival(p, cfg, RngStream(_seed(ctx, 11), 2))
    simulate_quenched(p, cfg, RngStream(_seed(ctx, 11), 3), QuenchedVariant.COND_EXTINCTION)
    simulate_discrete_bpre(50, p, horizon=1.0, rng=RngStream(_seed(ctx, 11), 4))

    for j, route in enumerate(SurvivalRoute):
        estimate_conditioned_survival(p, 0.5, route, 2000, cfg, _seed(ctx, 12, j))
    martingale_test(p, [0.5], 2000, cfg, _seed(ctx, 12, 9))

    ctx.coverage.update(
        {
            "classify_regime", "extinction_probability", "survival_ratio",
            "drift_conditioned_extinction", "drift_conditioned_survival",
            "quenched_drift_coefficient", "simulate_bdre",
            "simulate_conditioned_extinction", "simulate_conditioned_survival",
            "simulate_quenched", "simulate_discrete_bpre", "path_functionals",
            "estimate_conditioned_survival", "martingale_test",
        }
    )


# ---------------------------------------------------------------------------

# criterion k is entry k; each returns its records, and criterion 2 puts
# its sub-durations on ctx
_CRITERIA = (
    ("harmonicity of the scale functions", _criterion_1),
    ("extinction-probability triangle", _criterion_2),
    ("martingale means and step refinement", _criterion_3),
    ("conditioned-law equivalence (KS)", _criterion_4),
    ("decay rates of conditioned survival", _criterion_5),
    ("special-function cross-routes", _criterion_6),
    ("limit-law Laplace suite", _criterion_7),
    ("exponential-functional law selection", _criterion_8),
    ("discrete-to-continuum bridge", _criterion_9),
)


def run_verify(
    seed: int = DEFAULT_SEED,
    output_dir: Optional[str] = None,
    threads: int = 1,
) -> VerifyReport:
    """Run the whole checklist; optionally write records, tables and plots."""
    cfg_hash = config_hash(ExperimentConfig(seed=seed))
    ctx = _Ctx(seed, cfg_hash, threads)
    outcomes = []
    durations = {}
    for index, (name, fn) in enumerate(_CRITERIA, start=1):
        ctx.sub_durations = {}
        t0 = time.perf_counter()
        records = fn(ctx)
        duration = time.perf_counter() - t0
        # the one pass rule: every gated record passes its gate
        passed = all(r.passed for r in records if r.passed is not None)
        out = CriterionOutcome(index, name, passed, records, duration, ctx.sub_durations)
        durations[f"criterion_{index}"] = duration
        for label, sub_s in out.sub_durations.items():
            durations[f"criterion_{index}.{label}"] = sub_s
        outcomes.append(out)
    t0 = time.perf_counter()
    _coverage_probe(ctx)
    durations["coverage_probe"] = time.perf_counter() - t0

    records = [r for out in outcomes for r in out.records]
    report = VerifyReport(
        outcomes=outcomes,
        records=records,
        coverage=frozenset(ctx.coverage),
        passed=all(out.passed for out in outcomes),
        seed=seed,
        config_hash=cfg_hash,
        durations=durations,
    )
    if output_dir is not None:
        _write_outputs(report, ctx, output_dir)
    return report


def _record_line(r: ResultRecord) -> str:
    """One record as one line: value, se, reference, provenance, gate and verdict."""
    line = f"{r.quantity} = {r.value:.6g}"
    if r.std_error is not None:
        line += f" ± {r.std_error:.3g}"
    if r.theoretical is not None:
        line += f" vs {r.theoretical:.6g}"
    if r.provenance is not Provenance.NONE:
        line += f" ({r.provenance.value})"
    if r.gate is not None:
        line += f"  {r.gate}"
    return line + ("  ungated" if r.passed is None else "  pass" if r.passed else "  FAIL")


def _write_outputs(report: VerifyReport, ctx: _Ctx, output_dir: str) -> None:
    os.makedirs(output_dir, exist_ok=True)
    write_results(report.records, output_dir)
    for alpha, pts in sorted(ctx.rate_curves.items()):
        tag = f"alpha{alpha:g}".replace(".", "p")
        write_decay_plot(output_dir, f"_{tag}", alpha, pts, ctx.rate_fits[alpha])
    with open(os.path.join(output_dir, "verify.log"), "w", encoding="utf-8") as fh:
        fh.write(f"verify run at {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
        fh.write(f"seed {report.seed}, config hash {report.config_hash}\n\n")
        for out in report.outcomes:
            sub = "".join(f", {label} {s:.1f}s" for label, s in out.sub_durations.items())
            fh.write(
                f"criterion {out.index}: {out.name}: "
                f"{'PASS' if out.passed else 'FAIL'} ({out.duration_s:.1f}s{sub})\n"
            )
            for r in out.records:
                fh.write(f"    {_record_line(r)}\n")
        fh.write(f"\ncoverage: {len(report.coverage)} operations exercised\n")
        missing = REQUIRED_COVERAGE - report.coverage
        if missing:
            fh.write(f"MISSING coverage: {', '.join(sorted(missing))}\n")


def format_summary(report: VerifyReport) -> str:
    lines = []
    for out in report.outcomes:
        mark = "PASS" if out.passed else "FAIL"
        lines.append(f"criterion {out.index:>2}  {mark}  {out.name} ({out.duration_s:.1f}s)")
        if not out.passed:
            lines += [f"              {_record_line(r)}" for r in out.records if r.passed is False]
    lines.append(
        "criterion 10  ----  byte reproducibility (run verify twice and compare outputs)"
    )
    n_fail = sum(1 for out in report.outcomes if not out.passed)
    lines.append(
        f"{len(report.outcomes) - n_fail}/{len(report.outcomes)} checks pass"
        + (f"; {n_fail} recorded failure(s), see the failing records above" if n_fail else "")
    )
    return "\n".join(lines)
