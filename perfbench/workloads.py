"""The benchmark's three workloads.

Each workload is a fixed list of operations. A round runs every operation
once; a run repeats whole rounds. Round r of a run with seed s hands the
program the seeds derived from (s, r), so the same seed gives the same
inputs. Every operation checks the program's outputs against refs.py and
returns its checks; a check that fails, or an exception, fails the
operation.

Sizes: n is smaller than in `bdrelab verify`; dt, horizons and grids are
verify's, so the work per path-step is the same kernel work verify does.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import shutil
import statistics
import time
from dataclasses import replace
from typing import Callable

import numpy as np

from bdrelab import cli, envexact, estimators, sde, specfun
from bdrelab.model import ModelParams

import refs

P = ModelParams(**refs.STANDARD)
A, SE, SB, Z0 = P.alpha, P.sigma_e, P.sigma_b, P.z0
THREADS = 1


def round_seed(seed: int, r: int) -> int:
    """A 32-bit seed for round r, derived from the run's seed."""
    return int(np.random.SeedSequence([seed % 2**63, r]).generate_state(1)[0])


def check(name: str, ok, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


def gate(name: str, value: float, ref: float, se: float, slack: float = 0.0):
    """|value - ref| <= Z_GATE se + slack."""
    tol = refs.Z_GATE * se + slack
    return check(name, abs(value - ref) <= tol,
                 f"{value:.6g} vs {ref:.6g}, tolerance {tol:.3g}")


class TtsAccumulator:
    """Estimator calls of one run, pooled into a time to 1 % relative se.

    tts = k x (median CPU seconds per call) x se_pool^2 / (0.01 mean_pool)^2
    over the k calls of a run, where the pool is the equal-weight average
    of the calls' estimates: the CPU time the pooled estimator would need
    to reach a 1 % relative standard error, since se^2 falls as 1/n while
    time grows as n. The median keeps one call slowed by the machine from
    moving the figure.
    """

    def __init__(self) -> None:
        self.calls: list[tuple[float, float, float]] = []

    def add(self, cpu_s: float, mean: float, se: float) -> None:
        self.calls.append((cpu_s, mean, se))

    def value(self) -> float:
        k = len(self.calls)
        cpu = k * statistics.median(c for c, _, _ in self.calls)
        mean = sum(m for _, m, _ in self.calls) / k
        se2 = sum(s * s for _, _, s in self.calls) / (k * k)
        return cpu * se2 / (0.01 * mean) ** 2


def run_simulate(out_dir: str, rs: int, kind: str, n_paths: int, horizon: float,
                 dt: float, n_scale: int, extra: tuple[str, ...] = ()) -> list[list[str]]:
    """Run `bdrelab simulate` in-process through cli.main; return the paths.csv rows."""
    d = os.path.join(out_dir, f"simulate-{kind}")
    argv = ["simulate", "--kind", kind, "--seed", str(rs), "--threads", "1",
            "--n-paths", str(n_paths), "--horizon", repr(horizon), "--dt", repr(dt),
            "--n-scale", str(n_scale), "--output-dir", d, *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bdrelab {' '.join(argv)} exited {code}")
    try:
        with open(os.path.join(d, "paths.csv"), newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))[1:]
    finally:
        shutil.rmtree(d)


class Workload:
    """Operations as (name, method); sizes as class attributes."""

    name = ""
    tts_names: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.tts = {k: TtsAccumulator() for k in self.tts_names}

    def operations(self) -> list[tuple[str, Callable]]:
        raise NotImplementedError

    def warm(self) -> None:
        """Small calls into every kernel the workload uses, before timing."""

    def timed(self, key: str, fn: Callable, estimate: Callable = lambda result: result):
        """Call fn; pool its CPU time and estimate(result) = (mean, se) under key."""
        t0 = time.process_time()
        result = fn()
        cpu = time.process_time() - t0
        self.tts[key].add(cpu, *estimate(result))
        return result


# ---------------------------------------------------------------------------


class EnvExact(Workload):
    """Quenched-law estimators: only the environment (S, I_t) is simulated.

    Mirrors verify criteria 2 (Rao-Blackwell half), 5, 7 and 8 at their dt
    and horizons. Runs envexact, rng and the estimators over them; no
    Euler step of the population.
    """

    name = "env-exact"
    tts_names = ("extinction_rb", "survival_weak")
    N_RB = 10_000          # criterion 2 RB: dt 0.01, T 30 (verify: 1e5)
    N_SURV = 10_000        # criterion 5: per regime, t in 4..12, dt 0.01 (verify: 1e6)
    N_LAP = 5_000          # criterion 7: t 20, dt 0.0025 (verify: 1e5)
    N_DUF = 5_000          # criterion 8: T 40, dt 0.01 (verify: 1e5)
    T_GRID = (4.0, 6.0, 8.0, 10.0, 12.0)
    ALPHAS = (0.5, 1.0, 2.0)
    WEAK_ALPHA = 0.5       # the regime of the survival tts figure, read at t = 12
    LAMBDAS = (0.5, 1.0, 2.0, 10.0)

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.rb_var = refs.rb_variance(Z0, A, SE, SB)
        self.rb_var_sd = refs.rb_variance_sd(self.N_RB, Z0, A, SE, SB)
        self.lap_ref = {lam: refs.laplace_limit_reference(lam, Z0, A, SE, SB)
                        for lam in self.LAMBDAS}
        self.duf_law = refs.dufresne_law(A, SE)
        self.duf_printed = refs.dufresne_as_printed_law(A, SE)
        self.duf_sd = refs.dufresne_truncated_sd(A, SE, 40.0)

    def operations(self):
        ops = [("rb_extinction", self.rb_extinction)]
        ops += [(f"survival_alpha{a:g}", functools.partial(self.survival, alpha=a))
                for a in self.ALPHAS]
        ops += [("laplace", self.laplace), ("dufresne", self.dufresne)]
        return ops

    def warm(self) -> None:
        cfg = sde.SchemeConfig(dt=0.01, horizon=1.0)
        estimators.estimate_extinction(P, estimators.ExtinctionMethod.RAO_BLACKWELL,
                                       100, 1.0, cfg, 1, threads=THREADS)
        estimators.laplace_limit_test(P, (1.0,), 1.0, 100, cfg, 1, threads=THREADS)
        envexact.dufresne_samples(P, 1.0, 100, 0.01, 1, threads=THREADS)

    def rb_extinction(self, rs: int):
        cfg = sde.SchemeConfig(dt=0.01, horizon=30.0)

        def call():
            est = estimators.estimate_extinction(
                P, estimators.ExtinctionMethod.RAO_BLACKWELL, self.N_RB, 30.0, cfg, rs,
                threads=THREADS)
            return est.mean, est.std_error

        mean, se = self.timed("extinction_rb", call)
        return [
            gate("mean vs (1 + x)^-beta", mean, refs.extinction_closed_form(Z0, A, SE, SB), se),
            gate("n se^2 vs 7/144", self.N_RB * se * se, self.rb_var, self.rb_var_sd),
        ]

    def survival(self, rs: int, alpha: float):
        p = replace(P, alpha=alpha)

        def call():
            return estimators.survival_points(
                p, self.T_GRID, self.N_SURV, estimators.SurvivalRoute.NEGATED_ALPHA_SIM,
                rs, dt=0.01, threads=THREADS)

        if alpha == self.WEAK_ALPHA:
            pts = self.timed("survival_weak", call, lambda pts: pts[12.0])
        else:
            pts = call()
        means = [pts[t][0] for t in self.T_GRID]
        return [
            check("p(t) in (0, 1]", all(0.0 < m <= 1.0 for m in means), repr(means)),
            check("p(t) strictly decreasing", all(a > b for a, b in zip(means, means[1:])),
                  repr(means)),
        ]

    def laplace(self, rs: int):
        cfg = sde.SchemeConfig(dt=0.0025, horizon=20.0)
        points = estimators.laplace_limit_test(P, self.LAMBDAS, 20.0, self.N_LAP, cfg, rs,
                                               threads=THREADS)
        out = []
        for pt in points:
            ref = self.lap_ref[pt.lam]
            out.append(gate(f"lambda={pt.lam:g} mean vs scipy reference",
                            pt.estimate.mean, ref, pt.estimate.std_error))
            out.append(check(f"lambda={pt.lam:g} laplace_Y vs scipy reference",
                             abs(pt.reference - ref) <= 1e-8, f"{pt.reference!r} vs {ref!r}"))
        return out

    def dufresne(self, rs: int):
        x = envexact.dufresne_samples(P, 40.0, self.N_DUF, 0.01, rs, threads=THREADS)
        p_inv = refs.ks_pvalue(x, self.duf_law.cdf)
        p_gam = refs.ks_pvalue(x, self.duf_printed.cdf)
        # as in coupled_refinement: the exact sd of the truncated law covers
        # draws too rare to appear, the sample sd a rare large one
        se = max(float(x.std(ddof=1)), self.duf_sd) / math.sqrt(x.size)
        return [
            check("KS inverse gamma not rejected", p_inv > refs.KS_LEVEL, f"p = {p_inv:.3g}"),
            check("KS as-printed gamma rejected", p_gam < refs.KS_LEVEL, f"p = {p_gam:.3g}"),
            gate("mean vs 1/(alpha - sigma_e^2/2)", float(x.mean()), refs.dufresne_mean(A, SE), se),
        ]


# ---------------------------------------------------------------------------


class EulerEnsembles(Workload):
    """Full Euler ensembles of (Z, S) and the discrete bridge.

    Mirrors verify criteria 2 (pathwise half), 3, 4 and 9, plus the guarded
    survival-conditioned ensemble and the three conditioned-survival
    routes. Runs sde (Euler step, absorption loop, survival guard, batch
    scheduler, negative-binomial bridge) and no envexact code.
    """

    name = "euler-ensembles"
    tts_names = ("extinction_pathwise",)
    N_PATHWISE = 4_000     # criterion 2 pathwise: dt 1e-3, T 30 (verify: 1e5)
    N_REFINE = 20_000      # criterion 3: dt 0.01, checkpoints 0.5, 1, 2 (verify: 1e5)
    N_KS = 10_000          # criterion 4: t 1, dt 0.01 (as verify)
    N_GUARD = 20_000       # survival-conditioned ensemble: T 1, dt 0.01
    N_ROUTES = 20_000      # three conditioned-survival routes at t 1, dt 0.01
    BRIDGE = (1000, 4_000)  # criterion 9: n_scale, replications (verify: 1e4)
    # The h-transform identity holds for the diffusion; at dt 0.01 the Euler
    # ensemble reads 1.330 +- 0.003 at T = 1 (n = 1e5), so the gate allows
    # that much bias on top of Z_GATE standard errors.
    H_EULER_BIAS = 0.005

    def operations(self):
        return [
            ("pathwise_extinction", self.pathwise),
            ("coupled_refinement", self.refinement),
            ("law_equivalence", self.law_equivalence),
            ("guarded_ensemble", self.guarded),
            ("survival_routes", self.routes),
            ("bridge", self.bridge),
        ]

    def warm(self) -> None:
        cfg = sde.SchemeConfig(dt=0.01, horizon=0.1)
        for v in ("bdre", "cond-extinction", "cond-survival"):
            sde.ensemble_final_states(v, P, cfg, [0.1], 100, 1, threads=THREADS)
        sde.absorbed_fraction(P, cfg, 100, 1, threads=THREADS)
        sde.bridge_extinction_frequency(10, P, 100, 1, horizon=0.1)

    def pathwise(self, rs: int):
        cfg = sde.SchemeConfig(dt=1e-3, horizon=30.0)

        def call():
            est = estimators.estimate_extinction(
                P, estimators.ExtinctionMethod.PATHWISE, self.N_PATHWISE, 30.0, cfg, rs,
                threads=THREADS)
            return est.mean, est.std_error

        mean, se = self.timed("extinction_pathwise", call)
        return [gate("absorbed fraction vs (1 + x)^-beta", mean,
                     refs.extinction_closed_form(Z0, A, SE, SB), se)]

    def refinement(self, rs: int):
        cps = (0.5, 1.0, 2.0)
        n = self.N_REFINE
        data = sde.coupled_refinement_means(P, sde.SchemeConfig(dt=0.01, horizon=2.0), cps,
                                            n, rs, threads=THREADS)
        ref = {"U_of_Z": float(refs.scale_u(Z0, A, SE, SB)), "V_of_S": 1.0, "Z_over_expS": Z0}
        # V(S) and Z e^-S are skewed: their exact sd covers a tail too thin
        # to be sampled, the sample sd a rare large draw
        exact_sd = {"V_of_S": lambda t: refs.lognormal_v_sd(A, SE, t),
                    "Z_over_expS": lambda t: refs.martingale_limit_sd(Z0, A, SE, SB, t)}
        out = []
        for t in cps:
            for name, target in ref.items():
                fine_m, fine_se = data[t][name]["fine"]
                coarse_se = data[t][name]["coarse"][1]
                diff_m = data[t][name]["diff"][0]
                se = fine_se
                if name in exact_sd:
                    se = max(exact_sd[name](t) / math.sqrt(n), fine_se)
                out.append(gate(f"{name} t={t:g} mean", fine_m, target, se))
                comb = math.hypot(coarse_se, fine_se)
                out.append(check(f"{name} t={t:g} refinement shift within combined se",
                                 abs(diff_m) <= comb, f"{diff_m:.3g} vs {comb:.3g}"))
        return out

    def law_equivalence(self, rs: int):
        cfg = sde.SchemeConfig(dt=0.01, horizon=1.0)
        ks = estimators.conditioned_law_equivalence_test(P, 1.0, self.N_KS, cfg, rs,
                                                         threads=THREADS)
        ctrl = estimators.conditioned_law_equivalence_test(P, 1.0, self.N_KS, cfg, rs + 7,
                                                           negative_control=True,
                                                           threads=THREADS)
        return [
            check("matched laws not rejected", ks.p_value > refs.KS_LEVEL, f"p = {ks.p_value:.3g}"),
            check("negative control rejected", ctrl.p_value < refs.KS_LEVEL,
                  f"p = {ctrl.p_value:.3g}"),
        ]

    def guarded(self, rs: int):
        t = 1.0
        z, s = sde.ensemble_final_states("cond-survival", P, sde.SchemeConfig(dt=0.01, horizon=t),
                                         [t], self.N_GUARD, rs, threads=THREADS)[t]
        w = z * np.exp(-s) / refs.survival_h(z, A, SE, SB)
        se = float(w.std(ddof=1) / math.sqrt(w.size))
        return [
            check("every Z_T > 0", bool(np.all(z > 0)), f"min {z.min():.3g}"),
            gate("E_Q[Z e^-S / h(Z)] vs z0 / h(z0)", float(w.mean()),
                 refs.h_transform_target(Z0, A, SE, SB), se, slack=self.H_EULER_BIAS),
        ]

    def routes(self, rs: int):
        t = 1.0
        cfg = sde.SchemeConfig(dt=0.01, horizon=t)
        est = {
            route.value: estimators.estimate_conditioned_survival(
                P, t, route, self.N_ROUTES, cfg, rs + j, threads=THREADS)
            for j, route in enumerate(estimators.SurvivalRoute)
        }
        out = []
        keys = sorted(est)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                ea, eb = est[a], est[b]
                out.append(gate(f"{a} vs {b}", ea.mean, eb.mean,
                                math.hypot(ea.std_error, eb.std_error)))
        return out

    def bridge(self, rs: int):
        n_scale, reps = self.BRIDGE
        bp = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=math.sqrt(2.0), z0=2.0)
        freq, se = sde.bridge_extinction_frequency(n_scale, bp, n_reps=reps, seed=rs)
        return [gate("bridge extinction frequency vs diffusion value", freq,
                     refs.extinction_closed_form(bp.z0, bp.alpha, bp.sigma_e, bp.sigma_b), se)]


# ---------------------------------------------------------------------------


class QuadraturePaths(Workload):
    """Interpreter-bound work: adaptive quadrature and per-path simulation.

    Mirrors verify criterion 6 and the laplace_Y records of criterion 7, and
    runs `bdrelab simulate` for all five kinds through cli.main. The
    quadrature calls Python integrands; simulate steps one path at a time.
    """

    name = "quadrature-paths"
    SPECIAL = ("psi", "integral_a_psi", "phi_beta", "laplace_Y")
    tts_names = SPECIAL
    ABSCISSAE = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    PHI_PAIRS = ((1.0, 1.0), (0.5, 1.0), (2.0, 1.0), (1.0, 0.5), (1.0, 2.0),
                 (0.5, 0.5), (2.0, 2.0), (5.0, 1.0), (1.0, 4.0))
    LAMBDAS = (0.5, 1.0, 2.0, 10.0, math.inf)
    KINDS = ("bdre", "cond-extinction", "cond-survival", "quenched", "bpre")
    N_PATHS = 40
    SIM_DT = 0.01
    SIM_HORIZON = 5.0
    N_SCALE = 100          # bpre individuals per unit mass (the CLI default)
    # bdre also checks its mean Z_T e^-S_T against z0; with this many paths
    # the gate (Z_GATE se, se >= the law's exact sd / sqrt(n)) is at most
    # z0 / 3, so a run that kills every path fails it
    N_PATHS_BDRE = math.ceil(
        (3 * refs.Z_GATE * refs.martingale_limit_sd(Z0, A, SE, SB, SIM_HORIZON) / Z0) ** 2)

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.lap_ref = {
            (lam, printed): refs.laplace_limit_reference(lam, Z0, A, SE, SB, as_printed=printed)
            for lam in self.LAMBDAS for printed in (False, True)
        }
        self.bessel = refs.bessel_as_printed_beta1()
        self.bdre_sd = refs.martingale_limit_sd(Z0, A, SE, SB, self.SIM_HORIZON)

    def operations(self):
        methods = (self.psi, self.integral_a_psi, self.phi_beta, self.laplace_y)
        ops = [(name, functools.partial(self._solved, name=name, op=op))
               for name, op in zip(self.SPECIAL, methods)]
        ops += [(f"simulate_{k}", functools.partial(self.simulate, kind=k))
                for k in self.KINDS]
        ops.append(("simulate_sigma_b0", self.simulate_sigma_b0))
        return ops

    def _solved(self, rs: int, name: str, op: Callable):
        """Run op, its CPU time counted as the time to solution of its values.

        The special functions are deterministic: one call gives each value
        at its tolerance, so the time to solution is the call's CPU time,
        which TtsAccumulator returns for mean 1 and se 0.01.
        """
        return self.timed(name, lambda: op(rs), lambda _: (1.0, 0.01))

    def warm(self) -> None:
        specfun.psi(1.0)
        specfun.laplace_Y(1.0, Z0, P)
        run_simulate(self.out_dir, 1, "bdre", 1, 0.1, self.SIM_DT, self.N_SCALE)

    def psi(self, rs: int):
        out = []
        for a in self.ABSCISSAE:
            v, ref = specfun.psi(a), refs.psi_reference(a)
            out.append(check(f"psi({a:g}) vs e^-a/(sqrt(2 pi) a)", abs(v - ref) <= 1e-8 * ref,
                             f"{v!r} vs {ref!r}"))
        return out

    def integral_a_psi(self, rs: int):
        out = []
        for closed in (True, False):
            v = specfun.integral_a_psi(use_closed_form=closed)
            route = "closed-form" if closed else "quadrature"
            out.append(check(f"integral_a_psi ({route} route) vs 1/sqrt(2 pi)",
                             abs(v - refs.MOMENT_A_PSI) <= 1e-8, f"{v!r}"))
        return out

    def phi_beta(self, rs: int):
        out = []
        for a, b in self.PHI_PAIRS:
            adaptive = specfun.phi_beta(a, b)
            oracle = specfun.phi_beta_tensor_oracle(a, b)
            out.append(check(f"phi_beta({a:g}, {b:g}) adaptive vs tensor oracle",
                             abs(adaptive - oracle) <= 1e-6 * abs(oracle),
                             f"{adaptive!r} vs {oracle!r}"))
        return out

    def laplace_y(self, rs: int):
        out = []
        for (lam, printed), ref in self.lap_ref.items():
            reading = specfun.Reading.AS_PRINTED if printed else specfun.Reading.INVERSE_GAMMA
            v = specfun.laplace_Y(lam, Z0, P, reading)
            out.append(check(f"laplace_Y({lam:g}, {reading.value}) vs scipy reference",
                             abs(v - ref) <= 1e-8, f"{v!r} vs {ref!r}"))
        inf_limit = specfun.laplace_Y(math.inf, Z0, P, specfun.Reading.INVERSE_GAMMA)
        out.append(check("inverse-gamma reading at lambda = inf vs 1/4",
                         abs(inf_limit - refs.extinction_closed_form(Z0, A, SE, SB)) <= 1e-8,
                         f"{inf_limit!r}"))
        p1 = ModelParams(alpha=0.5, sigma_e=1.0, sigma_b=1.0, z0=1.0)
        v1 = specfun.laplace_Y(math.inf, 1.0, p1, specfun.Reading.AS_PRINTED)
        out.append(check("as-printed reading at beta = 1 vs 2 K_1(2)",
                         abs(v1 - self.bessel) <= 1e-8, f"{v1!r} vs {self.bessel!r}"))
        return out

    def simulate(self, rs: int, kind: str):
        n_paths = self.N_PATHS_BDRE if kind == "bdre" else self.N_PATHS
        rows = run_simulate(self.out_dir, rs, kind, n_paths, self.SIM_HORIZON, self.SIM_DT,
                            self.N_SCALE)
        z = np.array([float(r[2]) for r in rows])
        expected = refs.simulate_rows(kind, n_paths, self.SIM_HORIZON, self.SIM_DT, self.N_SCALE)
        out = [check("row count", len(rows) == expected, f"{len(rows)} vs {expected}")]
        if kind == "cond-survival":
            out.append(check("Z > 0 on every row", bool(np.all(z > 0)), f"min {z.min():.3g}"))
        else:
            out.append(check("Z >= 0 on every row", bool(np.all(z >= 0)), f"min {z.min():.3g}"))
        if kind == "bdre":
            last = {}
            for r in rows:
                last[r[0]] = float(r[2]) * math.exp(-float(r[3]))
            w = np.array(list(last.values()))
            # skewed law (an atom at 0, a long right tail): the sample sd
            # often falls far short of the exact one
            se = max(float(w.std(ddof=1)), self.bdre_sd) / math.sqrt(w.size)
            out.append(gate("mean Z_T e^-S_T over paths vs z0", float(w.mean()), Z0, se))
        return out

    def simulate_sigma_b0(self, rs: int):
        rows = run_simulate(self.out_dir, rs, "bdre", self.N_PATHS, self.SIM_HORIZON,
                            self.SIM_DT, self.N_SCALE, ("--sigma-b", "0"))
        dev = max(abs(float(r[2]) * math.exp(-float(r[3])) - Z0) for r in rows)
        return [check("sigma_b = 0: Z e^-S = z0 on every row", dev <= 1e-9 * Z0,
                      f"max deviation {dev:.3g}")]


# ---------------------------------------------------------------------------


def layer_probes(seed: int, out_dir: str) -> list[tuple[str, Callable]]:
    """One small call into every kernel that has a per-layer metric.

    A traced run makes these after its workload's round, so that every
    workload reports every per-layer metric: a layer the round calls is
    measured on the round's calls, any other on these. The sizes keep each
    call between a few hundredths and half a second, except the tensor
    oracle (about 1 s). dt, horizons and grids are the workloads'.
    """
    c1 = sde.SchemeConfig(dt=0.01, horizon=1.0)
    ext = estimators.ExtinctionMethod
    bp = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=math.sqrt(2.0), z0=2.0)
    probes: list[tuple[str, Callable]] = [
        ("extinction_rb", lambda: estimators.estimate_extinction(
            P, ext.RAO_BLACKWELL, 2_000, 30.0, sde.SchemeConfig(dt=0.01, horizon=30.0), seed,
            threads=THREADS)),
        ("survival_points", lambda: estimators.survival_points(
            replace(P, alpha=EnvExact.WEAK_ALPHA), EnvExact.T_GRID, 5_000,
            estimators.SurvivalRoute.NEGATED_ALPHA_SIM, seed, dt=0.01, threads=THREADS)),
        ("laplace", lambda: estimators.laplace_limit_test(
            P, (1.0,), 20.0, 500, sde.SchemeConfig(dt=0.0025, horizon=20.0), seed,
            threads=THREADS)),
        ("dufresne", lambda: envexact.dufresne_samples(P, 40.0, 500, 0.01, seed,
                                                         threads=THREADS)),
        ("extinction_pathwise", lambda: estimators.estimate_extinction(
            P, ext.PATHWISE, 200, 30.0, sde.SchemeConfig(dt=1e-3, horizon=30.0), seed,
            threads=THREADS)),
        ("coupled_refinement", lambda: sde.coupled_refinement_means(
            P, sde.SchemeConfig(dt=0.01, horizon=2.0), (0.5, 1.0, 2.0), 2_000, seed,
            threads=THREADS)),
        ("law_equivalence", lambda: estimators.conditioned_law_equivalence_test(
            P, 1.0, 10_000, c1, seed, threads=THREADS)),
        ("bridge", lambda: sde.bridge_extinction_frequency(
            EulerEnsembles.BRIDGE[0], bp, n_reps=100, seed=seed)),
        ("psi", lambda: [specfun.psi(a) for a in QuadraturePaths.ABSCISSAE]),
        ("integral_a_psi", lambda: specfun.integral_a_psi(use_closed_form=False)),
        ("phi_beta", lambda: specfun.phi_beta(1.0, 1.0)),
        ("phi_beta_tensor_oracle", lambda: specfun.phi_beta_tensor_oracle(1.0, 1.0)),
        ("laplace_Y", lambda: specfun.laplace_Y(1.0, Z0, P)),
    ]
    probes += [(f"ensemble_{v}", functools.partial(
        sde.ensemble_final_states, v, P, c1, [1.0], 20_000, seed, threads=THREADS))
        for v in ("bdre", "cond-extinction", "cond-survival")]
    probes += [(f"conditioned_survival_{route.value}", functools.partial(
        estimators.estimate_conditioned_survival, P, 1.0, route, 20_000, c1, seed,
        threads=THREADS)) for route in estimators.SurvivalRoute]
    probes += [(f"simulate_{kind}", functools.partial(
        run_simulate, out_dir, seed, kind, 4, QuadraturePaths.SIM_HORIZON,
        QuadraturePaths.SIM_DT, QuadraturePaths.N_SCALE)) for kind in QuadraturePaths.KINDS]
    return probes


WORKLOADS = {w.name: w for w in (EnvExact, EulerEnsembles, QuadraturePaths)}
