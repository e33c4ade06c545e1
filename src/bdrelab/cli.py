"""Command-line front end for the laboratory.

Subcommands: simulate (write paths), estimate (one estimator experiment),
rates (decay-rate fits with plot data), specfun (tabulate the special
functions), verify (the full checklist), bridge (discrete-to-continuum
demo). Exit codes: 0 success, 1 verification failure, 2 configuration
error (including unknown subcommands and unwritable outputs), 3 numerical
failure (quadrature budget or step-size trouble).

Seed resolution, most specific wins: --seed flag, then the BDRE_LAB_SEED
environment variable, then the config file, then the built-in default.
Records echo to stdout as CSV text and land in output_dir alongside a
JSONLines mirror; plot data and scripts sit beside the rate CSVs.
Nothing written here carries a timestamp, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Optional

from .config import (
    Experiment,
    ExperimentConfig,
    config_hash,
    read_config,
    seed_from_environment,
)
from .errors import ConfigError, NotComputableError, NumericalFailure
from .estimators import (
    ExtinctionMethod,
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
    QuenchedVariant,
    classify_regime,
    extinction_probability,
)
from .results import (
    Gate,
    Provenance,
    ResultRecord,
    format_records_csv,
    write_decay_plot,
    write_results,
)
from .rng import RngStream
from .sde import (
    bridge_extinction_frequency,
    simulate_bdre,
    simulate_conditioned_extinction,
    simulate_conditioned_survival,
    simulate_discrete_bpre,
    simulate_quenched,
)
from .specfun import (
    DEFAULT_QUAD,
    integral_a_psi,
    phi_beta,
    psi,
    psi_closed_form,
    theorem1_constant,
)
from .verify import format_summary, run_verify

__all__ = ["main"]


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None, help="environment drift")
    p.add_argument("--sigma-e", type=float, default=None, help="environment volatility")
    p.add_argument("--sigma-b", type=float, default=None, help="branching volatility")
    p.add_argument("--z0", type=float, default=None, help="initial population mass")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="config file (flat dotted keys)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (beats config and environment)")
    p.add_argument("--output-dir", default=None, help="directory for result files")
    p.add_argument("--threads", type=int, default=None,
                   help="batch parallelism (default: available cores); results do not depend on it")
    p.add_argument("--dt", type=float, default=None, help="time step")
    p.add_argument("--horizon", type=float, default=None, help="simulation horizon")
    p.add_argument("--n", type=int, default=None, help="sample size")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdrelab",
        description="simulation laboratory for branching diffusions in a random environment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write sample paths to a CSV")
    _add_common_flags(p_sim)
    _add_model_flags(p_sim)
    p_sim.add_argument("--kind", default="bdre",
                       choices=["bdre", "cond-extinction", "cond-survival", "quenched", "bpre"])
    p_sim.add_argument("--n-paths", type=int, default=10)
    p_sim.add_argument("--n-scale", type=int, default=100, help="bpre only: individuals per unit mass")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="run one estimator experiment")
    _add_common_flags(p_est)
    _add_model_flags(p_est)
    p_est.add_argument("--experiment", default=None,
                       choices=[e.value for e in Experiment if e is not Experiment.RATES])
    p_est.set_defaults(func=_cmd_estimate)

    p_rates = sub.add_parser("rates", help="fit decay rates and emit plot data")
    _add_common_flags(p_rates)
    _add_model_flags(p_rates)
    p_rates.set_defaults(func=_cmd_rates)

    p_spec = sub.add_parser("specfun", help="tabulate the special functions")
    p_spec.add_argument("--psi", action="store_true", help="survival-kernel density at --a")
    p_spec.add_argument("--phi-beta", action="store_true", help="weak-regime kernel at (--a, --beta)")
    p_spec.add_argument("--moment", action="store_true", help="the first moment of the psi kernel")
    p_spec.add_argument("--decay-constant", action="store_true",
                        help="decay-level constant of the model's regime")
    p_spec.add_argument("--a", type=float, default=None)
    p_spec.add_argument("--beta", type=float, default=None)
    p_spec.add_argument("--output-dir", default=None)
    p_spec.add_argument("--seed", type=int, default=None)
    _add_model_flags(p_spec)
    p_spec.set_defaults(func=_cmd_specfun)

    p_ver = sub.add_parser("verify", help="run the full verification checklist")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--output-dir", default=None)
    p_ver.add_argument("--threads", type=int, default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_br = sub.add_parser("bridge", help="discrete-to-continuum extinction demo")
    _add_common_flags(p_br)
    _add_model_flags(p_br)
    p_br.add_argument("--n-scale", type=int, default=1000)
    p_br.add_argument("--n-reps", type=int, default=10_000)
    p_br.set_defaults(func=_cmd_bridge)

    return parser


def _resolve_config(args) -> ExperimentConfig:
    """Config file, then the seed environment variable, then flags.

    Every subcommand takes its config and seed from here, so the seed order
    (flag, BDRE_LAB_SEED, config file, default) is stated once.
    """
    config = getattr(args, "config", None)
    cfg = read_config(config) if config else ExperimentConfig()
    cfg = seed_from_environment(cfg)

    model = cfg.model
    for field in ("alpha", "sigma_e", "sigma_b", "z0"):
        v = getattr(args, field, None)
        if v is not None:
            model = replace(model, **{field: v})
    scheme = cfg.scheme
    if getattr(args, "dt", None) is not None:
        scheme = replace(scheme, dt=args.dt)
    if getattr(args, "horizon", None) is not None:
        scheme = replace(scheme, horizon=args.horizon)

    seed = args.seed if getattr(args, "seed", None) is not None else cfg.seed

    updates = {"model": model, "scheme": scheme, "seed": seed}
    if getattr(args, "n", None) is not None:
        updates["n"] = args.n
    if getattr(args, "output_dir", None) is not None:
        updates["output_dir"] = args.output_dir
    if getattr(args, "experiment", None) is not None:
        updates["experiment"] = Experiment(args.experiment)
    return replace(cfg, **updates)


def _threads(args) -> int:
    v = getattr(args, "threads", None)
    if v is None:
        return os.cpu_count() or 1
    if v < 1:
        raise ConfigError("--threads must be >= 1")
    return v


def _emit(records, cfg: ExperimentConfig) -> None:
    sys.stdout.write(format_records_csv(records))
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_results(records, cfg.output_dir)


def _rec(cfg: ExperimentConfig, quantity: str, value: float, se: Optional[float],
         n: int, theoretical: Optional[float], prov: Provenance,
         gate: Optional[Gate] = None) -> ResultRecord:
    return ResultRecord(
        quantity=quantity, value=value, std_error=se, n=n, theoretical=theoretical,
        provenance=prov, passed=None, seed=cfg.seed, config_hash=config_hash(cfg), gate=gate,
    )


# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    if args.n_paths < 1:
        raise ConfigError("--n-paths must be >= 1")
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    path_file = os.path.join(out, "paths.csv")
    # written beside paths.csv and renamed over it once every path is in,
    # so a run that raises leaves no partial file
    part_file = f"{path_file}.{os.getpid()}.part"
    try:
        with open(part_file, "w", encoding="utf-8", newline="") as fh:
            fh.write("path,t,z,s,model\n")
            for i in range(args.n_paths):
                rng = RngStream(cfg.seed, i)
                if args.kind == "bdre":
                    path = simulate_bdre(cfg.model, cfg.scheme, rng)
                elif args.kind == "cond-extinction":
                    path = simulate_conditioned_extinction(cfg.model, cfg.scheme, rng)
                elif args.kind == "cond-survival":
                    path = simulate_conditioned_survival(cfg.model, cfg.scheme, rng)
                elif args.kind == "quenched":
                    path = simulate_quenched(cfg.model, cfg.scheme, rng,
                                             QuenchedVariant.UNCONDITIONED)
                else:
                    path = simulate_discrete_bpre(args.n_scale, cfg.model,
                                                  cfg.scheme.horizon, rng)
                # No float repr or model tag holds a comma or a quote, so these
                # are the rows csv.writer would write.
                tag = path.model_tag
                fh.write("".join(
                    f"{i},{t!r},{z!r},{s!r},{tag}\n"
                    for t, z, s in zip(path.times.tolist(), path.z_values.tolist(),
                                       path.s_values.tolist())
                ))
        os.replace(part_file, path_file)
    finally:
        if os.path.exists(part_file):
            os.remove(part_file)
    sys.stdout.write(f"{args.n_paths} paths -> {path_file}\n")
    return 0


def _cmd_estimate(args) -> int:
    cfg = _resolve_config(args)
    exp = cfg.experiment
    threads = _threads(args)
    records = []
    if exp is Experiment.RATES:
        raise ConfigError("use the rates subcommand for the rates experiment")
    if exp is Experiment.EXTINCTION:
        try:
            theo = float(extinction_probability(cfg.model.z0, cfg.model))
        except ValueError:
            theo = None
        for method in ExtinctionMethod:
            n = 1 if method is ExtinctionMethod.CLOSED_FORM else cfg.n
            try:
                est = estimate_extinction(cfg.model, method, n, cfg.scheme.horizon,
                                          cfg.scheme, cfg.seed, threads=threads)
            except ValueError:
                continue  # e.g. the closed form outside the supercritical case
            records.append(_rec(cfg, f"extinction.{method.value}", est.mean,
                                est.std_error, est.n, theo, Provenance.SIMULATION))
        if not records:
            raise ConfigError("no extinction method applies to this model")
    elif exp is Experiment.CONDITIONED_SURVIVAL:
        routes = tuple(SurvivalRoute(r) for r in cfg.routes) or tuple(SurvivalRoute)
        for j, route in enumerate(routes):
            for t in cfg.t_grid:
                est = estimate_conditioned_survival(
                    cfg.model, t, route, cfg.n, cfg.scheme, cfg.seed + j, threads=threads
                )
                records.append(_rec(cfg, f"cond_survival.{route.value}.t={t:g}",
                                    est.mean, est.std_error, est.n, None,
                                    Provenance.SIMULATION))
    elif exp is Experiment.MARTINGALE:
        cps = [t for t in cfg.t_grid if t <= cfg.scheme.horizon]
        if not cps:
            raise ConfigError("martingale experiment needs t_grid points within the horizon")
        ests = martingale_test(cfg.model, cps, cfg.n, cfg.scheme, cfg.seed, threads=threads)
        for functional, row in ests.items():
            ref = functional_reference(functional, cfg.model)
            for est in row:
                records.append(_rec(cfg, f"martingale.{est.method_tag}", est.mean,
                                    est.std_error, est.n, ref, Provenance.SIMULATION))
    elif exp is Experiment.LAPLACE:
        pts = laplace_limit_test(cfg.model, cfg.lambda_grid, cfg.scheme.horizon,
                                 cfg.n, cfg.scheme, cfg.seed, q=cfg.quadrature,
                                 threads=threads)
        for pt in pts:
            records.append(_rec(cfg, f"laplace.lam={pt.lam:g}", pt.estimate.mean,
                                pt.estimate.std_error, pt.estimate.n, pt.reference,
                                Provenance.QUADRATURE,
                                Gate("3 se", max(3.0 * pt.estimate.std_error, 1e-12))))
    elif exp is Experiment.LAW_EQUIVALENCE:
        t = cfg.t_grid[0]
        ks = conditioned_law_equivalence_test(cfg.model, t, cfg.n, cfg.scheme,
                                              cfg.seed, threads=threads)
        records.append(_rec(cfg, f"law_equivalence.ks_statistic.t={t:g}", ks.statistic,
                            None, ks.n_x, ks.critical_1pct, Provenance.REFERENCE_LAW,
                            Gate("KS 1 % critical value")))
        records.append(_rec(cfg, f"law_equivalence.ks_pvalue.t={t:g}", ks.p_value,
                            None, ks.n_x, None, Provenance.REFERENCE_LAW))
    _emit(records, cfg)
    return 0


def _cmd_rates(args) -> int:
    cfg = _resolve_config(args)
    threads = _threads(args)
    pts = survival_points(cfg.model, cfg.t_grid, cfg.n,
                          SurvivalRoute.NEGATED_ALPHA_SIM, cfg.seed,
                          dt=cfg.scheme.dt, threads=threads)
    fit = fit_decay_rate_from_points(cfg.model, pts)
    records = [
        _rec(cfg, "decay.exponential_rate", fit.exponential_rate, None, cfg.n,
             None, Provenance.REGRESSION),
        _rec(cfg, "decay.polynomial_power", fit.polynomial_power, None, cfg.n,
             None, Provenance.REGRESSION),
        _rec(cfg, "decay.fit_rmse", fit.fit_rmse, None, cfg.n, None,
             Provenance.REGRESSION),
    ]
    for t in sorted(pts):
        m, se = pts[t]
        records.append(_rec(cfg, f"decay.survival.t={t:g}", m, se, cfg.n, None,
                            Provenance.SIMULATION))
    _emit(records, cfg)
    write_decay_plot(cfg.output_dir, "", cfg.model.alpha, pts, fit)
    return 0


def _cmd_specfun(args) -> int:
    cfg = _resolve_config(args)
    records = []
    if args.psi:
        if args.a is None:
            raise ConfigError("--psi needs --a")
        records.append(_rec(cfg, f"psi.a={args.a:g}", psi(args.a, DEFAULT_QUAD), None,
                            1, psi_closed_form(args.a), Provenance.QUADRATURE))
    if args.phi_beta:
        if args.a is None or args.beta is None:
            raise ConfigError("--phi-beta needs --a and --beta")
        records.append(_rec(cfg, f"phi_beta.a={args.a:g}.beta={args.beta:g}",
                            phi_beta(args.a, args.beta, DEFAULT_QUAD), None, 1, None,
                            Provenance.QUADRATURE))
    if args.moment:
        records.append(_rec(cfg, "integral_a_psi", integral_a_psi(DEFAULT_QUAD), None,
                            1, 1.0 / math.sqrt(2.0 * math.pi), Provenance.QUADRATURE))
    if args.decay_constant:
        regime = classify_regime(cfg.model)
        value = theorem1_constant(cfg.model, cfg.model.z0, DEFAULT_QUAD)
        records.append(_rec(cfg, f"decay_level_constant.{regime.value}", value, None,
                            1, None, Provenance.CLOSED_FORM))
    if not records:
        raise ConfigError("specfun: pick at least one of --psi, --phi-beta, --moment, "
                          "--decay-constant")
    if args.output_dir:
        _emit(records, cfg)
    else:
        sys.stdout.write(format_records_csv(records))
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(seed=_resolve_config(args).seed, output_dir=args.output_dir,
                        threads=_threads(args))
    sys.stdout.write(format_summary(report) + "\n")
    return 0 if report.passed else 1


def _cmd_bridge(args) -> int:
    cfg = _resolve_config(args)
    if args.n_scale < 1:
        raise ConfigError("--n-scale must be >= 1")
    freq, se = bridge_extinction_frequency(args.n_scale, cfg.model,
                                           n_reps=args.n_reps, seed=cfg.seed,
                                           horizon=cfg.scheme.horizon)
    # geometric offspring fix the limit's sigma_b at sqrt(2), whatever --sigma-b says
    limit = replace(cfg.model, sigma_b=math.sqrt(2.0))
    try:
        theo = float(extinction_probability(limit.z0, limit))
    except ValueError:
        theo = None
    gate = None if theo is None else Gate("3 se", 3 * se)
    records = [_rec(cfg, f"bridge.extinction_nscale={args.n_scale}", freq, se,
                    args.n_reps, theo, Provenance.SIMULATION, gate)]
    _emit(records, cfg)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except (NumericalFailure, NotComputableError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
