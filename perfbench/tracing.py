"""Spans around the benchmark's calls into bdrelab, and the per-layer figures.

A traced round wraps the public kernels of bdrelab's modules in recording
wrappers. The wrappers live here, in the benchmark; the program is not
edited. Every module binding of a wrapped function is replaced, so a call
from one bdrelab module into another (an estimator calling an sde kernel)
is recorded as a child of the caller's span. Each span has a name, start,
end, parent and the work it was handed (path-steps, draws, CSV rows),
taken from the call's arguments. Spans are kept in memory and written as
JSON lines when the run ends.

Untraced rounds use NULL_TRACER and run the program unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from typing import Callable

import refs


class NullTracer:
    enabled = False

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    # -- wrapping bdrelab's module functions --------------------------------

    def install(self, targets: dict) -> None:
        """Replace every bdrelab binding of each target with a recording wrapper.

        targets maps 'module.function' to a function of the call's bound
        arguments returning (span name, attributes).
        """
        mods = [m for name, m in sys.modules.items()
                if name == "bdrelab" or name.startswith("bdrelab.")]
        for qual, describe in targets.items():
            mod_name, fn_name = qual.rsplit(".", 1)
            orig = getattr(sys.modules[f"bdrelab.{mod_name}"], fn_name)
            wrapper = self._wrap(orig, describe)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, orig: Callable, describe: Callable):
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            name, attrs = describe(bound.arguments)
            with self.span(name, **attrs):
                return orig(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, default=str) + "\n")


# ---------------------------------------------------------------------------
# what each wrapped function is handed, read from its arguments


def _n_steps(horizon: float, dt: float) -> int:
    return max(1, int(round(horizon / dt)))


def _simulate_rows(argv: list[str]) -> int:
    """paths.csv rows of a `simulate` argv in which every option has a value."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    return refs.simulate_rows(opts["--kind"], int(opts["--n-paths"]), float(opts["--horizon"]),
                              float(opts["--dt"]), int(opts["--n-scale"]))


def _variant_key(v) -> str:
    raw = v if isinstance(v, str) else v.value
    return {"conditioned-on-extinction": "cond_extinction"}.get(raw, raw).replace("-", "_")


TARGETS: dict[str, Callable] = {
    # envexact: one environment path-step per (path, grid step)
    "envexact.environment_survival_curve": lambda a: (
        "envexact.survival_curve",
        {"path_steps": a["n"] * _n_steps(max(a["checkpoints"]), a["dt"])}),
    "envexact.environment_laplace": lambda a: (
        "envexact.laplace", {"path_steps": a["n"] * _n_steps(a["t"], a["dt"])}),
    "envexact.dufresne_samples": lambda a: (
        "envexact.dufresne", {"path_steps": a["n"] * _n_steps(a["horizon"], a["dt"])}),
    # sde ensembles: started paths times grid steps
    "sde.absorbed_fraction": lambda a: (
        "sde.absorbed_fraction", {"path_steps": a["n"] * a["cfg"].n_steps}),
    "sde.coupled_refinement_means": lambda a: (
        "sde.coupled_refinement", {"path_steps": a["n"] * 2 * a["cfg"].n_steps}),
    "sde.ensemble_final_states": lambda a: (
        f"sde.ensemble_final_states.{_variant_key(a['variant'])}",
        {"path_steps": a["n"] * a["cfg"].n_steps}),
    "sde.ensemble_quenched_final": lambda a: (
        f"sde.ensemble_quenched_final.{_variant_key(a['variant'])}",
        {"path_steps": a["n"] * a["cfg"].n_steps}),
    "sde.bridge_extinction_frequency": lambda a: (
        "sde.bridge",
        {"path_steps": a["n_reps"] * int(round(a["horizon"] * a["n_scale"]))}),
    # sde single paths
    "sde.simulate_bdre": lambda a: ("sde.simulate.bdre", {"path_steps": a["cfg"].n_steps}),
    "sde.simulate_conditioned_extinction": lambda a: (
        "sde.simulate.cond_extinction", {"path_steps": a["cfg"].n_steps}),
    "sde.simulate_conditioned_survival": lambda a: (
        "sde.simulate.cond_survival", {"path_steps": a["cfg"].n_steps}),
    "sde.simulate_quenched": lambda a: ("sde.simulate.quenched", {"path_steps": a["cfg"].n_steps}),
    "sde.simulate_discrete_bpre": lambda a: (
        "sde.simulate.bpre", {"path_steps": int(round(a["horizon"] * a["n_scale"]))}),
    # estimators
    **{f"estimators.{fn}": (lambda fn: lambda a: (f"estimators.{fn}", {}))(fn)
       for fn in ("estimate_extinction", "estimate_conditioned_survival", "survival_points",
                  "laplace_limit_test", "conditioned_law_equivalence_test")},
    # specfun
    "specfun.psi": lambda a: ("specfun.psi", {}),
    "specfun.integral_a_psi": lambda a: (
        "specfun.integral_a_psi." + ("closed_form" if a["use_closed_form"] else "quadrature"), {}),
    "specfun.phi_beta": lambda a: ("specfun.phi_beta", {}),
    "specfun.phi_beta_tensor_oracle": lambda a: ("specfun.phi_beta_tensor_oracle", {}),
    "specfun.laplace_Y": lambda a: ("specfun.laplace_Y", {}),
    # cli
    "cli.main": lambda a: ("cli.main", {"argv": " ".join(a["argv"]),
                                        "rows": _simulate_rows(a["argv"])}),
}


# ---------------------------------------------------------------------------
# per-layer figures from one traced round


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def per_layer(spans: list[dict]) -> dict:
    """Per-layer metrics {name: (value, unit)} from the spans of one round."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    names = {s["id"]: s["name"] for s in spans}
    out: dict[str, tuple[float, str]] = {}

    def layer_total(layer: str) -> tuple[float, int]:
        sel = [s for s in spans if s["name"].startswith(layer + ".") and "path_steps" in s]
        return sum(_dur(s) for s in sel), sum(s["path_steps"] for s in sel)

    def rate(metric: str, span_name: str, scale: float, unit: str) -> None:
        sel = by_name.get(span_name)
        if sel:
            work = sum(s["path_steps"] for s in sel)
            out[metric] = (sum(_dur(s) for s in sel) * scale / work, unit)

    def per_call(metric: str, span_name: str, scale: float, unit: str, direct: bool = False):
        sel = by_name.get(span_name, [])
        if direct:
            sel = [s for s in sel if names.get(s["parent"], "").startswith("op.")]
        if sel:
            out[metric] = (statistics.fmean(_dur(s) for s in sel) * scale, unit)

    # rng: microbenchmark spans, each recording how many items it made
    for metric, span_name, key, scale, unit in (
        ("rng.normal.ns_per_draw", "rng.normal", "draws", 1e9, "ns"),
        ("rng.stream.us_per_generator", "rng.stream", "generators", 1e6, "us"),
    ):
        sel = by_name.get(span_name)
        if sel:
            out[metric] = (statistics.median(_dur(s) / s[key] for s in sel) * scale, unit)

    # envexact
    rate("envexact.survival_curve.ns_per_path_step", "envexact.survival_curve", 1e9, "ns")
    rate("envexact.laplace.ns_per_path_step", "envexact.laplace", 1e9, "ns")
    rate("envexact.dufresne.ns_per_path_step", "envexact.dufresne", 1e9, "ns")
    env_s, env_steps = layer_total("envexact")
    if env_steps and "rng.normal.ns_per_draw" in out:
        # one standard normal per environment path-step
        out["envexact.rng_share"] = (
            out["rng.normal.ns_per_draw"][0] / (env_s * 1e9 / env_steps), "ratio")

    # sde
    rate("sde.absorbed_fraction.ns_per_path_step", "sde.absorbed_fraction", 1e9, "ns")
    rate("sde.coupled_refinement.ns_per_path_step", "sde.coupled_refinement", 1e9, "ns")
    for v in ("bdre", "cond_extinction", "cond_survival"):
        rate(f"sde.ensemble_final_states.{v}.ns_per_path_step",
             f"sde.ensemble_final_states.{v}", 1e9, "ns")
    for v in ("unconditioned", "cond_extinction"):
        rate(f"sde.ensemble_quenched_final.{v}.ns_per_path_step",
             f"sde.ensemble_quenched_final.{v}", 1e9, "ns")
    rate("sde.bridge.ns_per_rep_generation", "sde.bridge", 1e9, "ns")
    for k in ("bdre", "cond_extinction", "cond_survival", "quenched", "bpre"):
        rate(f"sde.simulate.{k}.us_per_step", f"sde.simulate.{k}", 1e6, "us")

    # estimators: seconds per estimator function over the round
    for name, sel in sorted(by_name.items()):
        if name.startswith("estimators."):
            out[f"{name}.s"] = (sum(_dur(s) for s in sel), "s")

    # specfun: calls the benchmark makes directly, except laplace_Y, which
    # is timed wherever it is called
    per_call("specfun.phi_beta.ms_per_call", "specfun.phi_beta", 1e3, "ms", direct=True)
    per_call("specfun.phi_beta_tensor_oracle.ms_per_call", "specfun.phi_beta_tensor_oracle",
             1e3, "ms", direct=True)
    per_call("specfun.integral_a_psi.ms", "specfun.integral_a_psi.quadrature", 1e3, "ms",
             direct=True)
    per_call("specfun.psi.us_per_call", "specfun.psi", 1e6, "us", direct=True)
    per_call("specfun.laplace_Y.ms_per_call", "specfun.laplace_Y", 1e3, "ms")

    # cli
    cli = by_name.get("cli.main")
    if cli:
        out["cli.simulate.rows_per_s"] = (sum(s["rows"] for s in cli) / sum(_dur(s) for s in cli),
                                          "1/s")
    return out
