"""bdrelab benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload env-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; bdrelab is imported from ./src, never from
an installed copy. The run sets up (imports bdrelab, computes the
references, makes one small warm-up call into each kernel), then repeats
whole rounds of the workload's operations, starting none that would end
past --seconds (the first round always runs). With --trace 0 it prints
the end-to-end metrics; with --trace 1 it runs one untraced and one
traced round, then traced probes of every layer the round does not call,
and prints the per-layer metrics derived from the spans.

Exit codes: 0 when the run completes (correct tells whether every output
was right), 2 when the program or an argument is missing, 3 when the
metrics it measured are not the ones BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

# Single-threaded throughout: bdrelab runs with threads=1, and numerical
# libraries are held to one thread as well, so that cpu_s counts the work
# once and a run does not compete with itself for the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 1
# set-up processes per run, timed before and after the timed phase so that
# their median spans the run rather than a few seconds of it
SETUP_SAMPLES_BEFORE = 3
SETUP_SAMPLES_AFTER = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit; the parent times this to measure setup_s")
    return ap.parse_args(argv)


def _import_program():
    """Import bdrelab from ./src of this checkout, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "bdrelab", "__init__.py")):
        sys.stderr.write(f"bdrelab sources not found under {SRC}\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bdrelab

    if os.path.dirname(os.path.dirname(os.path.abspath(bdrelab.__file__))) != SRC:
        sys.stderr.write(f"imported bdrelab from {bdrelab.__file__}, not from {SRC}\n")
        sys.exit(2)


def _workload_class(name: str):
    """The workload's class and the workloads module, or exit 2."""
    _import_program()
    import workloads

    cls = workloads.WORKLOADS.get(name)
    if cls is None:
        sys.stderr.write(f"unknown workload {name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        sys.exit(2)
    return cls, workloads


def _setup(args):
    cls, workloads = _workload_class(args.workload)
    wl = cls(args.seed, os.path.join(OUT, f"{args.workload}-{os.getpid()}"))
    try:
        wl.warm()
    finally:
        shutil.rmtree(wl.out_dir, ignore_errors=True)
    return wl, workloads


def _setup_seconds(args, count: int) -> list[float]:
    """Wall times of count fresh processes that set up and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def _manifest_metrics(trace: int) -> list[str] | None:
    """The metric names BENCHMARK.json lists for this mode, if the file is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


class Round(NamedTuple):
    wall: float
    cpu: float
    attempted: int
    failed: int


def _run_round(wl, workloads, r: int, tracer) -> Round:
    rs = workloads.round_seed(wl.seed, r)
    attempted = failed = 0
    w0, c0 = time.perf_counter(), time.process_time()
    for name, op in wl.operations():
        attempted += 1
        try:
            with tracer.span(f"op.{name}"):
                checks = op(rs)
        except Exception:  # an operation that raises counts as failed; keep going
            failed += 1
            sys.stderr.write(f"[{wl.name} round {r}] {name} raised:\n{traceback.format_exc()}")
            continue
        bad = [c for c in checks if not c[1]]
        if bad:
            failed += 1
            for cname, _, detail in bad:
                sys.stderr.write(f"[{wl.name} round {r}] {name}: FAILED {cname}: {detail}\n")
    return Round(time.perf_counter() - w0, time.process_time() - c0, attempted, failed)


def _microbenchmarks(tracer, seed: int) -> None:
    """rng figures: standard_normal(50 000) draws and stream construction."""
    from bdrelab.rng import RngStream

    g = RngStream(seed, 0).generator()
    for _ in range(40):
        with tracer.span("rng.normal", draws=50_000):
            g.standard_normal(50_000)
    for rep in range(10):
        with tracer.span("rng.stream", generators=200):
            for i in range(200):
                RngStream(seed, rep * 200 + i).generator()


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_only:
        _setup(args)
        return 0
    _workload_class(args.workload)  # fail fast, before any timing
    setup = _setup_seconds(args, SETUP_SAMPLES_BEFORE) if args.trace == 0 else []
    wl, workloads = _setup(args)
    import tracing

    rounds: list[Round] = []
    metrics: dict[str, dict] = {}
    if args.trace == 0:
        t0 = time.perf_counter()
        while True:
            rounds.append(_run_round(wl, workloads, len(rounds), tracing.NULL_TRACER))
            elapsed = time.perf_counter() - t0
            typical = statistics.median(r.wall for r in rounds)
            if elapsed + typical > args.seconds:
                break
        setup += _setup_seconds(args, SETUP_SAMPLES_AFTER)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["wall_s"] = {"value": statistics.median(r.wall for r in rounds), "unit": "s"}
        metrics["cpu_s"] = {"value": statistics.median(r.cpu for r in rounds), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
        metrics["tts_s"] = {"value": sum(acc.value() for acc in wl.tts.values()), "unit": "s"}
    else:
        # both rounds get the same inputs, so their difference is the tracing
        plain = _run_round(wl, workloads, 0, tracing.NULL_TRACER)
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)
        try:
            traced = _run_round(wl, workloads, 0, tracer)
            n_round = len(tracer.spans)
            _microbenchmarks(tracer, args.seed)
            n_micro = len(tracer.spans)
            for name, probe in workloads.layer_probes(args.seed, wl.out_dir):
                with tracer.span(f"op.probe.{name}"):
                    probe()
        finally:
            tracer.uninstall()
        rounds = [plain, traced]
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        # the round's own spans measure the layers it calls; the probes the rest
        micro = tracer.spans[n_round:n_micro]
        layers = tracing.per_layer(tracer.spans[n_micro:] + micro)
        layers.update(tracing.per_layer(tracer.spans[:n_round] + micro))
        for name, (value, unit) in sorted(layers.items()):
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {"value": traced.wall - plain.wall, "unit": "s"}

    shutil.rmtree(wl.out_dir, ignore_errors=True)
    expected = _manifest_metrics(args.trace)
    if expected is not None and set(metrics) != set(expected):
        sys.stderr.write(f"metrics {sorted(metrics)} differ from BENCHMARK.json's "
                         f"{sorted(expected)}\n")
        return 3
    failed = sum(r.failed for r in rounds)
    result = {"correct": failed == 0, "attempted": sum(r.attempted for r in rounds),
              "failed": failed, "metrics": metrics}
    sys.stderr.write(f"[{wl.name}] {len(rounds)} rounds, walls "
                     + ", ".join(f"{r.wall:.2f}" for r in rounds) + " s\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
