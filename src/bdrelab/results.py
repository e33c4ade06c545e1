"""Result records and their on-disk forms (CSV, JSON Lines, plot scripts).

Records are written deterministically: fixed column order, repr floats,
no timestamps (wall-clock details go to a sidecar log, never into the
data files), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

from .errors import ConfigError

__all__ = [
    "Gate",
    "Provenance",
    "ResultRecord",
    "stamper",
    "CSV_COLUMNS",
    "format_records_csv",
    "write_results",
    "read_results_csv",
    "write_decay_plot",
]

CSV_COLUMNS = (
    "quantity",
    "value",
    "std_error",
    "n",
    "theoretical",
    "provenance",
    "pass",
    "seed",
    "config_hash",
)


class Provenance(Enum):
    """Where a reference value comes from (or that there is none)."""

    CLOSED_FORM = "closed-form"
    QUADRATURE = "quadrature"
    SIMULATION = "simulation"
    REGRESSION = "regression"
    PRINTED_CONSTANT = "printed-constant"
    REFERENCE_LAW = "reference-law"
    NONE = "none"


@dataclass(frozen=True)
class Gate:
    """The test a gated record takes: its value x against its reference ref.

    With a width it is near, |x - ref| <= width or x == ref, and a
    non-finite width never passes; without one it is below, x <= ref.
    negate marks a negative control, which passes when its test fails.
    A nan value or reference never passes, negated or not. why says where
    the width or the bound comes from.
    """

    why: str
    width: Optional[float] = None
    negate: bool = False

    def passes(self, value: float, reference: float) -> bool:
        if self.width is None:
            ok = value <= reference
        else:
            ok = math.isfinite(self.width) and (
                value == reference or abs(value - reference) <= self.width)
        return bool(ok) != self.negate and not (math.isnan(value) or math.isnan(reference))

    def __str__(self) -> str:
        test = "x <= ref" if self.width is None else f"|x - ref| <= {self.width:.3g}"
        return f"{test} ({self.why})" + ("  must differ" if self.negate else "")


@dataclass(frozen=True)
class ResultRecord:
    """One result row. With a gate, passed is the gate's verdict on value
    against theoretical; the gate itself is never written to a data file."""

    quantity: str
    value: float
    std_error: Optional[float]
    n: int
    theoretical: Optional[float]
    provenance: Provenance
    passed: Optional[bool]
    seed: int
    config_hash: str
    gate: Optional[Gate] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Coerce to builtins so repr/json never see numpy scalars.
        object.__setattr__(self, "value", float(self.value))
        if self.std_error is not None:
            object.__setattr__(self, "std_error", float(self.std_error))
        object.__setattr__(self, "n", int(self.n))
        if self.theoretical is not None:
            object.__setattr__(self, "theoretical", float(self.theoretical))
        if self.gate is not None:
            object.__setattr__(self, "passed", self.gate.passes(self.value, self.theoretical))
        elif self.passed is not None:
            object.__setattr__(self, "passed", bool(self.passed))
        if self.std_error is not None and self.std_error < 0:
            raise ValueError("std_error must be nonnegative when present")
        if self.n < 0:
            raise ValueError("n must be nonnegative")


def stamper(seed: int, config_hash: str) -> Callable[..., ResultRecord]:
    """rec(quantity, value, se, n, theoretical, provenance, gate=None): one run's
    records, stamped with its seed and config hash, gated when gate is given."""
    return lambda quantity, value, se, n, theoretical, provenance, gate=None: ResultRecord(
        quantity, value, se, n, theoretical, provenance, None, seed, config_hash, gate)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    if isinstance(v, Enum):
        return str(v.value)
    return str(v)


def _row(rec: ResultRecord) -> list:
    return [
        rec.quantity,
        rec.value,
        rec.std_error,
        rec.n,
        rec.theoretical,
        rec.provenance,
        rec.passed,
        rec.seed,
        rec.config_hash,
    ]


def format_records_csv(records: Sequence[ResultRecord]) -> str:
    """The CSV text for a record list: header plus one line per record."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_cell(v) for v in _row(rec)) for rec in records]
    return "\n".join(lines) + "\n"


def write_results(records: Sequence[ResultRecord], output_dir: str) -> None:
    """results.csv and results.jsonl in output_dir, both with the columns
    CSV_COLUMNS in order; the CSV header is always present."""
    jsonl = "".join(
        json.dumps(dict(zip(CSV_COLUMNS, map(_json_cell, _row(rec))))) + "\n" for rec in records
    )
    for name, text in (("results.csv", format_records_csv(records)), ("results.jsonl", jsonl)):
        path = os.path.join(output_dir, name)
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write results to {path}: {exc}") from exc


def _json_cell(v):
    """A record field as JSON: an enum by its value, an infinity as a string."""
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def read_results_csv(path: str) -> list[ResultRecord]:
    """Inverse of the CSV writer (used by reproducibility checks)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ConfigError(f"{path}: missing or wrong header row")
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ConfigError(f"{path}: malformed row {line!r}")
        q, value, se, n, theo, prov, ok, seed, h = cells
        out.append(
            ResultRecord(
                quantity=q,
                value=float(value),
                std_error=None if se == "" else float(se),
                n=int(n),
                theoretical=None if theo == "" else float(theo),
                provenance=Provenance(prov),
                passed=None if ok == "" else ok == "true",
                seed=int(seed),
                config_hash=h,
            )
        )
    return out


def write_decay_plot(output_dir: str, suffix: str, alpha: float, points: dict, fit) -> None:
    """survival_curve{suffix}.dat and plot_survival{suffix}.gp for one decay fit.

    points is {t: (mean, std_error)} and fit the RateFit made from it. The
    table is whitespace-separated (t, value, std_error); the gnuplot script
    plots it on a log scale with error bars beside the fitted curve
    amplitude * t**power * exp(-rate * t), which passes through the point
    at the end of the fit window.
    """
    dat = f"survival_curve{suffix}.dat"
    with open(os.path.join(output_dir, dat), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# t value std_error\n")
        for t, (m, se) in sorted(points.items()):
            fh.write(f"{_cell(float(t))} {_cell(float(m))} {_cell(float(se))}\n")
    t_hi = fit.t_window[1]
    amplitude = points[t_hi][0] / (
        t_hi**fit.polynomial_power * math.exp(-fit.exponential_rate * t_hi)
    )
    title = f"conditioned survival decay, alpha={alpha:g}"
    lines = [
        "set terminal pngcairo size 900,600",
        f"set output '{title}.png'",
        "set logscale y",
        "set xlabel 't'",
        "set ylabel 'survival probability'",
        f"set title '{title}'",
        "set key left bottom",
        f"rate = {_cell(float(fit.exponential_rate))}",
        f"power = {_cell(float(fit.polynomial_power))}",
        f"amplitude = {_cell(float(amplitude))}",
        "fit_curve(t) = amplitude * t**power * exp(-rate*t)",
        f"plot '{dat}' using 1:2:3 with yerrorbars title 'estimate', \\\n"
        "     fit_curve(x) title 'fitted decay'",
    ]
    with open(os.path.join(output_dir, f"plot_survival{suffix}.gp"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
