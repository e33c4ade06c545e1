"""Result records and their on-disk forms (CSV, JSON Lines, plot scripts).

Records are written deterministically: fixed column order, repr floats,
no timestamps (wall-clock details go to a sidecar log, never into the
data files), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import ConfigError

__all__ = [
    "Provenance",
    "ResultRecord",
    "ResultFormat",
    "CSV_COLUMNS",
    "format_records_csv",
    "write_results",
    "read_results_csv",
    "write_curve_table",
    "write_gnuplot_script",
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


class ResultFormat(Enum):
    CSV = "CSV"
    JSON_LINES = "JSONLines"


@dataclass(frozen=True)
class ResultRecord:
    quantity: str
    value: float
    std_error: Optional[float]
    n: int
    theoretical: Optional[float]
    provenance: Provenance
    passed: Optional[bool]
    seed: int
    config_hash: str

    def __post_init__(self) -> None:
        # Coerce to builtins so repr/json never see numpy scalars.
        object.__setattr__(self, "value", float(self.value))
        if self.std_error is not None:
            object.__setattr__(self, "std_error", float(self.std_error))
        object.__setattr__(self, "n", int(self.n))
        if self.theoretical is not None:
            object.__setattr__(self, "theoretical", float(self.theoretical))
        if self.passed is not None:
            object.__setattr__(self, "passed", bool(self.passed))
        if self.std_error is not None and self.std_error < 0:
            raise ValueError("std_error must be nonnegative when present")
        if self.n < 0:
            raise ValueError("n must be nonnegative")


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


def write_results(
    records: Sequence[ResultRecord], path: str, fmt: ResultFormat = ResultFormat.CSV
) -> None:
    """Write records with the fixed column schema; header always present."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if fmt is ResultFormat.CSV:
                fh.write(format_records_csv(records))
            else:
                for rec in records:
                    obj = {
                        "quantity": rec.quantity,
                        "value": _json_num(rec.value),
                        "std_error": _json_num(rec.std_error),
                        "n": rec.n,
                        "theoretical": _json_num(rec.theoretical),
                        "provenance": rec.provenance.value,
                        "pass": rec.passed,
                        "seed": rec.seed,
                        "config_hash": rec.config_hash,
                    }
                    fh.write(json.dumps(obj, sort_keys=False) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write results to {path}: {exc}") from exc


def _json_num(v: Optional[float]):
    if v is None:
        return None
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


def write_curve_table(path: str, rows: Sequence[tuple[float, float, float]]) -> None:
    """Whitespace table (t, value, std_error) for plotting tools."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# t value std_error\n")
        for t, v, se in rows:
            fh.write(f"{_cell(float(t))} {_cell(float(v))} {_cell(float(se))}\n")


def write_gnuplot_script(
    script_path: str,
    data_filename: str,
    title: str,
    rate: Optional[float] = None,
    power: Optional[float] = None,
    amplitude: Optional[float] = None,
) -> None:
    """Log-scale survival-curve plot script beside a rate-experiment table.

    Plots the estimated points with error bars and, when a fit is given,
    the fitted curve amplitude * t**power * exp(-rate * t).
    """
    lines = [
        "set terminal pngcairo size 900,600",
        f"set output '{_gp_escape(title)}.png'",
        "set logscale y",
        "set xlabel 't'",
        "set ylabel 'survival probability'",
        f"set title '{_gp_escape(title)}'",
        "set key left bottom",
    ]
    plot = [
        f"'{data_filename}' using 1:2:3 with yerrorbars title 'estimate'",
    ]
    if rate is not None and power is not None and amplitude is not None:
        lines.append(f"rate = {_cell(float(rate))}")
        lines.append(f"power = {_cell(float(power))}")
        lines.append(f"amplitude = {_cell(float(amplitude))}")
        lines.append("fit_curve(t) = amplitude * t**power * exp(-rate*t)")
        plot.append("fit_curve(x) title 'fitted decay'")
    lines.append("plot " + ", \\\n     ".join(plot))
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_decay_plot(output_dir: str, suffix: str, alpha: float, points: dict, fit) -> None:
    """survival_curve{suffix}.dat and plot_survival{suffix}.gp for one decay fit.

    points is {t: (mean, std_error)} and fit the RateFit made from it. The
    fitted curve passes through the point at the end of the fit window.
    """
    dat = f"survival_curve{suffix}.dat"
    write_curve_table(
        os.path.join(output_dir, dat), [(t, m, se) for t, (m, se) in sorted(points.items())]
    )
    t_hi = fit.t_window[1]
    amplitude = points[t_hi][0] / (
        t_hi**fit.polynomial_power * math.exp(-fit.exponential_rate * t_hi)
    )
    write_gnuplot_script(
        os.path.join(output_dir, f"plot_survival{suffix}.gp"),
        dat,
        f"conditioned survival decay, alpha={alpha:g}",
        rate=fit.exponential_rate,
        power=fit.polynomial_power,
        amplitude=amplitude,
    )


def _gp_escape(s: str) -> str:
    return s.replace("'", "")
