"""Experiment configuration: flat dotted-key text files and hashing.

The on-disk format is deliberately primitive: one `key = value` pair per
line, dotted section prefixes (model.alpha = 1.0), '#' comments, blank
lines ignored. It parses with no dependencies and diffs line by line.
Floats are written with repr, so a write/read round trip reproduces every
field bit for bit. One table, CONFIG_KEYS, lists the keys: the text, the
hash, the parser and the CLI's override flags all read it.

The config hash covers exactly the fields that influence computed
numbers (model, scheme, quadrature, experiment, n, seed, grids, routes).
output_dir is where results land, not what they are, so it stays outside
the hash.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce

from .errors import ConfigError
from .model import ModelParams
from .sde import SchemeConfig
from .specfun import QuadratureConfig

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "DEFAULT_SEED",
    "ENV_SEED_VAR",
    "CONFIG_KEYS",
    "apply_keys",
    "config_to_text",
    "config_from_text",
    "read_config",
    "write_config",
    "config_hash",
    "seed_from_environment",
]

DEFAULT_SEED = 20260821
ENV_SEED_VAR = "BDRE_LAB_SEED"
# scheme.scheme stays in the format, fixed, so config files and hashes do not change
_SCHEME = "EulerFullTruncation"


class Experiment(Enum):
    EXTINCTION = "extinction"
    CONDITIONED_SURVIVAL = "conditioned-survival"
    RATES = "rates"
    MARTINGALE = "martingale"
    LAPLACE = "laplace"
    LAW_EQUIVALENCE = "law-equivalence"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on, plus where to write it.

    Defaults: standard parameter set (alpha = sigma_e = sigma_b = z0 = 1),
    full-truncation Euler at dt = 0.01 to horizon 30, reference quadrature
    tolerances, extinction experiment, n = 10^5 replications.
    """

    model: ModelParams = ModelParams(alpha=1.0, sigma_e=1.0, sigma_b=1.0, z0=1.0)
    scheme: SchemeConfig = SchemeConfig(dt=0.01, horizon=30.0)
    quadrature: QuadratureConfig = QuadratureConfig()
    experiment: Experiment = Experiment.EXTINCTION
    n: int = 100_000
    seed: int = DEFAULT_SEED
    t_grid: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0, 12.0)
    lambda_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 10.0)
    routes: tuple[str, ...] = ()
    output_dir: str = "results"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if not self.t_grid or not all(0 < t < math.inf for t in self.t_grid):
            raise ConfigError("t_grid must hold positive finite times")
        # lambda = inf is the transform's extinction limit; nan is no lambda
        if not all(l >= 0 for l in self.lambda_grid):
            raise ConfigError("lambda_grid must hold nonnegative values")


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",")) if raw else ()


def _strs(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _scheme(raw: str) -> str:
    if raw != _SCHEME:
        raise ValueError(f"{raw!r} is not the one scheme, {_SCHEME}")
    return raw


# Every key of the file format, in file order, with the parser of its text.
# "section.field" sets a field of a section of ExperimentConfig, a bare key a
# field of ExperimentConfig itself; scheme.scheme is the one key without a
# field. The file text and config_hash follow this order.
CONFIG_KEYS = {
    "model.alpha": float,
    "model.sigma_e": float,
    "model.sigma_b": float,
    "model.z0": float,
    "scheme.dt": float,
    "scheme.horizon": float,
    "scheme.scheme": _scheme,
    "scheme.absorption_threshold": float,
    "scheme.store_stride": int,
    "quadrature.rel_tol": float,
    "quadrature.abs_tol": float,
    "quadrature.max_subdivisions": int,
    "experiment": Experiment,
    "n": int,
    "seed": int,
    "t_grid": _floats,
    "lambda_grid": _floats,
    "routes": _strs,
    "output_dir": str,
}


def apply_keys(cfg: ExperimentConfig, pairs: dict[str, str]) -> ExperimentConfig:
    """cfg with each key of pairs set to its parsed text.

    Each section is replaced once, so a dataclass checks only its final
    values: scheme.dt = 40 with scheme.horizon = 80 passes on a horizon-30
    config, though dt 40 alone would exceed its horizon.
    """
    unknown = pairs.keys() - CONFIG_KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    sections: dict[str, dict] = {}
    for key, raw in pairs.items():
        try:
            value = CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        if key != "scheme.scheme":
            section, _, field = key.rpartition(".")
            sections.setdefault(section, {})[field] = value
    top = sections.pop("", {})
    try:
        for section, fields in sections.items():
            top[section] = replace(getattr(cfg, section), **fields)
        return replace(cfg, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _value_text(cfg: ExperimentConfig, key: str) -> str:
    return _SCHEME if key == "scheme.scheme" else _fmt(reduce(getattr, key.split("."), cfg))


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(_fmt(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Enum):
        return str(v.value)
    return str(v)


def _lines(cfg: ExperimentConfig, keys) -> str:
    return "\n".join(f"{key} = {_value_text(cfg, key)}" for key in keys)


# output_dir is where results land, not what they are
_HASHED_KEYS = [key for key in CONFIG_KEYS if key != "output_dir"]


def config_to_text(cfg: ExperimentConfig) -> str:
    return _lines(cfg, CONFIG_KEYS) + "\n"


def config_from_text(text: str) -> ExperimentConfig:
    """The config a file's text sets; a missing key keeps ExperimentConfig()'s field."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = val.strip()
    return apply_keys(ExperimentConfig(), pairs)


def read_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_text(text)


def write_config(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_to_text(cfg))


def config_hash(cfg: ExperimentConfig) -> str:
    """12 hex digits of sha256 over the canonical semantic serialization."""
    return hashlib.sha256(_lines(cfg, _HASHED_KEYS).encode("utf-8")).hexdigest()[:12]


def seed_from_environment(cfg: ExperimentConfig) -> ExperimentConfig:
    """Apply the BDRE_LAB_SEED override if the environment sets it."""
    raw = os.environ.get(ENV_SEED_VAR)
    if raw is None:
        return cfg
    try:
        return replace(cfg, seed=int(raw))
    except ValueError as exc:
        raise ConfigError(f"{ENV_SEED_VAR} must be an integer, got {raw!r}") from exc
