"""Experiment configuration: flat dotted-key text files and hashing.

The on-disk format is deliberately primitive: one `key = value` pair per
line, dotted section prefixes (model.alpha = 1.0), '#' comments, blank
lines ignored. It parses with no dependencies and diffs line by line.
Floats are written with repr, so a write/read round trip reproduces every
field bit for bit.

The config hash covers exactly the fields that influence computed
numbers (model, scheme, quadrature, experiment, n, seed, grids, routes).
output_dir is where results land, not what they are, so it stays outside
the hash.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from enum import Enum

from .errors import ConfigError
from .model import ModelParams
from .sde import SchemeConfig
from .specfun import QuadratureConfig

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "DEFAULT_SEED",
    "ENV_SEED_VAR",
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
        if not self.t_grid or any(t <= 0 for t in self.t_grid):
            raise ConfigError("t_grid must hold positive times")
        if any(l < 0 for l in self.lambda_grid):
            raise ConfigError("lambda_grid must hold nonnegative values")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Enum):
        return str(v.value)
    return str(v)


def _semantic_items(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    m, s, q = cfg.model, cfg.scheme, cfg.quadrature
    return [
        ("model.alpha", _fmt(m.alpha)),
        ("model.sigma_e", _fmt(m.sigma_e)),
        ("model.sigma_b", _fmt(m.sigma_b)),
        ("model.z0", _fmt(m.z0)),
        ("scheme.dt", _fmt(s.dt)),
        ("scheme.horizon", _fmt(s.horizon)),
        ("scheme.scheme", _SCHEME),
        ("scheme.absorption_threshold", _fmt(s.absorption_threshold)),
        ("scheme.store_stride", _fmt(s.store_stride)),
        ("quadrature.rel_tol", _fmt(q.rel_tol)),
        ("quadrature.abs_tol", _fmt(q.abs_tol)),
        ("quadrature.max_subdivisions", _fmt(q.max_subdivisions)),
        ("experiment", _fmt(cfg.experiment)),
        ("n", _fmt(cfg.n)),
        ("seed", _fmt(cfg.seed)),
        ("t_grid", ", ".join(_fmt(t) for t in cfg.t_grid)),
        ("lambda_grid", ", ".join(_fmt(l) for l in cfg.lambda_grid)),
        ("routes", ", ".join(cfg.routes)),
    ]


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = [f"{k} = {v}" for k, v in _semantic_items(cfg)]
    lines.append(f"output_dir = {cfg.output_dir}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ExperimentConfig:
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

    def take(key: str, default, parse=lambda key, raw: raw):
        # a missing key keeps the field of ExperimentConfig(); nothing here
        # restates a default
        return parse(key, pairs.pop(key)) if key in pairs else default

    def as_float(key: str, raw: str) -> float:
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: not a number: {raw!r}") from exc

    def as_int(key: str, raw: str) -> int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer: {raw!r}") from exc

    def as_enum(enum_cls):
        def parse(key: str, raw: str):
            try:
                return enum_cls(raw)
            except ValueError as exc:
                valid = ", ".join(e.value for e in enum_cls)
                raise ConfigError(f"{key}: {raw!r} is not one of: {valid}") from exc
        return parse

    def as_float_tuple(key: str, raw: str) -> tuple[float, ...]:
        if not raw:
            return ()
        try:
            return tuple(float(p.strip()) for p in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"{key}: bad list: {raw!r}") from exc

    def as_str_tuple(key: str, raw: str) -> tuple[str, ...]:
        return tuple(p.strip() for p in raw.split(",") if p.strip())

    d = ExperimentConfig()
    m, s, q = d.model, d.scheme, d.quadrature
    scheme_name = take("scheme.scheme", _SCHEME)
    if scheme_name != _SCHEME:
        raise ConfigError(f"scheme.scheme: {scheme_name!r} is not the one scheme, {_SCHEME}")
    try:
        model = ModelParams(
            alpha=take("model.alpha", m.alpha, as_float),
            sigma_e=take("model.sigma_e", m.sigma_e, as_float),
            sigma_b=take("model.sigma_b", m.sigma_b, as_float),
            z0=take("model.z0", m.z0, as_float),
        )
        scheme = SchemeConfig(
            dt=take("scheme.dt", s.dt, as_float),
            horizon=take("scheme.horizon", s.horizon, as_float),
            absorption_threshold=take("scheme.absorption_threshold", s.absorption_threshold,
                                      as_float),
            store_stride=take("scheme.store_stride", s.store_stride, as_int),
        )
        quadrature = QuadratureConfig(
            rel_tol=take("quadrature.rel_tol", q.rel_tol, as_float),
            abs_tol=take("quadrature.abs_tol", q.abs_tol, as_float),
            max_subdivisions=take("quadrature.max_subdivisions", q.max_subdivisions, as_int),
        )
        cfg = ExperimentConfig(
            model=model,
            scheme=scheme,
            quadrature=quadrature,
            experiment=take("experiment", d.experiment, as_enum(Experiment)),
            n=take("n", d.n, as_int),
            seed=take("seed", d.seed, as_int),
            t_grid=take("t_grid", d.t_grid, as_float_tuple),
            lambda_grid=take("lambda_grid", d.lambda_grid, as_float_tuple),
            routes=take("routes", d.routes, as_str_tuple),
            output_dir=take("output_dir", d.output_dir),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if pairs:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(pairs))}")
    return cfg


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
    canon = "\n".join(f"{k} = {v}" for k, v in _semantic_items(cfg))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def seed_from_environment(cfg: ExperimentConfig) -> ExperimentConfig:
    """Apply the BDRE_LAB_SEED override if the environment sets it."""
    raw = os.environ.get(ENV_SEED_VAR)
    if raw is None:
        return cfg
    try:
        return replace(cfg, seed=int(raw))
    except ValueError as exc:
        raise ConfigError(f"{ENV_SEED_VAR} must be an integer, got {raw!r}") from exc
