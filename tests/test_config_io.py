"""Config round trips, hashing, the record file formats and the public names."""

import importlib
import inspect
import json
import math
import os
import pkgutil
from dataclasses import replace

import pytest

import bdrelab
from bdrelab.config import (
    DEFAULT_SEED,
    Experiment,
    ExperimentConfig,
    config_from_text,
    config_hash,
    config_to_text,
    read_config,
    seed_from_environment,
    write_config,
)
from bdrelab.errors import ConfigError
from bdrelab.estimators import RateFit
from bdrelab.model import ModelParams
from bdrelab.results import (
    CSV_COLUMNS,
    Provenance,
    ResultFormat,
    ResultRecord,
    format_records_csv,
    read_results_csv,
    write_decay_plot,
    write_results,
)
from bdrelab.sde import SchemeConfig
from bdrelab.verify import REQUIRED_COVERAGE


def sample_config():
    return ExperimentConfig(
        model=ModelParams(alpha=0.5, sigma_e=1.2, sigma_b=0.8, z0=2.0),
        scheme=SchemeConfig(dt=0.005, horizon=12.0),
        experiment=Experiment.RATES,
        n=12_345,
        seed=99,
        t_grid=(2.0, 4.0, 8.0),
        lambda_grid=(0.1, 1.0),
        routes=("NegatedAlphaSim", "Reweighting"),
        output_dir="out/run1",
    )


def test_config_round_trip_through_text():
    cfg = sample_config()
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_round_trip_through_file(tmp_path):
    cfg = sample_config()
    path = tmp_path / "exp.cfg"
    write_config(cfg, str(path))
    assert read_config(str(path)) == cfg


def test_default_config_round_trip():
    cfg = ExperimentConfig()
    assert cfg.seed == DEFAULT_SEED
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_hash_ignores_output_dir_only():
    cfg = sample_config()
    assert config_hash(replace(cfg, output_dir="elsewhere")) == config_hash(cfg)
    assert config_hash(replace(cfg, n=cfg.n + 1)) != config_hash(cfg)
    assert config_hash(replace(cfg, seed=cfg.seed + 1)) != config_hash(cfg)
    assert config_hash(
        replace(cfg, model=replace(cfg.model, alpha=0.75))
    ) != config_hash(cfg)


def test_config_rejects_malformed_text():
    with pytest.raises(ConfigError):
        config_from_text("model.alpha = 1.0\nmodel.alpha = 2.0\n")  # duplicate
    with pytest.raises(ConfigError):
        config_from_text("model.alfa = 1.0\n")  # unknown key
    with pytest.raises(ConfigError):
        config_from_text("n = not-a-number\n")


def test_config_format_and_hash_are_pinned():
    # records carry this hash; a change to the format would orphan them
    cfg = ExperimentConfig()
    assert config_hash(cfg) == "57554dc0721b"
    assert "scheme.scheme = EulerFullTruncation" in config_to_text(cfg).splitlines()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(n=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(t_grid=(0.0, 1.0))


def test_seed_from_environment(monkeypatch):
    base = ExperimentConfig(seed=11)
    monkeypatch.delenv("BDRE_LAB_SEED", raising=False)
    assert seed_from_environment(base) is base
    monkeypatch.setenv("BDRE_LAB_SEED", "4242")
    bumped = seed_from_environment(base)
    assert bumped.seed == 4242
    assert bumped.n == base.n
    monkeypatch.setenv("BDRE_LAB_SEED", "not-an-int")
    with pytest.raises(ConfigError):
        seed_from_environment(base)


def records_for_io():
    return [
        ResultRecord("a.mean", 0.25, 0.001, 1000, 0.25, Provenance.CLOSED_FORM,
                     True, 7, "deadbeef0123"),
        ResultRecord("b.stat", 1.5, None, 10, None, Provenance.SIMULATION,
                     None, 7, "deadbeef0123"),
        ResultRecord("c.limit", math.inf, None, 1, 1.0, Provenance.QUADRATURE,
                     False, 7, "deadbeef0123"),
    ]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "r.csv"
    write_results(records_for_io(), str(path), ResultFormat.CSV)
    back = read_results_csv(str(path))
    assert back == records_for_io()


def test_csv_header_always_present(tmp_path):
    path = tmp_path / "empty.csv"
    write_results([], str(path), ResultFormat.CSV)
    text = path.read_text(encoding="utf-8")
    assert text == ",".join(CSV_COLUMNS) + "\n"


def test_csv_cell_conventions():
    text = format_records_csv(records_for_io())
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert ",true," in lines[1]
    assert ",," in lines[2]  # None renders as empty cell
    assert ",inf," in lines[3]
    assert ",false," in lines[3]


def test_jsonl_mirrors_records(tmp_path):
    path = tmp_path / "r.jsonl"
    write_results(records_for_io(), str(path), ResultFormat.JSON_LINES)
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(objs) == 3
    assert objs[0]["quantity"] == "a.mean"
    assert objs[0]["pass"] is True
    assert objs[1]["std_error"] is None
    assert objs[2]["value"] == "inf"


def test_read_results_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("colA,colB\n1,2\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_results_csv(str(path))


def test_decay_plot_curve_passes_through_the_window_end(tmp_path):
    points = {8.0: (0.05, 0.005), 2.0: (0.5, 0.01), 4.0: (0.2, 0.01)}
    fit = RateFit(exponential_rate=0.3, polynomial_power=-1.5, fit_rmse=0.0,
                  t_window=(2.0, 8.0))
    write_decay_plot(str(tmp_path), "_alpha2", 2.0, points, fit)
    body = (tmp_path / "survival_curve_alpha2.dat").read_text()
    assert body.startswith("# t value std_error\n")
    rows = body.splitlines()[1:]
    assert [float(r.split()[0]) for r in rows] == [2.0, 4.0, 8.0]
    assert rows[-1].split() == ["8.0", "0.05", "0.005"]
    script = (tmp_path / "plot_survival_alpha2.gp").read_text()
    assert "set logscale y" in script
    assert "'survival_curve_alpha2.dat'" in script
    assert "yerrorbars" in script
    assert "exp(-" in script  # fitted curve drawn alongside the data
    assert "alpha=2" in script
    values = dict(
        line.split(" = ") for line in script.splitlines()
        if line.startswith(("rate = ", "power = ", "amplitude = "))
    )
    assert float(values["rate"]) == 0.3 and float(values["power"]) == -1.5
    at_end = float(values["amplitude"]) * 8.0**-1.5 * math.exp(-0.3 * 8.0)
    assert at_end == pytest.approx(0.05, rel=1e-12)


def test_record_validation():
    with pytest.raises(ValueError):
        ResultRecord("x", 1.0, -0.5, 1, None, Provenance.NONE, None, 1, "ab")


def test_public_names_resolve():
    modules = [
        importlib.import_module(f"bdrelab.{m.name}") for m in pkgutil.iter_modules(bdrelab.__path__)
    ]
    for mod in [bdrelab, *modules]:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names what it lacks: {missing}"
    functions = {
        name
        for mod in modules
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__
    }
    assert sorted(REQUIRED_COVERAGE - functions) == []
