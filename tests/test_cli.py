"""Front-end behavior: exit codes, file outputs, seed precedence."""

import hashlib
from dataclasses import replace

import pytest

from bdrelab import cli
from bdrelab.cli import main
from bdrelab.config import DEFAULT_SEED, Experiment, ExperimentConfig, config_hash, write_config
from bdrelab.results import read_results_csv
from bdrelab.verify import VerifyReport


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_subcommand_is_a_config_error(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_no_arguments_is_a_config_error(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_specfun_psi_at_one(capsys):
    code, out, _ = run(capsys, ["specfun", "--psi", "--a", "1"])
    assert code == 0
    line = out.splitlines()[1]
    assert line.startswith("psi.a=1,0.1467626")


def test_specfun_needs_a_selection(capsys):
    code, _, err = run(capsys, ["specfun"])
    assert code == 2
    assert "pick at least one" in err


def test_specfun_psi_requires_abscissa(capsys):
    code, _, _ = run(capsys, ["specfun", "--psi"])
    assert code == 2


def test_specfun_decay_constant_weak_regime_not_computable(capsys):
    code, _, err = run(capsys, ["specfun", "--decay-constant", "--alpha", "0.5"])
    assert code == 3
    assert "numerical failure" in err


def test_specfun_phi_beta_prefactor_overflow_is_a_numerical_failure(capsys):
    code, out, err = run(capsys, ["specfun", "--phi-beta", "--a", "0.001", "--beta", "300"])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("numerical failure: phi_beta prefactor overflows")


def test_verify_rejects_unknown_preset(capsys):
    code, _, _ = run(capsys, ["verify", "--preset", "exotic"])
    assert code == 2


def test_reflecting_scheme_is_rejected(tmp_path, capsys):
    # reflection hid every absorption, so the pathwise estimate read 0
    cfg = tmp_path / "reflect.cfg"
    cfg.write_text("scheme.scheme = EulerReflect\nn = 100\n")
    code, out, err = run(capsys, [
        "estimate", "--experiment", "extinction", "--config", str(cfg),
        "--output-dir", str(tmp_path), "--threads", "1",
    ])
    assert code == 2
    assert "EulerReflect" in err
    assert out == ""


def test_laplace_applies_the_quadrature_settings(tmp_path, capsys):
    # one subdivision cannot meet even rel_tol 0.5 for laplace_Y
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("quadrature.max_subdivisions = 1\nquadrature.rel_tol = 0.5\n")
    code, _, err = run(capsys, [
        "estimate", "--experiment", "laplace", "--config", str(cfg), "--n", "200",
        "--seed", "3", "--horizon", "2", "--output-dir", str(tmp_path), "--threads", "1",
    ])
    assert code == 3
    assert "numerical failure" in err


def test_estimate_extinction_writes_records(tmp_path, capsys):
    code, out, _ = run(capsys, [
        "estimate", "--experiment", "extinction", "--n", "200",
        "--seed", "5", "--output-dir", str(tmp_path), "--threads", "1",
    ])
    assert code == 0
    recs = read_results_csv(str(tmp_path / "results.csv"))
    names = [r.quantity for r in recs]
    assert "extinction.ClosedForm" in names
    assert "extinction.RaoBlackwell" in names
    assert "extinction.Pathwise" in names
    closed = next(r for r in recs if r.quantity == "extinction.ClosedForm")
    assert closed.value == pytest.approx(0.25)
    assert closed.theoretical == pytest.approx(0.25)
    assert all(r.seed == 5 for r in recs)
    assert (tmp_path / "results.jsonl").exists()
    assert out.splitlines()[0].startswith("quantity,value")


def test_environment_seed_applies_and_flag_wins(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BDRE_LAB_SEED", "777")
    code, _, _ = run(capsys, [
        "estimate", "--experiment", "extinction", "--n", "100",
        "--output-dir", str(tmp_path / "env"), "--threads", "1",
    ])
    assert code == 0
    recs = read_results_csv(str(tmp_path / "env" / "results.csv"))
    assert all(r.seed == 777 for r in recs)

    code, _, _ = run(capsys, [
        "estimate", "--experiment", "extinction", "--n", "100", "--seed", "42",
        "--output-dir", str(tmp_path / "flag"), "--threads", "1",
    ])
    assert code == 0
    recs = read_results_csv(str(tmp_path / "flag" / "results.csv"))
    assert all(r.seed == 42 for r in recs)


def test_environment_seed_applies_to_specfun_and_flag_wins(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BDRE_LAB_SEED", "5")
    code, out, _ = run(capsys, ["specfun", "--psi", "--a", "1",
                                "--output-dir", str(tmp_path / "env")])
    assert code == 0
    recs = read_results_csv(str(tmp_path / "env" / "results.csv"))
    assert [r.seed for r in recs] == [5]
    assert recs[0].config_hash == config_hash(replace(ExperimentConfig(), seed=5))
    assert out.splitlines()[1].endswith(f",5,{recs[0].config_hash}")

    code, out, _ = run(capsys, ["specfun", "--psi", "--a", "1", "--seed", "42"])
    assert code == 0
    assert out.splitlines()[1].split(",")[-2] == "42"


def test_verify_takes_the_seed_by_the_same_rule(capsys, monkeypatch):
    seeds = []

    def fake_run_verify(seed, output_dir, threads):
        seeds.append(seed)
        return VerifyReport([], [], frozenset(), True, seed, "", {})

    monkeypatch.setattr(cli, "run_verify", fake_run_verify)
    monkeypatch.setenv("BDRE_LAB_SEED", "5")
    assert run(capsys, ["verify", "--threads", "1"])[0] == 0
    assert run(capsys, ["verify", "--threads", "1", "--seed", "42"])[0] == 0
    monkeypatch.delenv("BDRE_LAB_SEED")
    assert run(capsys, ["verify", "--threads", "1"])[0] == 0
    assert seeds == [5, 42, DEFAULT_SEED]


def test_simulate_writes_deterministic_paths(tmp_path, capsys):
    argv = [
        "simulate", "--kind", "bdre", "--n-paths", "3", "--dt", "0.05",
        "--horizon", "1", "--seed", "9", "--output-dir", str(tmp_path),
    ]
    code, _, _ = run(capsys, argv)
    assert code == 0
    first = (tmp_path / "paths.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "path,t,z,s,model"
    assert len(lines) == 1 + 3 * 21  # header + three paths on a 21-point grid

    code, _, _ = run(capsys, argv)
    assert code == 0
    assert (tmp_path / "paths.csv").read_bytes() == first


# sha256 of paths.csv for every simulate kind, a run that retries
# survival-conditioned steps and sigma_b = 0. Every value is written with
# repr, so a change to the last bit of any recorded value changes a digest;
# a change meant to move bytes updates these and says so.
PATHS_CSV_SHA256 = [
    ("--kind bdre --dt 0.01 --horizon 5 --n-paths 40 --seed 1",
     "09a88b635138377922873a3576018990c37436fac682347c0d15ae6471f25654"),
    ("--kind cond-extinction --dt 0.01 --horizon 5 --n-paths 40 --seed 1",
     "77ca52ac144a337ab67d191908f8c7c3ddaddbb3ec758511822cc27d54ed28e3"),
    ("--kind cond-survival --dt 0.01 --horizon 5 --n-paths 40 --seed 1",
     "110d2d49d2fa3d02fc388987d7befac326b80481b7dbcd2b500c765e73150646"),
    ("--kind quenched --dt 0.01 --horizon 5 --n-paths 40 --seed 1",
     "4b185e5179b66756476009dd5e47a856ed67d7d82b5eda0b276805fc45bec952"),
    ("--kind bpre --dt 0.01 --horizon 5 --n-paths 40 --seed 1",
     "1328d0474930ae817757b41ae5de278e5e2d94d211c03d5ad69e5a61e4267be5"),
    ("--kind bdre --dt 0.01 --horizon 5 --n-paths 40 --seed 2",
     "ce26d36771cc19b3b8e57ca0f24dd7ee5c9b75a78048233a87cb4b6121065955"),
    ("--kind cond-extinction --dt 0.01 --horizon 5 --n-paths 40 --seed 2",
     "ff984e4db0df0def3723168ec114d153bf91eca305e944e2d6833e8cfbf9684c"),
    ("--kind cond-survival --dt 0.01 --horizon 5 --n-paths 40 --seed 2",
     "339b88b15ece80dfe30a1d0029feae180f8ecd9325b87b10b8f1f4b13714a39e"),
    ("--kind quenched --dt 0.01 --horizon 5 --n-paths 40 --seed 2",
     "7b2fe244e1c80b81132bff610c7784331bdaa2ab58525546b6eca0b78440f220"),
    ("--kind bpre --dt 0.01 --horizon 5 --n-paths 40 --seed 2",
     "9cec6a007827fa05a09db47027465a9e4f5c0b85b25b49b94df24f47d851c5c7"),
    ("--kind cond-survival --dt 0.25 --horizon 5 --n-paths 40 --seed 7",
     "c9112b7e1fefdb0fb80f3c6a16aa487ef0fc84f4c5159185e748fe955c4e9c03"),
    ("--kind bdre --sigma-b 0 --dt 0.01 --horizon 5 --n-paths 40 --seed 1",
     "e0831e6d7c73b6424599baaea209eb2a0220e5294b053e3ebd83ec567e017e04"),
]


@pytest.mark.parametrize("argv,digest", PATHS_CSV_SHA256)
def test_simulate_paths_csv_bytes_are_pinned(argv, digest, tmp_path, capsys):
    code, _, _ = run(capsys, ["simulate", *argv.split(), "--output-dir", str(tmp_path)])
    assert code == 0
    assert hashlib.sha256((tmp_path / "paths.csv").read_bytes()).hexdigest() == digest


def test_simulate_rejects_bad_path_count(capsys):
    code, _, _ = run(capsys, ["simulate", "--n-paths", "0"])
    assert code == 2


def test_rates_emits_curve_and_plot_script(tmp_path, capsys):
    cfg_path = tmp_path / "rates.cfg"
    write_config(
        replace(ExperimentConfig(), t_grid=(2.0, 3.0, 4.0, 5.0, 6.0), n=20_000),
        str(cfg_path),
    )
    code, out, _ = run(capsys, [
        "rates", "--config", str(cfg_path), "--seed", "31",
        "--output-dir", str(tmp_path), "--threads", "1",
    ])
    assert code == 0
    assert (tmp_path / "survival_curve.dat").exists()
    assert (tmp_path / "plot_survival.gp").exists()
    recs = read_results_csv(str(tmp_path / "results.csv"))
    rate = next(r for r in recs if r.quantity == "decay.exponential_rate")
    # finite-horizon fit near the boundary case: loose sanity band only
    assert 0.3 < rate.value < 0.9


def test_bridge_writes_record(tmp_path, capsys):
    code, _, _ = run(capsys, [
        "bridge", "--n-scale", "50", "--n-reps", "400", "--seed", "3",
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    recs = read_results_csv(str(tmp_path / "results.csv"))
    assert recs[0].quantity == "bridge.extinction_nscale=50"
    assert 0.0 < recs[0].value < 1.0
    # the bridge's limit has sigma_b = sqrt(2) whatever the config says:
    # (1 + 1/2)^(-2) at the default alpha = sigma_e = z0 = 1
    assert recs[0].theoretical == pytest.approx(4 / 9)


def test_estimate_rates_experiment_is_redirected(tmp_path, capsys):
    cfg_path = tmp_path / "r.cfg"
    write_config(replace(ExperimentConfig(), experiment=Experiment.RATES), str(cfg_path))
    code, _, err = run(capsys, ["estimate", "--config", str(cfg_path)])
    assert code == 2
    assert "rates subcommand" in err
