"""Front-end behavior: exit codes, file outputs, seed precedence."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from bdrelab import cli, estimators
from bdrelab.cli import main
from bdrelab.config import DEFAULT_SEED, Experiment, ExperimentConfig, config_hash, write_config
from bdrelab.errors import NumericalFailure
from bdrelab.results import read_results_csv
from bdrelab.sde import simulate_bdre
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


def test_specfun_phi_beta_overflow_is_a_numerical_failure(capsys):
    code, out, err = run(capsys, ["specfun", "--phi-beta", "--a", "0.001", "--beta", "300"])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("numerical failure: phi_beta overflows at a=0.001, beta=300.0")


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
     "ebf390a2ad4dd574bae9aa0f62e0f8546b5bdcbd7c0f964d787bb58e6bcf93d1"),
    ("--kind cond-extinction --dt 0.01 --horizon 5 --n-paths 40 --seed 1",
     "da5f2169d97beb90d8920cefb5b0f7bb9998a1d5691bd8ba7c47ce9808b439cf"),
    ("--kind cond-survival --dt 0.01 --horizon 5 --n-paths 40 --seed 1",
     "110d2d49d2fa3d02fc388987d7befac326b80481b7dbcd2b500c765e73150646"),
    ("--kind quenched --dt 0.01 --horizon 5 --n-paths 40 --seed 1",
     "c0ab44e16d7b736faceb42e96d29cdd4f0946aca53430bb32ab39ad0666b552e"),
    ("--kind bpre --dt 0.01 --horizon 5 --n-paths 40 --seed 1",
     "1328d0474930ae817757b41ae5de278e5e2d94d211c03d5ad69e5a61e4267be5"),
    ("--kind bdre --dt 0.01 --horizon 5 --n-paths 40 --seed 2",
     "e17b17a927dfa7653ed22efc3550308ffde23a30861c78caf4f4883b1b19e485"),
    ("--kind cond-extinction --dt 0.01 --horizon 5 --n-paths 40 --seed 2",
     "14875133910a819eecd0799655c022591d96b5c753423ed4b69a4e440078d0a0"),
    ("--kind cond-survival --dt 0.01 --horizon 5 --n-paths 40 --seed 2",
     "339b88b15ece80dfe30a1d0029feae180f8ecd9325b87b10b8f1f4b13714a39e"),
    ("--kind quenched --dt 0.01 --horizon 5 --n-paths 40 --seed 2",
     "8300701517e10f40ee085fccd5a39048819f68a655ac31fe54b0147b736935d0"),
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


def test_a_refused_simulate_run_leaves_no_paths_file(tmp_path, capsys, monkeypatch):
    # refused at the first step: extinction conditioning needs sigma_e > 0
    code, _, _ = run(capsys, ["simulate", "--kind", "cond-extinction", "--sigma-e", "0",
                              "--output-dir", str(tmp_path)])
    assert code == 2
    assert list(tmp_path.iterdir()) == []

    # a numerical failure after two paths are written
    def third_path_fails(params, scheme, rng):
        if rng.stream_index == 2:
            raise NumericalFailure("step-halving exhausted")
        return simulate_bdre(params, scheme, rng)

    monkeypatch.setattr(cli, "simulate_bdre", third_path_fails)
    code, _, _ = run(capsys, ["simulate", "--n-paths", "4", "--output-dir", str(tmp_path)])
    assert code == 3
    assert list(tmp_path.iterdir()) == []


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


# sha256 of the martingale experiment's results.csv: three functionals at
# two checkpoints, in that order, from one ensemble
MARTINGALE_ARGV = ("estimate --experiment martingale --n 2000 --horizon 6 --dt 0.02 "
                   "--seed 3 --threads 1")
MARTINGALE_CSV_SHA256 = "959b3b0275bdce9c9ec049acc490214cbdf51371d109a43b13c5c5891ce2e729"


def test_estimate_martingale_runs_one_ensemble_and_is_pinned(tmp_path, capsys, monkeypatch):
    calls = []
    real = estimators.ensemble_functional_means

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, "ensemble_functional_means", counted)
    code, _, _ = run(capsys, [*MARTINGALE_ARGV.split(), "--output-dir", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == MARTINGALE_CSV_SHA256


def test_estimate_rates_experiment_is_redirected(tmp_path, capsys):
    cfg_path = tmp_path / "r.cfg"
    write_config(replace(ExperimentConfig(), experiment=Experiment.RATES), str(cfg_path))
    code, _, err = run(capsys, ["estimate", "--config", str(cfg_path)])
    assert code == 2
    assert "rates subcommand" in err


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "bdrelab", "--help"], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, bdrelab; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
