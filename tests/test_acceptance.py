"""The stated acceptance checks, one test per numbered criterion.

A session fixture executes the full verification checklist twice with
the default seed, on one thread and then on two, writing outputs to two
directories. Criteria 1-9 read the recorded outcomes of the first run;
criterion 10 byte-compares the two runs' data files, so it checks both
reruns and thread-count invariance, and a pin holds the first run's
files to fixed sha256 digests across commits. Runtime budgets are
asserted from the recorded wall-clock durations of the first run. Every
gated record is checked to flip one float step across its gate's bound.

Two sub-checks are expected to fail and are asserted at their stated
tolerances anyway: the weak-regime fitted rate (criterion 5, target
0.125) and the strong-regime level constant (criterion 5, target 1).
The simulation is consistent across independent routes at these points,
so the recorded disagreement is reported, not patched over.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from bdrelab.results import Provenance, ResultRecord
from bdrelab.verify import (
    REQUIRED_COVERAGE,
    CriterionOutcome,
    VerifyReport,
    format_summary,
    run_verify,
)

DATA_FILES = (
    "results.csv",
    "results.jsonl",
    "survival_curve_alpha0p5.dat",
    "survival_curve_alpha1.dat",
    "survival_curve_alpha2.dat",
    "plot_survival_alpha0p5.gp",
    "plot_survival_alpha1.gp",
    "plot_survival_alpha2.gp",
)


@pytest.fixture(scope="session")
def verify_runs(tmp_path_factory):
    dir_a = tmp_path_factory.mktemp("verify_a")
    dir_b = tmp_path_factory.mktemp("verify_b")
    rep_a = run_verify(output_dir=str(dir_a))
    rep_b = run_verify(output_dir=str(dir_b), threads=2)
    return rep_a, rep_b, dir_a, dir_b


def outcome(rep, idx):
    return next(o for o in rep.outcomes if o.index == idx)


def records(rep, prefix):
    found = [r for r in rep.records if r.quantity.startswith(prefix)]
    assert found, f"no records under {prefix}"
    return found


def test_criterion_01_harmonicity(verify_runs):
    rep = verify_runs[0]
    out = outcome(rep, 1)
    for r in records(rep, "harmonicity."):
        assert r.value <= 1e-8, f"{r.quantity} = {r.value:.3e}"
        assert r.n == 10_000
    assert out.duration_s < 1.0, f"harmonicity took {out.duration_s:.2f}s"
    assert out.passed


def test_criterion_02_extinction_triangle(verify_runs):
    rep = verify_runs[0]
    out = outcome(rep, 2)
    by_name = {r.quantity: r for r in out.records}
    assert by_name["extinction.closed_form"].value == pytest.approx(0.25, abs=1e-12)
    for name in ("extinction.rao_blackwell", "extinction.pathwise"):
        r = by_name[name]
        assert r.n == 100_000
        assert abs(r.value - 0.25) <= 3 * r.std_error, f"{name}: {r.value:.5f}"
    z = by_name["extinction.max_pairwise_zscore"]
    assert z.value <= 3.0, f"worst pairwise z-score {z.value:.2f}"
    assert rep.durations["criterion_2.rao_blackwell"] < 10.0
    assert rep.durations["criterion_2.pathwise"] < 300.0
    assert out.passed


def test_criterion_03_martingale_means_and_refinement(verify_runs):
    rep = verify_runs[0]
    out = outcome(rep, 3)
    means = [r for r in out.records if r.quantity.endswith(".mean")]
    shifts = [r for r in out.records if r.quantity.endswith(".refine_shift")]
    assert len(means) == 9 and len(shifts) == 9
    for r in means:
        assert abs(r.value - r.theoretical) <= 3 * r.std_error, (
            f"{r.quantity}: {r.value:.4f} vs {r.theoretical:.4f} "
            f"(se {r.std_error:.4f})"
        )
    for r in shifts:
        assert r.passed, f"{r.quantity}: halving dt moved the mean by {r.value:.2e}"
    assert out.duration_s < 300.0
    assert out.passed


def test_criterion_04_conditioned_law_equivalence(verify_runs):
    rep = verify_runs[0]
    out = outcome(rep, 4)
    by_name = {r.quantity: r for r in out.records}
    ks = by_name["law_equivalence.ks_statistic"]
    assert ks.value <= ks.theoretical, (
        f"matched laws rejected: D = {ks.value:.4f} > {ks.theoretical:.4f}"
    )
    ctrl = by_name["law_equivalence.negative_control_statistic"]
    assert ctrl.value > ctrl.theoretical, "negative control failed to reject"
    assert out.duration_s < 120.0
    assert out.passed


def test_criterion_05_decay_rates(verify_runs):
    rep = verify_runs[0]
    out = outcome(rep, 5)
    assert out.duration_s < 600.0
    by_name = {r.quantity: r for r in out.records}
    problems = []
    for alpha, target in ((0.5, 0.125), (1.0, 0.5), (2.0, 1.5)):
        r = by_name[f"decay.alpha={alpha:g}.rate"]
        if abs(r.value - target) > 0.10 * target:
            problems.append(
                f"alpha={alpha:g}: fitted rate {r.value:.4f} not within 10% of {target:g}"
            )
    lvl = by_name["decay.alpha=2.level_t=12"]
    if abs(lvl.value - lvl.theoretical) > 0.15 * lvl.theoretical:
        problems.append(
            f"strong level e^(1.5t) p(t) at t=12 is {lvl.value:.3f} "
            f"+- {lvl.std_error:.3f}, not within 15% of {lvl.theoretical:g}"
        )
    assert not problems, "; ".join(problems)


def test_criterion_06_special_functions(verify_runs):
    rep = verify_runs[0]
    out = outcome(rep, 6)
    by_name = {r.quantity: r for r in out.records}
    assert by_name["specfun.psi.max_rel_diff"].value <= 1e-8
    moment = by_name["specfun.integral_a_psi"]
    assert moment.value == pytest.approx(0.3989423, abs=1e-6)
    assert by_name["specfun.phi_beta.max_rel_diff"].value <= 1e-6
    assert by_name["specfun.phi_beta.max_rel_diff"].n == 9
    assert out.duration_s < 60.0
    assert out.passed


def test_criterion_07_laplace_suite(verify_runs):
    rep = verify_runs[0]
    out = outcome(rep, 7)
    by_name = {r.quantity: r for r in out.records}
    for lam in (0.5, 1.0, 2.0, 10.0):
        r = by_name[f"laplace.lam={lam:g}"]
        assert abs(r.value - r.theoretical) <= 3 * r.std_error, (
            f"lambda={lam:g}: {r.value:.5f} vs {r.theoretical:.5f}"
        )
        assert r.n == 100_000
        # the finest level's correction, the transform on dt minus on 2 dt
        assert by_name[f"laplace.lam={lam:g}.dt_bias"].passed is None
    inv = by_name["laplace.inverse_gamma_limit"]
    assert abs(inv.value - 0.25) <= 1e-4
    printed = by_name["laplace.as_printed_limit"]
    assert abs(printed.value - 0.25) > 1e-4, (
        "the as-printed reading unexpectedly satisfies the limit consistency"
    )
    # quadrature cross-check of the control: a Bessel value, 2 K_2(2)
    assert printed.value == pytest.approx(0.5075195091321117, abs=1e-5)
    # the often-quoted 0.2799 traces to the beta = 1 slice (2 K_1(2))
    b1 = by_name["laplace.as_printed_beta1"]
    assert b1.value == pytest.approx(0.2797317636330449, abs=1e-8)
    assert b1.value == pytest.approx(0.2799, abs=2e-4)
    assert out.duration_s < 300.0
    assert out.passed


def test_criterion_08_exponential_functional_law(verify_runs):
    rep = verify_runs[0]
    out = outcome(rep, 8)
    by_name = {r.quantity: r for r in out.records}
    ks = by_name["dufresne.ks_inverse_gamma"]
    assert ks.value <= ks.theoretical, (
        f"inverse-gamma law rejected at 1%: D = {ks.value:.5f}"
    )
    assert ks.n == 100_000
    ctrl = by_name["dufresne.ks_as_printed_gamma"]
    assert ctrl.value > ctrl.theoretical, "as-printed gamma law failed to reject"
    assert out.duration_s < 120.0
    assert out.passed


def test_criterion_09_scaling_bridge(verify_runs):
    rep = verify_runs[0]
    out = outcome(rep, 9)
    r = out.records[0]
    assert r.n == 10_000
    assert abs(r.value - r.theoretical) <= 3 * r.std_error, (
        f"bridge extinction {r.value:.4f} vs {r.theoretical:.4f} (se {r.std_error:.4f})"
    )
    assert out.duration_s < 300.0
    assert out.passed


def test_criterion_10_byte_reproducibility(verify_runs):
    rep_a, rep_b, dir_a, dir_b = verify_runs
    assert rep_a.config_hash == rep_b.config_hash
    for name in DATA_FILES:
        a = (dir_a / name).read_bytes()
        b = (dir_b / name).read_bytes()
        assert a == b, f"{name} differs between identically seeded runs on 1 and 2 threads"
    # the checklist is also required to touch every anchored operation
    missing = REQUIRED_COVERAGE - rep_a.coverage
    assert not missing, f"operations never exercised: {sorted(missing)}"


# sha256 of each data file at the default seed, threads 1. Every value is
# written with repr, so a change to the last bit of any record, curve point
# or fitted constant changes a digest; a change meant to move bytes updates
# these and says so.
DATA_FILES_SHA256 = {
    "results.csv": "0b08056358d89877bf432658466109ff92a36b7ddabbc158d16f69c533ca5a88",
    "results.jsonl": "14b6c58beffa264acac37063636e59f6cfa516236a4e8cca8f384e343f7690a8",
    "survival_curve_alpha0p5.dat": "9dbc2f612a742e2eaa7925b9c6508b5d990e29f6dc8cfdda07a31c12dfcacd40",
    "survival_curve_alpha1.dat": "60eda721b7dec973d53c9593c6ee3d08acee18c4133efe2e88329f02125b14ae",
    "survival_curve_alpha2.dat": "fb2848d2f87923ae01c57fe576d847ca4439bbe66295415eb8307b5001c93fb2",
    "plot_survival_alpha0p5.gp": "633b7b1337750fae3ad8979e5632f5c66d2546478783dc6ba9eaf67a75e1ce16",
    "plot_survival_alpha1.gp": "a703997b9275f66d4d4bc281b3c3719a81cd3a1cb3db5636f35b558e0726ed87",
    "plot_survival_alpha2.gp": "40e8d1ee0829a0f67fdd83ffbafb92915e54d71eac38bca79cdb9a054e7b2329",
}


@pytest.mark.parametrize("name", DATA_FILES)
def test_verify_data_file_bytes_are_pinned(verify_runs, name):
    digest = hashlib.sha256((verify_runs[2] / name).read_bytes()).hexdigest()
    assert digest == DATA_FILES_SHA256[name], f"{name} moved from its pinned bytes"


def test_verify_log_has_one_line_per_record(verify_runs):
    rep, _, dir_a, _ = verify_runs
    log = (dir_a / "verify.log").read_text(encoding="utf-8").splitlines()
    # record lines are the indented ones, each led by its quantity
    logged = Counter(line.split()[0] for line in log if line.startswith("    "))
    assert logged == Counter(r.quantity for r in rep.records)
    assert set(logged.values()) == {1}


def test_negative_controls_are_marked_in_the_log(verify_runs):
    # a negative control passes when its value differs from its reference
    log = (verify_runs[2] / "verify.log").read_text(encoding="utf-8").splitlines()
    marked = {line.split()[0] for line in log if "  must differ  " in line}
    assert marked == {
        "law_equivalence.negative_control_statistic",
        "dufresne.ks_as_printed_gamma",
        "laplace.as_printed_limit",
    }


def test_every_gate_can_flip(verify_runs):
    # a gate that cannot fail tests nothing: each passes two float steps
    # inside the edge of its test and fails two steps outside it, a
    # negated gate the other way round. A near gate is read at its edge
    # away from 0, where x - ref rounds no coarser than x does.
    gated = [r for r in verify_runs[0].records if r.passed is not None]
    assert len(gated) == 50 and all(r.gate is not None for r in gated)
    for r in gated:
        gate, ref = r.gate, r.theoretical
        if gate.width is None:
            edge, out = ref, math.inf
        else:
            out = math.inf if 0 <= ref < math.inf else -math.inf
            edge = ref + math.copysign(gate.width, out)
        inside = outside = edge
        for _ in range(2):
            outside = np.nextafter(outside, out)
            if gate.width:
                inside = np.nextafter(inside, -out)
        assert gate.passes(inside, ref) is not gate.negate, (r.quantity, inside)
        assert gate.passes(outside, ref) is gate.negate, (r.quantity, outside)


def test_summary_lists_exactly_the_failing_gated_records():
    def rec(quantity, passed):
        return ResultRecord(quantity, 1.0, 0.1, 10, 2.0, Provenance.CLOSED_FORM, passed,
                            seed=1, config_hash="abc")

    bad = CriterionOutcome(2, "bad", False, [rec("c.holds", True), rec("c.fails_a", False),
                                             rec("c.ungated", None), rec("c.fails_b", False)], 1.0)
    good = CriterionOutcome(1, "good", True, [rec("g.holds", True), rec("g.ungated", None)], 1.0)
    report = VerifyReport([good, bad], good.records + bad.records, frozenset(), False, 1,
                          "abc", {})
    summary = format_summary(report)
    listed = [line.split()[0] for line in summary.splitlines() if line.startswith(" ")]
    assert listed == ["c.fails_a", "c.fails_b"]
    assert "1/2 checks pass" in summary
