"""The verdicts of `scripts/bench_pairs.py`'s summary, and its report on
stdout, on made-up runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "job_ref", "better": "lower", "bound": 0.25},
    {"name": "cpu_util", "better": "higher", "bound": 0.2},
]


def runs(parent: dict, change: dict, attempted=None, failed=None) -> list:
    """One run per pair and side, with the metric values given per side, and
    per side the operations each run attempted and failed (3 and 0 unless
    given)."""
    out = []
    for side, values in (("parent", parent), ("change", change)):
        for pair in range(len(values["job_ref"])):
            metrics = {name: column[pair] for name, column in values.items()}
            out.append(dict(pair=pair, side=side, seed=pair + 1, first="parent", seconds=30.0,
                            returncode=0, correct=True, metrics=metrics,
                            attempted=(attempted or {}).get(side, [3] * 10)[pair],
                            failed=(failed or {}).get(side, [0] * 10)[pair]))
    return out


def verdicts(parent: dict, change: dict) -> dict:
    metrics = bench_pairs.summarize("w", runs(parent, change), END_TO_END)["metrics"]
    return {name: (m["gain_rule"], m["within_bound"]) for name, m in metrics.items()}


PARENT = {"job_ref": [3.0, 3.1, 2.9, 3.05, 2.95, 3.0, 3.1, 2.9, 3.02, 2.98],
          "cpu_util": [0.99] * 10}


def test_a_clear_gain_passes_both():
    change = {"job_ref": [v * 0.9 for v in PARENT["job_ref"]], "cpu_util": [0.99] * 10}
    assert verdicts(PARENT, change) == {"job_ref": (True, True), "cpu_util": (False, True)}


def test_eight_wins_of_ten_are_no_gain():
    faster = [v * 0.8 for v in PARENT["job_ref"]]
    change = {"job_ref": faster[:8] + [4.0, 4.0], "cpu_util": [0.99] * 10}
    assert verdicts(PARENT, change)["job_ref"] == (False, True)


def test_a_median_move_inside_the_parents_spread_is_no_gain():
    # every pair wins, by 0.01; the parent's interquartile range is 0.1
    change = {"job_ref": [v - 0.01 for v in PARENT["job_ref"]], "cpu_util": [0.99] * 10}
    assert verdicts(PARENT, change)["job_ref"] == (False, True)


@pytest.mark.parametrize("factor, within", [(1.24, True), (1.26, False)])
def test_the_bound_of_a_lower_is_better_metric(factor, within):
    change = {"job_ref": [v * factor for v in PARENT["job_ref"]], "cpu_util": [0.99] * 10}
    assert verdicts(PARENT, change)["job_ref"] == (False, within)


@pytest.mark.parametrize("util, within", [(0.80, True), (0.78, False)])
def test_the_bound_of_a_higher_is_better_metric(util, within):
    change = {"job_ref": PARENT["job_ref"], "cpu_util": [util] * 10}
    assert verdicts(PARENT, change)["cpu_util"] == (False, within)


def failure_summary(attempted=None, failed=None) -> dict:
    return bench_pairs.summarize("w", runs(PARENT, PARENT, attempted, failed), END_TO_END)


def test_no_failures_give_equal_shares_that_do_not_rise():
    entry = failure_summary()
    assert entry["attempted"] == {"parent": 30, "change": 30}
    assert entry["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert not entry["failed_share_rises"]
    assert bench_pairs.failed_share_line(entry) == (
        "w failed share: parent 0/30 (0.0%), change 0/30 (0.0%), does not rise"
    )


def test_one_more_failure_on_the_change_side_rises():
    entry = failure_summary(failed={"parent": [1] + [0] * 9, "change": [1, 1] + [0] * 8})
    assert entry["failed"] == {"parent": 1, "change": 2}
    assert entry["failed_share_rises"]
    assert bench_pairs.failed_share_line(entry).endswith("change 2/30 (6.7%), RISES")


def test_the_share_is_of_attempts_not_of_runs():
    # the same failures over twice the attempts: 2/60 is below the parent's 2/30
    entry = failure_summary(attempted={"change": [6] * 10}, failed={"parent": [2] + [0] * 9, "change": [2] + [0] * 9})
    assert entry["failed_share"] == {"parent": 2 / 30, "change": 2 / 60}
    assert not entry["failed_share_rises"]


def test_a_side_that_attempted_nothing_reads_all_failed():
    entry = failure_summary(attempted={"change": [0] * 10})
    assert entry["failed_share"]["change"] == 1.0
    assert entry["failed_share_rises"]


def test_main_prints_one_report_and_writes_no_bench_file(monkeypatch, capsys):
    def fake_run(directory, workload, seed):
        value = 3.0 if directory.name == "parent" else 2.9 + seed / 100
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"job_ref": {"value": value}}}
        return 0, result, {"machine": {"cpus": 2}, "seconds": 30.0}

    def fake_copy(parent, into):
        return {side: into / side for side in bench_pairs.SIDES}

    root = bench_pairs.ROOT
    before = {path.name: path.read_bytes() for path in root.glob("BENCH_*.json")}
    monkeypatch.setattr(bench_pairs, "copy_sides", fake_copy)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: b"abc1234\n")
    assert bench_pairs.main(["--parent", "HEAD", "quad-cert=3", "atlas-n5=2"]) == 0
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["parent"] == "abc1234" and len(report["runs"]) == 10
    assert [entry["workload"] for entry in report["summary"]] == ["quad-cert", "atlas-n5"]
    assert report["summary"][0]["metrics"]["job_ref"]["change_wins"] == "3/3"
    assert "quad-cert job_ref" in out.err
    assert {path.name: path.read_bytes() for path in root.glob("BENCH_*.json")} == before
