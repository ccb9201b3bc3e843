"""The verdicts of `scripts/bench_pairs.py`'s summary, on made-up runs."""

import importlib.util
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


def runs(parent: dict, change: dict) -> list:
    """One run per pair and side, with the metric values given per side."""
    out = []
    for side, values in (("parent", parent), ("change", change)):
        for pair in range(len(values["job_ref"])):
            metrics = {name: column[pair] for name, column in values.items()}
            out.append(dict(pair=pair, side=side, seed=pair + 1, first="parent", seconds=30.0,
                            returncode=0, correct=True, failed=0, metrics=metrics))
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
