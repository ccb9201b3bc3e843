"""`scripts/check_sweep.py`'s report on a small n=7 sweep."""

import importlib.util
import json
from pathlib import Path

import pytest
from relabel import relabeled

from vortexdiagrams.diagram import from_canonical_masks

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_sweep.py"
SPEC = importlib.util.spec_from_file_location("check_sweep", SCRIPT)
check_sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(check_sweep)


def test_n7_report_on_stdout(capsys):
    assert check_sweep.main(["--n", "7", "--count", "12", "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["n"], report["count"], report["seed"]) == (7, 12, 7)
    assert sum(report["outcomes"].values()) == 12
    assert set(report["outcomes"]) <= {"excluded", "retained"}
    for side in ("base", "branch"):
        unknown = report["unknown"][side]
        assert unknown["distinct_ledgers"] == len(unknown["ledgers"]) <= unknown["draws"]
        assert unknown["distinct_up_to_relabeling"] <= unknown["distinct_ledgers"]
    assert len(report["retained_on_unknown_base"]) <= report["unknown"]["base"]["draws"]
    assert all(key.startswith("7:") for key in report["retained_on_unknown_base"])
    ms = report["judge_ms"]
    assert 0 < ms["p50"] <= ms["p95"] <= ms["max"]


@pytest.mark.parametrize("argv", [["--n", "9", "--count", "5", "--seed", "1"], ["--n", "7", "--count", "1", "--seed", "1"]])
def test_refuses_what_it_cannot_sweep(argv):
    with pytest.raises(SystemExit) as exc:
        check_sweep.main(argv)
    assert exc.value.code == 2


def test_relabelings_of_one_unknown_class_count_once(monkeypatch):
    # a class retained on an Unknown base at n=7, drawn as two labelings
    n, masks = 7, [int(m, 16) for m in "43:5bc21:0:0".split(":")]
    d = from_canonical_masks(n, masks)
    draws = [d, relabeled(d, {v: n + 1 - v for v in range(1, n + 1)})]
    monkeypatch.setattr(check_sweep, "random_valid_diagrams", lambda n, count, seed: draws)
    unknown = check_sweep.sweep(n, 2, 0)["unknown"]["base"]
    assert (unknown["draws"], unknown["distinct_ledgers"], unknown["distinct_up_to_relabeling"]) == (2, 2, 1)
