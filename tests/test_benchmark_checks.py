"""The benchmark's own output checks, run on this tree's outputs.

`perfbench/run.py` counts a job whose output fails `check_fields`,
`check_atlas` or `check_solution` against its `EXPECT` as incorrect.
Running those checks here makes a changed output fail in the test suite
first.  The benchmark files are loaded read-only, as
`test_benchmark_sites.py` loads the tracer.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from vortexdiagrams import numeric
from vortexdiagrams.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a @dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """(run, child): `run.py` and `child.py`, which import their siblings
    from the perfbench directory; `sys.path` is restored afterwards."""
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("run"), _load("child")
    finally:
        sys.path[:] = saved


def _json(payload):
    """The payload as the benchmark reads it back from the job's file."""
    return json.loads(json.dumps(payload))


def test_verify_groebner_output(bench, tmp_path):
    run, _ = bench
    out = tmp_path / "cert.json"
    assert main(["verify-groebner", "--out", str(out)]) == 0
    checker = run.ReportChecker("quad-cert", run.EXPECT["quad-cert"])
    assert checker(0, out) == []
    payload = json.loads(out.read_text())
    assert run.check_fields(payload, run.EXPECT["quad-cert"]) == []
    assert run.check_fields(dict(payload, verified=False), run.EXPECT["quad-cert"])


def test_n5_report(bench, enumerated):
    run, _ = bench
    payload = _json(enumerated(5).to_json())
    assert run.check_atlas(payload, run.EXPECT["atlas-n5"]) == []
    assert run.check_atlas(dict(payload, survivor_count=30), run.EXPECT["atlas-n5"])


def test_seed_22_sweep_solutions(bench):
    run, child = bench
    expect = run.EXPECT["solve-sweep"]
    solved = 0
    for vec in run.sweep_vectors(run.DEFAULT_SEED, run.DEFAULT_SEED)[:6]:
        result = _json(child.solve_vector(numeric, vec["gamma"], vec["seed"]))
        assert run.check_solution(vec["gamma"], result, expect) == [], vec
        if result is not None:
            solved += 1
            other = [-g for g in vec["gamma"]]
            assert run.check_solution(other, result, expect), vec
    assert solved >= 4
