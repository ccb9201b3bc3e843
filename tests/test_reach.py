"""`scripts/reach.py`, the line tracer: one small command end to end, and
the trace function it must put back."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from vortexdiagrams import vorticity

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"
SPEC = importlib.util.spec_from_file_location("reach", SCRIPT)
reach = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reach)


def test_enumerate_n3_lists_what_it_never_runs():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "enumerate", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "enumerate --n 3: exit 0" in done.stderr
    lines = done.stdout.splitlines()
    # a function never called is one block, shown by its def line; a module
    # never imported is one line; what the command runs is not listed
    pow_block = r"src/vortexdiagrams/exactpoly\.py:\d+-\d+  def __pow__\(self, n: int\):"
    assert any(re.fullmatch(pow_block, line) for line in lines)
    assert any(line.startswith("src/vortexdiagrams/numeric.py: never imported") for line in lines)
    ran = ("def enumerate_diagrams(", "def _search_witness(")
    assert not any(name in line for line in lines for name in ran)
    assert re.fullmatch(r"\d+ of \d+ statements never executed", lines[-1])


def test_restores_the_trace_function_it_replaces():
    def previous(frame, event, arg):
        return None

    before = sys.gettrace()
    sys.settrace(previous)
    try:
        hits = reach.record(lambda: vorticity.gamma_sum([1, 2]))
        assert sys.gettrace() is previous
    finally:
        sys.settrace(before)
    assert hits[os.path.abspath(vorticity.__file__)]
