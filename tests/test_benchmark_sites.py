"""The benchmark traces package functions by wrapping module attributes
named in `perfbench/tracer.py`; a refactor that drops one fails here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_call_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.CALL_SITES
    for module_name, attr, _layer in tracer.CALL_SITES:
        module = importlib.import_module(f"vortexdiagrams.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
