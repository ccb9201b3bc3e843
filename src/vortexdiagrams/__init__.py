"""Two-colored diagram machinery for planar five-vortex central configurations.

Subpackages cover exact polynomial algebra (`exactpoly`) and the checks
of it that do not use it (`exactcheck`), vorticity constraint reasoning
(`vorticity`), the diagram model and rules (`diagram`), sub-diagram lemma
matchers (`lemmas`), enumeration and catalog (`atlas`), rendering
(`render`), the quadrilateral ideal certificate (`quadrilateral`),
numerics for the balance system (`numeric`), and the command line (`cli`).

The names below load their module on first use (PEP 562), so importing
one submodule, such as `cli`, does not load the others.
"""

import importlib

_EXPORTS = {
    "Diagram": "diagram",
    "ConstraintLedger": "vorticity",
    "Verdict": "vorticity",
    "angular_momentum": "vorticity",
    "canonical_key": "diagram",
    "decide": "vorticity",
    "gamma_sum": "vorticity",
    "stroke_count_C": "diagram",
    "validate": "diagram",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value

__version__ = "0.1.0"
