"""Spans recorded from outside the package, by wrapping module attributes.

A `Tracer` replaces a module attribute with a wrapper that records one
span per call: its parent span, layer name, start, end and optional
attributes derived from the result.  The package itself is not edited;
the wrapper sits where callers look the name up, so only calls made
through that module attribute are seen.  Spans stay in memory until
`dump` writes them out once the job has finished.

`aggregate` turns spans into per-layer call counts, inclusive time and
self time (a span's duration minus the part of it its children cover).
"""

from __future__ import annotations

import functools
import json
import time

# Where each layer is entered, as (module, attribute, layer name).  The
# module is named relative to the package; the layer name is the module
# that implements the function, so that two call sites of one kernel
# function (from `vorticity` and from `quadrilateral`) add up.
CALL_SITES = (
    ("atlas", "enumerate_diagrams", "atlas.enumerate_diagrams"),
    ("atlas", "canonical_masks", "diagram.canonical_masks"),
    ("atlas", "validate", "diagram.validate"),
    ("lemmas", "analyze", "lemmas.analyze"),
    ("atlas", "decide", "vorticity.decide"),
    ("vorticity", "satisfies", "vorticity.satisfies"),
    ("vorticity", "groebner_basis", "exactpoly.groebner_basis"),
    ("vorticity", "reduces_to_zero", "exactpoly.reduces_to_zero"),
    ("quadrilateral", "verify_membership", "quadrilateral.verify_membership"),
    ("quadrilateral", "groebner_basis", "exactpoly.groebner_basis"),
    ("quadrilateral", "normal_form", "exactpoly.normal_form"),
    ("quadrilateral", "reduces_to_zero", "exactpoly.reduces_to_zero"),
    ("numeric", "solve", "numeric.solve"),
    ("numeric", "velocities", "numeric.velocities"),
    ("numeric", "residual", "numeric.residual"),
)


def _annotate(layer: str, result) -> dict | None:
    """Counts taken at the boundary, from the value the layer returned."""
    if layer == "vorticity.decide":
        return {"kind": result.kind}
    if layer == "lemmas.analyze":
        return {"excluded": result.exclusion is not None}
    if layer == "exactpoly.groebner_basis":
        return {"out_terms": sum(len(p.terms) for p in result)}
    if layer == "atlas.enumerate_diagrams":
        return {
            "classes": result.unique_classes,
            "candidates_valid": result.candidates_valid,
            "survivors": len(result.survivors),
        }
    if layer == "quadrilateral.verify_membership":
        return {"basis_size": result.basis_size}
    return None


class Tracer:
    """Records nested spans for wrapped module attributes.

    A span is the list ``[parent, layer, start, end, attrs]``; its id is
    its index in `spans`.  Use as a context manager: wrappers are installed
    on entry and the original attributes put back on exit.
    """

    def __init__(self, modules: dict, sites=CALL_SITES):
        self.spans: list = []
        self._modules = modules
        self._sites = sites
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, original, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [stack[-1] if stack else None, layer, clock(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[3] = clock()
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[3] = clock()
            span[4] = _annotate(layer, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, layer in self._sites:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def package_modules() -> dict:
    """The package modules that hold the call sites, by short name."""
    from vortexdiagrams import atlas, lemmas, numeric, quadrilateral, vorticity

    return {
        "atlas": atlas,
        "lemmas": lemmas,
        "numeric": numeric,
        "quadrilateral": quadrilateral,
        "vorticity": vorticity,
    }


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    """Per span: its duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict = {}
    for parent, _layer, start, end, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_parent, _layer, start, end, _attrs) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(idx, ()) if e > start and s < end]
        out.append((end - start) - _covered(kids))
    return out


def aggregate(*span_lists: list) -> dict:
    """Per layer: calls, self time, inclusive time and attribute tallies,
    summed over one or more jobs' spans.

    Numeric attributes are summed.  A string or boolean attribute splits
    the layer's calls, self and inclusive time by value, under
    ``by["key=value"]``.
    Inclusive time counts only a layer's outermost spans, so recursion
    into the same layer is not counted twice.
    """
    layers: dict = {}
    for spans in span_lists:
        selfs = self_times(spans)
        for idx, (parent, layer, start, end, attrs) in enumerate(spans):
            row = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "sums": {}, "by": {}})
            row["calls"] += 1
            row["self_s"] += selfs[idx]
            outer = parent
            while outer is not None and spans[outer][1] != layer:
                outer = spans[outer][0]
            inclusive = end - start if outer is None else 0.0
            row["total_s"] += inclusive
            for key, value in (attrs or {}).items():
                if isinstance(value, (bool, str)):
                    split = row["by"].setdefault(f"{key}={value}", {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                    split["calls"] += 1
                    split["self_s"] += selfs[idx]
                    split["total_s"] += inclusive
                else:
                    row["sums"][key] = row["sums"].get(key, 0) + value
    return layers
