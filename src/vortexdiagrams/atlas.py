"""Exhaustive diagram enumeration and the curated catalog.

The enumeration walks pairs of set partitions of the vertices (clique
components per color, honoring the triangle-closure rule by construction),
one z-partition per block-size type against every w-partition, crossed
with every circle subset per color, in one loop in the calling process;
it validates the structural rules, deduplicates up to relabeling and
color swap, then pushes each distinct class through the lemma matchers
and the constraint decision procedure.  Survivors are compared against
the curated catalog.
"""

from __future__ import annotations

import functools
import itertools
import json
from importlib import resources
from types import MappingProxyType
from typing import NamedTuple

from . import lemmas
from .diagram import (
    Diagram,
    RuleReport,
    canonical_key,
    canonical_masks,  # unused here; perfbench/tracer.py wraps atlas.canonical_masks
    from_canonical_masks,
    masks_key,
    orbit_masks,
    stroke_count_C,
    validate,
    _pair_index,
)
from .vorticity import LEDGER_SEED, ConstraintLedger, Verdict, decide


# -- enumeration ----------------------------------------------------------


def set_partitions(n: int) -> list:
    """All partitions of {1..n} as tuples of vertex bitmasks."""
    out = []

    def grow(v: int, parts: list):
        if v > n:
            out.append(tuple(parts))
            return
        bit = 1 << (v - 1)
        for i in range(len(parts)):
            parts[i] |= bit
            grow(v + 1, parts)
            parts[i] ^= bit
        parts.append(bit)
        grow(v + 1, parts)
        parts.pop()

    grow(1, [])
    return out


def _pairs_mask(part: int, n: int, index: dict) -> int:
    verts = [v + 1 for v in range(n) if part >> v & 1]
    mask = 0
    for a, b in itertools.combinations(verts, 2):
        mask |= 1 << index[(a, b)]
    return mask


def _partition_data(n: int):
    """Per partition: (stroke mask, parts, support, forced, big parts)."""
    index = _pair_index(n)
    data = []
    for parts in set_partitions(n):
        stroke_mask = 0
        support = forced = 0
        r4_parts = []
        for p in parts:
            size = p.bit_count()
            if size >= 2:
                stroke_mask |= _pairs_mask(p, n, index)
                support |= p
                if size == 2:
                    forced |= p
                else:
                    r4_parts.append(p)
        data.append((stroke_mask, parts, support, forced, tuple(r4_parts)))
    return data


def _valid_circle_masks(self_data, other_parts, n: int) -> list:
    """Circle masks consistent with the structural rules for one color.

    Rules enforced: circles only on stroked vertices, both ends of a lone
    stroke circled, circle status constant on each component of the other
    color's strokes (R2), and no component with exactly one circle.
    """
    _, _, support, forced, r4_parts = self_data
    classes = [p for p in other_parts if p.bit_count() >= 2]
    out = []
    for mask in range(1 << n):
        if mask & ~support:
            continue
        if mask & forced != forced:
            continue
        ok = True
        for cl in classes:
            x = mask & cl
            if x and x != cl:
                ok = False
                break
        if ok:
            for p in r4_parts:
                if (mask & p).bit_count() == 1:
                    ok = False
                    break
        if ok:
            out.append(mask)
    return out


def _type_representatives(partitions) -> list:
    """Index of the first partition of each block-size type, in order.

    A relabeling maps any partition onto any other of the same block
    sizes, so every diagram class has a member whose z-partition is one
    of these.
    """
    first: dict = {}
    for i, parts in enumerate(partitions):
        first.setdefault(tuple(sorted(map(int.bit_count, parts))), i)
    return sorted(first.values())


def _scan(n: int) -> dict:
    """Map the canonical masks of every diagram class to its orbit size.

    Only the partition pairs (i, j) whose z-partition i is a type
    representative are visited (the orderly scan of Read and McKay): every
    class still has a member there.  A valid labeled diagram not yet met
    in an earlier orbit has its orbit computed: its minimum, the canonical
    masks, maps to its size, and its members whose z strokes are those of
    a representative, the only ones the scan can meet again, join `seen`.
    Circle masks are cached: those of (i, j)'s z side are (j, i)'s w side.
    """
    data = _partition_data(n)
    circle_masks = functools.cache(lambda own, other: _valid_circle_masks(data[own], data[other][1], n))
    reps = _type_representatives(d[1] for d in data)
    rep_strokes = {data[i][0] for i in reps}
    classes: dict = {}
    seen = set()
    for i in reps:
        zd = data[i]
        if not zd[0]:
            continue
        for j, wd in enumerate(data):
            if not wd[0]:
                continue
            wmasks = circle_masks(j, i)
            for zc in circle_masks(i, j):
                for wc in wmasks:
                    masks = (zd[0], wd[0], zc, wc)
                    if masks not in seen:
                        orbit = orbit_masks(n, *masks)
                        seen.update(m for m in orbit if m[0] in rep_strokes)
                        classes[min(orbit)] = len(orbit)
    return classes


def branches_to_json(branches: dict) -> dict:
    """Branch ledgers and verdicts by multiplier class, as reports print them."""
    return {
        cls: {"ledger": led.to_json(), "verdict": ver.to_json()}
        for cls, (led, ver) in sorted(branches.items())
    }


class SurvivorEntry(NamedTuple):
    key: str
    diagram: Diagram
    c_class: int
    ledger: ConstraintLedger
    verdict: Verdict
    branches: dict  # lambda class -> (ConstraintLedger, Verdict)

    def to_json(self) -> dict:
        out = {
            "key": self.key,
            "diagram": self.diagram.to_json(),
            "c_class": self.c_class,
            "ledger": self.ledger.to_json(),
            "verdict": self.verdict.to_json(),
        }
        if self.branches:
            out["branches"] = branches_to_json(self.branches)
        return out


class EnumerationReport(NamedTuple):
    n: int
    survivors: list  # SurvivorEntry, sorted by key
    rejected: list  # dicts {key, stage, reason}
    histogram: dict
    candidates_raw: int
    candidates_valid: int
    unique_classes: int
    diff_vs_catalog: dict | None = None

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "candidates_raw": self.candidates_raw,
            "candidates_valid": self.candidates_valid,
            "unique_classes": self.unique_classes,
            "survivor_count": len(self.survivors),
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "survivors": [s.to_json() for s in self.survivors],
            "rejected": self.rejected,
        }
        if self.diff_vs_catalog is not None:
            out["diff_vs_catalog"] = self.diff_vs_catalog
        return out


def _decide_memo(ledger: ConstraintLedger, memo: dict) -> Verdict:
    """Many classes share a ledger; reuse verdicts across them."""
    verdict = memo.get(ledger)
    if verdict is None:
        verdict = decide(ledger, seed=LEDGER_SEED)
        memo[ledger] = verdict
    return verdict


class Judgment(NamedTuple):
    """The verdict on one diagram and everything that led to it.

    `outcome` is "invalid", "excluded" or "retained".  An excluded diagram
    names what excluded it in `excluded_by`: a lemma, or
    "constraint-infeasibility" (the base ledger).  The multiplier branches
    of a retained diagram annotate it and exclude nothing.  Later stages
    are None or empty when an earlier one already settled the outcome.
    """

    outcome: str
    rules: RuleReport
    excluded_by: str | None = None
    analysis: lemmas.DiagramAnalysis | None = None
    verdict: Verdict | None = None  # of the base ledger
    # lambda class -> (ConstraintLedger, Verdict); the default is read-only
    # so that no two judgments share one mutable dict
    branches: dict = MappingProxyType({})


def judge(d: Diagram, memo: dict | None = None) -> Judgment:
    """Validate `d`, apply the lemmas, then decide its base and branch ledgers.

    The one decision path behind both `enumerate` and `check`.  `memo`
    maps ledgers to verdicts already decided in this run; without one,
    every ledger is decided afresh.  The ledgers have strengths G1..G8,
    so a diagram on more than 8 vertices is refused with `ValueError`.
    """
    if d.n > 8:
        raise ValueError(f"judging supported for n <= 8 (strengths G1..G8), got n={d.n}")
    memo = {} if memo is None else memo
    rules = validate(d)
    if not rules.valid:
        return Judgment("invalid", rules)
    analysis = lemmas.analyze(d)
    if analysis.exclusion is not None:
        return Judgment("excluded", rules, analysis.exclusion.lemma, analysis)
    verdict = _decide_memo(analysis.base_ledger, memo)
    if verdict.infeasible:
        return Judgment("excluded", rules, "constraint-infeasibility", analysis, verdict)
    branches = {
        cls: (led, _decide_memo(led, memo)) for cls, led in sorted(analysis.branch_ledgers.items())
    }
    return Judgment("retained", rules, None, analysis, verdict, branches)


def _judge_class(n: int, masks, memo: dict) -> tuple:
    """Judge one canonical class as a survivor entry or a rejection record.

    `_scan` yields only classes of valid diagrams, so `judge` never
    returns "invalid" here."""
    d = from_canonical_masks(n, masks)
    key = masks_key(n, masks)
    j = judge(d, memo)
    if j.outcome == "retained":
        ledger = j.analysis.base_ledger
        return ("survivor", SurvivorEntry(key, d, stroke_count_C(d), ledger, j.verdict, j.branches))
    f = j.analysis.exclusion
    if f is not None:
        return (
            "rejected",
            {
                "key": key,
                "stage": "lemma",
                "reason": f.lemma,
                "detail": f.reason,
                "color": f.color,
                "binding": list(f.binding),
            },
        )
    return (
        "rejected",
        {
            "key": key,
            "stage": "ledger",
            "reason": j.excluded_by,
            "ledger": j.analysis.base_ledger.to_json(),
            "certificate": j.verdict.certificate.to_json(),
        },
    )


def enumerate_diagrams(n: int = 5, workers: int = 1) -> EnumerationReport:
    """Exhaustively enumerate valid diagram classes for n vertices.

    The scan visits one z-partition per block-size type (a representative)
    crossed with every w-partition, and keeps each class's canonical masks
    with its orbit size; `candidates_valid`, the number of valid labeled
    diagrams, is the sum of the orbit sizes (orbit-stabilizer).
    The scan runs in the calling process.  `workers` selects nothing: it
    is kept so that existing callers keep working, and any value of at
    least 1 gives the same report.  `candidates_raw` is the size of the
    unpruned space, bell(n)^2 * 4^n (every pair of set partitions crossed
    with every pair of circle subsets), which the scan does not visit.
    At n=5 the report carries its diff against the curated catalog, which
    covers n=5 only.
    """
    if not 3 <= n <= 6:
        raise ValueError("enumeration supported for 3 <= n <= 6")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    bell = len(set_partitions(n))
    classes = _scan(n)
    survivors = []
    rejected = []
    memo: dict = {}
    for masks in sorted(classes):
        kind, payload = _judge_class(n, masks, memo)
        if kind == "survivor":
            survivors.append(payload)
        else:
            rejected.append(payload)
    survivors.sort(key=lambda s: s.key)
    rejected.sort(key=lambda r: r["key"])
    histogram = {c: 0 for c in [0] + list(range(2, 2 * n - 1))}
    for s in survivors:
        histogram[s.c_class] = histogram.get(s.c_class, 0) + 1
    return EnumerationReport(
        n,
        survivors,
        rejected,
        histogram,
        candidates_raw=bell * bell << 2 * n,
        candidates_valid=sum(classes.values()),
        unique_classes=len(classes),
        diff_vs_catalog=diff_report([s.key for s in survivors], load_catalog()) if n == 5 else None,
    )


# -- curated catalog ------------------------------------------------------


class CatalogEntry(NamedTuple):
    diagram: Diagram
    c_class: int
    status: str  # "possible" | "excluded"
    excluding_lemma: str | None
    figure_ref: str
    notes: str = ""
    future_list: str = "unknown"

    @property
    def key(self) -> str:
        return canonical_key(self.diagram)

    def to_json(self) -> dict:
        out = {
            "figure_ref": self.figure_ref,
            "c_class": self.c_class,
            "status": self.status,
            "diagram": self.diagram.to_json(),
            "future_list": self.future_list,
        }
        if self.excluding_lemma:
            out["excluding_lemma"] = self.excluding_lemma
        if self.notes:
            out["notes"] = self.notes
        return out


def load_catalog() -> list:
    """The 39 curated diagram entries (31 possible, 8 excluded)."""
    text = resources.files("vortexdiagrams.data").joinpath("catalog.jsonl").read_text()
    entries = []
    for data in map(json.loads, text.splitlines()):
        entries.append(
            CatalogEntry(
                Diagram.from_json(data["diagram"]),
                data["c_class"],
                data["status"],
                data.get("excluding_lemma"),
                data["figure_ref"],
                data.get("notes", ""),
                data.get("future_list", "unknown"),
            )
        )
    if len(entries) != 39:
        raise ValueError(f"corrupt catalog: expected 39 entries, found {len(entries)}")
    return entries


def diff_report(survivor_keys, catalog) -> dict:
    """Canonical-key set difference between survivors and catalog possibles."""
    enumerated = set(survivor_keys)
    curated = {e.key for e in catalog if e.status == "possible"}
    return {
        "missing": sorted(curated - enumerated),
        "extra": sorted(enumerated - curated),
    }
