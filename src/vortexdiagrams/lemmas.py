"""Sub-diagram pattern matchers and the constraints they force.

Each matcher inspects one diagram and reports findings: an outright
exclusion, emitted equalities/disequalities on the vortex strengths, or a
branch on the rotation multiplier class (unit real vs unit imaginary).
Matchers fire only on derivable facts: when a semantic precondition such
as "no other vertex is close" is merely unknown, they stay silent, so
every finding is sound.  All matchers run in both color orientations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import Diagram, ClosenessRelation, closeness, components
from .exactpoly import Polynomial
from .vorticity import ConstraintLedger, angular_momentum, gamma_sum, gamma_var

COLORS = ("z", "w")

LAMBDA_REAL = "+-1"
LAMBDA_IMAGINARY = "+-i"


@dataclass(frozen=True)
class BranchAlternative:
    lambda_class: str
    equalities: tuple

    def to_json(self) -> dict:
        return {
            "lambda": self.lambda_class,
            "equalities": [p.to_text() for p in self.equalities],
        }


@dataclass(frozen=True)
class LemmaFinding:
    lemma: str
    color: str
    binding: tuple
    effect: str  # "exclude" | "emit" | "branch"
    reason: str = ""
    equalities: tuple = ()
    nonzeros: tuple = ()
    branches: tuple = ()
    annotations: tuple = ()

    def to_json(self) -> dict:
        out: dict = {"lemma": self.lemma, "color": self.color, "binding": list(self.binding)}
        if self.effect == "exclude":
            out["effect"] = {"exclude": self.reason}
        elif self.effect == "emit":
            out["effect"] = {
                "equalities": [p.to_text() for p in self.equalities],
                "nonzeros": [p.to_text() for p in self.nonzeros],
            }
        else:
            out["effect"] = {"branches": [b.to_json() for b in self.branches]}
        if self.annotations:
            out["annotations"] = list(self.annotations)
        return out


class _View:
    """Per-color derived facts shared by the matchers."""

    def __init__(self, d: Diagram, rel: ClosenessRelation, color: str):
        self.d = d
        self.color = color
        self.strokes = d.strokes(color)
        self.circles = d.circles(color)
        self.rel = rel
        self.comps = components(self.strokes, d.n)

    def close(self, j: int, k: int) -> bool:
        return self.rel.status(self.color, j, k) == "Close"

    def far(self, j: int, k: int) -> bool:
        return self.rel.status(self.color, j, k) == "Far"

    def all_close(self, vertices) -> bool:
        return all(self.close(j, k) for j, k in itertools.combinations(sorted(vertices), 2))

    def far_from_all(self, v: int, vertices) -> bool:
        return all(self.far(v, t) for t in vertices)


def _views(d: Diagram):
    rel = closeness(d)
    return {c: _View(d, rel, c) for c in COLORS}


def _others(d: Diagram, used) -> list:
    return [v for v in range(1, d.n + 1) if v not in used]


def apply_rule_iv(d: Diagram, views=None) -> list:
    """Circled vertices of an isolated component that are pairwise close
    have vanishing total vorticity."""
    views = views or _views(d)
    findings = []
    for color in COLORS:
        view = views[color]
        for comp in view.comps:
            circled = sorted(comp & view.circles)
            if len(circled) >= 2 and view.all_close(circled):
                findings.append(
                    LemmaFinding(
                        "RuleIV-vorticity",
                        color,
                        tuple(circled),
                        "emit",
                        equalities=(gamma_sum(circled),),
                    )
                )
    return findings


def apply_sum_t12(d: Diagram, views=None) -> list:
    """A circled close pair with every other vertex provably far: their
    vorticities cannot cancel, and a stroke between them is impossible."""
    views = views or _views(d)
    findings = []
    for color in COLORS:
        view = views[color]
        for k, l in itertools.combinations(range(1, d.n + 1), 2):
            if k not in view.circles or l not in view.circles:
                continue
            if not view.close(k, l):
                continue
            rest = _others(d, (k, l))
            if not all(view.far_from_all(m, (k, l)) for m in rest):
                continue
            # A stroke between such a pair is impossible; the matched pair
            # is then also the component's whole circled set, so the
            # always-emitted circled-close-pair equality contradicts this
            # disequality in the ledger.  Emitting (rather than excluding
            # outright) keeps the provenance of that contradiction visible.
            notes = ()
            if (k, l) in view.strokes:
                notes = (f"{color}-stroke between {k},{l} impossible here",)
            findings.append(
                LemmaFinding(
                    "SumT12",
                    color,
                    (k, l),
                    "emit",
                    nonzeros=(gamma_sum((k, l)),),
                    annotations=notes,
                )
            )
    return findings


def apply_cor_sum_t12(d: Diagram, views=None) -> list:
    """A circled stroke pair with every other vertex provably far: the
    pair's total vorticity is nonzero and the stroke is maximal."""
    views = views or _views(d)
    findings = []
    for color in COLORS:
        view = views[color]
        for k, l in sorted(view.strokes):
            if k not in view.circles or l not in view.circles:
                continue
            rest = _others(d, (k, l))
            if not all(view.far_from_all(m, (k, l)) for m in rest):
                continue
            findings.append(
                LemmaFinding(
                    "CorSumT12",
                    color,
                    (k, l),
                    "emit",
                    nonzeros=(gamma_sum((k, l)),),
                    annotations=(f"{color}_{{{k}{l}}} maximal",),
                )
            )
    return findings


def apply_l_identity(d: Diagram, views=None) -> list:
    """An isolated fully-stroked component of size >= 3 with no circle has
    vanishing angular momentum."""
    views = views or _views(d)
    findings = []
    for color in COLORS:
        view = views[color]
        for comp in view.comps:
            if len(comp) >= 3 and not (comp & view.circles):
                vertices = sorted(comp)
                findings.append(
                    LemmaFinding(
                        "LIdentity",
                        color,
                        tuple(vertices),
                        "emit",
                        equalities=(angular_momentum(vertices),),
                    )
                )
    return findings


def _lambda_branches(d: Diagram, pair_product: Polynomial, inside, outside, extra=None):
    """Branch constraints for an isolated circled stroke or triangle.

    Unit-real multiplier: the outside vorticities sum to zero.  Unit
    imaginary: total angular momentum vanishes together with the matched
    component's balance identity.
    """
    real_eqs = []
    if outside:
        real_eqs.append(gamma_sum(outside))
    imag_eqs = [angular_momentum(range(1, d.n + 1))]
    balance = pair_product
    if len(outside) >= 2:
        balance = balance - angular_momentum(outside)
    if extra is not None:
        balance = balance - extra
    if balance:
        imag_eqs.append(balance)
    return (
        BranchAlternative(LAMBDA_REAL, tuple(real_eqs)),
        BranchAlternative(LAMBDA_IMAGINARY, tuple(imag_eqs)),
    )


def apply_lambda_lemmas(d: Diagram, views=None) -> list:
    """Isolated circled stroke, or isolated stroke triangle with exactly two
    circled vertices, when no other same-color circle exists: the rotation
    multiplier is forced to a unit real or unit imaginary, each with its own
    vorticity constraints."""
    views = views or _views(d)
    findings = []
    for color in COLORS:
        view = views[color]
        for comp in view.comps:
            circled = sorted(comp & view.circles)
            if len(comp) == 2 and len(circled) == 2 and view.circles == comp:
                k, l = sorted(comp)
                outside = _others(d, comp)
                branches = _lambda_branches(d, gamma_var(k) * gamma_var(l), (k, l), outside)
                findings.append(
                    LemmaFinding(
                        "IsolatedStroke-Lambda",
                        color,
                        (k, l),
                        "branch",
                        branches=branches,
                        annotations=(f"{color}_{{{k}{l}}} maximal",),
                    )
                )
            elif len(comp) == 3 and len(circled) == 2 and view.circles == frozenset(circled):
                (bare,) = sorted(comp - set(circled))
                outside = _others(d, comp)
                extra = None
                if outside:
                    extra = gamma_var(bare) * gamma_sum(outside)
                branches = _lambda_branches(
                    d, angular_momentum(sorted(comp)), tuple(sorted(comp)), outside, extra
                )
                findings.append(
                    LemmaFinding(
                        "IsolatedTriangle-Lambda",
                        color,
                        (bare,) + tuple(circled),
                        "branch",
                        branches=branches,
                        annotations=(f"{color}_{{{circled[0]}{circled[1]}}} maximal",),
                    )
                )
    return findings


def _is_zw_pair(d: Diagram, pair) -> bool:
    return pair in d.z_strokes and pair in d.w_strokes


def _fully_bicircled(d: Diagram, vertices) -> bool:
    return all(v in d.z_circles and v in d.w_circles for v in vertices)


def _isolated_in(view: _View, vertices: set) -> bool:
    return frozenset(vertices) in view.comps


def apply_structural_exclusions(d: Diagram, views=None) -> list:
    """Shapes whose required bounded outside companion provably cannot
    exist: fully stroked, fully circled triangles and quadrilaterals
    isolated in one color, and twin circled mutual-stroke pairs."""
    views = views or _views(d)
    findings = []
    vertices = range(1, d.n + 1)

    for color in COLORS:
        view = views[color]
        for tri in itertools.combinations(vertices, 3):
            pairs = list(itertools.combinations(tri, 2))
            outside = _others(d, tri)
            # Fully mutual-stroked, fully circled in both colors, isolated
            # in this color, with all outside vertices provably far.
            if (
                all(_is_zw_pair(d, p) for p in pairs)
                and _fully_bicircled(d, tri)
                and _isolated_in(view, set(tri))
                and all(view.far_from_all(m, tri) for m in outside)
            ):
                findings.append(
                    LemmaFinding(
                        "Triangle",
                        color,
                        tri,
                        "exclude",
                        reason=f"isolated bicircled mutual-stroke triangle {tri} with all outside vertices {color}-far",
                    )
                )
            # Same-color stroke triangle, all three circled and pairwise
            # close, all outside vertices far.
            if (
                all(p in view.strokes for p in pairs)
                and set(tri) <= view.circles
                and _isolated_in(view, set(tri))
                and view.all_close(tri)
                and all(view.far_from_all(m, tri) for m in outside)
            ):
                findings.append(
                    LemmaFinding(
                        "Triangle2",
                        color,
                        tri,
                        "exclude",
                        reason=f"isolated circled close {color}-stroke triangle {tri} with all outside vertices {color}-far",
                    )
                )
        for quad in itertools.combinations(vertices, 4):
            pairs = list(itertools.combinations(quad, 2))
            outside = _others(d, quad)
            if (
                all(_is_zw_pair(d, p) for p in pairs)
                and set(quad) <= view.circles
                and _isolated_in(view, set(quad))
                and all(view.far_from_all(m, quad) for m in outside)
            ):
                findings.append(
                    LemmaFinding(
                        "Quadrilateral",
                        color,
                        quad,
                        "exclude",
                        reason=f"isolated fully {color}-circled mutual-stroke quadrilateral {quad} with all outside vertices {color}-far",
                    )
                )
        for p1, p2 in itertools.combinations(itertools.combinations(vertices, 2), 2):
            if set(p1) & set(p2):
                continue
            used = set(p1) | set(p2)
            outside = _others(d, used)
            if (
                _is_zw_pair(d, p1)
                and _is_zw_pair(d, p2)
                and _fully_bicircled(d, used)
                and _isolated_in(view, set(p1))
                and _isolated_in(view, set(p2))
                and all(
                    views["z"].far_from_all(m, used) and views["w"].far_from_all(m, used)
                    for m in outside
                )
            ):
                findings.append(
                    LemmaFinding(
                        "Dumbbell",
                        color,
                        p1 + p2,
                        "exclude",
                        reason=f"twin isolated bicircled mutual-stroke pairs {p1},{p2} with all outside vertices far in both colors",
                    )
                )
    return findings


ALL_MATCHERS = (
    apply_rule_iv,
    apply_sum_t12,
    apply_cor_sum_t12,
    apply_l_identity,
    apply_lambda_lemmas,
    apply_structural_exclusions,
)


def apply_all(d: Diagram) -> list:
    """Every finding from every matcher, in a deterministic order."""
    views = _views(d)
    findings = []
    for matcher in ALL_MATCHERS:
        findings.extend(matcher(d, views))
    return findings


EXCLUDE_PRIORITY = {
    "Triangle": 0,
    "Triangle2": 1,
    "Dumbbell": 2,
    "Quadrilateral": 3,
}


@dataclass(frozen=True)
class DiagramAnalysis:
    """Aggregated lemma output for one diagram."""

    findings: tuple
    exclusion: LemmaFinding | None
    base_ledger: ConstraintLedger
    branch_ledgers: dict  # lambda class -> ConstraintLedger (branch constraints only)
    provenance: dict  # polynomial text -> list of "lemma(color)" sources


def analyze(d: Diagram) -> DiagramAnalysis:
    """Run all matchers and assemble the diagram's constraint ledgers.

    Branch constraints are kept per multiplier class, separate from the
    base ledger: they annotate the diagram for later finiteness work and
    only exclude when every class is separately infeasible.
    """
    findings = tuple(apply_all(d))
    excludes = [f for f in findings if f.effect == "exclude"]
    exclusion = None
    if excludes:
        exclusion = min(
            excludes, key=lambda f: (EXCLUDE_PRIORITY.get(f.lemma, 9), f.color, f.binding)
        )
    equalities = []
    nonzeros = []
    provenance: dict = {}
    for f in findings:
        if f.effect != "emit":
            continue
        for p in f.equalities:
            equalities.append(p)
            provenance.setdefault(p.to_text() + " = 0", []).append(f"{f.lemma}({f.color})")
        for p in f.nonzeros:
            nonzeros.append(p)
            provenance.setdefault(p.to_text() + " != 0", []).append(f"{f.lemma}({f.color})")
    base = ConstraintLedger(tuple(equalities), tuple(nonzeros), d.n)
    branch_ledgers: dict = {}
    branch_findings = [f for f in findings if f.effect == "branch"]
    if branch_findings:
        for cls in (LAMBDA_REAL, LAMBDA_IMAGINARY):
            eqs: list = []
            for f in branch_findings:
                for alt in f.branches:
                    if alt.lambda_class == cls:
                        eqs.extend(alt.equalities)
            branch_ledgers[cls] = ConstraintLedger(tuple(eqs), (), d.n)
    return DiagramAnalysis(findings, exclusion, base, branch_ledgers, provenance)
