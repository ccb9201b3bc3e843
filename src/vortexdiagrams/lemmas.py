"""Sub-diagram lemma rules and the constraints they force.

Each rule reads one color's view of a diagram and yields findings: an
outright exclusion, emitted equalities/disequalities on the vortex
strengths, or a branch on the rotation multiplier class (unit real vs
unit imaginary).  Rules fire only on derivable facts: when a semantic
precondition such as "no other vertex is close" is merely unknown, they
stay silent, so every finding is sound.  `apply_all` is the one driver:
it builds both views once and runs the rules in `RULES` order, each for
z and then for w.

The lemmas bind sub-diagrams isolated in one color, that is, components
of that color's strokes, so the rules loop over components.  Closeness
is a component fact too: in one color, two vertices are close when one
component of the other color's strokes holds both and they share this
color's circle status, and far when their circle status differs and no
such component holds both (the Rule II contrapositive).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .diagram import Diagram, components
from .vorticity import ConstraintLedger, angular_momentum, gamma_sum, gamma_var, polynomial_cache

COLORS = ("z", "w")

LAMBDA_REAL = "+-1"
LAMBDA_IMAGINARY = "+-i"


class BranchAlternative(NamedTuple):
    lambda_class: str
    equalities: tuple

    def to_json(self) -> dict:
        return {
            "lambda": self.lambda_class,
            "equalities": [p.to_text() for p in self.equalities],
        }


class LemmaFinding(NamedTuple):
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
    """Per-color facts shared by the rules, read off stroke components.

    `comps` are this color's stroke components; `class_of` maps each vertex
    to its component of the other color's strokes.  A pair that shares
    such a component but not its circle status (an R2 violation) is
    neither close nor far.
    """

    def __init__(self, d: Diagram, color: str, comps: list, classes: list):
        self.n = d.n
        self.strokes = d.strokes(color)
        self.circles = d.circles(color)
        self.comps = comps
        self.class_of = {v: c for c in classes for v in c}

    def close(self, j: int, k: int) -> bool:
        return k in self.class_of[j] and (j in self.circles) == (k in self.circles)

    def far(self, j: int, k: int) -> bool:
        return (j in self.circles) != (k in self.circles) and k not in self.class_of[j]

    def all_close(self, vertices) -> bool:
        return all(self.close(j, k) for j, k in itertools.combinations(sorted(vertices), 2))

    def outside_far(self, vertices) -> bool:
        """Every vertex outside `vertices` is far from each of them."""
        return all(
            self.far(m, t) for m in range(1, self.n + 1) if m not in vertices for t in vertices
        )


def _views(d: Diagram):
    z = components(d.z_strokes, d.n)
    w = components(d.w_strokes, d.n)
    return {"z": _View(d, "z", z, w), "w": _View(d, "w", w, z)}


def _others(d: Diagram, used) -> tuple:
    return tuple(v for v in range(1, d.n + 1) if v not in used)


def _rule_iv(d: Diagram, color: str, views: dict):
    """Circled vertices of an isolated component that are pairwise close
    have vanishing total vorticity."""
    view = views[color]
    for comp in view.comps:
        circled = sorted(comp & view.circles)
        if len(circled) >= 2 and view.all_close(circled):
            yield LemmaFinding(
                "RuleIV-vorticity",
                color,
                tuple(circled),
                "emit",
                equalities=(gamma_sum(circled),),
            )


def _sum_t12(d: Diagram, color: str, views: dict):
    """A circled close pair with every other vertex provably far: their
    vorticities cannot cancel, and a stroke between them is impossible."""
    view = views[color]
    for k, l in itertools.combinations(sorted(view.circles), 2):
        if not view.close(k, l) or not view.outside_far((k, l)):
            continue
        # A stroke between such a pair is impossible; the matched pair
        # is then also the component's whole circled set, so the
        # always-emitted circled-close-pair equality contradicts this
        # disequality in the ledger.  Emitting (rather than excluding
        # outright) keeps the provenance of that contradiction visible.
        notes = ()
        if (k, l) in view.strokes:
            notes = (f"{color}-stroke between {k},{l} impossible here",)
        yield LemmaFinding(
            "SumT12",
            color,
            (k, l),
            "emit",
            nonzeros=(gamma_sum((k, l)),),
            annotations=notes,
        )


def _cor_sum_t12(d: Diagram, color: str, views: dict):
    """A circled stroke pair with every other vertex provably far: the
    pair's total vorticity is nonzero and the stroke is maximal."""
    view = views[color]
    for k, l in sorted(view.strokes):
        if k in view.circles and l in view.circles and view.outside_far((k, l)):
            yield LemmaFinding(
                "CorSumT12",
                color,
                (k, l),
                "emit",
                nonzeros=(gamma_sum((k, l)),),
                annotations=(f"{color}_{{{k}{l}}} maximal",),
            )


def _l_identity(d: Diagram, color: str, views: dict):
    """An isolated fully-stroked component of size >= 3 with no circle has
    vanishing angular momentum."""
    view = views[color]
    for comp in view.comps:
        if len(comp) >= 3 and not (comp & view.circles):
            vertices = sorted(comp)
            yield LemmaFinding(
                "LIdentity",
                color,
                tuple(vertices),
                "emit",
                equalities=(angular_momentum(vertices),),
            )


@polynomial_cache
def _lambda_branches(n: int, comp: tuple, outside: tuple, bare: int | None = None) -> tuple:
    """Branch constraints for an isolated circled stroke `comp`, or an
    isolated triangle `comp` whose uncircled vertex is `bare`, built once
    per arguments and shared by every diagram that matches them.

    Unit-real multiplier: the outside vorticities sum to zero.  Unit
    imaginary: total angular momentum vanishes together with the matched
    component's balance identity.
    """
    real_eqs = (gamma_sum(outside),) if outside else ()
    imag_eqs = [angular_momentum(range(1, n + 1))]
    balance = angular_momentum(comp)
    if len(outside) >= 2:
        balance = balance - angular_momentum(outside)
    if bare is not None and outside:
        balance = balance - gamma_var(bare) * gamma_sum(outside)
    if balance:
        imag_eqs.append(balance)
    return (
        BranchAlternative(LAMBDA_REAL, real_eqs),
        BranchAlternative(LAMBDA_IMAGINARY, tuple(imag_eqs)),
    )


def _lambda_lemmas(d: Diagram, color: str, views: dict):
    """Isolated circled stroke, or isolated stroke triangle with exactly two
    circled vertices, when no other same-color circle exists: the rotation
    multiplier is forced to a unit real or unit imaginary, each with its own
    vorticity constraints."""
    view = views[color]
    for comp in view.comps:
        circled = sorted(comp & view.circles)
        if len(comp) == 2 and len(circled) == 2 and view.circles == comp:
            k, l = circled
            yield LemmaFinding(
                "IsolatedStroke-Lambda",
                color,
                (k, l),
                "branch",
                branches=_lambda_branches(d.n, (k, l), _others(d, comp)),
                annotations=(f"{color}_{{{k}{l}}} maximal",),
            )
        elif len(comp) == 3 and len(circled) == 2 and view.circles == frozenset(circled):
            (bare,) = comp - view.circles
            yield LemmaFinding(
                "IsolatedTriangle-Lambda",
                color,
                (bare,) + tuple(circled),
                "branch",
                branches=_lambda_branches(d.n, tuple(sorted(comp)), _others(d, comp), bare),
                annotations=(f"{color}_{{{circled[0]}{circled[1]}}} maximal",),
            )


def _is_zw_pair(d: Diagram, pair) -> bool:
    return pair in d.z_strokes and pair in d.w_strokes


def _fully_bicircled(d: Diagram, vertices) -> bool:
    return all(v in d.z_circles and v in d.w_circles for v in vertices)


def _sized(comps, size: int) -> list:
    """The components of `size` vertices as sorted tuples, in order."""
    return [tuple(sorted(c)) for c in comps if len(c) == size]


def _structural_exclusions(d: Diagram, color: str, views: dict):
    """Shapes whose required bounded outside companion provably cannot
    exist: fully stroked, fully circled triangles and quadrilaterals
    isolated in one color, and twin circled mutual-stroke pairs."""
    view = views[color]
    for tri in _sized(view.comps, 3):
        pairs = list(itertools.combinations(tri, 2))
        # Fully mutual-stroked, fully circled in both colors, isolated
        # in this color, with all outside vertices provably far.
        if (
            all(_is_zw_pair(d, p) for p in pairs)
            and _fully_bicircled(d, tri)
            and view.outside_far(tri)
        ):
            yield LemmaFinding(
                "Triangle",
                color,
                tri,
                "exclude",
                reason=f"isolated bicircled mutual-stroke triangle {tri} with all outside vertices {color}-far",
            )
        # Same-color stroke triangle, all three circled and pairwise
        # close, all outside vertices far.
        if (
            all(p in view.strokes for p in pairs)
            and set(tri) <= view.circles
            and view.all_close(tri)
            and view.outside_far(tri)
        ):
            yield LemmaFinding(
                "Triangle2",
                color,
                tri,
                "exclude",
                reason=f"isolated circled close {color}-stroke triangle {tri} with all outside vertices {color}-far",
            )
    for quad in _sized(view.comps, 4):
        if (
            all(_is_zw_pair(d, p) for p in itertools.combinations(quad, 2))
            and set(quad) <= view.circles
            and view.outside_far(quad)
        ):
            yield LemmaFinding(
                "Quadrilateral",
                color,
                quad,
                "exclude",
                reason=f"isolated fully {color}-circled mutual-stroke quadrilateral {quad} with all outside vertices {color}-far",
            )
    for p1, p2 in itertools.combinations(_sized(view.comps, 2), 2):
        used = p1 + p2
        if (
            _is_zw_pair(d, p1)
            and _is_zw_pair(d, p2)
            and _fully_bicircled(d, used)
            and views["z"].outside_far(used)
            and views["w"].outside_far(used)
        ):
            yield LemmaFinding(
                "Dumbbell",
                color,
                used,
                "exclude",
                reason=f"twin isolated bicircled mutual-stroke pairs {p1},{p2} with all outside vertices far in both colors",
            )


# Each rule reads one color's view and yields that color's findings.
RULES = (
    _rule_iv,
    _sum_t12,
    _cor_sum_t12,
    _l_identity,
    _lambda_lemmas,
    _structural_exclusions,
)


def apply_all(d: Diagram) -> list:
    """Every finding of every rule, rule by rule and z before w within
    each rule: the order the findings pin and both reports record."""
    views = _views(d)
    return [f for rule in RULES for color in COLORS for f in rule(d, color, views)]


EXCLUDE_PRIORITY = {
    "Triangle": 0,
    "Triangle2": 1,
    "Dumbbell": 2,
    "Quadrilateral": 3,
}


class DiagramAnalysis(NamedTuple):
    """Aggregated lemma output for one diagram."""

    findings: tuple
    exclusion: LemmaFinding | None
    base_ledger: ConstraintLedger
    branch_ledgers: dict  # lambda class -> ConstraintLedger (branch constraints only)

    @property
    def provenance(self) -> dict:
        """Emitted constraint text (``p = 0`` or ``p != 0``) -> its
        "lemma(color)" sources, rendered when read (only `cli check` does)."""
        out: dict = {}
        for f in self.findings:
            if f.effect == "emit":
                source = f"{f.lemma}({f.color})"
                for p in f.equalities:
                    out.setdefault(p.to_text() + " = 0", []).append(source)
                for p in f.nonzeros:
                    out.setdefault(p.to_text() + " != 0", []).append(source)
        return out


def analyze(d: Diagram) -> DiagramAnalysis:
    """Run every rule and assemble the diagram's constraint ledgers.

    Branch constraints are kept per multiplier class, separate from the
    base ledger: they annotate the diagram for later finiteness work and
    exclude nothing.  No class that reaches them could be excluded by them
    anyway: its unit-real ledger sets to zero the strength sum outside each
    matched component, at most one per color, and so forces a strength to
    zero only when an outside is a single vertex (n <= 4, where the base
    ledger already excludes every such class) or when the two components
    differ by one vertex b.  Then b shares the larger component with the
    smaller one's circled vertices but is not circled in the smaller one's
    color, which has no circle outside it, and R2 forbids that.  A branch
    ledger holds the branch equalities alone, without the base ones.  That
    is what reproduces the paper's 31 survivors at n=5: decided together
    with its base ledger, every branch of 4 of them would be infeasible.
    """
    findings = tuple(apply_all(d))
    excludes = [f for f in findings if f.effect == "exclude"]
    exclusion = min(
        excludes, key=lambda f: (EXCLUDE_PRIORITY[f.lemma], f.color, f.binding), default=None
    )
    emitted = [f for f in findings if f.effect == "emit"]
    equalities = tuple(p for f in emitted for p in f.equalities)
    nonzeros = tuple(p for f in emitted for p in f.nonzeros)
    base = ConstraintLedger(equalities, nonzeros, d.n)
    alternatives = [alt for f in findings if f.effect == "branch" for alt in f.branches]
    branch_ledgers: dict = {}
    if alternatives:
        for cls in (LAMBDA_REAL, LAMBDA_IMAGINARY):
            eqs = tuple(p for alt in alternatives if alt.lambda_class == cls for p in alt.equalities)
            branch_ledgers[cls] = ConstraintLedger(eqs, (), d.n)
    return DiagramAnalysis(findings, exclusion, base, branch_ledgers)
