import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from relabel import color_swapped, relabeled
from vortexdiagrams.atlas import _scan
from vortexdiagrams.diagram import Diagram, from_canonical_masks
from vortexdiagrams.exactpoly import Polynomial
from vortexdiagrams.lemmas import LAMBDA_IMAGINARY, LAMBDA_REAL, analyze, apply_all
from vortexdiagrams.vorticity import angular_momentum, decide, gamma_sum, gamma_var


def K(*vs):
    return list(itertools.combinations(vs, 2))


# Findings per lemma over every class representative at n=3..6.
LEMMA_COUNTS = {
    "RuleIV-vorticity": 440,
    "LIdentity": 299,
    "CorSumT12": 138,
    "SumT12": 74,
    "IsolatedStroke-Lambda": 72,
    "IsolatedTriangle-Lambda": 33,
    "Triangle2": 30,
    "Triangle": 17,
    "Quadrilateral": 11,
    "Dumbbell": 9,
}
LAMBDA_LEMMAS = ("IsolatedStroke-Lambda", "IsolatedTriangle-Lambda")


def findings(d, *lemmas):
    """`apply_all`'s findings from the named lemmas, in order.  A name no
    rule emits fails here, so a typo cannot empty an `assert not`."""
    unknown = set(lemmas) - set(LEMMA_COUNTS)
    assert not unknown, f"unknown lemma names: {sorted(unknown)}"
    return [f for f in apply_all(d) if f.lemma in lemmas]


def test_every_lemma_fires_on_the_class_representatives():
    counts = Counter(
        f.lemma
        for n in range(3, 7)
        for masks in _scan(n)
        for f in apply_all(from_canonical_masks(n, masks))
    )
    assert counts == LEMMA_COUNTS


def test_an_unknown_lemma_name_is_refused():
    d = Diagram(5, K(1, 2, 3), K(1, 2, 3), [1, 2, 3], [1, 2, 3])
    with pytest.raises(AssertionError, match="unknown lemma names"):
        findings(d, "Triangle", "Traingle")


def relabel_poly(p, mapping):
    ring = p.ring
    terms = {}
    for m, c in p.terms.items():
        exps = [0] * len(ring)
        for i, e in enumerate(m):
            name = ring[i]
            if name.startswith("G"):
                idx = int(name[1:])
                name = f"G{mapping.get(idx, idx)}"
            exps[ring.index(name)] = e
        terms[tuple(exps)] = c
    return Polynomial(terms, ring)


def finding_signature(f, mapping=None, swap=False):
    mapping = mapping or {i: i for i in range(1, 9)}
    color = f.color
    if swap:
        color = "w" if color == "z" else "z"
    mapped = lambda p: relabel_poly(p, mapping).to_text()
    binding = tuple(mapping[v] for v in f.binding)
    if f.lemma == "IsolatedTriangle-Lambda":
        binding = (binding[0],) + tuple(sorted(binding[1:]))  # bare vertex first
    else:
        binding = tuple(sorted(binding))
    return (
        f.lemma,
        color,
        binding,
        f.effect,
        tuple(sorted(mapped(p) for p in f.equalities)),
        tuple(sorted(mapped(p) for p in f.nonzeros)),
        tuple(
            (alt.lambda_class, tuple(sorted(mapped(p) for p in alt.equalities)))
            for alt in f.branches
        ),
    )


class TestRuleIV:
    def test_mutual_triangle_all_circled(self):
        d = Diagram(5, K(1, 2, 3), K(1, 2, 3), [1, 2, 3], [1, 2, 3])
        emitted = [f for f in findings(d, "RuleIV-vorticity") if f.color == "z"]
        assert len(emitted) == 1
        assert emitted[0].equalities == (gamma_sum([1, 2, 3]),)

    def test_mutual_pair(self):
        d = Diagram(5, [(1, 2), (3, 4)], [(1, 2), (3, 4)], [1, 2, 3, 4], [1, 2, 3, 4])
        sums = {f.equalities[0].to_text() for f in findings(d, "RuleIV-vorticity")}
        assert sums == {"G1 + G2", "G3 + G4"}

    def test_requires_positive_closeness(self):
        # circled stroke pair with no opposite-color stroke: not close
        d = Diagram(5, K(1, 2, 3) + [(4, 5)], K(1, 2, 3), [4, 5], [])
        assert not [f for f in findings(d, "RuleIV-vorticity") if set(f.binding) == {4, 5}]


class TestSumT12:
    def test_mutual_pair_with_bare_triangle(self):
        d = Diagram(5, K(1, 2, 3) + [(4, 5)], K(1, 2, 3) + [(4, 5)], [4, 5], [4, 5])
        found = findings(d, "SumT12")
        assert {f.color for f in found} == {"z", "w"}
        assert all(f.binding == (4, 5) for f in found)
        assert all(f.nonzeros == (gamma_sum([4, 5]),) for f in found)
        # joint with the circled-close-pair equality the ledger dies
        an = analyze(d)
        assert decide(an.base_ledger).infeasible

    def test_third_circled_vertex_blocks(self):
        # all five circled: no far facts at all
        d = Diagram(5, K(1, 2, 3, 4, 5), K(1, 2, 3), [1, 2, 3, 4, 5], [])
        assert not [f for f in findings(d, "SumT12") if f.color == "z"]

    def test_relabel_equivariance_random(self):
        rng = random.Random(11)
        pairs = list(itertools.combinations(range(1, 6), 2))
        for _ in range(50):
            d = Diagram(
                5,
                [p for p in pairs if rng.random() < 0.3],
                [p for p in pairs if rng.random() < 0.3],
                [v for v in range(1, 6) if rng.random() < 0.4],
                [v for v in range(1, 6) if rng.random() < 0.4],
            )
            perm = list(range(1, 6))
            rng.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(5)}
            before = sorted(finding_signature(f, mapping) for f in findings(d, "SumT12"))
            after = sorted(finding_signature(f) for f in findings(relabeled(d, mapping), "SumT12"))
            assert before == after


class TestCorSumT12:
    def test_isolated_circled_stroke(self):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        found = [f for f in findings(d, "CorSumT12") if f.color == "z"]
        assert len(found) == 1
        assert found[0].nonzeros == (gamma_sum([1, 2]),)
        assert "z_{12} maximal" in found[0].annotations

    def test_circled_pair_inside_stroke_triangle(self):
        d = Diagram(5, K(1, 2, 3), [(1, 4), (2, 3)], [2, 3], [1, 2, 3, 4])
        found = [f for f in findings(d, "CorSumT12") if f.color == "z"]
        assert [f.binding for f in found] == [(2, 3)]

    def test_everything_circled_blocks(self):
        d = Diagram(5, K(1, 2, 3, 4, 5), K(1, 2, 3, 4, 5), list(range(1, 6)), list(range(1, 6)))
        assert not findings(d, "CorSumT12")


class TestLIdentity:
    def test_bare_triangle(self):
        d = Diagram(5, K(1, 2, 3), K(1, 2, 3), [], [])
        found = findings(d, "LIdentity")
        assert {f.color for f in found} == {"z", "w"}
        assert all(f.equalities == (angular_momentum([1, 2, 3]),) for f in found)

    def test_bare_four_clique(self):
        d = Diagram(5, K(1, 2, 3, 4), K(1, 2), [], [1, 2])
        found = [f for f in findings(d, "LIdentity") if f.color == "z"]
        assert found[0].equalities == (angular_momentum([1, 2, 3, 4]),)

    def test_circled_component_blocks(self):
        d = Diagram(5, K(1, 2, 3), K(1, 2, 3), [1, 2, 3], [1, 2, 3])
        assert not findings(d, "LIdentity")


class TestLambdaLemmas:
    def test_isolated_circled_stroke_branches(self):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        z_findings = [f for f in findings(d, *LAMBDA_LEMMAS) if f.color == "z"]
        assert len(z_findings) == 1
        branches = {b.lambda_class: b.equalities for b in z_findings[0].branches}
        assert branches[LAMBDA_REAL] == (gamma_sum([3, 4, 5]),)
        imag = branches[LAMBDA_IMAGINARY]
        assert angular_momentum(range(1, 6)) in imag
        assert gamma_var(1) * gamma_var(2) - angular_momentum([3, 4, 5]) in imag

    def test_triangle_two_circled(self):
        d = Diagram(5, [(1, 2)], K(3, 4, 5), [1, 2], [4, 5])
        found = [f for f in findings(d, *LAMBDA_LEMMAS) if f.color == "w"]
        assert len(found) == 1
        assert found[0].lemma == "IsolatedTriangle-Lambda"
        assert found[0].binding == (3, 4, 5)  # bare vertex first
        branches = {b.lambda_class: b.equalities for b in found[0].branches}
        assert branches[LAMBDA_REAL] == (gamma_sum([1, 2]),)
        balance = angular_momentum([3, 4, 5]) - angular_momentum([1, 2]) - gamma_var(
            3
        ) * gamma_sum([1, 2])
        assert balance in branches[LAMBDA_IMAGINARY]

    def test_extra_circle_blocks(self):
        d = Diagram(5, [(1, 2), (3, 4)], [(1, 2), (3, 4)], [1, 2, 3, 4], [1, 2, 3, 4])
        assert not [f for f in findings(d, *LAMBDA_LEMMAS) if f.color == "z"]

    def test_branch_ledgers_standalone_in_analysis(self):
        # bare mutual triangle + circled stroke pair: the momentum identity
        # lands in the base ledger, the branch ledgers hold only their own
        # constraints and stay decidable
        d = Diagram(5, K(1, 2, 3) + [(4, 5)], K(1, 2, 3), [4, 5], [])
        an = analyze(d)
        assert an.base_ledger.equalities == (angular_momentum([1, 2, 3]),)
        real = an.branch_ledgers[LAMBDA_REAL]
        assert real.equalities == (gamma_sum([1, 2, 3]),)
        assert decide(real).kind == "Feasible"
        assert decide(an.base_ledger).kind == "Feasible"


class TestStructural:
    def test_dumbbell_on_twin_mutual_pairs(self):
        d = Diagram(5, [(1, 2), (3, 4)], [(1, 2), (3, 4)], [1, 2, 3, 4], [1, 2, 3, 4])
        found = findings(d, "Dumbbell")
        assert found
        assert analyze(d).exclusion.lemma == "Dumbbell"

    def test_dumbbell_one_color_isolation_suffices(self):
        d = Diagram(5, K(1, 2, 3, 4), [(1, 2), (3, 4)], [1, 2, 3, 4], [1, 2, 3, 4])
        found = findings(d, "Dumbbell")
        assert {f.color for f in found} == {"w"}

    def test_triangle_exclusion(self):
        d = Diagram(5, K(1, 2, 3), K(1, 2, 3), [1, 2, 3], [1, 2, 3])
        assert analyze(d).exclusion.lemma == "Triangle"

    def test_triangle_blocked_by_circled_outside(self):
        d = Diagram(5, K(1, 2, 3) + [(4, 5)], K(1, 2, 3) + [(4, 5)], list(range(1, 6)), list(range(1, 6)))
        assert not findings(d, "Triangle")

    def test_quadrilateral_exclusion(self):
        d = Diagram(5, K(1, 2, 3, 4), K(1, 2, 3, 4), [1, 2, 3, 4], [1, 2, 3, 4])
        assert analyze(d).exclusion.lemma == "Quadrilateral"

    def test_triangle2_footprint_on_catalog(self):
        # Recorded outcome: the circled-close-triangle pattern never fires
        # on a possible entry; on the two excluded bicircled mutual-stroke
        # triangles it is subsumed by the stronger triangle obstruction.
        from vortexdiagrams.atlas import load_catalog

        hits = []
        for entry in load_catalog():
            found = findings(entry.diagram, "Triangle2")
            if found:
                hits.append(entry)
        assert all(e.status == "excluded" for e in hits)
        assert all(e.excluding_lemma == "Triangle" for e in hits)
        assert len(hits) == 2
        for e in hits:
            assert analyze(e.diagram).exclusion.lemma == "Triangle"


class TestSixVertices:
    def test_lemma_layer_handles_larger_vertex_sets(self):
        # isolated circled stroke on six vertices: the branch constraints
        # must reach the sixth strength
        d = Diagram(6, [(1, 2)], [(3, 4), (3, 5), (4, 5)], [1, 2], [])
        an = analyze(d)
        real = an.branch_ledgers[LAMBDA_REAL]
        assert real.equalities == (gamma_sum([3, 4, 5, 6]),)
        assert decide(real).kind == "Feasible"
        assert decide(an.base_ledger).kind == "Feasible"


class TestMomentumContradictionParts:
    """The four momentum-versus-circles contradictions need no dedicated
    matcher: existing emissions make the ledger infeasible."""

    def test_part_one_circles_match_component(self):
        # bare mutual-stroke triangle, all three circled in the other color:
        # momentum zero plus total zero is impossible over the reals
        d = Diagram(5, K(1, 2, 3), K(1, 2, 3), [1, 2, 3], [])
        an = analyze(d)
        assert an.exclusion is None or decide(an.base_ledger).infeasible
        verdict = decide(an.base_ledger)
        assert verdict.infeasible
        assert verdict.certificate.kind == "sum-of-squares"

    def test_part_two_all_but_one_circled(self):
        d = Diagram(5, K(1, 2, 3), [(1, 4), (2, 3)], [2, 3], [1, 2, 3, 4])
        an = analyze(d)
        verdict = decide(an.base_ledger)
        assert verdict.infeasible
        assert verdict.certificate.kind == "direct-disequality"
        # and the no-extra-circle variant dies on the vanishing product
        d2 = Diagram(5, K(1, 2, 3), [(1, 4), (2, 3)], [], [1, 2, 3, 4])
        verdict2 = decide(analyze(d2).base_ledger)
        assert verdict2.infeasible
        assert verdict2.certificate.kind == "vanishing-monomial"

    def test_part_three_extended_component_unircled(self):
        # triangle and four-clique momenta both zero: impossible
        d = Diagram(5, K(1, 2, 3, 4), K(1, 2, 3), [], [])
        an = analyze(d)
        eqs = set(an.base_ledger.equalities)
        assert angular_momentum([1, 2, 3]) in eqs
        assert angular_momentum([1, 2, 3, 4]) in eqs
        assert decide(an.base_ledger).infeasible

    def test_part_four_circles_split_across_components(self):
        # clique momentum zero while twin circled pairs force pair sums zero
        d = Diagram(5, K(1, 2, 3, 4), [(1, 2), (3, 4)], [], [1, 2, 3, 4])
        an = analyze(d)
        verdict = decide(an.base_ledger)
        assert verdict.infeasible
        assert verdict.certificate.kind == "sum-of-squares"


class TestEquivariance:
    def test_findings_equivariant_under_relabel_and_swap(self):
        rng = random.Random(12)
        pairs = list(itertools.combinations(range(1, 6), 2))
        for _ in range(120):
            d = Diagram(
                5,
                [p for p in pairs if rng.random() < 0.35],
                [p for p in pairs if rng.random() < 0.35],
                [v for v in range(1, 6) if rng.random() < 0.4],
                [v for v in range(1, 6) if rng.random() < 0.4],
            )
            perm = list(range(1, 6))
            rng.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(5)}
            expect = sorted(finding_signature(f, mapping) for f in apply_all(d))
            got = sorted(finding_signature(f) for f in apply_all(relabeled(d, mapping)))
            assert expect == got
            expect_sw = sorted(finding_signature(f, swap=True) for f in apply_all(d))
            got_sw = sorted(finding_signature(f) for f in apply_all(color_swapped(d)))
            assert expect_sw == got_sw


# sha256 of the sorted-key JSON of `apply_all`'s findings over `pin_diagrams()`,
# recorded when the matchers still looped over vertex subsets.
LEMMA_FINDINGS_SHA256 = "383d7218bbeb81efa72dbdf10944749599f806c410e82b8b36a3c3ed4d238633"


def random_strokes(rng, n):
    """Cliques on a random partition half the time, else random pairs
    (mostly not cliques, so mostly invalid diagrams)."""
    if rng.random() < 0.5:
        blocks = {}
        for v in range(1, n + 1):
            blocks.setdefault(rng.randrange(n), []).append(v)
        return [p for b in blocks.values() for p in itertools.combinations(b, 2)]
    density = rng.choice((0.2, 0.4))
    return [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < density]


def pin_diagrams():
    """Every class representative at n=3..6, then 500 seeded random
    diagrams, valid and invalid, at each of n=4..7."""
    for n in range(3, 7):
        for masks in sorted(_scan(n)):
            yield from_canonical_masks(n, masks)
    for n in range(4, 8):
        rng = random.Random(n)
        for _ in range(500):
            yield Diagram(
                n,
                random_strokes(rng, n),
                random_strokes(rng, n),
                [v for v in range(1, n + 1) if rng.random() < 0.5],
                [v for v in range(1, n + 1) if rng.random() < 0.5],
            )


def test_findings_match_the_recorded_hash():
    """Pins every finding, in order, where the report pins cannot reach:
    invalid diagrams, n=7 and labelings other than the canonical one."""
    h = hashlib.sha256()
    for d in pin_diagrams():
        h.update(json.dumps([f.to_json() for f in apply_all(d)], sort_keys=True).encode())
    assert h.hexdigest() == LEMMA_FINDINGS_SHA256
