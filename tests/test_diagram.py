import hashlib
import itertools
import json
import math
import random

import pytest

from relabel import color_swapped, relabeled
from vortexdiagrams import diagram
from vortexdiagrams.diagram import (
    Diagram,
    canonical_key,
    canonical_masks,
    components,
    from_canonical_masks,
    orbit_masks,
    stroke_count_C,
    validate,
    _masks,
    _sjt_swaps,
)
from vortexdiagrams.lemmas import _views


def K(*vs):
    return list(itertools.combinations(vs, 2))


def canonical_form(d: Diagram) -> Diagram:
    """The representative diagram encoded by the canonical key."""
    return from_canonical_masks(d.n, canonical_masks(d.n, *_masks(d)))


ROBERTS = Diagram(5, [(1, 2), (3, 4)], [(2, 3), (1, 4)], [1, 2, 3, 4], [1, 2, 3, 4])


def random_diagram(rng, n=5):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    pick = lambda: [p for p in pairs if rng.random() < 0.3]
    verts = lambda: [v for v in range(1, n + 1) if rng.random() < 0.4]
    return Diagram(n, pick(), pick(), verts(), verts())


class TestShape:
    def test_normalization_and_rejects(self):
        d = Diagram(5, [(2, 1)], [(4, 5)], [1], [4])
        assert (1, 2) in d.z_strokes
        with pytest.raises(ValueError):
            Diagram(5, [(1, 1)], [], [], [])
        with pytest.raises(ValueError):
            Diagram(5, [(1, 6)], [], [], [])
        with pytest.raises(ValueError):
            Diagram(5, [], [], [7], [])

    def test_json_round_trip_sorted(self):
        data = ROBERTS.to_json()
        assert data["z_strokes"] == sorted(data["z_strokes"])
        assert Diagram.from_json(data) == ROBERTS


class TestCNumber:
    def test_full_mutual_clique(self):
        d = Diagram(5, K(1, 2, 3, 4, 5), K(1, 2, 3, 4, 5), [], [])
        assert stroke_count_C(d) == 8

    def test_alternating_cycle(self):
        assert stroke_count_C(ROBERTS) == 2

    def test_no_bicolored_vertex(self):
        d = Diagram(5, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
        assert stroke_count_C(d) == 0


class TestCloseness:
    """Closeness of pairs, as the lemma views read it off stroke components."""

    def test_transitive_closure(self):
        d = Diagram(5, [], [(1, 2), (2, 3)], [], [])
        assert _views(d)["z"].close(1, 3)

    def test_far_from_mixed_circles(self):
        d = Diagram(5, [(2, 3)], [(1, 4)], [2, 3], [1, 4])
        z = _views(d)["z"]
        assert z.far(1, 2)
        assert not z.close(2, 3) and not z.far(2, 3)

    def test_inconsistent_pair_detected(self):
        # mutual stroke {1,2}, 1 z-circled, 2 not: close by stroke, far by status
        d = Diagram(5, [(1, 2)], [(1, 2)], [1], [1, 2])
        z = _views(d)["z"]
        assert not z.close(1, 2) and not z.far(1, 2)
        assert [f for f in validate(d).failures if f.startswith("R2")] == [
            "R2: pair (1, 2) both z-close and z-far"
        ]

    def test_monotone_in_strokes(self):
        rng = random.Random(1)
        for _ in range(30):
            d = random_diagram(rng)
            extra = (1, 2) if (1, 2) not in d.w_strokes else (1, 3)
            bigger = Diagram(
                d.n, d.z_strokes, list(d.w_strokes) + [extra], d.z_circles, d.w_circles
            )
            small, big = _views(d)["z"], _views(bigger)["z"]
            for j, k in itertools.combinations(range(1, d.n + 1), 2):
                assert big.close(j, k) or not small.close(j, k)


class TestValidate:
    def test_roberts_is_valid(self):
        assert validate(ROBERTS).valid

    def test_bare_single_stroke(self):
        report = validate(Diagram(5, [(1, 2)], [], [], []))
        assert "R1a: bare end 1 of z-stroke 12" in report.failures
        assert "R1c: no w-stroke" in report.failures
        assert not report.valid

    def test_lone_circle_in_component(self):
        d = Diagram(5, K(1, 2, 3), K(1, 2, 3), [1], [])
        assert "R4: lone z-circle in component [1, 2, 3]" in validate(d).failures

    def test_non_clique_component(self):
        d = Diagram(5, [(1, 2), (2, 3)], [(1, 2)], [1, 2, 3], [1, 2])
        assert "R6: z-component [1, 2, 3] is not a clique" in validate(d).failures

    def test_isolated_circle(self):
        d = Diagram(5, [(1, 2)], [(1, 2)], [1, 2, 5], [1, 2])
        assert "R1b: isolated z-circle at 5" in validate(d).failures

    def test_catalog_diagram_valid(self):
        d = Diagram(5, K(1, 2, 3) + [(4, 5)], K(1, 2, 3), [4, 5], [])
        assert validate(d).valid


# sha256 of the JSON of `validate(d).failures`, one array per diagram, over
# `rule_pin_diagrams()`; recorded while R2 still came from close and far pair sets.
RULE_FAILURES_SHA256 = "d82b6185bafe2277d6eec7fcde7d91365ca13d060cdc89cf1d056cc6ae818ad1"


def rule_pin_diagrams():
    """500 seeded random diagrams at each of n=2..8; all are invalid, and
    every rule fails somewhere among them."""
    for n in range(2, 9):
        rng = random.Random(n)
        for _ in range(500):
            yield random_diagram(rng, n)


def test_rule_failures_match_the_recorded_hash():
    """Pins every failure message and its order."""
    h = hashlib.sha256()
    for d in rule_pin_diagrams():
        h.update(json.dumps(validate(d).failures).encode())
    assert h.hexdigest() == RULE_FAILURES_SHA256


def r2_reference(d):
    """R2 messages from pair sets: close pairs share a component of the
    other color's strokes, far pairs differ in this color's circle status."""
    out = []
    for color, other in (("z", "w"), ("w", "z")):
        close = set()
        for comp in components(d.strokes(other), d.n):
            close.update(itertools.combinations(sorted(comp), 2))
        circ = d.circles(color)
        far = {
            (j, k)
            for j, k in itertools.combinations(range(1, d.n + 1), 2)
            if (j in circ) != (k in circ)
        }
        out += [f"R2: pair {p} both {color}-close and {color}-far" for p in sorted(close & far)]
    return out


def test_r2_matches_the_close_and_far_reference():
    for d in rule_pin_diagrams():
        assert [f for f in validate(d).failures if f.startswith("R2")] == r2_reference(d), d


class TestCanonical:
    def test_relabel_invariance(self):
        cycle = {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}
        assert canonical_key(relabeled(ROBERTS, cycle)) == canonical_key(ROBERTS)

    def test_color_swap(self):
        a = Diagram(5, [(1, 2)], [], [1, 2], [])
        b = Diagram(5, [], [(1, 2)], [], [1, 2])
        assert canonical_key(a) == canonical_key(b)

    def test_key_equality_matches_orbit_equality(self):
        rng = random.Random(2)
        diagrams = [random_diagram(rng, 4) for _ in range(100)]

        def orbit(d):
            out = set()
            for perm in itertools.permutations(range(1, d.n + 1)):
                mapping = {i + 1: perm[i] for i in range(d.n)}
                for variant in (relabeled(d, mapping), color_swapped(relabeled(d, mapping))):
                    out.add(json.dumps(variant.to_json(), sort_keys=True))
            return frozenset(out)

        orbits = [orbit(d) for d in diagrams]
        keys = [canonical_key(d) for d in diagrams]
        for i in range(len(diagrams)):
            for j in range(i + 1, len(diagrams)):
                assert (keys[i] == keys[j]) == (orbits[i] == orbits[j])

    def test_orbit_masks_match_relabeled_diagrams(self):
        rng = random.Random(5)
        for n, count in {3: 50, 4: 50, 5: 50, 6: 50, 7: 2, 8: 2}.items():
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            index = {p: i for i, p in enumerate(pairs)}
            # per relabeling v -> perm[v-1]: the image bit of each pair and vertex
            maps = [
                (
                    [1 << index[tuple(sorted((perm[a - 1], perm[b - 1])))] for a, b in pairs],
                    [1 << (v - 1) for v in perm],
                )
                for perm in itertools.permutations(range(1, n + 1))
            ]
            for _ in range(count):
                d = random_diagram(rng, n)
                masks = _masks(d)
                bits = [[i for i in range(len(pairs)) if m >> i & 1] for m in masks]
                expected = set()
                for pair_bit, vert_bit in maps:
                    zm, wm = (sum(pair_bit[i] for i in b) for b in bits[:2])
                    zc, wc = (sum(vert_bit[i] for i in b) for b in bits[2:])
                    expected |= {(zm, wm, zc, wc), (wm, zm, wc, zc)}
                assert orbit_masks(n, *masks) == expected, d

    @pytest.mark.parametrize("n", range(2, 9))
    def test_adjacent_swaps_visit_every_order_once(self, n):
        swaps = _sjt_swaps(n)
        assert len(swaps) == math.factorial(n) - 1
        order = list(range(n))
        visited = {tuple(order)}
        for j in swaps:
            order[j], order[j + 1] = order[j + 1], order[j]
            visited.add(tuple(order))
        assert len(visited) == math.factorial(n)

    def test_canonical_form_is_in_orbit_and_fixed(self):
        rng = random.Random(3)
        for _ in range(30):
            d = random_diagram(rng)
            rep = canonical_form(d)
            assert canonical_key(rep) == canonical_key(d)
            assert canonical_form(rep) == rep

    def test_validate_and_c_number_invariant(self):
        rng = random.Random(4)
        for _ in range(60):
            d = random_diagram(rng)
            perm = list(range(1, 6))
            rng.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(5)}
            for variant in (relabeled(d, mapping), color_swapped(d)):
                assert validate(variant).valid == validate(d).valid
                assert stroke_count_C(variant) == stroke_count_C(d)


class TestComponents:
    def test_singletons_included(self):
        comps = components(frozenset([(1, 2)]), 5)
        assert frozenset([1, 2]) in comps
        assert frozenset([5]) in comps
        assert len(comps) == 4


def test_canonicalization_bounded_to_eight_vertices(monkeypatch):
    big = Diagram(9, [(1, 2)], [(3, 4)], [1, 2], [3, 4])
    with pytest.raises(ValueError):
        canonical_key(big)

    def unreachable(n):
        raise AssertionError(f"a table was built for n={n}")

    # the orbit itself refuses, before building any table
    monkeypatch.setattr(diagram, "_walk", unreachable)
    monkeypatch.setattr(diagram, "_pair_index", unreachable)
    for fn in (orbit_masks, canonical_masks):
        with pytest.raises(ValueError, match="n <= 8"):
            fn(9, 1, 2, 3, 3)


def test_canonical_key_at_seven_and_eight_vertices():
    # the largest n canonical_key supports, beyond enumerate's 3..6
    for d in (
        Diagram(7, [(1, 2), (5, 6)], [(3, 4), (6, 7)], [1, 2, 6], [3, 4]),
        Diagram(8, [(1, 2), (7, 8)], [(3, 4), (2, 5)], [1, 2], [3, 4, 8]),
    ):
        shift = {v: v % d.n + 1 for v in range(1, d.n + 1)}
        key = canonical_key(d)
        assert canonical_key(relabeled(d, shift)) == key
        assert canonical_key(color_swapped(d)) == key
        rep = canonical_form(d)
        assert canonical_key(rep) == key
        assert canonical_form(rep) == rep
