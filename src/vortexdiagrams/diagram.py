"""Two-colored diagrams on labeled vertices and their combinatorial rules.

A diagram is two stroke graphs (z and w) plus two circle sets on n labeled
vertices, 1-based to mirror the usual figures.  This module derives
connected components and the C-number (maximal stroke count at a
bicolored vertex), validates the structural rules, and canonicalizes up
to vertex relabeling and the z/w color swap.

Canonicalization packs a diagram into four bitmasks and takes the least
image in its orbit.  `orbit_masks` reaches all n! relabelings by adjacent
vertex swaps in Steinhaus-Johnson-Trotter order (Johnson, Math. Comp. 17,
1963; Trotter, CACM 5, 1962), so each step applies one of n-1 small
tables to the previous image; it serves every n <= 8.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple


def _normalize_pairs(pairs, n: int) -> frozenset:
    out = set()
    for p in pairs:
        a, b = p
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"vertex pair {p} outside 1..{n}")
        out.add((min(a, b), max(a, b)))
    return frozenset(out)


def _is_ints(values) -> bool:
    """A JSON array of integers (booleans excluded)."""
    return isinstance(values, list) and all(type(v) is int for v in values)


# The package's records are `NamedTuple`s, not dataclasses: importing
# `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, and each
# decorated class generates and compiles its methods at import.  That was
# about 20 ms of a cold `enumerate --n 5` (Python 3.11, 2-core host, no
# bytecode cache), which no output needs.  A record whose constructor
# normalizes its input, such as `Diagram`, subclasses its `NamedTuple` of
# fields and overrides `__new__`; it is still immutable, and compared and
# hashed as the tuple of its fields.


class _DiagramFields(NamedTuple):
    n: int
    z_strokes: frozenset
    w_strokes: frozenset
    z_circles: frozenset
    w_circles: frozenset


class Diagram(_DiagramFields):
    """Stroke pairs and circled vertices of both colors on vertices 1..n."""

    __slots__ = ()

    def __new__(cls, n, z_strokes=(), w_strokes=(), z_circles=(), w_circles=()):
        z_strokes, w_strokes = _normalize_pairs(z_strokes, n), _normalize_pairs(w_strokes, n)
        for v in itertools.chain(z_circles, w_circles):
            if not 1 <= v <= n:
                raise ValueError(f"circled vertex {v} outside 1..{n}")
        return super().__new__(
            cls, n, z_strokes, w_strokes, frozenset(z_circles), frozenset(w_circles)
        )

    # -- per-color access ------------------------------------------------

    def strokes(self, color: str) -> frozenset:
        return self.z_strokes if color == "z" else self.w_strokes

    def circles(self, color: str) -> frozenset:
        return self.z_circles if color == "z" else self.w_circles

    def degree(self, color: str, v: int) -> int:
        return sum(1 for p in self.strokes(color) if v in p)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "z_strokes": [list(p) for p in sorted(self.z_strokes)],
            "w_strokes": [list(p) for p in sorted(self.w_strokes)],
            "z_circles": sorted(self.z_circles),
            "w_circles": sorted(self.w_circles),
        }

    @classmethod
    def from_json(cls, data) -> "Diagram":
        """Inverse of `to_json`; raises ValueError on JSON of the wrong shape."""
        if not isinstance(data, dict) or type(data.get("n")) is not int or data["n"] < 0:
            raise ValueError("a diagram must be a JSON object with a vertex count 'n' >= 0")
        strokes = [data.get(k, []) for k in ("z_strokes", "w_strokes")]
        circles = [data.get(k, []) for k in ("z_circles", "w_circles")]
        if not all(
            isinstance(s, list) and all(_is_ints(p) and len(p) == 2 for p in s) for s in strokes
        ) or not all(_is_ints(c) for c in circles):
            raise ValueError("strokes must be lists of integer pairs, circles lists of integers")
        return cls(data["n"], *([tuple(p) for p in s] for s in strokes), *circles)


def components(pairs, n: int) -> list[frozenset]:
    """Connected components of a stroke graph, singletons included."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def stroke_count_C(d: Diagram) -> int:
    """Maximal number of strokes at a bicolored vertex; 0 when none exists."""
    best = 0
    for v in range(1, d.n + 1):
        zd, wd = d.degree("z", v), d.degree("w", v)
        if zd and wd:
            best = max(best, zd + wd)
    return best


class RuleReport(NamedTuple):
    """The rule failures, each text tagged with its rule (R1a, R1b, R1c,
    R4, R6, R2); the diagram is valid when there are none."""

    failures: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.failures


def validate(d: Diagram) -> RuleReport:
    failures = []
    comps = {color: components(d.strokes(color), d.n) for color in ("z", "w")}
    for color in ("z", "w"):
        strokes = d.strokes(color)
        circ = d.circles(color)
        if not strokes:
            failures.append(f"R1c: no {color}-stroke")
        for a, b in sorted(strokes):
            for v in (a, b):
                if d.degree(color, v) < 2 and v not in circ:
                    failures.append(f"R1a: bare end {v} of {color}-stroke {a}{b}")
        for v in sorted(circ):
            if d.degree(color, v) == 0:
                failures.append(f"R1b: isolated {color}-circle at {v}")
        for comp in comps[color]:
            if any(p not in strokes for p in itertools.combinations(sorted(comp), 2)):
                failures.append(f"R6: {color}-component {sorted(comp)} is not a clique")
            if len(comp & circ) == 1:
                failures.append(f"R4: lone {color}-circle in component {sorted(comp)}")
    # R2: one component of the other color's strokes holds close vertices,
    # so they share their circle status in this color.
    for color, other in (("z", "w"), ("w", "z")):
        circ = d.circles(color)
        for pair in sorted(
            (j, k)
            for comp in comps[other]
            for j, k in itertools.combinations(sorted(comp), 2)
            if (j in circ) != (k in circ)
        ):
            failures.append(f"R2: pair {pair} both {color}-close and {color}-far")
    return RuleReport(tuple(failures))


# -- canonicalization ---------------------------------------------------
#
# Diagrams are counted up to vertex relabeling and the color transposition.
# Strokes and circles pack into bitmasks; the canonical form is the
# lexicographic minimum of (z, w, zc, wc) masks over all permutations and
# the swap.


@lru_cache(maxsize=8)
def _pair_index(n: int) -> dict:
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return {p: i for i, p in enumerate(pairs)}


def _masks(d: Diagram):
    index = _pair_index(d.n)
    zm = sum(1 << index[p] for p in d.z_strokes)
    wm = sum(1 << index[p] for p in d.w_strokes)
    zc = sum(1 << (v - 1) for v in d.z_circles)
    wc = sum(1 << (v - 1) for v in d.w_circles)
    return zm, wm, zc, wc


@lru_cache(maxsize=None)
def _sjt_swaps(n: int) -> tuple:
    """Positions j of the adjacent swaps (j, j+1) that walk all n! orders.

    Steinhaus-Johnson-Trotter: the largest element sweeps across each order
    of the others, alternating direction, and the others take one step of
    their own walk between sweeps; n! - 1 steps in all.
    """
    if n < 2:
        return ()
    sub = _sjt_swaps(n - 1)
    out = []
    for k in range(len(sub) + 1):
        leftward = k % 2 == 0
        out.extend(range(n - 2, -1, -1) if leftward else range(n - 1))
        if k < len(sub):
            out.append(sub[k] + leftward)  # the largest now sits left of the others
    return tuple(out)


@lru_cache(maxsize=None)
def _walk(n: int) -> tuple:
    """Per step of `_sjt_swaps(n)`: the action of swapping vertices j+1, j+2.

    A step is (kept pair bits, moved pair bits, dict from each subset of the
    moved bits to its image, tuple from each circle mask to its image).
    Only the 2(n-2) pairs with exactly one end in {j+1, j+2} move.
    """
    index = _pair_index(n)
    full = (1 << len(index)) - 1
    actions = []
    for j in range(n - 1):
        a, b = j + 1, j + 2
        swap = {a: b, b: a}
        image = {}
        for (u, v), i in index.items():
            if (u in swap) != (v in swap):
                u2, v2 = swap.get(u, u), swap.get(v, v)
                image[1 << i] = 1 << index[(min(u2, v2), max(u2, v2))]
        moved = sum(image)
        pairs = {0: 0}
        sub = moved & -moved
        while sub:  # the subsets of `moved`, in increasing order
            low = sub & -sub
            pairs[sub] = pairs[sub ^ low] | image[low]
            sub = (sub - moved) & moved
        verts = tuple(c ^ ((c >> j ^ c >> (j + 1)) & 1) * (3 << j) for c in range(1 << n))
        actions.append((full ^ moved, moved, pairs, verts))
    return tuple(actions[j] for j in _sjt_swaps(n))


def orbit_masks(n: int, zm: int, wm: int, zc: int, wc: int) -> set:
    """Every (z, w, zc, wc) image of the masks under relabeling and swap.

    Walks all n! relabelings by adjacent vertex swaps, each a few table
    lookups on the previous image.
    """
    if n > 8:
        raise ValueError("canonicalization supported for n <= 8")
    out = {(zm, wm, zc, wc), (wm, zm, wc, zc)}
    for keep, moved, pairs, verts in _walk(n):
        zm = zm & keep | pairs[zm & moved]
        wm = wm & keep | pairs[wm & moved]
        zc = verts[zc]
        wc = verts[wc]
        out.add((zm, wm, zc, wc))
        out.add((wm, zm, wc, zc))
    return out


def canonical_masks(n: int, zm: int, wm: int, zc: int, wc: int):
    """Lexicographically minimal (z, w, zc, wc) over relabeling and swap."""
    return min(orbit_masks(n, zm, wm, zc, wc))


def masks_key(n: int, masks) -> str:
    """The canonical key text of canonical masks."""
    zm, wm, zc, wc = masks
    return f"{n}:{zm:x}:{wm:x}:{zc:x}:{wc:x}"


def canonical_key(d: Diagram) -> str:
    """Key text, such as `5:14:22:f:f`, equal for two diagrams iff they
    agree up to relabeling and the z/w swap."""
    return masks_key(d.n, canonical_masks(d.n, *_masks(d)))


def from_canonical_masks(n: int, masks) -> Diagram:
    index = _pair_index(n)
    pairs = sorted(index, key=index.get)
    zm, wm, zc, wc = masks
    return Diagram(
        n,
        [pairs[i] for i in range(len(pairs)) if zm >> i & 1],
        [pairs[i] for i in range(len(pairs)) if wm >> i & 1],
        [v for v in range(1, n + 1) if zc >> (v - 1) & 1],
        [v for v in range(1, n + 1) if wc >> (v - 1) & 1],
    )
