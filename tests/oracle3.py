"""Independent brute-force oracle for the three-vertex enumeration.

Deliberately shares no code with the package pipeline: own representation,
own validity rules, own closeness and constraint reasoning over a literal
witness grid, own orbit handling.  Only the final key comparison uses the
package's canonical form.
"""

import itertools
from fractions import Fraction

from vortexdiagrams.diagram import Diagram, canonical_key

_PAIRS3 = ((1, 2), (1, 3), (2, 3))


def _oracle_adj(mask):
    adj = {1: set(), 2: set(), 3: set()}
    for bit, (a, b) in enumerate(_PAIRS3):
        if mask >> bit & 1:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _oracle_components(mask):
    adj = _oracle_adj(mask)
    seen, comps = set(), []
    for v in (1, 2, 3):
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adj[u] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def _oracle_valid(zm, wm, zc, wc):
    for mask, circ in ((zm, zc), (wm, wc)):
        if mask == 0:
            return False  # a stroke of each color must exist
        adj = _oracle_adj(mask)
        for bit, (a, b) in enumerate(_PAIRS3):
            if mask >> bit & 1:
                for v in (a, b):
                    if len(adj[v]) < 2 and v not in circ:
                        return False  # bare stroke end
        for v in circ:
            if not adj[v]:
                return False  # circle without a stroke
        for comp in _oracle_components(mask):
            if len(comp) >= 2:
                for a, b in itertools.combinations(sorted(comp), 2):
                    if not (mask >> _PAIRS3.index((a, b)) & 1):
                        return False  # component must be a clique
            if len(comp & circ) == 1:
                return False  # lone circle in a component
    # closeness consistency: same-status on opposite-color components
    for mask, circ in ((wm, zc), (zm, wc)):
        for comp in _oracle_components(mask):
            if len(comp) >= 2 and len(comp & circ) not in (0, len(comp)):
                return False
    return True


_GRID = [Fraction(v) for v in (1, -1, 2, -2, 3, -3)] + [
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(-1, 3),
]


def _oracle_excluded(zm, wm, zc, wc):
    """Directly coded exclusion logic for three vertices."""
    close = {}
    for color, mask in (("z", wm), ("w", zm)):
        close[color] = set()
        for comp in _oracle_components(mask):
            if len(comp) >= 2:
                close[color].update(itertools.combinations(sorted(comp), 2))
    circ = {"z": zc, "w": wc}
    strokes = {"z": zm, "w": wm}
    equalities = []  # each: ("sum", S) or ("mom", S) meaning sum/momentum of S is 0
    nonzeros = []  # each: ("sum", S)
    for color in ("z", "w"):
        far = lambda a, b, c=color: (a in circ[c]) != (b in circ[c])
        for comp in _oracle_components(strokes[color]):
            circled = sorted(comp & circ[color])
            if len(circled) >= 2 and all(
                (a, b) in close[color] for a, b in itertools.combinations(circled, 2)
            ):
                equalities.append(("sum", tuple(circled)))
            if len(comp) >= 3 and not (comp & circ[color]):
                equalities.append(("mom", tuple(sorted(comp))))
        for a, b in itertools.combinations((1, 2, 3), 2):
            others = [v for v in (1, 2, 3) if v not in (a, b)]
            if (
                a in circ[color]
                and b in circ[color]
                and all(far(a, m) and far(b, m) for m in others)
            ):
                if (a, b) in close[color]:
                    nonzeros.append(("sum", (a, b)))  # the close-pair obstruction
                if strokes[color] >> _PAIRS3.index((a, b)) & 1:
                    nonzeros.append(("sum", (a, b)))  # the maximal-stroke corollary
        # circled close triangle, isolated, nothing outside to be near
        comp = frozenset((1, 2, 3))
        if (
            strokes[color] == 0b111
            and comp <= circ[color]
            and all(p in close[color] for p in itertools.combinations((1, 2, 3), 2))
        ):
            return True
    # bicircled mutual-stroke triangle with nothing outside
    if zm == wm == 0b111 and zc == wc == frozenset((1, 2, 3)):
        return True
    # equality/disequality clash, then a grid search for a witness
    if set(nonzeros) & {("sum", s) for kind, s in equalities if kind == "sum"}:
        return True

    def value(kind, S, point):
        if kind == "sum":
            return sum(point[v] for v in S)
        return sum(point[a] * point[b] for a, b in itertools.combinations(S, 2))

    for point3 in itertools.product(_GRID, repeat=3):
        point = {1: point3[0], 2: point3[1], 3: point3[2]}
        if all(value(k, S, point) == 0 for k, S in equalities) and all(
            value(k, S, point) != 0 for k, S in nonzeros
        ):
            return False
    return True


def oracle_enumerate3():
    survivors = set()
    for zm in range(8):
        for wm in range(8):
            for zc_bits in range(8):
                for wc_bits in range(8):
                    zc = frozenset(v for v in (1, 2, 3) if zc_bits >> (v - 1) & 1)
                    wc = frozenset(v for v in (1, 2, 3) if wc_bits >> (v - 1) & 1)
                    if not _oracle_valid(zm, wm, zc, wc):
                        continue
                    if _oracle_excluded(zm, wm, zc, wc):
                        continue
                    d = Diagram(
                        3,
                        [p for i, p in enumerate(_PAIRS3) if zm >> i & 1],
                        [p for i, p in enumerate(_PAIRS3) if wm >> i & 1],
                        zc,
                        wc,
                    )
                    survivors.add(canonical_key(d))
    return survivors


