"""Seeded random valid diagrams at any n, for the tests of the `check`
path beyond the exhaustive scan's n <= 6.  Written apart from the
package's scan, so that it checks `judge` on diagrams the scan never made.
"""

import itertools
import random

from vortexdiagrams.diagram import Diagram, validate


def _random_color(rng: random.Random, n: int) -> tuple:
    """Strokes and circles of one color: a random set partition of 1..n,
    every pair inside a block stroked (R6), both ends of a two-vertex
    block circled (R1a), and of a larger block none or at least two
    vertices circled (R4)."""
    blocks: list = []
    for v in range(1, n + 1):
        k = rng.randrange(len(blocks) + 1)  # an existing block or a new one
        if k == len(blocks):
            blocks.append([])
        blocks[k].append(v)
    strokes, circles = [], []
    for block in blocks:
        strokes += itertools.combinations(block, 2)
        if len(block) == 2:
            circles += block
        elif len(block) > 2:
            circles += rng.sample(block, rng.choice([0, *range(2, len(block) + 1)]))
    return strokes, circles


def random_valid_diagrams(n: int, count: int, seed: int) -> list:
    """`count` diagrams on n vertices drawn from ``random.Random(seed)``,
    each kept only when `validate` passes (R1c and R2 are left to it)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        (zs, zc), (ws, wc) = _random_color(rng, n), _random_color(rng, n)
        d = Diagram(n, zs, ws, zc, wc)
        if validate(d).valid:
            out.append(d)
    return out
