"""The reference relabeling and color swap of a diagram for the equivariance
tests, written apart from the package's canonicalization that they check.
"""

from vortexdiagrams.diagram import Diagram


def relabeled(d: Diagram, mapping: dict) -> Diagram:
    """`d` with each vertex v renamed mapping[v]."""
    m = lambda p: (mapping[p[0]], mapping[p[1]])
    return Diagram(
        d.n,
        [m(p) for p in d.z_strokes],
        [m(p) for p in d.w_strokes],
        [mapping[v] for v in d.z_circles],
        [mapping[v] for v in d.w_circles],
    )


def color_swapped(d: Diagram) -> Diagram:
    """`d` with its z and w colors exchanged."""
    return Diagram(d.n, d.w_strokes, d.z_strokes, d.w_circles, d.z_circles)
