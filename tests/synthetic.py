"""Synthetic singular sequences for the probe tests, and their JSONL form.

`synthetic_sequence` builds an order-faithful sequence for a diagram, and
`to_jsonl` writes a sample in the format `SingularSequenceSample.from_jsonl`
and `vortexdiagrams probe` read.
"""

import cmath
import json
import math

from vortexdiagrams.diagram import Diagram, components, validate
from vortexdiagrams.numeric import SingularSequenceSample, make_configuration


def synthetic_sequence(d: Diagram, eps_list=None, gamma=None) -> SingularSequenceSample:
    """An order-faithful sequence realizing the stroke/circle pattern of `d`.

    Vertices in one component of the other color's strokes share a center
    and differ by order eps^2; circled components sit at order eps^-2,
    others at order one.  The
    construction is deterministic and keeps both max norms at exactly
    eps^-2.
    """
    if eps_list is None:
        eps_list = [2.0**-k for k in range(4, 13)]
    gamma = list(gamma) if gamma is not None else [1.0] * d.n
    report = validate(d)
    if not report.valid:
        raise ValueError(f"cannot realize an invalid diagram: {report.failures}")

    def build_vector(stroke_color: str, circle_color: str, eps: float):
        # Positions of the `circle_color` coordinate: classes are the
        # components of the opposite-color strokes.
        comps = components(d.strokes(stroke_color), d.n)
        values = [0j] * d.n
        circled_seen = 0
        plain_seen = 0
        for t, comp in enumerate(comps):
            members = sorted(comp)
            circled = members[0] in d.circles(circle_color)
            angle = cmath.exp(1j * (0.37 + 2 * math.pi * t / 9.0))
            if circled:
                center = (1.0 - 0.12 * circled_seen) * eps**-2 * angle
                circled_seen += 1
            else:
                center = (1.7 + 0.6 * plain_seen) * angle
                plain_seen += 1
            offset_dir = cmath.exp(1j * (1.1 + 2 * math.pi * t / 7.0))
            for rank, v in enumerate(members):
                values[v - 1] = center + rank * eps**2 * offset_dir
        return values

    points = []
    for eps in eps_list:
        z = build_vector("w", "z", eps)
        w = build_vector("z", "w", eps)
        points.append((eps, make_configuration(gamma, z, w)))
    return SingularSequenceSample(tuple(points))


def to_jsonl(sample: SingularSequenceSample) -> str:
    """One sorted-key JSON line per sample point."""
    pack = lambda xs: [[x.real, x.imag] for x in xs]
    lines = [
        json.dumps({"epsilon": eps, "gamma": list(c.gamma), "z": pack(c.z), "w": pack(c.w)}, sort_keys=True)
        for eps, c in sample.points
    ]
    return "\n".join(lines) + "\n"
