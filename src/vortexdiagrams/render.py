"""DOT, SVG and TikZ drawings of a diagram, which need no exact algebra."""

from __future__ import annotations

import math

from .diagram import Diagram

_Z_COLOR = "#cc0000"
_W_COLOR = "#0000cc"


def _positions(n: int, radius: float = 1.0):
    pts = []
    for k in range(n):
        angle = 2 * math.pi * k / n
        pts.append((radius * math.cos(angle), radius * math.sin(angle)))
    return pts


def render(d: Diagram, fmt: str = "svg") -> str:
    """Render a diagram with vertices at roots of unity, counterclockwise.

    Solid red for z, dashed blue for w; mutual strokes draw both, slightly
    offset.  Circles are rings around the vertex: solid for z, dashed for
    w.  Output is byte-stable.
    """
    if d.n > 8:
        raise ValueError("rendering supported for n <= 8")
    if fmt == "dot":
        return _render_dot(d)
    if fmt == "svg":
        return _render_svg(d)
    if fmt == "tikz":
        return _render_tikz(d)
    raise ValueError(f"unsupported format {fmt!r}")


def _edge_lines(d: Diagram):
    """(pair, color, offset) triples in deterministic order."""
    out = []
    for p in sorted(d.z_strokes | d.w_strokes):
        both = p in d.z_strokes and p in d.w_strokes
        if p in d.z_strokes:
            out.append((p, "z", 0.035 if both else 0.0))
        if p in d.w_strokes:
            out.append((p, "w", -0.035 if both else 0.0))
    return out


def _render_dot(d: Diagram) -> str:
    pts = _positions(d.n, 1.5)
    lines = [
        "graph diagram {",
        "  layout=neato;",
        '  node [shape=point width=0.08 color="black"];',
    ]
    for v in range(1, d.n + 1):
        x, y = pts[v - 1]
        ring = []
        if v in d.z_circles:
            ring.append(f'zring{v} [shape=circle label="" width=0.30 color="{_Z_COLOR}" style=solid pos="{x:.4f},{y:.4f}!"]')
        if v in d.w_circles:
            ring.append(f'wring{v} [shape=circle label="" width=0.42 color="{_W_COLOR}" style=dashed pos="{x:.4f},{y:.4f}!"]')
        lines.append(f'  v{v} [pos="{x:.4f},{y:.4f}!" xlabel="{v}"];')
        for r in ring:
            lines.append("  " + r + ";")
    for (a, b), color, _off in _edge_lines(d):
        if color == "z":
            lines.append(f'  v{a} -- v{b} [color="{_Z_COLOR}" style=solid];')
        else:
            lines.append(f'  v{a} -- v{b} [color="{_W_COLOR}" style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_svg(d: Diagram) -> str:
    size = 360
    scale = 120.0
    cx = cy = size / 2

    def sx(x):
        return cx + scale * x

    def sy(y):
        return cy - scale * y

    pts = _positions(d.n)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for (a, b), color, off in _edge_lines(d):
        x1, y1 = pts[a - 1]
        x2, y2 = pts[b - 1]
        dx, dy = x2 - x1, y2 - y1
        norm = math.hypot(dx, dy) or 1.0
        ox, oy = -dy / norm * off, dx / norm * off
        stroke = _Z_COLOR if color == "z" else _W_COLOR
        dash = "" if color == "z" else ' stroke-dasharray="7,4"'
        parts.append(
            f'<line x1="{sx(x1+ox):.2f}" y1="{sy(y1+oy):.2f}" x2="{sx(x2+ox):.2f}" '
            f'y2="{sy(y2+oy):.2f}" stroke="{stroke}" stroke-width="2"{dash}/>'
        )
    for v in range(1, d.n + 1):
        x, y = pts[v - 1]
        if v in d.z_circles:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="14" fill="none" stroke="{_Z_COLOR}" stroke-width="2"/>'
            )
        if v in d.w_circles:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="20" fill="none" stroke="{_W_COLOR}" stroke-width="2" stroke-dasharray="5,3"/>'
            )
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="black"/>')
        lx, ly = sx(x * 1.28), sy(y * 1.28)
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-family="serif" font-size="16" '
            f'text-anchor="middle" dominant-baseline="middle">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_tikz(d: Diagram) -> str:
    pts = _positions(d.n, 2.0)
    lines = ["\\begin{tikzpicture}"]
    for (a, b), color, off in _edge_lines(d):
        x1, y1 = pts[a - 1]
        x2, y2 = pts[b - 1]
        dx, dy = x2 - x1, y2 - y1
        norm = math.hypot(dx, dy) or 1.0
        ox, oy = -dy / norm * off * 2, dx / norm * off * 2
        style = "red,thick" if color == "z" else "blue,thick,dashed"
        lines.append(
            f"  \\draw[{style}] ({x1+ox:.4f},{y1+oy:.4f}) -- ({x2+ox:.4f},{y2+oy:.4f});"
        )
    for v in range(1, d.n + 1):
        x, y = pts[v - 1]
        lines.append(f"  \\fill ({x:.4f},{y:.4f}) circle (0.05);")
        lines.append(f"  \\node at ({x*1.25:.4f},{y*1.25:.4f}) {{{v}}};")
        if v in d.z_circles:
            lines.append(f"  \\draw[red,thick] ({x:.4f},{y:.4f}) circle (0.22);")
        if v in d.w_circles:
            lines.append(f"  \\draw[blue,thick,dashed] ({x:.4f},{y:.4f}) circle (0.32);")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
