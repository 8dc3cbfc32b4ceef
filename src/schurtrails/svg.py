"""Deterministic SVG pictures of two-coloured graphs and changing trails.

Lattice point (x, y) maps to canvas (x*UNIT, (n_vars - y)*UNIT): the
figures read bottom-up, SVG reads top-down.  Green paths are solid,
blue paths dotted, selected trails sit underneath with a wide
highlight, and Q-sequence terminals are drawn as filled (black) or
open (white) circles.  Element order and formatting are fixed so equal
inputs give byte-identical documents.
"""

from __future__ import annotations

from .trails import BLACK, terminal_points

UNIT = 40
GRID_STROKE = "#d8d8d8"
GREEN_STROKE = "#2e7d32"
BLUE_STROKE = "#2155a3"
TRAIL_STROKE = "#f0941f"

#: Most grid lines render_svg draws, one per column and one per row of the
#: picture's bounding box; a larger box is refused before anything is drawn.
#: Whole render calls, three each (2-vCPU VM, CPython 3.11.7), an empty
#: picture taking 0.22 s: 40,002 lines (blue (0,1):E with green
#: (20000,20000):E at N = 20000) gave 3.6 MB in 0.26-0.45 s, 100,002 lines
#: 8.7 MB in 0.42-0.69 s and 200,002 lines 17.5 MB in 0.88-1.11 s.
MAX_GRID_LINES = 100_000


def _xy(point, n_vars):
    x, y = point
    return x * UNIT, (n_vars - y) * UNIT


def _polyline(points, n_vars, style) -> str:
    coords = " ".join("%d,%d" % _xy(p, n_vars) for p in points)
    return '<polyline fill="none" points="%s" %s/>' % (coords, style)


def render_svg(graph, trails=(), n_vars=None) -> str:
    """Render the graph, with the given changing trails overlaid.

    Raises ValueError when n_vars < 1 or the bounding box needs more than MAX_GRID_LINES grid lines.
    """
    if n_vars is not None and n_vars < 1:
        raise ValueError("alphabet bound must be >= 1")
    vertices = sorted(graph.vertices)
    ys = [v[1] for v in vertices]
    if n_vars is None:
        n_vars = max(ys) if ys else 2
    if vertices:
        x_lo, x_hi = min(v[0] for v in vertices), max(v[0] for v in vertices)
        y_lo, y_hi = min(min(ys), 1), max(max(ys), n_vars)
    else:
        x_lo, x_hi, y_lo, y_hi = -2, 2, 1, max(n_vars, 2)
    lines = (x_hi - x_lo + 1) + (y_hi - y_lo + 1)
    if lines > MAX_GRID_LINES:
        raise ValueError("the picture needs %d grid lines, more than MAX_GRID_LINES = %d" % (lines, MAX_GRID_LINES))

    parts = []
    for x in range(x_lo, x_hi + 1):
        parts.append(
            _polyline(((x, y_lo), (x, y_hi)), n_vars, 'stroke="%s" stroke-width="1"' % GRID_STROKE)
        )
    for y in range(y_lo, y_hi + 1):
        parts.append(
            _polyline(((x_lo, y), (x_hi, y)), n_vars, 'stroke="%s" stroke-width="1"' % GRID_STROKE)
        )
    for trail in trails:
        parts.append(
            _polyline(
                trail.visited_vertices(),
                n_vars,
                'stroke="%s" stroke-width="9" stroke-opacity="0.5" stroke-linejoin="round"' % TRAIL_STROKE,
            )
        )
    for path in graph.green:
        parts.append(
            _polyline(path.vertices(), n_vars, 'stroke="%s" stroke-width="3"' % GREEN_STROKE)
        )
    for path in graph.blue:
        parts.append(
            _polyline(
                path.vertices(),
                n_vars,
                'stroke="%s" stroke-width="3" stroke-dasharray="2 6" stroke-linecap="round"' % BLUE_STROKE,
            )
        )
    for q in terminal_points(graph):
        cx, cy = _xy(q.location, n_vars)
        if q.matching_colour == BLACK:
            fill = '<circle cx="%d" cy="%d" r="6" fill="#111111"/>'
            parts.append(fill % (cx, cy))
        else:
            parts.append(
                '<circle cx="%d" cy="%d" r="6" fill="#ffffff" stroke="#111111" stroke-width="2"/>' % (cx, cy)
            )

    pad = UNIT // 2
    min_x, _ = _xy((x_lo, y_lo), n_vars)
    max_x, _ = _xy((x_hi, y_lo), n_vars)
    _, min_y = _xy((x_lo, y_hi), n_vars)
    _, max_y = _xy((x_lo, y_lo), n_vars)
    view = (min_x - pad, min_y - pad, (max_x - min_x) + 2 * pad, (max_y - min_y) + 2 * pad)
    head = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%d %d %d %d">' % view
    return "\n".join([head] + parts + ["</svg>"]) + "\n"
