"""Figure reproduction: labeled point sets and SVG rendering.

Each figure id maps to a fixed reference configuration and the named points
drawn for it.  build_figure computes a FigureData, numbers only, and two
renderers format it: a JSON document with full-precision coordinates, or a
standalone SVG (1 unit = 100 px, y up, in the box of the points and the unit
circle padded by 0.3 units).
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from itertools import chain, starmap

from .euclid import GenCircle, format_complex, line_intersection
from .hyperbolic import (
    chord_vs_geodesic_midpoint,
    conjecture_points,
    hyperbolic_line,
    midpoint_via_inversion,
)
from .spherical import great_circle_projection
from .configurations import DiskConfig, build_config, family_points

FIGURE_IDS = (1, 2, 3, 5, 6)


@dataclass
class FigureData:
    """Computed content of one figure: numbers only, which figure_json and
    figure_svg format.  parameters are the inputs the figure was built from."""

    figure_id: int
    parameters: dict[str, complex]
    points: dict[str, complex]
    segments: list[tuple[complex, complex]] = field(default_factory=list)
    circles: list[tuple[GenCircle, str]] = field(default_factory=list)   # (circle, style)


def _config_figure(fig_id: int, a: complex, b: complex,
                   names: tuple[str, ...]) -> FigureData:
    points, _, _ = family_points(a, b)        # which leaves out a degenerate point
    chosen = {"a": a, "b": b}
    for n in names:
        if n in points:
            chosen[n] = points[n]
    return FigureData(fig_id, {"a": a, "b": b}, chosen)


def figure_1() -> FigureData:
    a, b = 0.5 + 0j, 0.7 * cmath.exp(1j)
    fig = _config_figure(1, a, b, ("k", "s", "t", "u", "v", "m",
                                   "a_star", "b_star", "a_end", "b_end"))
    p = fig.points
    fig.segments = [
        (p["k"], p["a_star"]), (p["k"], p["b_star"]),
        (p["a"], p["b_end"]), (p["b"], p["a_end"]),
        (p["b_star"], p["a_end"]), (p["b_end"], p["a_star"]),
        (p["a"], p["b_star"]), (p["b"], p["a_star"]),
        (p["v"], p["a_end"]), (p["v"], p["b_end"]),
    ]
    fig.circles = [(hyperbolic_line(a, b), "dashed")]
    return fig


def figure_2() -> FigureData:
    a, b = 0.5 + 0j, 0.6 * cmath.exp(1j)
    fig = _config_figure(2, a, b, ("k_c", "s_c", "t_c", "u_c", "v_c",
                                   "a_star", "b_star", "a_end", "b_end"))
    fig.circles = _great_circles(_chord_pairs(a, b, fig.points, slice(5)))
    return fig


def figure_3() -> FigureData:
    a, b = 0.5 + 0j, 0.6 * cmath.exp(1j)
    fig = _config_figure(3, a, b, ("p", "q", "p_c", "q_c",
                                   "a_star", "b_star", "a_end", "b_end"))
    fig.segments = _chord_pairs(a, b, fig.points, slice(5, 7))
    fig.circles = [(hyperbolic_line(a, b), "dashed"), *_great_circles(fig.segments)]
    return fig


def figure_5() -> FigureData:
    a = 0.5 * cmath.exp(0.6j)
    b = 0.7 * cmath.exp(6j)
    cfg = build_config(a, b)
    c = line_intersection(a, b, cfg.a_end, cfg.b_end)
    m = midpoint_via_inversion(a, b)
    fig = FigureData(5, {"a": a, "b": b},
                     {"a": a, "b": b, "a_end": cfg.a_end, "b_end": cfg.b_end,
                      "c": c, "m": m})
    fig.segments = [(c, a), (c, cfg.a_end)]
    fig.circles = [(hyperbolic_line(a, b), "solid"),
                   (GenCircle(1.0, -c, 1.0), "solid")]
    return fig


def figure_6() -> FigureData:
    a, b = cmath.exp(-0.1j), cmath.exp(0.5j)
    c, d = cmath.exp(1.5j), cmath.exp(3.3j)
    h = b + 0.447 * (c - b)
    g, j, k, l = conjecture_points(a, b, c, d, h)
    f, m = chord_vs_geodesic_midpoint(a, b, c, d)
    inputs = {"a": a, "b": b, "c": c, "d": d, "h": h}
    fig = FigureData(6, inputs, {**inputs, "g": g, "j": j, "k": k, "l": l, "f": f, "m": m})
    fig.segments = [(g, a), (g, d), (g, l), (a, b), (a, c), (a, d),
                    (b, c), (b, d)]
    fig.circles = [(GenCircle.through(x, y, +1), "solid")
                   for x, y in ((a, c), (b, d))]
    return fig


def _chord_pairs(a: complex, b: complex, p: dict[str, complex],
                 chords: slice) -> list[tuple[complex, complex]]:
    """The chords DiskConfig.chords()[chords] of a figure's a, b and its
    a_star, b_star, a_end and b_end, as point pairs p1p2 and p3p4."""
    # tuple.__new__ skips the generated __new__'s frame, as NamedTuple._make does
    cfg = tuple.__new__(DiskConfig, (a, b, p["a_star"], p["b_star"], p["a_end"], p["b_end"]))
    pairs = []
    for p1, p2, p3, p4 in cfg.chords()[chords]:
        pairs += (p1, p2), (p3, p4)
    return pairs


def _great_circles(pairs: list[tuple[complex, complex]]
                   ) -> list[tuple[GenCircle, str]]:
    """Dotted projected great circles through each pair; lines are not drawn."""
    return [(g, "dotted") for g in starmap(great_circle_projection, pairs) if g.A]


_BUILDERS = {1: figure_1, 2: figure_2, 3: figure_3, 5: figure_5, 6: figure_6}


def build_figure(fig_id: int) -> FigureData:
    if fig_id not in _BUILDERS:
        raise ValueError(f"unknown figure id {fig_id}; valid ids: {FIGURE_IDS}")
    return _BUILDERS[fig_id]()


def figure_json(fig: FigureData) -> str:
    doc = {
        "figure": fig.figure_id,
        "parameters": {name: format_complex(z) for name, z in fig.parameters.items()},
        "points": {name: [z.real, z.imag] for name, z in fig.points.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


_SCALE = 100.0   # px per unit
_PAD = 0.3       # units of margin around the points and the unit circle

# figure_svg's fragments: each element is one fragment with %-fields, and a
# document is their concatenation, filled by one % over a flat tuple
_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
         'viewBox="0 0 %.2f %.2f">\n'
         '<g fill="none" stroke="black" stroke-width="1">\n'
         f'<circle cx="%.2f" cy="%.2f" r="{_SCALE:.2f}" stroke-width="1.5"/>')
_CIRCLE = {style: f'\n<circle cx="%.2f" cy="%.2f" r="%.2f"{dash}/>' for style, dash in
           (("solid", ""), ("dashed", ' stroke-dasharray="6 4"'),
            ("dotted", ' stroke-dasharray="2 3"'))}
_LINE = '\n<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>'
_POINT = ('\n<circle cx="%.2f" cy="%.2f" r="2" fill="black"/>'
          '\n<text x="%.2f" y="%.2f" font-size="11" fill="black">%s (%.4f, %.4f)</text>')


def figure_svg(fig: FigureData) -> str:
    """Standalone SVG: unit circle, figure curves, segments, labeled points.

    1 unit is _SCALE px, y up, and the box holds the points and the unit
    circle with _PAD units to spare.  Each point is a dot and a label with
    its coordinates to 4 decimals.  A curve of another style than solid,
    dashed or dotted is drawn solid; a line in fig.circles raises
    DegenerateInput.  The document is one template of the fragments above,
    filled by one % over a flat tuple of the values.
    """
    xs = [z.real for z in fig.points.values()]
    ys = [z.imag for z in fig.points.values()]
    x0, x1 = min(*xs, -1.0, 1.0) - _PAD, max(*xs, -1.0, 1.0) + _PAD
    y0, y1 = min(*ys, -1.0, 1.0) - _PAD, max(*ys, -1.0, 1.0) + _PAD
    width, height = (x1 - x0) * _SCALE, (y1 - y0) * _SCALE
    template = [_HEAD]
    values = [width, height, width, height, -x0 * _SCALE, y1 * _SCALE]   # px of 0
    for circle, style in fig.circles:
        c = circle.center
        values += (c.real - x0) * _SCALE, (y1 - c.imag) * _SCALE, circle.radius * _SCALE
        template.append(_CIRCLE.get(style, _CIRCLE["solid"]))
    for p, q in fig.segments:
        values += ((p.real - x0) * _SCALE, (y1 - p.imag) * _SCALE,
                   (q.real - x0) * _SCALE, (y1 - q.imag) * _SCALE)
    template += _LINE * len(fig.segments), "\n</g>", _POINT * len(xs), "\n</svg>"
    zx = [(x - x0) * _SCALE for x in xs]
    zy = [(y1 - y) * _SCALE for y in ys]
    values += chain.from_iterable(zip(zx, zy, [x + 4 for x in zx], [y - 4 for y in zy],
                                      fig.points, xs, ys))
    return "".join(template) % tuple(values)
