"""Figure reproduction: labeled point sets and SVG rendering.

Each figure id maps to a fixed reference configuration and the named points
drawn for it.  Output is either a JSON document with
full-precision coordinates or a standalone SVG (1 unit = 100 px, unit
circle centered).
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field

from .euclid import GenCircle, format_complex, line_intersection
from .hyperbolic import (
    chord_vs_geodesic_midpoint,
    conjecture_points,
    hyperbolic_line,
    midpoint_via_inversion,
)
from .spherical import great_circle_projection
from .configurations import build_config, family_report

FIGURE_IDS = (1, 2, 3, 5, 6)


@dataclass
class FigureData:
    """Computed content of one figure."""

    figure_id: int
    parameters: dict[str, str]
    points: dict[str, complex]
    segments: list[tuple[complex, complex]] = field(default_factory=list)
    circles: list[tuple[GenCircle, str]] = field(default_factory=list)   # (circle, style)


def _config_figure(fig_id: int, a: complex, b: complex,
                   names: tuple[str, ...]) -> FigureData:
    points, statuses, _ = family_report(a, b)
    chosen = {"a": a, "b": b}
    for n in names:
        if statuses.get(n) == "ok":
            chosen[n] = points[n]
    return FigureData(fig_id, {"a": format_complex(a), "b": format_complex(b)},
                      chosen)


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
    p = fig.points
    pairs = [(p["a_end"], p["a_star"]), (p["b_end"], p["b_star"]),
             (p["a"], p["b_end"]), (p["b"], p["a_end"]),
             (p["a_end"], p["b_star"]), (p["b_end"], p["a_star"]),
             (p["a"], p["b_star"]), (p["b"], p["a_star"]),
             (p["a"], p["a_end"]), (p["b"], p["b_end"])]
    fig.circles = _great_circles(pairs)
    return fig


def figure_3() -> FigureData:
    a, b = 0.5 + 0j, 0.6 * cmath.exp(1j)
    fig = _config_figure(3, a, b, ("p", "q", "p_c", "q_c",
                                   "a_star", "b_star", "a_end", "b_end"))
    p = fig.points
    fig.segments = [
        (p["a"], p["b_end"]), (p["a_star"], p["b"]),
        (p["a"], p["b_star"]), (p["a_star"], p["b_end"]),
    ]
    fig.circles = [(hyperbolic_line(a, b), "dashed")]
    fig.circles += _great_circles(fig.segments)
    return fig


def figure_5() -> FigureData:
    a = 0.5 * cmath.exp(0.6j)
    b = 0.7 * cmath.exp(6j)
    cfg = build_config(a, b)
    c = line_intersection(a, b, cfg.a_end, cfg.b_end)
    m = midpoint_via_inversion(a, b)
    fig = FigureData(5, {"a": format_complex(a), "b": format_complex(b)},
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
    fig = FigureData(6, {name: format_complex(z) for name, z in
                         zip("abcdh", (a, b, c, d, h))},
                     {"a": a, "b": b, "c": c, "d": d, "h": h,
                      "g": g, "j": j, "k": k, "l": l, "f": f, "m": m})
    fig.segments = [(g, a), (g, d), (g, l), (a, b), (a, c), (a, d),
                    (b, c), (b, d)]
    fig.circles = [(GenCircle.through(x, y, +1), "solid")
                   for x, y in ((a, c), (b, d))]
    return fig


def _great_circles(pairs: list[tuple[complex, complex]]
                   ) -> list[tuple[GenCircle, str]]:
    """Dotted projected great circles through each pair; lines are not drawn."""
    return [(g, "dotted") for g in (great_circle_projection(x, y) for x, y in pairs)
            if g.A]


_BUILDERS = {1: figure_1, 2: figure_2, 3: figure_3, 5: figure_5, 6: figure_6}


def build_figure(fig_id: int) -> FigureData:
    if fig_id not in _BUILDERS:
        raise ValueError(f"unknown figure id {fig_id}; valid ids: {FIGURE_IDS}")
    return _BUILDERS[fig_id]()


def figure_json(fig: FigureData) -> str:
    doc = {
        "figure": fig.figure_id,
        "parameters": fig.parameters,
        "points": {name: [z.real, z.imag] for name, z in fig.points.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


_SCALE = 100.0   # px per unit


def figure_svg(fig: FigureData) -> str:
    """Standalone SVG: unit circle, figure curves, labeled points."""
    xs = [z.real for z in fig.points.values()] + [-1.0, 1.0]
    ys = [z.imag for z in fig.points.values()] + [-1.0, 1.0]
    pad = 0.3
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    width, height = (x1 - x0) * _SCALE, (y1 - y0) * _SCALE

    def px(z: complex) -> tuple[float, float]:
        return (z.real - x0) * _SCALE, (y1 - z.imag) * _SCALE

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{width:.0f}" height="{height:.0f}" '
           f'viewBox="0 0 {width:.2f} {height:.2f}">',
           '<g fill="none" stroke="black" stroke-width="1">']
    cx, cy = px(0j)
    out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{_SCALE:.2f}" '
               'stroke-width="1.5"/>')
    dash = {"solid": "", "dashed": ' stroke-dasharray="6 4"',
            "dotted": ' stroke-dasharray="2 3"'}
    for circle, style in fig.circles:
        ccx, ccy = px(circle.center)
        out.append(f'<circle cx="{ccx:.2f}" cy="{ccy:.2f}" '
                   f'r="{circle.radius * _SCALE:.2f}"{dash.get(style, "")}/>')
    for p, q in fig.segments:
        (ax, ay), (bx, by) = px(p), px(q)
        out.append(f'<line x1="{ax:.2f}" y1="{ay:.2f}" '
                   f'x2="{bx:.2f}" y2="{by:.2f}"/>')
    out.append("</g>")
    for name, z in fig.points.items():
        zx, zy = px(z)
        out.append(f'<circle cx="{zx:.2f}" cy="{zy:.2f}" r="2" fill="black"/>')
        out.append(f'<text x="{zx + 4:.2f}" y="{zy - 4:.2f}" '
                   f'font-size="11" fill="black">'
                   f'{name} ({z.real:.4f}, {z.imag:.4f})</text>')
    out.append("</svg>")
    return "\n".join(out)
