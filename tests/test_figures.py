"""Figure output pinned byte for byte, and the structure of its SVG.

The references below are figure_json and figure_svg as they were before
figure_svg filled one template with one %, and before FigureData.parameters
held the complex inputs: every coordinate went through its own f-string, and
figures 1-3 took their points from family_report.
"""

import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from diskgeom.cli import main
from diskgeom.configurations import family_report
from diskgeom.errors import DegenerateInput
from diskgeom.euclid import GenCircle, format_complex
from diskgeom.figures import FIGURE_IDS, FigureData, build_figure, figure_json, figure_svg

SRC = Path(__file__).resolve().parents[1] / "src"
SVG = "{http://www.w3.org/2000/svg}"

# the names figures 1-3 drew from family_report, besides a and b
_CONFIG_NAMES = {
    1: ("k", "s", "t", "u", "v", "m", "a_star", "b_star", "a_end", "b_end"),
    2: ("k_c", "s_c", "t_c", "u_c", "v_c", "a_star", "b_star", "a_end", "b_end"),
    3: ("p", "q", "p_c", "q_c", "a_star", "b_star", "a_end", "b_end"),
}


def _reference_points(fig_id, a, b):
    """Figures 1-3's points as _config_figure took them from family_report."""
    points, statuses, _ = family_report(a, b)
    chosen = {"a": a, "b": b}
    for n in _CONFIG_NAMES[fig_id]:
        if statuses.get(n) == "ok":
            chosen[n] = points[n]
    return chosen


def _reference_json(fig):
    """figure_json over parameters formatted when the figure was built."""
    doc = {
        "figure": fig.figure_id,
        "parameters": {name: format_complex(z) for name, z in fig.parameters.items()},
        "points": {name: [z.real, z.imag] for name, z in fig.points.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _reference_svg(fig):
    """figure_svg with one f-string and one px() call per coordinate."""
    xs = [z.real for z in fig.points.values()] + [-1.0, 1.0]
    ys = [z.imag for z in fig.points.values()] + [-1.0, 1.0]
    pad = 0.3
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    width, height = (x1 - x0) * 100.0, (y1 - y0) * 100.0

    def px(z):
        return (z.real - x0) * 100.0, (y1 - z.imag) * 100.0

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{width:.0f}" height="{height:.0f}" '
           f'viewBox="0 0 {width:.2f} {height:.2f}">',
           '<g fill="none" stroke="black" stroke-width="1">']
    cx, cy = px(0j)
    out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{100.0:.2f}" '
               'stroke-width="1.5"/>')
    dash = {"solid": "", "dashed": ' stroke-dasharray="6 4"',
            "dotted": ' stroke-dasharray="2 3"'}
    for circle, style in fig.circles:
        ccx, ccy = px(circle.center)
        out.append(f'<circle cx="{ccx:.2f}" cy="{ccy:.2f}" '
                   f'r="{circle.radius * 100.0:.2f}"{dash.get(style, "")}/>')
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


# ---------------------------------------------------------------------------
# the five figures


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_figure_matches_the_reference_byte_for_byte(fig_id):
    fig = build_figure(fig_id)
    if fig_id in _CONFIG_NAMES:
        a, b = fig.parameters["a"], fig.parameters["b"]
        assert repr(fig.points) == repr(_reference_points(fig_id, a, b))
    assert figure_json(fig) == _reference_json(fig)
    assert figure_svg(fig) == _reference_svg(fig)


@pytest.mark.parametrize("fmt", ["json", "svg"])
@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_cli_prints_the_reference_figure(fig_id, fmt, capsys):
    fig = build_figure(fig_id)
    expected = _reference_json(fig) if fmt == "json" else _reference_svg(fig)
    assert main(["figure", "--id", str(fig_id), "--format", fmt]) == 0
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_each_build_computes_a_new_figure(fig_id):
    first, second = build_figure(fig_id), build_figure(fig_id)
    assert first is not second and first.points is not second.points
    assert repr(first) == repr(second)


def test_python_m_diskgeom_prints_figure_6():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "diskgeom", "figure", "--id", "6",
                           "--format", "svg"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == figure_svg(build_figure(6)) + "\n"


# ---------------------------------------------------------------------------
# the SVG's structure


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_svg_parses_with_one_element_per_curve_segment_and_point(fig_id):
    fig = build_figure(fig_id)
    root = ET.fromstring(figure_svg(fig))
    assert root.tag == SVG + "svg"
    count = {tag: len(root.findall(f".//{SVG}{tag}")) for tag in ("circle", "line", "text")}
    assert count == {"circle": 1 + len(fig.circles) + len(fig.points),
                     "line": len(fig.segments), "text": len(fig.points)}
    labels = [t.text.split(" (")[0] for t in root.iter(SVG + "text")]
    assert labels == list(fig.points)


@pytest.mark.parametrize("render", [figure_svg, _reference_svg], ids=["new", "reference"])
def test_a_line_among_the_circles_is_refused(render):
    fig = FigureData(0, {}, {"a": 0.5 + 0j},
                     circles=[(GenCircle.circle(0j, 0.5), "solid"),
                              (GenCircle.line(0j, 1 + 1j), "solid")])
    with pytest.raises(DegenerateInput):
        render(fig)


# ---------------------------------------------------------------------------
# seeded fuzz against the reference renderer

_NAMES = ["a", "b", "p_c", "a_star", "100%", "%s", "%(x)s", "%%", "{}", "x y"]
_STYLES = ["solid", "dashed", "dotted", "wavy", ""]
_SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 1e15, -1e15, 0.5, -0.005, 0.004999,
            1.0, -1.0, 123.456789, 5e-324, math.inf, -math.inf, math.nan]


def _coordinate(rng):
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(_SPECIAL)
    if roll < 0.8:
        return rng.uniform(-3, 3)
    return rng.choice((-1, 1)) * 10.0 ** rng.uniform(-320, 300)


def _point(rng):
    return complex(_coordinate(rng), _coordinate(rng))


def _circle(rng):
    """A form with A != 0, not always a real circle: the radius of a form
    with |B|^2 < AC is 0, and its center or radius may overflow."""
    A = rng.choice((1.0, -1.0, 1e-300, 1e15, rng.uniform(-3, 3) or 1.0))
    return GenCircle(A, _point(rng), _coordinate(rng)), rng.choice(_STYLES)


def _random_figure(rng):
    n_points, n_segments, n_circles = (rng.choice((0, 1, rng.randrange(2, 12)))
                                       for _ in range(3))
    points = {rng.choice(_NAMES) + str(i): _point(rng) for i in range(n_points)}
    return FigureData(rng.randrange(10), {"a": _point(rng)}, points,
                      [(_point(rng), _point(rng)) for _ in range(n_segments)],
                      [_circle(rng) for _ in range(n_circles)])


def test_random_figures_render_as_the_reference():
    rng = random.Random(30)
    kinds = set()
    for _ in range(4000):
        fig = _random_figure(rng)
        try:
            expected = _reference_svg(fig)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                figure_svg(fig)
            kinds.add("error")
            continue
        assert figure_svg(fig) == expected, fig
        kinds.add((bool(fig.points), bool(fig.segments), bool(fig.circles)))
    assert len(kinds) == 9
