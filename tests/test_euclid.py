"""Tests for the Euclidean line/circle primitives."""

import cmath
import math

import pytest
from hypothesis import assume, given, strategies as st

from diskgeom.errors import (
    AntipodalPair,
    CoincidentPoints,
    ConcentricCircles,
    DegenerateInput,
    ParallelLines,
)
from diskgeom.euclid import (
    DEGENERACY_TOL,
    INFINITY,
    GenCircle,
    gencircle_intersection,
    in_disk_point,
    line_intersection,
    orthocenter,
    scale_of,
)
from diskgeom.hyperbolic import hyperbolic_line
from diskgeom.spherical import antipodal, great_circle_projection

from conftest import polar_points, unit_circle_points, well_separated

IDENTITY_TOL = 1e-9
EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# line intersection


def test_line_intersection_diagonals_of_unit_square():
    assert line_intersection(0j, 1 + 1j, 1 + 0j, 1j) == pytest.approx(0.5 + 0.5j)


def test_line_intersection_axes_meet_at_origin():
    assert line_intersection(-1 + 0j, 1 + 0j, -1j, 1j) == 0j


def test_line_intersection_parallel_raises():
    with pytest.raises(ParallelLines):
        line_intersection(0j, 1 + 0j, 1j, 1 + 1j)


def test_line_intersection_coincident_points_raise():
    with pytest.raises(DegenerateInput):
        line_intersection(1j, 1j, 0j, 1 + 0j)


def _reference_line_intersection(a, b, c, d):
    """line_intersection as one expression, the way it was first written."""
    if a == b or c == d:
        raise DegenerateInput("coincident defining points")
    num = (a.conjugate() * b - a * b.conjugate()) * (c - d) \
        - (c.conjugate() * d - c * d.conjugate()) * (a - b)
    den = (a.conjugate() - b.conjugate()) * (c - d) \
        - (c.conjugate() - d.conjugate()) * (a - b)
    if abs(den) <= DEGENERACY_TOL * max(1.0, *(abs(z) for z in (a, b, c, d))):
        raise ParallelLines("parallel")
    return num / den


def _outcome(fn, *args):
    """repr of the result (which tells -0.0 and nan apart) or the error type."""
    try:
        return repr(fn(*args))
    except (DegenerateInput, ParallelLines) as exc:
        return type(exc).__name__


@given(st.tuples(polar_points(0.0, 50.0), polar_points(0.0, 50.0),
                 polar_points(0.0, 50.0), polar_points(0.0, 50.0)))
def test_line_intersection_is_bit_identical_to_the_plain_expression(pts):
    assert _outcome(line_intersection, *pts) \
        == _outcome(_reference_line_intersection, *pts)
    a, b, c, _ = pts
    for args in ((a, a, c, b), (a, b, c, c)):
        assert _outcome(line_intersection, *args) == "DegenerateInput"


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
@given(a=polar_points(0.05, 50.0), b=polar_points(0.05, 50.0),
       offset=polar_points(0.0, 50.0))
def test_line_intersection_near_parallel_cutoff_matches_the_plain_expression(
        a, b, offset, factor):
    # cd = (a - b)(1 + i delta) makes |den| = 2 delta |a - b|^2, up to
    # rounding: a factor of the cutoff DEGENERACY_TOL * scale
    assume(abs(a - b) > 1e-3)
    c = a + offset
    scale = max(1.0, abs(a), abs(b), abs(c), abs(c - (a - b)))
    delta = factor * DEGENERACY_TOL * scale / (2 * abs(a - b) ** 2)
    d = c - (a - b) * (1 + 1j * delta)
    got = _outcome(line_intersection, a, b, c, d)
    assert got == _outcome(_reference_line_intersection, a, b, c, d)
    if factor == 0.5:
        assert got == "ParallelLines"
    if factor == 2.0:
        assert got != "ParallelLines"


@given(st.tuples(polar_points(0.05, 2.0), polar_points(0.05, 2.0),
                 polar_points(0.05, 2.0), polar_points(0.05, 2.0)))
def test_line_intersection_lies_on_both_lines(pts):
    a, b, c, d = pts
    assume(abs(a - b) > 0.05 and abs(c - d) > 0.05)
    try:
        z = line_intersection(a, b, c, d)
    except ParallelLines:
        return
    assume(abs(z) < 1e3)
    sc = scale_of(a, b, c, d, z) ** 2
    assert GenCircle.line(a, b).residual(z) <= 1e-10 * sc
    assert GenCircle.line(c, d).residual(z) <= 1e-10 * sc


# ---------------------------------------------------------------------------
# the curves through a, b and s/conj(a)


@given(st.tuples(polar_points(), polar_points()))
def test_through_is_centered_equally_far_from_a_b_and_s_over_conj_a(pts):
    a, b = pts
    assume(well_separated(a, b))
    for sign in (1, -1):
        center = GenCircle.through(a, b, sign).center
        c = sign / a.conjugate()
        sc = scale_of(a, b, c, center)
        assert abs(abs(center - a) - abs(center - b)) <= 1e-9 * sc
        assert abs(abs(center - a) - abs(center - c)) <= 1e-9 * sc


def test_gencircle_constructors_return_gencircles():
    for curve in (GenCircle.line(0j, 1 + 1j), GenCircle.circle(0.2j, 0.5),
                  GenCircle.through(0.3 + 0.1j, -0.2 + 0.4j, -1)):
        assert type(curve) is GenCircle


def test_center_and_radius_refuse_a_line_and_keep_a_circles_bits():
    for line in (GenCircle.line(0j, 1 + 1j), GenCircle.through(0.5 + 0j, -0.3 + 0j, -1)):
        assert line.A == 0
        with pytest.raises(DegenerateInput):
            line.center
        with pytest.raises(DegenerateInput):
            line.radius
    circle = GenCircle.through(0.3 + 0.1j, -0.2 + 0.4j, -1)
    assert circle.center == -circle.B / circle.A
    assert circle.radius == math.sqrt(abs(circle.B) ** 2 - circle.A * circle.C) / abs(circle.A)


def test_curve_through_a_pair_refuses_coincident_and_antipodal_points():
    for sign in (1, -1):
        with pytest.raises(CoincidentPoints):
            GenCircle.through(0.3 + 0.4j, 0.3 + 0.4j, sign)
    with pytest.raises(AntipodalPair):
        GenCircle.through(0.5 + 0j, -2 + 0j, -1)     # -2 = -1/conj(0.5)
    with pytest.raises(AntipodalPair):
        great_circle_projection(0.5j, -2j)            # -2j = -1/conj(0.5j)
    # a rounded antipode or mirror image leaves A and B at rounding noise,
    # not exactly 0, for these three points
    for a in (-1.097 + 1.042j, 0.791 - 0.735j, -0.014 - 0.152j):
        with pytest.raises(AntipodalPair):
            great_circle_projection(a, antipodal(a))
        with pytest.raises(AntipodalPair):
            GenCircle.through(a, 1 / a.conjugate(), +1)
        # a partner 1e-13 rad off the antipode still spans a curve
        great_circle_projection(a, antipodal(a) * cmath.exp(1e-13j))


def test_nearly_diametral_curves_meet_the_unit_circle_near_the_diameter():
    # 1e-12 rad off collinear with 0: the true crossings sit ~1e-11 from +-1
    a, b = 0.5 + 0j, cmath.rect(0.75, 1e-12)
    unit_circle = GenCircle.circle(0j, 1.0)
    for curve in (hyperbolic_line(a, b), great_circle_projection(a, b)):
        pts = gencircle_intersection(unit_circle, curve)
        assert pts is not None
        for z in pts:
            assert min(abs(z - 1), abs(z + 1)) <= 1e-10
            assert curve.residual(z) <= EXACT_TOL


# ---------------------------------------------------------------------------
# circle/line intersections


def test_circle_circle_intersection_symmetric_pair():
    pts = gencircle_intersection(GenCircle.circle(0j, 1.0),
                                 GenCircle.circle(1 + 0j, 1.0))
    assert pts is not None
    expected = 0.5 + 1j * math.sqrt(3) / 2
    assert sorted(pts, key=lambda z: z.imag) == [
        pytest.approx(expected.conjugate()), pytest.approx(expected)]


def test_circle_circle_disjoint_returns_none():
    assert gencircle_intersection(GenCircle.circle(0j, 1.0),
                                  GenCircle.circle(5 + 0j, 1.0)) is None


def test_line_circle_intersection_diameter():
    pts = gencircle_intersection(GenCircle.line(-2 + 0j, 2 + 0j),
                                 GenCircle.circle(0j, 1.0))
    assert pts is not None
    assert sorted(pts, key=lambda z: z.real) == [
        pytest.approx(-1 + 0j), pytest.approx(1 + 0j)]


@given(st.tuples(polar_points(0.05, 2.0), polar_points(0.05, 2.0),
                 polar_points(0.05, 2.0), polar_points(0.05, 2.0)))
def test_line_line_intersection_agrees_with_line_intersection(pts):
    a, b, c, d = pts
    assume(abs(a - b) > 0.05 and abs(c - d) > 0.05)
    try:
        want = line_intersection(a, b, c, d)
    except ParallelLines:
        return
    assume(abs(want) < 1e3)
    near, far = gencircle_intersection(GenCircle.line(a, b), GenCircle.line(c, d))
    assert abs(near - want) <= 1e-9 * scale_of(a, b, c, d, want) ** 2
    assert far == INFINITY


def test_parallel_lines_raise():
    with pytest.raises(ParallelLines):
        gencircle_intersection(GenCircle.line(0j, 1 + 0j),
                               GenCircle.line(1j, 1 + 1j))
    with pytest.raises(ParallelLines):
        line = GenCircle.line(0.2 + 0.1j, -0.7 + 0.4j)
        gencircle_intersection(line, line)


def test_concentric_circles_raise():
    with pytest.raises(ConcentricCircles):
        gencircle_intersection(GenCircle.circle(0.3 + 0.1j, 1.0),
                               GenCircle.circle(0.3 + 0.1j, 2.0))
    with pytest.raises(ConcentricCircles):
        circle = GenCircle.circle(0.3 + 0.1j, 1.0)
        gencircle_intersection(circle, circle)


def test_in_disk_point_picks_interior_root():
    assert in_disk_point((0.5 + 0j, 2 + 0j)) == 0.5 + 0j


# ---------------------------------------------------------------------------
# orthocenter


def test_orthocenter_of_right_triangle_is_right_angle_vertex():
    assert orthocenter(0j, 1 + 0j, 1j) == pytest.approx(0j, abs=EXACT_TOL)


@given(st.tuples(unit_circle_points(), unit_circle_points(),
                 unit_circle_points()))
def test_orthocenter_on_all_altitudes(pts):
    a, b, c = pts
    assume(min(abs(a - b), abs(b - c), abs(a - c)) > 0.1)
    h = orthocenter(a, b, c)
    for apex, u, v in ((a, b, c), (b, a, c), (c, a, b)):
        side = v - u
        assert abs(((h - apex) * side.conjugate()).real) <= 1e-9 * scale_of(h) ** 2


def test_orthocenter_inscribed_triangle_identity():
    # for unit-circle vertices the orthocenter is the coordinate sum
    a, b, c = cmath.exp(0.3j), cmath.exp(1.9j), cmath.exp(4.0j)
    assert orthocenter(a, b, c) == pytest.approx(a + b + c, abs=1e-12)
