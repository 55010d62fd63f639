"""Tests for the Euclidean line/circle primitives."""

import cmath
import math

import pytest
from hypothesis import assume, given, strategies as st

from diskgeom.errors import (
    AntipodalPair,
    CoincidentPoints,
    CollinearPoints,
    ConcentricCircles,
    DegenerateInput,
    DegenerateModuli,
    ParallelLines,
)
from diskgeom.euclid import (
    INFINITY,
    GenCircle,
    circumcenter,
    gencircle_intersection,
    in_disk_point,
    line_intersection,
    lis_inverse_pairs,
    orthocenter,
    scale_of,
)
from diskgeom.hyperbolic import UNIT_CIRCLE, hyperbolic_line
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
# closed forms for inverse-point pairs


def test_lis_inverse_pairs_frozen_values():
    a, b = 0.5 + 0j, 0.25j
    assert lis_inverse_pairs(1, a, b) == pytest.approx(
        -2.8333333333333335 + 1.6666666666666667j, abs=EXACT_TOL)
    assert lis_inverse_pairs(2, a, b) == pytest.approx(2.5 - 1j, abs=EXACT_TOL)
    assert lis_inverse_pairs(3, a, b) == pytest.approx(
        0.47619047619047616 + 0.19047619047619047j, abs=EXACT_TOL)
    assert lis_inverse_pairs(4, a, b) == pytest.approx(
        0.5396825396825397 + 0.31746031746031744j, abs=EXACT_TOL)


@given(st.tuples(polar_points(), polar_points()))
def test_lis_inverse_pairs_match_synthetic_intersections(pts):
    a, b = pts
    assume(well_separated(a, b))
    assume(abs(abs(a) - abs(b)) > 0.02)
    assume(abs(abs(a) * abs(b) - 1) > 0.02)
    ca, cb = 1 / a.conjugate(), 1 / b.conjugate()
    expected = {
        1: line_intersection(a, b, -ca, -cb),
        2: line_intersection(a, b, ca, cb),
        3: line_intersection(a, cb, b, ca),
        4: line_intersection(a, -cb, b, -ca),
    }
    for case, want in expected.items():
        got = lis_inverse_pairs(case, a, b)
        assert abs(got - want) <= 1e-9 * scale_of(got, want)


def test_lis_inverse_pairs_equal_moduli_raises():
    with pytest.raises(DegenerateModuli):
        lis_inverse_pairs(1, 0.5 + 0j, 0.5j)


def test_lis_inverse_pairs_bad_case_raises():
    with pytest.raises(ValueError):
        lis_inverse_pairs(5, 0.5 + 0j, 0.25j)


# ---------------------------------------------------------------------------
# circumcenter and the curves through a, b and s/conj(a)


def test_circumcenter_right_triangle():
    assert circumcenter(0j, 1 + 0j, 1j) == pytest.approx(0.5 + 0.5j)


@given(st.tuples(polar_points(0.05, 2.0), polar_points(0.05, 2.0),
                 polar_points(0.05, 2.0)))
def test_circumcenter_equidistant_and_symmetric(pts):
    a, b, c = pts
    assume(abs(((b - a) * (c - a).conjugate()).imag) > 0.01)
    m = circumcenter(a, b, c)
    assume(abs(m) < 1e3)
    sc = scale_of(a, b, c, m)
    assert abs(abs(m - a) - abs(m - b)) <= 1e-9 * sc
    assert abs(abs(m - a) - abs(m - c)) <= 1e-9 * sc
    for perm in ((b, a, c), (c, b, a), (b, c, a)):
        assert abs(circumcenter(*perm) - m) <= 1e-9 * sc


def test_circumcenter_collinear_raises():
    with pytest.raises(CollinearPoints):
        circumcenter(0j, 1 + 0j, 2 + 0j)


@given(st.tuples(polar_points(), polar_points()))
def test_circumcenter_with_inversion_matches_general_formula(pts):
    a, b = pts
    assume(well_separated(a, b))
    for sign in (1, -1):
        through = GenCircle.through(a, b, sign).center
        general = circumcenter(a, sign / a.conjugate(), b)
        assert abs(through - general) <= 1e-9 * scale_of(through, general)


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
    for curve in (hyperbolic_line(a, b).carrier, great_circle_projection(a, b)):
        pts = gencircle_intersection(UNIT_CIRCLE, curve)
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
