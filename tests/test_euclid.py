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
    NoRealIntersection,
    ParallelLines,
)
from diskgeom.euclid import (
    DEGENERACY_TOL,
    GenCircle,
    line_intersection,
    meet,
    normal,
    orthocenter,
    scale_of,
)
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


def test_nearly_diametral_great_circle_meets_the_equator_near_the_diameter():
    # 1e-12 rad off collinear with 0: the true crossings sit ~1e-11 from +-1
    a, b = 0.5 + 0j, cmath.rect(0.75, 1e-12)
    curve = great_circle_projection(a, b)
    z = meet(normal(a, b, -1), (0j, 1.0), -1)    # the equator |z| = 1
    for root in (z, -1 / z.conjugate()):
        assert min(abs(root - 1), abs(root + 1)) <= 1e-10
        assert abs(abs(root) - 1) <= EXACT_TOL
        assert curve.residual(root) <= EXACT_TOL


# ---------------------------------------------------------------------------
# meets of two curves of one family


def _sine_between(n1, n2):
    """|n1 x n2| / (|n1| |n2|): the sine of the angle between two normals."""
    (x1, y1, z1), (x2, y2, z2) = [(B.real, B.imag, A) for B, A in (n1, n2)]
    cross = math.hypot(y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
    return cross / math.hypot(x1, y1, z1) / math.hypot(x2, y2, z2)


def _through_w(pts, s):
    """Normals of the curves through w, a and through w, c, kept only when
    the pair is well apart, or None."""
    w, a, c = pts
    if not (well_separated(w, a) and well_separated(w, c)) \
            or min(abs(a - s / w.conjugate()), abs(c - s / w.conjugate())) <= 0.05:
        return None
    n1, n2 = normal(w, a, s), normal(w, c, s)
    return (n1, n2) if _sine_between(n1, n2) > 0.05 else None


@given(st.tuples(polar_points(0.05, 0.95), polar_points(0.05, 2.0),
                 polar_points(0.05, 2.0)), st.sampled_from((1, -1)))
def test_meet_returns_the_in_disk_root_and_both_roots_lie_on_both_curves(pts, s):
    # the curves through w, a and through w, c meet at the disk point w
    w, a, c = pts
    normals = _through_w(pts, s)
    assume(normals is not None)
    z = meet(*normals, s)
    assert abs(z - w) <= 1e-12
    curves = (GenCircle.through(w, a, s), GenCircle.through(w, c, s))
    for root in (z, s / z.conjugate()):
        for curve in curves:
            assert curve.residual(root) <= 1e-12 * scale_of(root)


def test_meet_refuses_coincident_curves_and_disjoint_geodesics():
    n = normal(0.3 + 0.4j, -0.5 + 0.2j, +1)
    with pytest.raises(ConcentricCircles):
        meet(n, (-n[0], -n[1]), +1)
    with pytest.raises(ParallelLines):          # the real axis, twice
        meet((1j, 0.0), (-2j, 0.0), -1)
    # the geodesics through 0.9, 0.9i and through -0.9, -0.9i do not meet
    with pytest.raises(NoRealIntersection):
        meet(normal(0.9 + 0j, 0.9j, +1), normal(-0.9 + 0j, -0.9j, +1), +1)
    # the geodesics around 2 and -2, their normals scaled by 1e-3: the
    # radicand is -1.6e-11, not far below 0, and still refused
    with pytest.raises(NoRealIntersection):
        meet((-2e-3 + 0j, 1e-3), (2e-3 + 0j, 1e-3), +1)
    assert meet((1j, 0.0), (1 + 0j, 0.0), +1) == 0    # two diameters


def test_meet_refuses_coincident_great_circles_whatever_their_scale():
    n = normal(0.3 + 0.4j, -0.5 + 0.2j, -1)
    with pytest.raises(ConcentricCircles):
        meet(n, (2.5 * n[0], 2.5 * n[1]), -1)


def test_meet_of_two_great_circles_symmetric_pair():
    # |z -+ 1|^2 = 2 (B = -+1, A = 1, C = -1) cross at the antipodes +-i
    z = meet((-1 + 0j, 1.0), (1 + 0j, 1.0), -1)
    assert sorted((z, -1 / z.conjugate()), key=lambda w: w.imag) == [
        pytest.approx(-1j), pytest.approx(1j)]


def test_meet_of_two_geodesic_circles_symmetric_pair():
    # |z - c|^2 = |c|^2 - 1 for c = +-0.8 + 1.2i cross on the imaginary
    # axis where 0.64 + (y - 1.2)^2 = 1.08, at y = 1.2 -+ sqrt(0.44)
    z = meet((-0.8 - 1.2j, 1.0), (0.8 - 1.2j, 1.0), +1)
    assert z == pytest.approx((1.2 - math.sqrt(0.44)) * 1j)
    assert 1 / z.conjugate() == pytest.approx((1.2 + math.sqrt(0.44)) * 1j)


@pytest.mark.parametrize("s, B, inside, outside", [
    (-1, -0.75 + 0j, -0.5 + 0j, 2 + 0j),    # |z - 0.75|^2 = 1.5625
    (+1, -1.25 + 0j, 0.5 + 0j, 2 + 0j),     # |z - 1.25|^2 = 0.5625
])
def test_meet_of_a_diameter_and_a_circle_of_the_family(s, B, inside, outside):
    z = meet((1j, 0.0), (B, 1.0), s)    # the real axis
    assert z == pytest.approx(inside)
    assert s / z.conjugate() == pytest.approx(outside)


def test_meet_of_geodesics_touching_on_the_unit_circle_is_the_touching_point():
    # |z - (+-1 + i)| = 1 touch at i: the radicand is exactly 0
    assert meet((-1 - 1j, 1.0), (1 - 1j, 1.0), +1) == 1j


@given(st.tuples(polar_points(0.05, 0.95), polar_points(0.05, 2.0),
                 polar_points(0.05, 2.0)), st.sampled_from((1, -1)),
       st.floats(1e-3, 1e3), st.sampled_from((1, -1)))
def test_meet_is_symmetric_and_ignores_the_scale_and_sign_of_a_normal(
        pts, s, k, sign):
    normals = _through_w(pts, s)
    assume(normals is not None)
    (B1, A1), n2 = normals
    z = meet((B1, A1), n2, s)
    assert meet(n2, (B1, A1), s) == z
    assert meet((-B1, -A1), n2, s) == z
    k *= sign
    assert abs(meet((k * B1, k * A1), n2, s) - z) <= 1e-12


@given(st.tuples(polar_points(0.05, 0.95), polar_points(0.05, 2.0),
                 polar_points(0.05, 2.0)), st.sampled_from((1, -1)),
       unit_circle_points())
def test_meet_turns_with_a_rotation_of_both_curves(pts, s, u):
    # z -> uz takes the curve with normal (B, A) to the one with (uB, A)
    normals = _through_w(pts, s)
    assume(normals is not None)
    (B1, A1), (B2, A2) = normals
    z = meet((u * B1, A1), (u * B2, A2), s)
    assert abs(z - u * meet((B1, A1), (B2, A2), s)) <= 1e-12


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
