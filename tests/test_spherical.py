"""Tests for stereographic projection, chordal metric, and great circles."""

import cmath
import math

import pytest
from hypothesis import assume, example, given, strategies as st

from diskgeom.errors import (
    AntipodalPair,
    ConcentricCircles,
    EqualModuli,
    NoRealIntersection,
    OutsideDisk,
    ParallelLines,
)
from diskgeom.spherical import (
    INFINITY,
    antipodal,
    chordal_distance,
    chordal_midpoint,
    gcis,
    gcis_quadratic_solve,
    gcis_roots,
    gencircle_from_pair_intersection,
    great_circle_projection,
    is_infinity,
    orthogonal_great_circle,
    to_sphere,
)
from diskgeom.euclid import DEGENERACY_TOL
from diskgeom.verify import default_spec, sample_disk_pair

from conftest import polar_points, well_separated

IDENTITY_TOL = 1e-9
EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# stereographic projection


def test_to_sphere_landmarks():
    p = to_sphere(0j)
    assert (p.xi, p.eta, p.zeta) == (0.0, 0.0, 0.0)
    p = to_sphere(1 + 0j)
    assert (p.xi, p.eta, p.zeta) == pytest.approx((0.5, 0.0, 0.5))
    p = to_sphere(INFINITY)
    assert (p.xi, p.eta, p.zeta) == (0.0, 0.0, 1.0)


def test_stereographic_functions_take_points_of_any_finite_modulus():
    # 1 + |z|^2 overflows for |z| above ~1.3e154
    p = to_sphere(1e200)
    assert math.isclose(p.xi, 1e-200, rel_tol=1e-15)
    assert (p.eta, p.zeta) == (0.0, 1.0)
    assert math.isclose(chordal_distance(1e200, 0j), 1.0, rel_tol=1e-15)
    assert math.isclose(chordal_distance(1e200, 1e200j), math.sqrt(2) * 1e-200,
                        rel_tol=1e-15)


@pytest.mark.parametrize("x, y, expected", [
    (1e308, -1e308, 2e-308),                               # x - y is inf
    (1.5e308, -1.5e308j, math.sqrt(2) / 1.5 * 1e-308),     # abs(x - y) overflows
])
def test_chordal_distance_of_points_whose_difference_overflows(x, y, expected):
    assert math.isclose(chordal_distance(x, y), expected, rel_tol=1e-12)


def test_stereographic_functions_take_points_whose_modulus_overflows():
    # the parts of z fit a float but |z| = 2.1e308 does not: abs(z) raises
    z = 1.5e308 + 1.5e308j
    p = to_sphere(z)
    assert math.isclose(p.xi, 1 / 3 * 1e-308, rel_tol=1e-12)    # Re z / |z|^2
    assert p.eta == p.xi and p.zeta == 1.0
    assert chordal_distance(z, 0j) == chordal_distance(0j, z) == 1.0
    for x, y, expected in ((z, INFINITY, 4.714045207910317e-309),   # 1 / |z|
                           (INFINITY, z, 4.714045207910317e-309),
                           (z, -z, 9.428090415820634e-309),          # 2 / |z|
                           (z, 1 + 1j, 0.5773502691896258)):         # 1 / sqrt(3)
        assert math.isclose(chordal_distance(x, y), expected, rel_tol=1e-12), (x, y)


@given(polar_points(0.0, 5.0))
def test_projection_round_trip_and_on_sphere(z):
    p = to_sphere(z)
    assert abs(p.xi ** 2 + p.eta ** 2 + (p.zeta - 0.5) ** 2 - 0.25) <= EXACT_TOL
    back = complex(p.xi, p.eta) / (1 - p.zeta)      # inverse projection
    assert abs(back - z) <= 1e-9 * max(1.0, abs(z) ** 2)


# ---------------------------------------------------------------------------
# chordal metric


def test_chordal_distance_landmarks():
    assert chordal_distance(0j, INFINITY) == 1.0
    assert chordal_distance(1 + 0j, -1 + 0j) == pytest.approx(1.0)
    assert chordal_distance(INFINITY, INFINITY) == 0.0


@given(st.tuples(polar_points(0.0, 5.0), polar_points(0.0, 5.0)))
def test_chordal_distance_is_sphere_distance(pts):
    x, y = pts
    assert chordal_distance(x, y) == pytest.approx(
        to_sphere(x).distance(to_sphere(y)), abs=EXACT_TOL)


@given(polar_points(0.05, 5.0))
def test_antipodal_points_are_diametrically_opposite(z):
    w = antipodal(z)
    assert chordal_distance(z, w) == pytest.approx(1.0, abs=IDENTITY_TOL)


def test_antipodal_of_origin_is_infinity():
    assert is_infinity(antipodal(0j))
    assert antipodal(INFINITY) == 0j


# ---------------------------------------------------------------------------
# great circle projections


# pairs nearly collinear with 0, whose projected great circles have radii
# up to ~1e10: nearly lines through 0
NEAR_COLLINEAR_PAIRS = [
    ((0.5 + 0j), (1 + 1e-08j)),
    ((1 + 0j), cmath.rect(0.75, 1e-08)),
    ((1.5027280857115837 + 0j), (0.5 + 5e-11j)),
]


@given(st.tuples(polar_points(0.05, 2.0), polar_points(0.05, 2.0)))
@example(NEAR_COLLINEAR_PAIRS[0])
@example(NEAR_COLLINEAR_PAIRS[1])
@example(NEAR_COLLINEAR_PAIRS[2])
def test_great_circle_projection_contains_defining_points(pts):
    a, b = pts
    assume(abs(a - b) > 0.05)
    g = great_circle_projection(a, b)
    assert g.residual(a) <= 1e-9
    assert g.residual(b) <= 1e-9
    # the projected great circle also passes through the antipode of a
    assert g.residual(antipodal(a)) <= 1e-7


@pytest.mark.parametrize("a,b", NEAR_COLLINEAR_PAIRS)
def test_great_circle_projection_near_collinear_with_origin(a, b):
    g = great_circle_projection(a, b)
    for z in (a, b, antipodal(a)):
        assert g.residual(z) <= EXACT_TOL


def test_great_circle_collinear_with_origin_is_a_line():
    g = great_circle_projection(0.5 + 0j, -0.25 + 0j)
    assert g.A == 0


# ---------------------------------------------------------------------------
# great-circle intersections


@given(st.tuples(polar_points(), polar_points(), polar_points(),
                 polar_points()))
def test_gcis_root_moduli_multiply_to_one(pts):
    a, b, c, d = pts
    assume(well_separated(a, b) and well_separated(c, d))
    assume(min(abs(a - c), abs(b - d), abs(a - d), abs(b - c)) > 0.05)
    r1, r2 = gcis_roots(a, b, c, d)
    assert abs(r1) * abs(r2) == pytest.approx(1.0, rel=1e-7)
    # the two roots are sphere antipodes of each other
    assert abs(r2 - antipodal(r1)) <= 1e-6 * max(1.0, abs(r2))


def _sphere_triple(p, q, r):
    """Scalar triple product of the sphere images of p, q, r, taken as
    vectors from the sphere's center: 0 when a great circle holds all three."""
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = [
        (s.xi, s.eta, s.zeta - 0.5) for s in map(to_sphere, (p, q, r))]
    return x1 * (y2 * z3 - z2 * y3) - y1 * (x2 * z3 - z2 * x3) \
        + z1 * (x2 * y3 - y2 * x3)


@given(st.tuples(polar_points(), polar_points(), polar_points(),
                 polar_points()))
def test_gcis_roots_are_coplanar_with_both_great_circles(pts):
    a, b, c, d = pts
    assume(well_separated(a, b) and well_separated(c, d))
    assume(min(abs(a - c), abs(b - d), abs(a - d), abs(b - c)) > 0.05)
    roots = gcis_roots(a, b, c, d)
    for r in roots:
        assert abs(_sphere_triple(r, a, b)) <= EXACT_TOL
        assert abs(_sphere_triple(r, c, d)) <= EXACT_TOL
    assume(abs(abs(roots[0]) - 1) > 1e-4)   # avoid the on-circle tie-break case
    z = gcis(a, b, c, d)
    assert z == min(roots, key=abs)
    assert gencircle_from_pair_intersection(a, b, c, d) == z


def test_gcis_collinear_pair_gives_antipodal_roots_on_both_curves():
    # (0.5, -0.5) spans the real axis, a line through 0
    a, b, c, d = 0.5 + 0j, -0.5 + 0j, 0.3j, 0.1 + 0.1j
    r1, r2 = gcis_roots(a, b, c, d)
    for g in (great_circle_projection(a, b), great_circle_projection(c, d)):
        assert g.residual(r1) <= EXACT_TOL
        assert g.residual(r2) <= EXACT_TOL
    assert chordal_distance(r1, r2) == pytest.approx(1.0, abs=EXACT_TOL)


def test_gcis_returns_the_meets_root_on_a_tie_and_refuses_nan():
    # chords sharing the unit-circle point a meet there: the roots are a and
    # its antipode -a, both on the circle, and gcis returns the meet's root
    for a in (1j, cmath.exp(0.7j), -1 + 0j):
        for b, d in ((0.3 + 0.1j, -0.2 + 0.4j), (-0.2 + 0.4j, 0.3 + 0.1j)):
            roots = gcis_roots(a, b, a, d)
            assert all(abs(abs(z) - 1) <= 1e-12 for z in roots)
            assert gcis(a, b, a, d) == roots[0]
    with pytest.raises(NoRealIntersection):
        gcis(complex(math.nan, 0.1), 0.5, 0.3j, -0.4 + 0.1j)


def test_gcis_coincident_great_circles_raise():
    with pytest.raises(ConcentricCircles):
        gcis_roots(0.3 + 0.4j, -0.5 + 0.2j, -0.5 + 0.2j, 0.3 + 0.4j)
    with pytest.raises(ParallelLines):       # one line through 0, twice
        gcis_roots(0.5 + 0j, -0.5 + 0j, 0.25 + 0j, -0.25 + 0j)


# ---------------------------------------------------------------------------
# shared quadratic for the chordal point family


def test_gcis_quadratic_roots_structure():
    H, R = 0.6 + 0.8j, 0.37
    z = gcis_quadratic_solve(H, R)
    # z solves conj(H) z^2 + 2 R z - H = 0, inside the disk
    assert abs(H.conjugate() * z * z + 2 * R * z - H) <= 1e-12
    assert abs(z) < 1


def test_gcis_quadratic_zero_R_gives_unit_root():
    H = 0.6 + 0.8j
    z = gcis_quadratic_solve(H, 0.0)
    assert abs(z) == pytest.approx(1.0, abs=1e-12)
    assert z == pytest.approx(H / abs(H), abs=1e-12)


# ---------------------------------------------------------------------------
# chordal midpoint and orthogonal great circle


def test_chordal_midpoint_radial_example():
    m = chordal_midpoint(0j, 0.8 + 0j)
    assert m.real == pytest.approx(0.3507810593582122, abs=EXACT_TOL)
    assert m.imag == 0.0
    q = chordal_distance(0j, m)
    assert q == pytest.approx(0.33100694143550047, abs=EXACT_TOL)
    assert q == pytest.approx(chordal_distance(m, 0.8 + 0j), abs=EXACT_TOL)


def test_chordal_midpoint_of_opposite_pair_is_origin():
    assert chordal_midpoint(0.4 + 0.1j, -0.4 - 0.1j) == 0j


def _chordal_midpoint_terms_before_the_shared_formula(a, b):
    """Numerator and denominator of chordal_midpoint's own former formula."""
    den = abs(1 + a * b.conjugate()) \
        * math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2)) \
        - abs(a * b) ** 2 + 1
    return a * (1 + abs(b) ** 2) + b * (1 + abs(a) ** 2), den


def test_chordal_midpoint_refuses_a_pair_within_rounding_of_antipodal():
    # both denominators are 8.5e-13, under DEGENERACY_TOL
    a, b = 1 - 1e-13, -(1 - 1e-13) + 1e-13j
    assert abs(_chordal_midpoint_terms_before_the_shared_formula(a, b)[1]) \
        <= DEGENERACY_TOL
    with pytest.raises(AntipodalPair):
        chordal_midpoint(a, b)


def test_chordal_midpoint_agrees_with_its_former_formula():
    spec = default_spec("chordal_midpoint", 2000, 8)
    for i in range(spec.count):
        a, b = sample_disk_pair(spec, i)
        num, den = _chordal_midpoint_terms_before_the_shared_formula(a, b)
        assert abs(chordal_midpoint(a, b) - num / den) <= 1e-14 * abs(num / den), (a, b)


def test_chordal_midpoint_outside_disk_raises():
    with pytest.raises(OutsideDisk):
        chordal_midpoint(1.2 + 0j, 0.3 + 0j)


@given(st.tuples(polar_points(0.05, 0.9), polar_points(0.05, 0.9)))
def test_chordal_midpoint_equidistant_and_on_great_circle(pts):
    a, b = pts
    assume(abs(a + b) > 0.05 and abs(a - b) > 0.05)
    try:
        m = chordal_midpoint(a, b)
    except AntipodalPair:
        assume(False)
    assert abs(chordal_distance(a, m) - chordal_distance(b, m)) <= IDENTITY_TOL
    assert great_circle_projection(a, b).residual(m) <= IDENTITY_TOL


@given(st.tuples(polar_points(0.05, 0.9), polar_points(0.05, 0.9)))
def test_orthogonal_great_circle_through_midpoint(pts):
    a, b = pts
    assume(abs(a + b) > 0.05 and abs(abs(a) - abs(b)) > 0.02)
    assume(well_separated(a, b))
    m = chordal_midpoint(a, b)
    circ = orthogonal_great_circle(a, b)
    assert abs(abs(m - circ.center) - circ.radius) <= 1e-7
    # orthogonality with the projected great circle through a, b
    first = great_circle_projection(a, b)
    d2 = abs(first.center - circ.center) ** 2
    assert abs(d2 - first.radius ** 2 - circ.radius ** 2) \
        <= 1e-6 * max(1.0, d2)


def test_orthogonal_great_circle_equal_moduli_raises():
    with pytest.raises(EqualModuli):
        orthogonal_great_circle(0.5 + 0j, 0.5j)
