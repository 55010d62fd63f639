"""Tests for the disk metric, Moebius maps, geodesics, and midpoints."""

import cmath
import math

import pytest
from hypothesis import assume, given, strategies as st

from diskgeom.errors import (
    CoincidentPoints,
    EqualModuli,
    InvalidCyclicOrder,
    OutsideDisk,
)
from diskgeom.hyperbolic import (
    ahlfors_bracket,
    check_cyclic_order,
    chord_vs_geodesic_midpoint,
    geodesic_endpoints,
    geodesic_intersection_on_circle,
    hyperbolic_line,
    hyperbolic_midpoint,
    midpoint_via_inversion,
    midpoint_via_lens,
    mobius_T,
    rho,
)

from conftest import polar_points, unit_circle_points, well_separated

IDENTITY_TOL = 1e-9
EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# metric and Moebius maps


def test_rho_radial_value():
    assert rho(0j, 0.5 + 0j) == pytest.approx(2 * math.atanh(0.5), abs=EXACT_TOL)


def test_rho_symmetric_and_zero_on_diagonal():
    a, b = 0.3 + 0.1j, -0.2 + 0.5j
    assert rho(a, b) == pytest.approx(rho(b, a), abs=EXACT_TOL)
    assert rho(a, a) == 0.0


def test_rho_outside_disk_raises():
    with pytest.raises(OutsideDisk):
        rho(0j, 1 + 0j)


def test_mobius_T_maps_base_point_to_origin():
    a = 0.4 + 0.2j
    assert mobius_T(a, a) == 0j
    assert mobius_T(a, 0j) == pytest.approx(-a)


@given(st.tuples(polar_points(0.0, 0.9), polar_points(0.0, 0.9)))
def test_mobius_T_inverse(pts):
    a, z = pts
    w = mobius_T(a, z)
    assert abs(mobius_T(-a, w) - z) <= EXACT_TOL * 10


@given(st.tuples(polar_points(0.0, 0.9), polar_points(0.0, 0.9),
                 polar_points(0.0, 0.9)))
def test_rho_is_mobius_invariant(pts):
    a, x, y = pts
    assert rho(mobius_T(a, x), mobius_T(a, y)) == pytest.approx(
        rho(x, y), abs=IDENTITY_TOL)


def test_rho_from_ahlfors_bracket():
    x, y = 0.3 + 0.2j, -0.4 + 0.1j
    assert rho(x, y) == pytest.approx(
        2 * math.atanh(abs(x - y) / ahlfors_bracket(x, y)), abs=EXACT_TOL)


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_endpoints_frozen_values():
    a, b = 0.5 + 0j, 0.7 * cmath.exp(1j)
    a_end, b_end = geodesic_endpoints(a, b)
    assert a_end == pytest.approx(
        0.9330311550425227 - 0.35979558602075173j, abs=1e-12)
    assert b_end == pytest.approx(
        0.4745418527501684 + 0.8802329407540015j, abs=1e-12)


def ep(a: complex, b: complex) -> complex:
    """Unit-circle endpoint of the geodesic through a, b on the a side,
    defined by pushing T_b(a) to the boundary and mapping back."""
    t = mobius_T(b, a)
    return mobius_T(-b, t / abs(t))


@given(st.tuples(polar_points(), polar_points()))
def test_geodesic_endpoints_match_mobius_construction(pts):
    a, b = pts
    assume(well_separated(a, b))
    a_end, b_end = geodesic_endpoints(a, b)
    assert abs(abs(a_end) - 1) <= IDENTITY_TOL
    assert abs(abs(b_end) - 1) <= IDENTITY_TOL
    assert abs(a_end - ep(a, b)) <= IDENTITY_TOL
    assert abs(b_end - ep(b, a)) <= IDENTITY_TOL


def test_diameter_geodesic_is_a_line():
    g = hyperbolic_line(0.2 + 0j, -0.5 + 0j)
    assert g.carrier.A == 0


@pytest.mark.parametrize("a, b", [
    (2, 0.5),          # b = 1/conj(a): the carrier's coefficients vanish
    (1.5, 1.5),        # coincident
    (0.3j, 1.0),       # on the unit circle
    (-1.2 + 0.1j, 0.4 - 0.2j),
])
def test_hyperbolic_line_refuses_points_outside_the_disk_first(a, b):
    with pytest.raises(OutsideDisk):
        hyperbolic_line(a, b)


def test_hyperbolic_line_in_disk_refusal_is_unchanged():
    with pytest.raises(CoincidentPoints):
        hyperbolic_line(0.3 + 0.1j, 0.3 + 0.1j)


@given(st.tuples(polar_points(), polar_points()))
def test_geodesic_circle_orthogonal_to_unit_circle(pts):
    a, b = pts
    assume(well_separated(a, b))
    g = hyperbolic_line(a, b)
    circ = g.carrier
    # orthogonality: |center|^2 = 1 + radius^2
    assert abs(abs(circ.center) ** 2 - 1 - circ.radius ** 2) <= 1e-9
    assert g.carrier.residual(a) <= IDENTITY_TOL
    assert g.carrier.residual(b) <= IDENTITY_TOL


# ---------------------------------------------------------------------------
# midpoints


def test_hyperbolic_midpoint_radial_case():
    # midpoint of 0 and r is tanh(atanh(r)/2)
    m = hyperbolic_midpoint(0j, 0.8 + 0j)
    assert m == pytest.approx(math.tanh(math.atanh(0.8) / 2), abs=EXACT_TOL)


def test_hyperbolic_midpoint_of_equal_points():
    z = 0.3 + 0.2j
    assert hyperbolic_midpoint(z, z) == z


@given(st.tuples(polar_points(0.05, 0.9), polar_points(0.05, 0.9)))
def test_hyperbolic_midpoint_equidistant_and_between(pts):
    x, y = pts
    assume(abs(x - y) > 0.05)
    m = hyperbolic_midpoint(x, y)
    assert abs(rho(x, m) - rho(y, m)) <= IDENTITY_TOL
    assert abs(rho(x, m) + rho(m, y) - rho(x, y)) <= IDENTITY_TOL


@given(st.tuples(polar_points(), polar_points()))
def test_midpoint_constructions_agree(pts):
    a, b = pts
    assume(well_separated(a, b))
    assume(abs(abs(a) - abs(b)) > 0.02)
    m = hyperbolic_midpoint(a, b)
    assert abs(midpoint_via_lens(a, b) - m) <= 1e-8
    assert abs(midpoint_via_inversion(a, b) - m) <= 1e-8


def test_midpoint_via_inversion_equal_moduli_raises():
    with pytest.raises(EqualModuli):
        midpoint_via_inversion(0.5 + 0j, 0.5j)


# ---------------------------------------------------------------------------
# geodesic intersections for cyclic quadruples


def test_two_perpendicular_diameters_meet_at_origin():
    assert geodesic_intersection_on_circle(1 + 0j, 1j, -1 + 0j, -1j) == 0j


def test_cyclic_order_rejects_swapped_points():
    with pytest.raises(InvalidCyclicOrder):
        check_cyclic_order((1 + 0j, -1 + 0j, 1j, -1j))


def test_cyclic_order_rejects_interior_point():
    with pytest.raises(InvalidCyclicOrder):
        check_cyclic_order((0.5 + 0j, 1j, -1 + 0j, -1j))


@given(st.tuples(st.floats(0.0, 2 * math.pi, exclude_max=True),
                 st.floats(0.3, 1.5), st.floats(0.3, 1.5), st.floats(0.3, 1.5)))
def test_geodesic_intersection_lies_on_both_geodesics(params):
    t0, g1, g2, g3 = params
    angles = [t0, t0 + g1, t0 + g1 + g2, t0 + g1 + g2 + g3]
    assume(angles[-1] - t0 < 2 * math.pi - 0.3)
    a, b, c, d = (cmath.exp(1j * t) for t in angles)
    w = geodesic_intersection_on_circle(a, b, c, d)
    assert abs(w) < 1
    eps = 1e-7
    for x, y in ((a, c), (b, d)):
        geo = hyperbolic_line(x * (1 - eps), y * (1 - eps))
        assert geo.carrier.residual(w) <= 1e-5


def test_chord_vs_geodesic_midpoint_identity():
    a, b = cmath.exp(0.1j), cmath.exp(1.3j)
    c, d = cmath.exp(2.9j), cmath.exp(4.8j)
    f, m = chord_vs_geodesic_midpoint(a, b, c, d)
    # 0, f, m collinear and m is the hyperbolic midpoint of 0 and f
    assert abs((f * m.conjugate()).imag) <= IDENTITY_TOL
    assert abs(m - hyperbolic_midpoint(0j, f)) <= IDENTITY_TOL
