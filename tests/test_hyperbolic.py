"""Tests for the disk metric, Moebius maps, geodesics, and midpoints."""

import cmath
import math
import random
from decimal import localcontext

import pytest
from hypothesis import assume, given, strategies as st

from diskgeom.errors import (
    CoincidentPoints,
    CollinearPoints,
    EqualModuli,
    InvalidCyclicOrder,
    NearBoundary,
    OutsideDisk,
    ZeroPoint,
)
from diskgeom.euclid import GenCircle
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
from diskgeom.spherical import chordal_midpoint
from diskgeom.oracles import midpoint_oracle
from diskgeom.verify import SampleSpec, sample_circle_quadruple

from conftest import _Dec, endpoint_error, polar_points, unit_circle_points, well_separated

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


@pytest.mark.parametrize("y", [-0.5, -0.9999999999999999, 0.9999999999999999j])
def test_rho_refuses_a_ratio_that_rounds_to_one(y):
    # |x - y| / |1 - x conj(y)| rounds to 1.0 for x one ulp inside the circle
    with pytest.raises(NearBoundary):
        rho(0.9999999999999999, y)


_NAN = [complex(math.nan, 0.1), complex(0.1, math.nan)]


@pytest.mark.parametrize("fn", [rho, geodesic_endpoints, hyperbolic_line,
                                hyperbolic_midpoint, midpoint_via_lens,
                                chordal_midpoint, midpoint_oracle],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("nan", _NAN)
@pytest.mark.parametrize("swap", [False, True])
def test_nan_coordinate_is_refused_as_outside_disk(fn, nan, swap):
    # abs(z) >= 1 is False for a NaN coordinate; each guard reads not < 1
    a, b = (0.3j, nan) if swap else (nan, 0.3j)
    with pytest.raises(OutsideDisk):
        fn(a, b)


@pytest.mark.parametrize("nan", _NAN)
def test_mobius_T_refuses_a_nan_base_point(nan):
    with pytest.raises(OutsideDisk):
        mobius_T(nan, 0.3j)


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


@pytest.mark.parametrize("both", [False, True])
def test_geodesic_endpoints_are_accurate_near_the_unit_circle(both):
    # 1 - |a|, and 1 - |b| when both, log-uniform in 1e-14 ... 1e-2
    rng = random.Random(2323)

    def point(r):
        return cmath.rect(r, rng.uniform(0, 2 * math.pi))

    for _ in range(200):
        a = point(1 - 10.0 ** rng.uniform(-14, -2))
        b = point(1 - 10.0 ** rng.uniform(-14, -2) if both else rng.uniform(0.05, 0.95))
        a_end, b_end = geodesic_endpoints(a, b)
        assert endpoint_error(a_end, a, b) <= 1e-15, (a, b)
        assert endpoint_error(b_end, b, a) <= 1e-15, (a, b)


def test_diameter_geodesic_is_a_line():
    assert hyperbolic_line(0.2 + 0j, -0.5 + 0j).A == 0


@pytest.mark.parametrize("a, b", [
    (2, 0.5),          # b = 1/conj(a): the curve's coefficients vanish
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


@pytest.mark.parametrize("delta", [1e-7, 1e-10])
@pytest.mark.parametrize("turn", [1.0, 2.0])
def test_hyperbolic_line_keeps_its_center_as_b_nears_a(delta, turn):
    # GenCircle.through(a, b, +1) has its center 1.0e-9 and 7.7e-11 off, relative,
    # at turns 1 and 2 and delta = 1e-7, and 3.4e-7 and 5.3e-7 at delta = 1e-10
    a = 0.3 + 0.2j
    b = a + delta * cmath.exp(1j * turn)
    with localcontext(prec=60):
        x, y = _Dec(a), _Dec(b)
        # the orthogonal circle through x, y: 2 Re(conj(c) z) = 1 + |z|^2 for z = x, y
        A = 2 * (y * x.conjugate()).imag
        center = (y * (1 + abs(x) ** 2) - x * (1 + abs(y) ** 2)) * _Dec(0, 1) / -A
        error = abs(center - hyperbolic_line(a, b).center) / abs(center)
    assert error <= 1e-14


@given(st.tuples(polar_points(), polar_points()))
def test_geodesic_circle_orthogonal_to_unit_circle(pts):
    a, b = pts
    assume(well_separated(a, b))
    circ = hyperbolic_line(a, b)
    # orthogonality: |center|^2 = 1 + radius^2
    assert abs(abs(circ.center) ** 2 - 1 - circ.radius ** 2) <= 1e-9
    assert circ.residual(a) <= IDENTITY_TOL
    assert circ.residual(b) <= IDENTITY_TOL


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


@pytest.mark.parametrize("a", [0.3 + 0.2j, -0.5 + 0.1j, 0.6j])
def test_midpoint_via_lens_keeps_its_accuracy_as_b_approaches_a(a):
    # the geodesic through its endpoints keeps its digits as b nears a
    for gap in (1e-7, 1e-10, 1e-12):
        b = a + gap * cmath.exp(0.7j)
        assert abs(midpoint_via_lens(a, b) - hyperbolic_midpoint(a, b)) <= 1e-14


def _midpoint_error(m, a, b):
    """|m - the hyperbolic midpoint of a, b| relative to that midpoint, which
    is found to 60 digits from the float inputs."""
    with localcontext(prec=60):
        x, y = _Dec(a), _Dec(b)
        x2, y2 = abs(x) * abs(x), abs(y) * abs(y)
        exact = (x * (1 - y2) + y * (1 - x2)) / (
            1 - x2 * y2 + abs(1 - x * y.conjugate()) * ((1 - x2) * (1 - y2)).sqrt())
        return float(abs(_Dec(m) - exact) / abs(exact))


# Literal pairs of each regime.  The circumcenter construction this replaced
# put the first pairs of "regular", "near collinear with 0" and "tiny |b|"
# 8e-12 ... 1e-10 off, with no refusal, and refused the gaps below 1e-10.
_LENS_PAIRS = {
    "regular": [
        (0.43336456646431776 + 0.37522567463592665j, 0.052943088189491366 + 0.04403259909403487j),
        (0.24330481162026027 - 0.5783163534889422j, -0.07551844869125662 + 0.19292139066738362j),
        (0.40768536822191903 - 0.054007258039165285j, -0.8087810305456298 + 0.10526473454104636j),
    ],
    "|a| = |b|": [
        (-0.23986773742565298 + 0.17500240894130503j, 0.2559855871141713 - 0.15044518530939147j),
        (0.7128727042638173 - 0.0045415096478240895j, -0.71129814182836 - 0.047558724095845585j),
    ],
    "b near a": [(0.3 + 0.2j, 0.3 + 0.2j + gap * cmath.exp(0.7j))
                 for gap in (1e-7, 1e-10, 1e-12, 1e-14)],
    "near collinear with 0": [
        (-0.18393640754733442 - 0.8571390303173012j, -0.1770444853645952 - 0.8249725780427831j),
        (0.30804057071729996 - 0.6013851773369883j, -0.4237265421804922 + 0.8171087215493928j),
        (0.39854839051463076 + 0.18710061706102596j, -0.11916384938413752 - 0.055942089170329334j),
        (0.5294377516146225 + 0.400411447113607j, 0.4499040970178351 + 0.3402602073352123j),
    ],
    "tiny |b|": [
        (0.4837466728658449 + 0.021503961702934064j, -0.00017387926219312408 + 0.001281963891014058j),
        (-0.1671998671160144 - 0.5284192400270513j, -6.181874771184931e-05 - 0.004189423287952321j),
        (-0.6153512221410015 - 0.660468548928352j, 1.3436587772491188e-08 + 5.502621638457819e-09j),
        (-0.4090833612989312 - 0.3793920423898604j, -8.73211924538948e-10 - 1.7637635056817766e-10j),
        (0.3 + 0.1j, 1e-300j),
    ],
}


@pytest.mark.parametrize("pairs", _LENS_PAIRS.values(), ids=_LENS_PAIRS)
def test_midpoint_via_lens_is_accurate_or_refuses(pairs):
    accepted = 0
    for a, b in pairs:
        try:
            m = midpoint_via_lens(a, b)
        except (CollinearPoints, ZeroPoint):
            continue
        assert _midpoint_error(m, a, b) <= 1e-12, (a, b)
        accepted += 1
    assert accepted >= 2


@pytest.mark.parametrize("a,b,error", [
    (0.5, 0j, ZeroPoint), (0j, 0.5, ZeroPoint),                  # were ZeroDivisionError
    (0.3 + 0.1j, 1e-160j, ZeroPoint), (1e-300j, 0.3 + 0.1j, ZeroPoint),  # were OverflowError
    (0.3 + 0.1j, 1e-300j, ZeroPoint),
    (1.5, 0.3j, OutsideDisk),                                    # was NoRealIntersection
    (complex(math.nan, 0.1), 0.3j, OutsideDisk),                 # was DegenerateInput
])
def test_midpoint_via_lens_validates_its_inputs_first(a, b, error):
    with pytest.raises(error):
        midpoint_via_lens(a, b)


@pytest.mark.parametrize("b", [0.3 + 0.1j, -0.7 + 0.2j, 0.9j])
def test_midpoint_via_lens_gives_a_point_or_a_typed_error_for_tiny_points(b):
    # |z| from 2**-540 to 2**-100, across the ZeroPoint cutoff 2**-511, as a and as b
    for e in range(-540, -99):
        tiny = 2.0 ** e * cmath.exp(1j * (e % 7))
        for pair in ((b, tiny), (tiny, b)):
            try:
                midpoint_via_lens(*pair)
            except (CollinearPoints, ZeroPoint):
                pass


def test_midpoint_via_inversion_equal_moduli_raises():
    with pytest.raises(EqualModuli):
        midpoint_via_inversion(0.5 + 0j, 0.5j)


# Literal pairs of the two regimes where L[a,b] and the endpoint chord nearly
# coincide.  Without the INVERSION_MIN_CURVATURE refusal the inversion returned
# the first pairs of each regime 2e-9 ... 2.2e-3 off; their geodesics have
# |A|/|B| of 7e-13 ... 8e-8.  The last three have |A|/|B| of 3e-3 ... 7e-3.
_INVERSION_PAIRS = {
    "near collinear with 0": [
        (0.40628174233822145 - 0.20955568856472107j, 0.49218197834614547 - 0.2538620994857304j),
        (-0.5835525420053785 - 0.5077249119614725j, -0.36075433846370497 - 0.3138774134117446j),
        (-0.35506282331801986 - 0.39995908688045645j, -0.5651952060940113 - 0.6366618678232254j),
        (0.5633385544946062 + 0.23610459123284236j, -0.7387817072065317 - 0.3030743905420494j),
        (0.11575887153083184 + 0.3235812733212059j, 0.1970714741963867 + 0.5474741689501796j),
        (0.4713428648033995 + 0.36013796987403457j, -0.3435094008418163 - 0.2575066152522364j),
    ],
    "tiny |b|": [
        (0.7439238653572801 + 0.5611692941527602j, 1.1289227511944645e-12 + 4.058015289947438e-13j),
        (-0.23117743609850325 - 0.16024126979248318j, -9.319120619735302e-11 - 4.944870309499919e-10j),
        (-0.1042037835804529 - 0.0407780384464421j, -5.408352336984625e-09 + 2.8140767656031242e-08j),
        (-0.18754429210341153 - 0.09139445761561635j, 0.0017825225588863744 - 0.0014569796147463664j),
        (0.297754486286145 - 0.21395091063427116j, 0.0006583038039729504 - 0.002528801474806851j),
        (0.12207429313564715 - 0.005124992422560036j, -0.004087161781407129 + 0.003449388009428846j),
    ],
}


@pytest.mark.parametrize("pairs", _INVERSION_PAIRS.values(), ids=_INVERSION_PAIRS)
def test_midpoint_via_inversion_refuses_a_nearly_straight_geodesic(pairs):
    outcomes = []
    for a, b in pairs:
        try:
            m = midpoint_via_inversion(a, b)
        except CollinearPoints:
            outcomes.append("refused")
            continue
        assert _midpoint_error(m, a, b) <= 1e-12, (a, b)
        outcomes.append("accepted")
    assert outcomes == ["refused"] * 3 + ["accepted"] * 3


# Literal pairs with b near a along a nearly radial line, the worst of a
# 60-digit sweep.  At a gap cut of 1e-6 the inversion returned the first three
# 1.1e-8, 9.1e-11 and 9.9e-12 off (gaps 1.6e-6, 1.6e-4, 5.9e-3); the last two
# have gaps 1.06e-2 and 1.58e-2 and geodesics with |A|/|B| of 0.12.
_B_NEAR_A_PAIRS = [
    (-0.328443120816341 - 0.5042178263812813j, -0.32844398811411 - 0.5042191529109686j),
    (-0.328443120816341 - 0.5042178263812813j, -0.32835639103944225 - 0.5040851734125464j),
    (-0.4244970896347341 + 0.6417713508400397j, -0.4277720771657865 + 0.6467108581007148j),
    (-0.6679211196791504 + 0.6111383016942076j, -0.6600452398813603 + 0.6041112612561347j),
    (-0.5940283656102795 - 0.7293871207876729j, -0.6039598070071748 - 0.7417384411596409j),
]


def test_midpoint_via_inversion_refuses_b_near_a_below_its_gap():
    outcomes = []
    for a, b in _B_NEAR_A_PAIRS:
        try:
            m = midpoint_via_inversion(a, b)
        except EqualModuli:
            outcomes.append("refused")
            continue
        assert _midpoint_error(m, a, b) <= 1e-12, (a, b)
        outcomes.append("accepted")
    assert outcomes == ["refused"] * 3 + ["accepted"] * 2


# ---------------------------------------------------------------------------
# geodesic intersections for cyclic quadruples


def test_two_perpendicular_diameters_meet_at_origin():
    assert geodesic_intersection_on_circle(1 + 0j, 1j, -1 + 0j, -1j) == 0j


def test_cyclic_order_rejects_swapped_points():
    with pytest.raises(InvalidCyclicOrder):
        check_cyclic_order((1 + 0j, -1 + 0j, 1j, -1j))
    with pytest.raises(InvalidCyclicOrder):
        chord_vs_geodesic_midpoint(1 + 0j, -1 + 0j, 1j, -1j)


def test_cyclic_order_rejects_interior_point():
    with pytest.raises(InvalidCyclicOrder):
        check_cyclic_order((0.5 + 0j, 1j, -1 + 0j, -1j))
    with pytest.raises(InvalidCyclicOrder):
        chord_vs_geodesic_midpoint(0.5 + 0j, 1j, -1 + 0j, -1j)


@given(st.tuples(st.floats(0.0, 2 * math.pi, exclude_max=True),
                 st.floats(0.3, 1.5), st.floats(0.3, 1.5), st.floats(0.3, 1.5)))
def test_geodesic_intersection_lies_on_both_geodesics(params):
    t0, g1, g2, g3 = params
    angles = [t0, t0 + g1, t0 + g1 + g2, t0 + g1 + g2 + g3]
    assume(angles[-1] - t0 < 2 * math.pi - 0.3)
    a, b, c, d = (cmath.exp(1j * t) for t in angles)
    w = geodesic_intersection_on_circle(a, b, c, d)
    assert abs(w) < 1
    for x, y in ((a, c), (b, d)):
        assert GenCircle.through(x, y, +1).residual(w) <= 1e-5


def _w_error(w, a, b, c, d):
    """|w - the smaller-modulus root of ((ac - bd) +- sqrt((a - b)(b - c)
    (c - d)(d - a))) / (a - b + c - d)|, that root found to 60 digits from
    the float inputs."""
    with localcontext(prec=60):
        a, b, c, d = map(_Dec, (a, b, c, d))
        root = ((a - b) * (b - c) * (c - d) * (d - a)).sqrt()
        P, den = a * c - b * d, a - b + c - d
        exact = min((P + root) / den, (P - root) / den, key=abs)
        return float(abs(_Dec(w) - exact))


def test_geodesic_intersection_of_four_close_points_matches_a_60_digit_root():
    # gaps of 1e-9 rad: the closed form's candidate filter refused this
    # quadruple, though its geodesics cross ~8.7e-10 inside the circle
    quad = [cmath.exp(1j * (1 + k * 1e-9)) for k in range(4)]
    w = geodesic_intersection_on_circle(*quad)
    assert 1 - abs(w) == pytest.approx(8.66e-10, rel=1e-3)
    assert _w_error(w, *quad) <= 1e-15


def test_geodesic_intersection_of_sampled_quadruples_matches_a_60_digit_root():
    # the closed form that took both candidates and filtered them reached
    # 2.8e-15 on these samples
    spec = SampleSpec(500, seed=5)
    quads = [sample_circle_quadruple(spec, i)[:4] for i in range(spec.count)]
    assert max(_w_error(geodesic_intersection_on_circle(*q), *q) for q in quads) <= 1e-15


@given(st.floats(0.0, 2 * math.pi, exclude_max=True),
       st.tuples(*[st.floats(-12.0, math.log10(2.0))] * 3))
def test_geodesic_intersection_of_tight_quadruples_lies_inside(t0, exponents):
    gaps = [10.0 ** e for e in exponents]      # at most 6 rad in all
    angles = [t0, t0 + gaps[0], t0 + gaps[0] + gaps[1], t0 + sum(gaps)]
    quad = [cmath.exp(1j * t) for t in angles]
    w = geodesic_intersection_on_circle(*quad)      # no GeometryError
    assert abs(w) < 1
    assert _w_error(w, *quad) <= 1e-15


def test_chord_vs_geodesic_midpoint_identity():
    a, b = cmath.exp(0.1j), cmath.exp(1.3j)
    c, d = cmath.exp(2.9j), cmath.exp(4.8j)
    f, m = chord_vs_geodesic_midpoint(a, b, c, d)
    # 0, f, m collinear and m is the hyperbolic midpoint of 0 and f
    assert abs((f * m.conjugate()).imag) <= IDENTITY_TOL
    assert abs(m - hyperbolic_midpoint(0j, f)) <= IDENTITY_TOL
