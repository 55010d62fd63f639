"""Tests for the named intersection-point families."""

import cmath
import math
import random
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from diskgeom.errors import (
    CoincidentPoints,
    CollinearWithOrigin,
    ConcentricCircles,
    DegenerateDenominator,
    GeometryError,
    NearBoundary,
    OutsideDisk,
    ParallelLines,
    ZeroPoint,
)
from diskgeom.euclid import GenCircle, line_intersection, midpoint_denominator, scale_of
from diskgeom.spherical import gcis_roots
from diskgeom import configurations
from diskgeom.configurations import (
    DiskConfig,
    PointFamily,
    build_config,
    collinearity_residual,
    eleven_points,
    family_report,
    five_points_chordal,
    five_points_euclid,
    h_vector,
    pq_family,
)
from diskgeom.hyperbolic import geodesic_endpoints, hyperbolic_midpoint
from diskgeom.oracles import chordal_points, line_points, pq_points
from diskgeom.verify import _residual_eleven_points, default_spec, sample_disk_pair

from conftest import _Dec, endpoint_error, polar_points, well_separated

FIGURE_TOL = 2e-3
IDENTITY_TOL = 1e-9


def _close(z: complex, x: float, y: float, tol: float = FIGURE_TOL) -> bool:
    return abs(z.real - x) <= tol and abs(z.imag - y) <= tol


# ---------------------------------------------------------------------------
# configuration validation


def test_build_config_rejects_zero():
    with pytest.raises(ZeroPoint):
        build_config(0j, 0.5 + 0j)


def test_build_config_rejects_exterior_point():
    with pytest.raises(OutsideDisk):
        build_config(0.5 + 0j, 1.5j)


@pytest.mark.parametrize("fn", [build_config, eleven_points, family_report])
@pytest.mark.parametrize("nan", [complex(math.nan, 0.3), complex(0.3, math.nan)])
@pytest.mark.parametrize("swap", [False, True])
def test_nan_coordinate_is_refused_as_outside_disk(fn, nan, swap):
    a, b = (0.5j, nan) if swap else (nan, 0.5j)
    with pytest.raises(OutsideDisk):
        fn(a, b)


def test_build_config_rejects_equal_points():
    with pytest.raises(CoincidentPoints):
        build_config(0.5 + 0.1j, 0.5 + 0.1j)


def test_build_config_rejects_collinear_with_origin():
    with pytest.raises(CollinearWithOrigin):
        build_config(0.5 + 0j, -0.25 + 0j)


# a is 1.1e-16 inside the unit circle, where the endpoints' old closed form
# refused the pair with NearBoundary
NEAR_BOUNDARY_PAIRS = [
    (0.155022086178662 - 0.987911004492214j, 0.3 + 0.2j),
    (0.155022086178662 - 0.987911004492214j,
     0.19599454085957066 + 0.9806049866978375j),
]


@pytest.mark.parametrize("a,b", NEAR_BOUNDARY_PAIRS)
def test_build_config_gives_accurate_endpoints_within_rounding_of_the_circle(a, b):
    cfg = build_config(a, b)
    points = family_report(a, b)[0]
    assert (points["a_end"], points["b_end"]) == (cfg.a_end, cfg.b_end)
    assert endpoint_error(cfg.a_end, a, b) <= 1e-15
    assert endpoint_error(cfg.b_end, b, a) <= 1e-15


def test_build_config_reflections():
    cfg = build_config(0.5 + 0j, 0.3j)
    assert cfg.a_star == pytest.approx(2 + 0j)
    assert cfg.b_star == pytest.approx(1j / 0.3)


@pytest.mark.parametrize("record, fields", [
    (GenCircle(1.0, 0.5j, -0.75), ("A", "B", "C")),
    (build_config(0.3 + 0.1j, -0.2 + 0.4j),
     ("a", "b", "a_star", "b_star", "a_end", "b_end")),
])
def test_records_keep_their_fields_and_refuse_assignment(record, fields):
    assert type(record)._fields == fields
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)


# ---------------------------------------------------------------------------
# line family: reference configuration


def test_line_family_reference_values():
    a, b = 0.5 + 0j, 0.7 * cmath.exp(1j)
    cfg = build_config(a, b)
    k, s, t, u, v = five_points_euclid(cfg)
    assert _close(k, -1.396, -1.145)
    assert _close(s, 0.488, 0.400)
    assert _close(t, 0.826, 0.677)
    assert _close(u, 0.613, 0.503)
    assert _close(v, 0.251, 0.206)
    assert _close(hyperbolic_midpoint(a, b), 0.381, 0.313)


@given(st.tuples(polar_points(), polar_points()))
def test_line_family_paths_agree_and_collinear(pts):
    a, b = pts
    assume(well_separated(a, b))
    cfg = build_config(a, b)
    closed = five_points_euclid(cfg)
    syn = line_points(cfg)
    for x, y in zip(closed, syn):
        assert abs(x - y) <= 1e-8 * scale_of(x, y)
    m = hyperbolic_midpoint(a, b)
    assert collinearity_residual([0j, *closed, m]) <= 1e-8


@given(st.tuples(polar_points(), polar_points()))
def test_family_points_are_real_multiples_of_H(pts):
    a, b = pts
    assume(well_separated(a, b))
    cfg = build_config(a, b)
    H = h_vector(a, b)
    for z in five_points_euclid(cfg):
        assert abs((z * H.conjugate()).imag) <= 1e-8 * max(1.0, abs(z)) * abs(H)


# ---------------------------------------------------------------------------
# chordal family: reference configuration


def test_chordal_family_reference_values():
    cfg = build_config(0.5 + 0j, 0.6 * cmath.exp(1j))
    kc, sc, tc, uc, vc = five_points_chordal(cfg)
    assert _close(kc, -0.213, -0.143)
    assert _close(sc, 0.541, 0.364)
    assert _close(tc, -0.541, -0.364)
    assert _close(uc, 0.829, 0.557)
    assert _close(vc, 0.213, 0.143)
    assert abs(abs(uc) - 1) <= IDENTITY_TOL
    assert abs(vc + kc) <= IDENTITY_TOL
    assert abs(tc + sc) <= IDENTITY_TOL


@given(st.tuples(polar_points(), polar_points()))
@settings(deadline=None)
def test_chordal_paths_agree_and_collinear(pts):
    a, b = pts
    assume(well_separated(a, b))
    cfg = build_config(a, b)
    via_quad = five_points_chordal(cfg)
    via_gcis = chordal_points(cfg)
    for x, y in zip(via_quad, via_gcis):
        assert abs(x - y) <= 1e-8 * scale_of(x, y)
    assert collinearity_residual([0j, *via_quad]) <= 1e-8


# Pairs on which a tie rule (the root nearer the chords' crossing, applied
# only when both roots lie within DISK_EDGE_TOL of the circle) gave the
# antipode, 2.0 away: of u_c, which lies on the circle with its antipode,
# for two pairs near collinear with 0 and two with a ~ b, and of t_c for
# two with a near the circle
_GCIS_ROOT_PAIRS = [
    (0.10753558014662712 + 0.08453972319197586j, -0.3478308158130301 - 0.2734476024045454j),
    (0.2174881404657019 + 0.14555853151643272j, -0.2733431346919387 - 0.18296549971086845j),
    (-0.4088295442266471 - 0.29768108585579545j, -0.40885108925546215 - 0.2976798703834611j),
    (-0.283387894360083 - 0.02009496922712539j, -0.2833865548408441 - 0.020097550943784855j),
    (0.7600075524436202 + 0.6499142406719002j, -0.5130085209695004 - 0.47553870856558483j),
    (-0.031249432647508336 + 0.9995116172207158j, 0.24409932724352523 + 0.3258911305986044j),
]


@pytest.mark.parametrize("a, b", _GCIS_ROOT_PAIRS)
def test_gcis_path_takes_the_papers_root_of_u_c_and_t_c(a, b):
    cfg = build_config(a, b)
    for x, y in zip(five_points_chordal(cfg), chordal_points(cfg)):
        assert abs(x - y) <= 1e-9 * scale_of(x, y)


def test_gcis_path_refuses_u_c_whose_chords_nearly_coincide():
    # a and b are within 1.6e-11 of the circle, so a* and b* are as near a
    # and b, and u's chords a-b* and b-a* nearly coincide: their crossing,
    # which gives u_c's side, is refused rather than read from rounding
    cfg = build_config(-0.40492570337635064 - 0.9143495910992993j,
                       -0.4181064984800435 - 0.9083980162340727j)
    with pytest.raises(ParallelLines):
        chordal_points(cfg)


# ---------------------------------------------------------------------------
# p/q family


def test_pq_family_reference_values():
    cfg = build_config(0.5 + 0j, 0.6 * cmath.exp(1j))
    p, q, pc, qc = pq_family(cfg)
    assert _close(p, 0.449, 0.467)
    assert _close(q, 0.710, 0.738)
    assert _close(pc, 0.524, 0.544)
    assert _close(qc, 0.917, 0.953)
    assert abs(qc) > 1  # the chordal q point lies outside the unit disk


@given(st.tuples(polar_points(), polar_points()))
@settings(deadline=None)
def test_pq_paths_agree_and_collinear_with_origin(pts):
    a, b = pts
    assume(well_separated(a, b))
    cfg = build_config(a, b)
    closed = pq_family(cfg)
    syn = pq_points(cfg)
    for x, y in zip(closed, syn):
        assert abs(x - y) <= 1e-8 * scale_of(x, y)
    assert collinearity_residual([0j, *closed]) <= 1e-8


def test_pq_chordal_pair_has_no_cutoff_of_its_own_near_the_boundary():
    # |a| near 1: p's and q's denominators are sums of positive terms, so
    # all four points are returned, and they match the synthetic path
    a = 0.971285102355175 - 0.23791857838940397j
    b = 0.04895685121867853 + 0.07952253489845575j
    cfg = build_config(a, b)
    points, statuses, _ = family_report(a, b)
    assert all(statuses[n] == "ok" for n in ("p", "q", "p_c", "q_c"))
    assert pq_family(cfg) == tuple(points[n] for n in ("p", "q", "p_c", "q_c"))
    for name, z in zip(("p", "q", "p_c", "q_c"), pq_points(cfg)):
        assert abs(points[name] - z) <= 1e-14 * scale_of(z), name


def test_pq_synthetic_definition():
    # p and q really are the stated chord intersections
    cfg = build_config(0.5 + 0j, 0.6 * cmath.exp(1j))
    p, q, _, _ = pq_family(cfg)
    assert abs(p - line_intersection(cfg.a, cfg.b_end, cfg.a_star, cfg.b)) <= 1e-12
    assert abs(q - line_intersection(cfg.a, cfg.b_star, cfg.a_star, cfg.b_end)) <= 1e-12


# ---------------------------------------------------------------------------
# full family


@given(st.tuples(polar_points(), polar_points()))
@settings(deadline=None)
def test_eleven_points_collinear(pts):
    a, b = pts
    assume(well_separated(a, b))
    fam, residual = eleven_points(a, b)
    assert residual <= 1e-8
    # u is the intersection of the cross chords L[a, b_star] and L[b, a_star]
    cfg = build_config(a, b)
    u = line_intersection(a, cfg.b_star, b, cfg.a_star)
    assert abs(u - fam.u) <= 1e-8 * scale_of(u)


def test_family_report_names_and_statuses():
    points, statuses, residual = family_report(0.5 + 0j, 0.6 * cmath.exp(1j))
    expected = {"k", "s", "t", "u", "v", "m", "k_c", "s_c", "t_c", "u_c",
                "v_c", "p", "q", "p_c", "q_c",
                "a_star", "b_star", "a_end", "b_end", "H"}
    assert expected <= set(points)
    assert all(status == "ok" for status in statuses.values())
    assert residual is not None and residual <= 1e-9


def test_family_report_flags_degenerate_points():
    # k's denominator X - P is within rounding of 0 (its two lines are
    # parallel); the other points divide by other sums and survive
    points, statuses, residual = family_report(
        0.6 + 0j, 0.2835975753991721 + 0.09783872049301807j)
    assert statuses["k"].startswith("degenerate")
    assert all(status == "ok" for name, status in statuses.items() if name != "k")
    assert residual <= 1e-9


def _k_root(a, b):
    """The point on the segment from a to b where k's denominator X - P,
    positive near a, is bisected to within rounding of 0; None when it is
    not negative at b."""
    def den(lam):
        re, mab, m1, _, _, ab2, _ = configurations._moduli(a, a + lam * (b - a))
        return 2 * re - 2 * ab2 - mab * m1

    lo, hi = 0.0, 1.0
    if not den(hi) < 0:
        return None
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if den(mid) > 0 else (lo, mid)
    return a + min(lo, hi, key=lambda lam: abs(den(lam))) * (b - a)


def _agreement_pairs():
    regular = [(0.5 + 0j, 0.6 * cmath.exp(1j)), (0.3 + 0.2j, -0.4 + 0.5j),
               (0.05 + 0.01j, 0.9 * cmath.exp(2.5j)), (-0.7 - 0.1j, 0.2 - 0.6j)]
    a = 0.6 * cmath.exp(0.3j)
    collinear = [(a, 0.4 * cmath.exp(1j * (0.3 + turn + eps)))
                 for turn in (0.0, cmath.pi) for eps in (1e-6, 1e-9, -1e-11)]
    moduli = [(a, 0.6 * (1 + eps) * cmath.exp(1.1j))
              for eps in (1e-6, 1e-10, -1e-14, 0.0)]
    boundary = [((1 - eps) * cmath.exp(0.4j), b)
                for eps in (1e-4, 1e-6, 1e-8, 1e-10, 1e-13)
                for b in (0.5 * cmath.exp(2j), 0.97 * cmath.exp(-0.5j))]
    parallel = [(a, _k_root(a, b)) for a, b in regular]
    return regular + collinear + moduli + boundary + parallel


def test_family_report_and_eleven_points_agree_bit_for_bit():
    # eleven_points either returns every point exactly as family_report
    # does, or raises the first degeneracy family_report flags
    outcomes = set()
    for a, b in _agreement_pairs():
        points, statuses, residual = family_report(a, b)
        try:
            fam, fam_residual = eleven_points(a, b)
        except GeometryError as exc:
            outcomes.add("raised")
            flagged = [s for s in statuses.values() if s != "ok"]
            assert flagged and flagged[0] == f"degenerate: {exc}", (a, b)
            continue
        outcomes.add("returned")
        assert all(s == "ok" for s in statuses.values()), (a, b)
        for field in PointFamily._fields:
            name = field if len(field) == 1 else field[0] + "_c"
            assert repr(points[name]) == repr(getattr(fam, field)), (a, b, name)
        assert repr(residual) == repr(fam_residual), (a, b)
    assert outcomes == {"raised", "returned"}


def test_collinearity_residual_exact_line():
    assert collinearity_residual([0j, 1 + 1j, 2 + 2j, -3 - 3j]) == 0.0


def test_collinearity_residual_detects_offset():
    assert collinearity_residual([0j, 1 + 0j, 1 + 1j]) > 0.1


def _pairwise_residual(points):
    """collinearity_residual's definition in complex arithmetic, pair by pair."""
    anchor = points[0]
    rel = [z - anchor for z in points[1:]]
    worst = 0.0
    for i in range(len(rel)):
        for j in range(i + 1, len(rel)):
            r = abs((rel[i] * rel[j].conjugate()).imag) \
                / max(1.0, abs(rel[i]) * abs(rel[j]))
            worst = max(worst, r)
    return worst


_coord = st.floats(min_value=-50.0, max_value=50.0)
_point = st.builds(complex, _coord, _coord)


@st.composite
def _nearly_collinear(draw):
    """Points anchor + t d, each moved off the line by at most 1e-9."""
    anchor, d = draw(_point), draw(_point)
    ts = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                       min_size=1, max_size=11))
    off = st.floats(min_value=-1e-9, max_value=1e-9)
    return [anchor, *(anchor + t * d + complex(draw(off), draw(off)) for t in ts)]


@given(st.one_of(st.lists(_point, min_size=2, max_size=12), _nearly_collinear()))
def test_collinearity_residual_equals_its_pairwise_definition(points):
    # moduli above 1 reach the max(1, |r_i||r_j|) normalization
    assert collinearity_residual(points) == _pairwise_residual(points)


def _previous_residual(points):
    """collinearity_residual's pair scan as it was before the signed test."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    if not all(map(cmath.isfinite, points)):
        return math.nan
    anchor = points[0]
    rel = [(r.real, r.imag, abs(r)) for r in [z - anchor for z in points[1:]]]
    worst = 0.0
    for i, (xi, yi, mi) in enumerate(rel):
        for xj, yj, mj in rel[i + 1:]:
            r = abs(xi * -yj + yi * xj)
            if r > worst:
                d = mi * mj
                if d > 1.0:
                    r /= d
                if r > worst:
                    worst = r
    return worst


def _any_points(rng):
    """2-12 points with signed zeros, small integers and coordinates up to
    1e308, so that differences and products overflow; in one list of six,
    one point has a NaN or inf coordinate."""
    def coord():
        kind = rng.random()
        if kind < 0.3:
            return rng.choice((0.0, -0.0, 1.0, -1.0, 2.0, 1e308, -1e308, 1.7e308))
        if kind < 0.5:
            return float(rng.randint(-3, 3))
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 308)

    points = [complex(coord(), coord()) for _ in range(rng.randint(2, 12))]
    if rng.random() < 1 / 6:
        points[rng.randrange(len(points))] = complex(
            coord(), rng.choice((math.nan, math.inf, -math.inf)))
    return points


def test_collinearity_residual_is_the_previous_scan_bit_for_bit():
    # NaN pairs (inf - inf) are skipped and NaN points give NaN in both; a
    # point with |z| >= 2**510, or beyond the float range, where the previous
    # scan could overflow, now gives NaN
    def outcome(fn, points):
        try:
            return repr(fn(points))
        except OverflowError as exc:
            return repr(exc)

    def expected(points):
        try:
            far = max(map(abs, points)) >= 2.0 ** 510
        except OverflowError:
            far = True
        return "nan" if far else outcome(_previous_residual, points)

    rng, seen = random.Random(20260823), set()
    for _ in range(20_000):
        points = _any_points(rng)
        got = outcome(collinearity_residual, points)
        assert got == expected(points), points
        seen.add(got if got in ("nan", "0.0") or "Error" in got else "positive")
    assert seen == {"nan", "0.0", "positive"}


def test_collinearity_residual_is_nan_where_the_scan_could_overflow():
    # exact residual 0.0995: |r_1| |r_2| overflowed and the scan gave 0.0
    assert math.isnan(collinearity_residual([0j, 1e200 + 0j, 1e109 + 1e108j]))
    # exact residual 0.707: abs(r_1) raised OverflowError
    assert math.isnan(collinearity_residual([0j, 1.7e308 + 1.7e308j, 1j]))
    assert math.isnan(collinearity_residual([0j, 2.0 ** 510, 1j]))
    assert collinearity_residual([0j, 2.0 ** 509, 2.0 ** 509 * 1j]) == 1.0


@pytest.mark.parametrize("points", [[], [0.5j]])
def test_collinearity_residual_needs_two_points(points):
    with pytest.raises(ValueError):
        collinearity_residual(points)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                 complex(-math.inf, math.nan)])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_collinearity_residual_is_nan_for_a_non_finite_point(bad, where):
    points = [0j, 1 + 0j, 2 + 0j]
    points[where] = bad
    assert math.isnan(collinearity_residual(points))


# ---------------------------------------------------------------------------
# the kernels against the closed-form table they replaced


def _old_moduli(a, b):
    mab, m1, a2, b2 = abs(a - b), abs(1 - a * b.conjugate()), abs(a) ** 2, abs(b) ** 2
    return (a, b, mab, m1, a2, b2, abs(a * b) ** 2, a * (1 - b2) + b * (1 - a2),
            b * (1 - a2) ** 2 + a * mab * (m1 - mab))


def _old_checked_div(name, num, den):
    if abs(den) <= 1e-12:
        raise DegenerateDenominator(f"denominator of {name} vanishes")
    return num / den


def _old_boundary_R(a2, b2, m1, gap):
    if abs(gap) <= 1e-10:
        raise NearBoundary("|a-b| within rounding of |1 - a conj(b)|")
    return (1 - a2) * (1 - b2) * m1 / gap


def _old_quadratic(H, R):
    if H == 0:
        raise CoincidentPoints("H must be nonzero")
    if not math.isfinite(R):
        raise NearBoundary("R is not finite")
    return ("quadratic", H, R)


def _old_root(H, R, sign):
    s = (R ** 2 + abs(H) ** 2).sqrt()
    return (-R + sign * s) / abs(H) ** 2 * H


def _old_solved(value):
    if isinstance(value, tuple):
        _, H, R = value
        return _old_root(H, R, 1 if R >= 0 else -1)
    return value


def _old_pq_chordal(num, a2, mab, m1, sign):
    c2, c1 = num.conjugate(), sign * ((1 - a2) * m1 * (mab - m1))
    disc = (c1 * c1 - 4 * c2 * -num).sqrt()
    roots = ((-c1 + disc) / (2 * c2), (-c1 - disc) / (2 * c2))
    return max(roots, key=lambda z: (z * num.conjugate()).real)


# The table's forms, over _old_moduli's values: floats for k ... v, m and H,
# Decimal and _Dec for the great-circle and p/q entries (_references).
_OLD_CLOSED_FORMS = {
    "k": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_checked_div(
        "k", (mab - m1) * H, (1 - ab2) * mab + (2 * ab2 - (a2 + b2)) * m1),
    "s": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_checked_div(
        "s", H, 2 - 2 * (a * b.conjugate()).real - mab * m1),
    "t": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_checked_div(
        "t", H, 2 * (a * b.conjugate()).real - 2 * ab2 + mab * m1),
    "u": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_checked_div("u", H, 1 - ab2),
    "v": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_checked_div(
        "v", (m1 - mab) * H, (2 - (a2 + b2)) * m1 - (1 - ab2) * mab),
    "m": lambda a, b, mab, m1, a2, b2, ab2, H, num: hyperbolic_midpoint(a, b),
    "k_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_quadratic(
        H, _old_boundary_R(a2, b2, m1, mab - m1)),
    "s_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_quadratic(H, m1 * (m1 - mab)),
    "t_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_quadratic(H, m1 * (mab - m1)),
    "u_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_quadratic(H, 0),
    "v_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_quadratic(
        H, _old_boundary_R(a2, b2, m1, m1 - mab)),
    "p": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_checked_div(
        "p", num, (1 - a2) ** 2 + a2 * mab * (m1 - mab)),
    "q": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_checked_div(
        "q", num, b2 * (1 - a2) ** 2 + mab * (m1 - mab)),
    "p_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_pq_chordal(
        num, a2, mab, m1, -1),
    "q_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_pq_chordal(
        num, a2, mab, m1, 1),
    "H": lambda a, b, mab, m1, a2, b2, ab2, H, num: H,
}
# s, t, u, m and H keep the table's bits; the others were rewritten
_KEPT = ("s", "t", "u", "m", "H")
_REWRITTEN = ("k", "v", "k_c", "s_c", "t_c", "u_c", "v_c", "p", "q", "p_c", "q_c")


def _old_kept(a, b, validate, names=_KEPT):
    """The table's entries for names after validate(a, b), raising the first
    refusal."""
    validate(a, b)
    x = _old_moduli(a, b)
    return tuple(_OLD_CLOSED_FORMS[name](*x) for name in names)


def _old_kept_report(a, b):
    """family_report's points and statuses of s, t, u, m and H, by the table."""
    build_config(a, b)
    x, points, statuses = _old_moduli(a, b), {}, {}
    for name in _KEPT:
        try:
            points[name], statuses[name] = _OLD_CLOSED_FORMS[name](*x), "ok"
        except DegenerateDenominator as exc:
            statuses[name] = f"degenerate: {exc}"
    return points, statuses


def _kept_report(a, b):
    points, statuses, _ = family_report(a, b)
    return {n: points[n] for n in _KEPT if n in points}, {n: statuses[n] for n in _KEPT}


def _outcome(fn):
    try:
        return ("value", fn())
    except GeometryError as exc:
        return ("error", type(exc), str(exc))


def _regular_and_near_pairs(count=150):
    """Regular pairs, then pairs within 1e-14 ... 1e-4 of collinear with 0,
    of |a| = |b| and of |a| = 1, then pairs with k's denominator within
    rounding of 0."""
    rng = random.Random(20260823)

    def regular():
        while True:
            a = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
            b = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
            if abs((a * b.conjugate()).imag) >= 0.05 * abs(a) * abs(b):
                return a, b

    pairs = [regular() for _ in range(count)]
    for kind in ("collinear", "moduli", "boundary", "parallel"):
        for _ in range(count):
            a, b = regular()
            eps = 10.0 ** rng.uniform(-14, -4) * rng.choice((-1.0, 1.0))
            if kind == "collinear":
                turn = math.pi * rng.randrange(2) + eps
                b = abs(b) * (a / abs(a)) * cmath.exp(1j * turn)
            elif kind == "moduli":
                b = b / abs(b) * abs(a) * (1 + eps)
            elif kind == "boundary":
                a = a / abs(a) * (1 - abs(eps))
            else:
                while (root := _k_root(a, b)) is None:
                    a, b = regular()
                b = root
            pairs.append((a, b))
    return pairs


def test_kernels_match_the_closed_form_table_they_replaced():
    # s, t, u, m and H keep the table's bits and refusals.  k comes first,
    # so a call that raises k's refusal has no table outcome to match;
    # family_report's statuses keep the comparison for those pairs.
    kinds = set()
    for a, b in _regular_and_near_pairs():
        for new, old in (
                (lambda: tuple(getattr(eleven_points(a, b)[0], n) for n in _KEPT),
                 lambda: _old_kept(a, b, configurations._check_pair)),
                (lambda: five_points_euclid(build_config(a, b))[1:4],
                 lambda: _old_kept(a, b, build_config, "stu")),
                (lambda: _kept_report(a, b), lambda: _old_kept_report(a, b))):
            outcome = _outcome(new)
            kinds.add(outcome[1] if outcome[0] == "error" else "value")
            if outcome[2:] != ("denominator of k vanishes",):
                assert repr(outcome) == repr(_outcome(old)), (a, b)
    assert {"value", CollinearWithOrigin, DegenerateDenominator} <= kinds


def _reference_build_config(a, b):
    """build_config as it was: _check_pair, then geodesic_endpoints, which
    validates the pair a second time."""
    configurations._check_pair(a, b)
    a_end, b_end = geodesic_endpoints(a, b)
    return DiskConfig(a, b, 1 / a.conjugate(), 1 / b.conjugate(), a_end, b_end)


def _reference_family_report(a, b):
    """family_report as it was: through a DiskConfig, and one loop over all
    sixteen names whether or not a line-family point refused."""
    cfg = _reference_build_config(a, b)
    points = {"a_star": cfg.a_star, "b_star": cfg.b_star,
              "a_end": cfg.a_end, "b_end": cfg.b_end}
    statuses = dict.fromkeys([*points, *configurations._NAMES], "ok")
    re, mab, m1, a2, b2, ab2, H = configurations._moduli(a, b)
    line = []
    configurations._line_family(re, mab, m1, ab2, H, line)
    kc, sc, uc = configurations._chordal_family(mab, m1, a2, b2, H)
    m = H / midpoint_denominator(a2, b2, m1, 1)
    pq = configurations._pq_family(b, mab, m1, a2, b2, ab2, H)
    for name, value in zip(configurations._NAMES,
                           [*line, m, kc, sc, -sc, uc, -kc, *pq, H]):
        if isinstance(value, GeometryError):
            statuses[name] = f"degenerate: {value}"
        else:
            points[name] = value
    line = [z for z in line if not isinstance(z, GeometryError)]
    return points, statuses, collinearity_residual([0j, *line, m, kc, sc, uc])


def _report_outcome(fn, a, b):
    """fn(a, b) with dicts as their item lists, so that key order counts, and
    floats by repr; or the class and message of its GeometryError."""
    try:
        result = fn(a, b)
    except GeometryError as exc:
        return ("error", type(exc), str(exc))
    if isinstance(result, DiskConfig):
        return ("value", repr(result))
    points, statuses, residual = result
    return ("value", repr(list(points.items())), list(statuses.items()), repr(residual))


def test_family_report_and_build_config_keep_the_reference_layout_bit_for_bit():
    kinds = set()
    k_root = (0.6 + 0j, 0.2835975753991721 + 0.09783872049301807j)
    for a, b in _regular_and_near_pairs() + [k_root]:
        for new, old in ((family_report, _reference_family_report),
                         (build_config, _reference_build_config)):
            outcome = _report_outcome(new, a, b)
            assert outcome == _report_outcome(old, a, b), (a, b, new.__name__)
            kinds.add(outcome[1] if outcome[0] == "error" else "value")
            if new is family_report and outcome[0] == "value":
                kinds.update(s for _, s in outcome[2] if s != "ok")
    assert {"value", CollinearWithOrigin, "degenerate: denominator of k vanishes"} <= kinds


@pytest.mark.parametrize("a, b, error, message", [
    (0j, 1.5 + 0j, ZeroPoint, "a and b must be nonzero"),
    (1.5 + 0.5j, 1.5 + 0.5j, OutsideDisk, "points must lie in the open unit disk"),
    (0.3 + 0.3j, 0.3 + 0.3j, CoincidentPoints, "a and b must be distinct"),
], ids=["zero_and_outside", "equal_and_outside", "equal_and_collinear"])
def test_an_input_that_trips_two_guards_raises_the_first(a, b, error, message):
    for fn in (family_report, eleven_points, configurations.h_family, build_config):
        with pytest.raises(error) as info:
            fn(a, b)
        assert str(info.value) == message, fn.__name__
    for fn in (_reference_family_report, _reference_build_config):
        assert _report_outcome(fn, a, b) == ("error", error, message)


def _new_closed_forms(a, b, mab, m1, a2, b2, ab2, H, num):
    """k, v and the great-circle and p/q forms, which subtract neither
    modulus from the other, over _old_moduli."""
    def root(H, R):
        s = (R * R + abs(H) ** 2).sqrt()
        return H / (R + s) if R >= 0 else H / (R - s)

    re = (a * b.conjugate()).real
    X, Y, mm = 2 * re - 2 * ab2, 2 - 2 * re, mab * m1
    P, sigma, N = (1 - a2) * (1 - b2), m1 + mab, mab * H + m1 * (1 - a2) * b
    kc, sc, pc = root(H, -m1 * sigma), root(H, m1 * P / sigma), root(N, m1 * P / 2)
    return {"k": H / (X - mm), "v": H / (Y + mm),
            "k_c": kc, "s_c": sc, "t_c": -sc, "u_c": root(H, 0), "v_c": -kc,
            "p": N / (mab * (1 - ab2) + m1 * (1 - a2)),
            "q": N / (mab * (1 - ab2) + m1 * b2 * (1 - a2)),
            "p_c": pc, "q_c": 1 / pc.conjugate()}


# The table's k_c, v_c lose ~11 digits to mab - m1 at 1 - |a| = 1e-14 even
# in decimal: 50 digits agree with the rewritten forms to 1.2e-39, 60 to 7e-50.
_DIGITS = 60


def _references(a, b):
    """The table's great-circle and p/q points that it does not refuse, and
    the rewritten forms, both evaluated on the float inputs to _DIGITS digits."""
    with localcontext(prec=_DIGITS):
        x = _old_moduli(_Dec(a), _Dec(b))
        old = {}
        for name in _REWRITTEN:
            try:
                old[name] = _old_solved(_OLD_CLOSED_FORMS[name](*x))
            except (DegenerateDenominator, NearBoundary):
                pass
        return old, _new_closed_forms(*x)


def _relative_errors(a, b):
    """Each family_report point k_c ... q_c against its decimal value,
    relative to the point; a refused point is infinitely far off."""
    points, _, _ = family_report(a, b)
    _, exact = _references(a, b)
    with localcontext(prec=_DIGITS):
        return {name: abs(_Dec(points[name]) - exact[name]) / abs(exact[name])
                if name in points else math.inf for name in _REWRITTEN}


def test_rewritten_forms_are_the_table_forms_in_decimal():
    # the algebra: in decimal the rewritten forms are the table's forms
    compared = 0
    for a, b in _regular_and_near_pairs():
        try:
            configurations._check_pair(a, b)
        except GeometryError:
            continue
        old, new = _references(a, b)
        with localcontext(prec=_DIGITS):
            for name, value in old.items():
                assert abs(value - new[name]) <= Decimal("1e-40") * abs(new[name]), \
                    (a, b, name)
                compared += 1
    assert compared >= 500 * len(_REWRITTEN)


def test_great_circle_and_pq_points_are_accurate_on_regular_and_near_pairs():
    worst, count = 0, 0
    for a, b in _regular_and_near_pairs():
        try:
            errors = _relative_errors(a, b)
        except GeometryError:
            continue
        if errors["k"] == math.inf:    # refused: X - P = H / k must be ~0
            with localcontext(prec=_DIGITS):
                x = _old_moduli(_Dec(a), _Dec(b))
                assert abs(x[-2] / _new_closed_forms(*x)["k"]) <= Decimal("2e-12"), (a, b)
            del errors["k"]
        worst, count = max(worst, *errors.values()), count + 1
        assert all(e <= Decimal("1e-12") for e in errors.values()), (a, b, errors)
    assert count >= 500 and worst > 0


def test_great_circle_and_pq_points_hold_with_a_and_b_near_the_unit_circle():
    # both |a| and |b| within 1e-12 ... 1e-2 of 1; 1 - |a|^2 is rounded
    # there, so the points are less accurate, but never on the wrong side
    count = 0
    for a, b in _pairs_that_the_pq_paths_find_hard()[3::4]:
        try:
            errors = _relative_errors(a, b)
        except GeometryError:
            continue
        count += 1
        assert all(e < Decimal("1e-3") for e in errors.values()), (a, b, errors)
    assert count >= 90


def _one_midpoint_and_one_h(a, b):
    """Check m and H of family_report, and of eleven_points unless it refuses
    the pair, against hyperbolic_midpoint and h_vector bit for bit; return
    whether eleven_points returned."""
    points = family_report(a, b)[0]
    assert repr(hyperbolic_midpoint(a, b)) == repr(points["m"]), (a, b)
    assert repr(h_vector(a, b)) == repr(points["H"]), (a, b)
    try:
        fam = eleven_points(a, b)[0]
    except GeometryError:
        return False
    assert (repr(fam.m), repr(fam.H)) == (repr(points["m"]), repr(points["H"])), (a, b)
    return True


def test_midpoint_and_h_are_the_kernels_own_on_regular_and_near_pairs():
    returned = []
    for a, b in _regular_and_near_pairs():
        try:
            build_config(a, b)
        except GeometryError:
            continue
        returned.append(_one_midpoint_and_one_h(a, b))
    assert returned.count(True) >= 400 and returned.count(False) >= 20


@given(st.tuples(polar_points(0.0, 0.999999), polar_points(0.0, 0.999999)))
def test_midpoint_and_h_are_the_kernels_own(pts):
    a, b = pts
    try:
        build_config(a, b)
    except GeometryError:
        assume(False)
    _one_midpoint_and_one_h(a, b)


def _old_pq_synthetic(cfg):
    """The synthetic p/q path that picked each great-circle root by conj(Q)."""
    d = _old_moduli(cfg.a, cfg.b)[-1].conjugate()

    def pick(roots):
        return roots[1] if (roots[1] * d).real > (roots[0] * d).real else roots[0]

    p = (cfg.a, cfg.b_end, cfg.a_star, cfg.b)
    q = (cfg.a, cfg.b_star, cfg.a_star, cfg.b_end)
    return (line_intersection(*p), line_intersection(*q),
            pick(gcis_roots(*p)), pick(gcis_roots(*q)))


def _pairs_that_the_pq_paths_find_hard(count=100):
    """Pairs with |a| or |b| in 1e-14 ... 1e-10, within 1e-12 ... 1e-10 of
    collinear with 0, and with both |a| and |b| within 1e-12 ... 1e-2 of 1."""
    rng = random.Random(20261019)

    def point(r):
        return cmath.rect(r, rng.uniform(0, 2 * math.pi))

    def regular():
        return point(rng.uniform(0.05, 0.95))

    pairs = []
    for _ in range(count):
        a, b, tiny = regular(), regular(), 10.0 ** rng.uniform(-14, -10)
        turn = math.pi * rng.randrange(2) \
            + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -10)
        pairs += [(a, point(tiny)), (point(tiny), b),
                  (a, abs(b) * a / abs(a) * cmath.exp(1j * turn)),
                  (point(1 - 10.0 ** rng.uniform(-12, -2)),
                   point(1 - 10.0 ** rng.uniform(-12, -2)))]
    return pairs


def test_pq_synthetic_path_picks_roots_as_the_conj_q_pick_did():
    kinds, differ = set(), 0
    for a, b in _regular_and_near_pairs() + _pairs_that_the_pq_paths_find_hard():
        try:
            cfg = build_config(a, b)
        except GeometryError:
            continue
        outcome = _outcome(lambda: pq_points(cfg))
        kinds.add(outcome[1] if outcome[0] == "error" else "value")
        if repr(outcome) != repr(_outcome(lambda: _old_pq_synthetic(cfg))):
            # The picks differ only with |a| and |b| both near 1.  There
            # either the float conj(Q) pointed the wrong way, and N points
            # as the synthetic pick does, or the synthetic p (q) the pick
            # follows is off by more than its own size.
            differ += 1
            assert min(abs(a), abs(b)) > 0.98, (a, b)
            syn_p, syn_q, syn_pc, syn_qc = outcome[1]
            p, q, _, _ = pq_family(cfg)                 # positive multiples of N
            for syn, pick, closed in ((syn_p, syn_pc, p), (syn_q, syn_qc, q)):
                assert (pick * closed.conjugate()).real > 0 \
                    or abs(syn - closed) > abs(closed), (a, b)
    assert {"value", ConcentricCircles, ParallelLines} <= kinds
    assert differ > 0


def test_synthetic_p_holds_where_its_chords_nearly_coincide():
    # a is within 7.5e-9 of a* and b within 2.5e-8 of b_end, so p's chords
    # a-b_end and a*-b are 2.6e-11 rad apart; p leans on b_end's accuracy
    cfg = build_config(-0.6731341964429591 + 0.7395203486571915j,
                       0.040708672749744386 + 0.999171058376303j)
    assert abs(pq_points(cfg)[0] - pq_family(cfg)[0]) <= 1e-6


# each map of the inputs, and how many PointFamily points follow it exactly:
# all fifteen under the three maps of the plane, the eleven H-direction
# points (which the swap leaves in place) under the swap
_SYMMETRIES = {
    "swap": (None, 11),
    "conjugation": (complex.conjugate, 15),
    "rotation by i": (lambda z: complex(-z.imag, z.real), 15),
    "negation": (lambda z: -z, 15),
}


@pytest.mark.parametrize("symmetry", list(_SYMMETRIES))
@given(st.tuples(polar_points(0.0, 0.999999), polar_points(0.0, 0.999999)))
def test_eleven_points_are_exactly_equivariant(symmetry, pts):
    a, b = pts
    fn, count = _SYMMETRIES[symmetry]
    moved = (b, a) if fn is None else (fn(a), fn(b))
    before = _outcome(lambda: eleven_points(a, b)[0][:count])
    after = _outcome(lambda: eleven_points(*moved)[0][:count])
    if before[0] == "error":
        assert after[:2] == before[:2], (a, b)
    else:
        expected = before[1] if fn is None else tuple(map(fn, before[1]))
        # no tolerance; == and not repr, as an exact 0 may change its sign
        assert after == ("value", expected), (a, b)


_H_NAMES = ("k", "s", "t", "u", "v", "m", "k_c", "s_c", "t_c", "u_c", "v_c")


def _parts(z):
    """repr of (real, imag), so that a zero's sign counts."""
    return repr((z.real, z.imag))


def _nine_point_identity(a, b):
    """t_c = -s_c and v_c = -k_c bit for bit in eleven_points, family_report
    and five_points_chordal, and each H-family residual equal to the
    residual over all eleven points by repr.  Returns whether family_report
    flagged a line-family point, or None when it refused the pair."""
    try:
        points, statuses, residual = family_report(a, b)
    except GeometryError:
        return None
    kc, sc, tc, uc, vc = five_points_chordal(build_config(a, b))
    assert (_parts(tc), _parts(vc)) == (_parts(-sc), _parts(-kc)), (a, b)
    assert (_parts(points["t_c"]), _parts(points["v_c"])) \
        == (_parts(-points["s_c"]), _parts(-points["k_c"])), (a, b)
    eleven = [points[n] for n in _H_NAMES if n in points]
    assert repr(residual) == repr(collinearity_residual([0j, *eleven])), (a, b)
    try:
        fam, fam_residual = eleven_points(a, b)
    except GeometryError:
        return True
    assert (_parts(fam.tc), _parts(fam.vc)) == (_parts(-fam.sc), _parts(-fam.kc)), (a, b)
    assert repr(fam_residual) == repr(collinearity_residual([0j, *fam[:11]])), (a, b)
    return any(statuses[n] != "ok" for n in _H_NAMES)


@given(st.tuples(polar_points(0.0, 0.999999), polar_points(0.0, 0.999999)))
def test_nine_distinct_points_give_the_eleven_point_residual(pts):
    _nine_point_identity(*pts)


def test_nine_distinct_points_give_the_eleven_point_residual_on_near_pairs():
    flagged = [_nine_point_identity(a, b) for a, b in _regular_and_near_pairs()]
    # some family_report pairs drop a degenerate line point from the residual
    assert flagged.count(False) >= 500 and flagged.count(True) >= 20


def test_each_closed_form_is_written_once():
    sources = "".join(path.read_text(encoding="utf-8")
                      for path in Path(configurations.__file__).parent.glob("*.py"))
    for formula in ("2 * re - 2 * ab2, 2 - 2 * re, mab * m1",     # X, Y, P
                    '("k", X - P)',                               # k's denominator
                    '("s", Y - P)',                               # s's denominator
                    '("t", X + P)',                               # t's denominator
                    '("u", 1 - ab2)',                             # u's denominator
                    '("v", Y + P)',                               # v's denominator
                    "-m1 * (m1 + mab)",                           # k_c's R
                    "m1 * ((1 - a2) * (1 - b2)) / (m1 + mab)",    # s_c's R
                    "mab * H + m1 * (1 - a2) * b",                # N
                    "mab * (1 - ab2) + m1 * (1 - a2)",            # p's denominator
                    "mab * (1 - ab2) + m1 * b2 * (1 - a2)",       # q's denominator
                    "math.sqrt(R * R + H2)",                      # great-circle root
                    "a * (1 - s * b2) + b * (1 - s * a2)",        # H_s
                    "1 - a2 * b2 + m1 * math.sqrt((1 - s * a2) * (1 - s * b2))",  # m's den.
                    "line_intersection(g, h, a, c)"):             # conjecture point j
        assert sources.count(formula) == 1, formula
    # every great-circle and p/q root goes through spherical.quadratic_root
    assert "math.sqrt" not in Path(configurations.__file__).read_text(encoding="utf-8")


def test_no_source_subtracts_the_two_moduli():
    # mab = |a - b| and m1 = |1 - a conj(b)| cancel near the unit circle;
    # m1^2 - mab^2 = (1 - |a|^2)(1 - |b|^2) writes every form without it
    for path in Path(configurations.__file__).parents[1].rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "mab - m1" not in text and "m1 - mab" not in text, path


def test_eleven_point_check_residual_is_eleven_points_residual_without_pq():
    # the eleven_points check computes only the H family; its residual must
    # be eleven_points' own, bit for bit, or the same GeometryError class
    spec = default_spec("eleven_points", 400, 11)
    sampled = [sample_disk_pair(spec, i) for i in range(spec.count)]
    kinds = set()
    for a, b in sampled + _regular_and_near_pairs(100):
        outcome = _outcome(lambda: _residual_eleven_points((a, b)))
        assert repr(outcome) == repr(_outcome(lambda: eleven_points(a, b)[1])), (a, b)
        kinds.add(outcome[1] if outcome[0] == "error" else "value")
    assert {"value", CollinearWithOrigin, DegenerateDenominator} <= kinds
