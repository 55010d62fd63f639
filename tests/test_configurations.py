"""Tests for the named intersection-point families."""

import cmath
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from diskgeom.errors import (
    CoincidentPoints,
    CollinearWithOrigin,
    DegenerateDenominator,
    GeometryError,
    NearBoundary,
    OutsideDisk,
    ZeroPoint,
)
from diskgeom.euclid import GenCircle, line_intersection, scale_of
from diskgeom import configurations
from diskgeom.configurations import (
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
from diskgeom.hyperbolic import hyperbolic_line, hyperbolic_midpoint
from diskgeom.verify import _residual_eleven_points, default_spec, sample_disk_pair

from conftest import polar_points, well_separated

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


# a is 1.1e-16 inside the unit circle: a geodesic endpoint denominator
# rounds to 0
NEAR_BOUNDARY_PAIRS = [
    (0.155022086178662 - 0.987911004492214j, 0.3 + 0.2j),
    (0.155022086178662 - 0.987911004492214j,
     0.19599454085957066 + 0.9806049866978375j),
]


@pytest.mark.parametrize("a,b", NEAR_BOUNDARY_PAIRS)
def test_build_config_refuses_a_vanishing_endpoint_denominator(a, b):
    with pytest.raises(NearBoundary):
        build_config(a, b)
    with pytest.raises(NearBoundary):
        family_report(a, b)


def test_build_config_reflections():
    cfg = build_config(0.5 + 0j, 0.3j)
    assert cfg.a_star == pytest.approx(2 + 0j)
    assert cfg.b_star == pytest.approx(1j / 0.3)


@pytest.mark.parametrize("record, fields", [
    (GenCircle(1.0, 0.5j, -0.75), ("A", "B", "C")),
    (hyperbolic_line(0.3 + 0.1j, -0.2 + 0.4j), ("carrier", "a", "b")),
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
    closed = five_points_euclid(cfg, path="closed_form")
    syn = five_points_euclid(cfg, path="synthetic")
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
    via_quad = five_points_chordal(cfg, path="quadratic")
    via_gcis = five_points_chordal(cfg, path="gcis")
    for x, y in zip(via_quad, via_gcis):
        assert abs(x - y) <= 1e-8 * scale_of(x, y)
    assert collinearity_residual([0j, *via_quad]) <= 1e-8


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
    closed = pq_family(cfg, path="closed_form")
    syn = pq_family(cfg, path="synthetic")
    for x, y in zip(closed, syn):
        assert abs(x - y) <= 1e-8 * scale_of(x, y)
    assert collinearity_residual([0j, *closed]) <= 1e-8


def test_pq_chordal_pair_has_no_cutoff_of_its_own_near_the_boundary():
    # |a| near 1 sends p's denominator below rounding, so pq_family refuses
    # there; p_c and q_c need only Q != 0, which build_config guarantees, and
    # still match the synthetic great-circle roots
    a = 0.971285102355175 - 0.23791857838940397j
    b = 0.04895685121867853 + 0.07952253489845575j
    cfg = build_config(a, b)
    with pytest.raises(DegenerateDenominator):
        pq_family(cfg)
    points, statuses, _ = family_report(a, b)
    assert statuses["p"].startswith("degenerate")
    assert statuses["p_c"] == statuses["q_c"] == "ok"
    _, _, pc, qc = pq_family(cfg, path="synthetic")
    assert abs(points["p_c"] - pc) <= 1e-14 * scale_of(pc)
    assert abs(points["q_c"] - qc) <= 1e-14 * scale_of(qc)


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
    # |1 - a conj(b)|^2 - |a - b|^2 = (1-|a|^2)(1-|b|^2), so near the
    # boundary the k_c / v_c denominators fall below rounding; others survive
    r = 1 - 1e-6
    a = r + 0j
    b = r * cmath.exp(1j)
    points, statuses, residual = family_report(a, b)
    assert statuses["k_c"].startswith("degenerate")
    assert statuses["v_c"].startswith("degenerate")
    assert statuses["u_c"] == "ok"
    assert residual is not None


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
    return regular + collinear + moduli + boundary


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
    # NaN pairs (inf - inf) are skipped and NaN points give NaN in both; abs
    # of a difference beyond the float range raises OverflowError in both
    def outcome(fn, points):
        try:
            return repr(fn(points))
        except OverflowError as exc:
            return repr(exc)

    rng, seen = random.Random(20260823), set()
    for _ in range(20_000):
        points = _any_points(rng)
        got = outcome(collinearity_residual, points)
        assert got == outcome(_previous_residual, points), points
        seen.add(got if got in ("nan", "0.0") or "Error" in got else "positive")
    assert seen == {"nan", "0.0", "positive", "OverflowError('absolute value too large')"}


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
    mab, m1, a2 = abs(a - b), abs(1 - a * b.conjugate()), abs(a) ** 2
    return (a, b, mab, m1, a2, abs(b) ** 2, abs(a * b) ** 2, h_vector(a, b),
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
    s = math.sqrt(R ** 2 + abs(H) ** 2)
    return (-R + sign * s) / abs(H) ** 2 * H


def _old_solved(value):
    if isinstance(value, tuple):
        _, H, R = value
        return _old_root(H, R, 1.0 if R >= 0 else -1.0)
    return value


def _old_pq_chordal(num, a2, mab, m1, sign):
    c2, c1 = num.conjugate(), sign * ((1 - a2) * m1 * (mab - m1))
    disc = cmath.sqrt(c1 * c1 - 4 * c2 * -num)
    roots = ((-c1 + disc) / (2 * c2), (-c1 - disc) / (2 * c2))
    return max(roots, key=lambda z: (z * num.conjugate()).real)


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
    "u_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_quadratic(H, 0.0),
    "v_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_quadratic(
        H, _old_boundary_R(a2, b2, m1, m1 - mab)),
    "p": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_checked_div(
        "p", num, (1 - a2) ** 2 + a2 * mab * (m1 - mab)),
    "q": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_checked_div(
        "q", num, b2 * (1 - a2) ** 2 + mab * (m1 - mab)),
    "p_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_pq_chordal(
        num, a2, mab, m1, -1.0),
    "q_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _old_pq_chordal(
        num, a2, mab, m1, 1.0),
    "H": lambda a, b, mab, m1, a2, b2, ab2, H, num: H,
}
_OLD_CHORDAL = ("k_c", "s_c", "t_c", "u_c", "v_c")
_OLD_H_FAMILY = ("k", "s", "t", "u", "v", "m", *_OLD_CHORDAL)


def _old_entries(cfg, names):
    x = _old_moduli(cfg.a, cfg.b)
    return tuple(_OLD_CLOSED_FORMS[name](*x) for name in names)


def _old_eleven_points(a, b):
    configurations._check_pair(a, b)
    x = _old_moduli(a, b)
    values = [_old_solved(form(*x)) for form in _OLD_CLOSED_FORMS.values()]
    return PointFamily(*values), _pairwise_residual([0j, *values[:11]])


def _old_family_report(a, b):
    cfg = build_config(a, b)
    points = {"a_star": cfg.a_star, "b_star": cfg.b_star,
              "a_end": cfg.a_end, "b_end": cfg.b_end}
    statuses = dict.fromkeys([*points, *_OLD_CLOSED_FORMS], "ok")
    x = _old_moduli(a, b)
    for name, form in _OLD_CLOSED_FORMS.items():
        try:
            points[name] = _old_solved(form(*x))
        except (DegenerateDenominator, NearBoundary) as exc:
            statuses[name] = f"degenerate: {exc}"
    h_family = [points[n] for n in _OLD_H_FAMILY if n in points]
    residual = _pairwise_residual([0j, *h_family]) if len(h_family) >= 2 else None
    return points, statuses, residual


def _old_family_paths(cfg):
    return {
        "five_points_euclid": lambda: _old_entries(cfg, ("k", "s", "t", "u", "v")),
        "five_points_chordal": lambda: tuple(
            _old_solved(q) for q in _old_entries(cfg, _OLD_CHORDAL)),
        "pq_family": lambda: _old_entries(cfg, ("p", "q", "p_c", "q_c")),
    }


def _new_family_paths(cfg):
    return {
        "five_points_euclid": lambda: five_points_euclid(cfg),
        "five_points_chordal": lambda: five_points_chordal(cfg),
        "pq_family": lambda: pq_family(cfg),
    }


def _outcome(fn):
    try:
        return ("value", fn())
    except GeometryError as exc:
        return ("error", type(exc), str(exc))


def _regular_and_near_pairs(count=150):
    """Regular pairs, then pairs within 1e-14 ... 1e-4 of collinear with 0,
    of |a| = |b| and of |a| = 1."""
    rng = random.Random(20260823)

    def regular():
        while True:
            a = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
            b = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
            if abs((a * b.conjugate()).imag) >= 0.05 * abs(a) * abs(b):
                return a, b

    pairs = [regular() for _ in range(count)]
    for kind in ("collinear", "moduli", "boundary"):
        for _ in range(count):
            a, b = regular()
            eps = 10.0 ** rng.uniform(-14, -4) * rng.choice((-1.0, 1.0))
            if kind == "collinear":
                turn = math.pi * rng.randrange(2) + eps
                b = abs(b) * (a / abs(a)) * cmath.exp(1j * turn)
            elif kind == "moduli":
                b = b / abs(b) * abs(a) * (1 + eps)
            else:
                a = a / abs(a) * (1 - abs(eps))
            pairs.append((a, b))
    return pairs


def test_kernels_match_the_closed_form_table_they_replaced():
    kinds = set()
    for a, b in _regular_and_near_pairs():
        for new, old in ((eleven_points, _old_eleven_points),
                         (family_report, _old_family_report)):
            outcome = _outcome(lambda: new(a, b))
            assert outcome == _outcome(lambda: old(a, b)), (new.__name__, a, b)
            kinds.add(outcome[1] if outcome[0] == "error" else "value")
        try:
            cfg = build_config(a, b)
        except GeometryError:
            continue
        old_paths, new_paths = _old_family_paths(cfg), _new_family_paths(cfg)
        for name, new in new_paths.items():
            outcome = _outcome(new)
            assert outcome == _outcome(old_paths[name]), (name, a, b)
            kinds.add(outcome[1] if outcome[0] == "error" else "value")
    assert {"value", CollinearWithOrigin, DegenerateDenominator, NearBoundary} <= kinds


def test_near_pairs_refuse_several_h_points_at_once():
    # a pair that refuses points of both the line and the great-circle
    # kernels is what makes the comparisons above check which error is first
    refused = []
    for a, b in _regular_and_near_pairs():
        try:
            statuses = family_report(a, b)[1]
        except GeometryError:
            continue
        refused.append({n for n in _OLD_H_FAMILY if statuses[n] != "ok"})
    assert sum(len(names) >= 2 for names in refused) >= 20
    assert any({"k", "k_c"} <= names for names in refused)


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


def test_each_closed_form_is_written_once():
    sources = "".join(path.read_text(encoding="utf-8")
                      for path in Path(configurations.__file__).parent.glob("*.py"))
    for formula in ("2 - 2 * re - mab * m1",                      # s's denominator
                    "(1 - a2) * (1 - b2) * m1",                   # k_c's, v_c's R
                    "b * (1 - a2) ** 2 + a * mab * (m1 - mab)",   # conj(Q)
                    "(1 - a2) ** 2 + a2 * mab * (m1 - mab)",      # p's denominator
                    "b2 * (1 - a2) ** 2 + mab * (m1 - mab)",      # q's denominator
                    "(1 - a2) * m1 * (mab - m1)",                 # p_c's, q_c's R
                    "sign * math.sqrt(R ** 2 + H2)",              # great-circle root
                    "1 - a2 * b2 + m1 * math.sqrt((1 - a2) * (1 - b2))",  # m's denominator
                    "line_intersection(g, h, a, c)"):             # conjecture point j
        assert sources.count(formula) == 1, formula


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
    assert {"value", CollinearWithOrigin, DegenerateDenominator, NearBoundary} <= kinds
