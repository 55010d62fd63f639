"""Hyperbolic metric, Moebius maps, geodesics, and midpoint constructions
in the Poincare unit disk."""

from __future__ import annotations

import cmath
import math

from .errors import (
    DEGENERACY_TOL, DISK_EDGE_TOL, INVERSION_MIN_CURVATURE, INVERSION_MIN_GAP,
    LENS_MIN_CURVATURE, POLE_TOL, UNIT_CIRCLE_TOL,
    CoincidentPoints,
    CollinearPoints,
    EqualModuli,
    InvalidCyclicOrder,
    NearBoundary,
    NoInDiskRoot,
    NoRealIntersection,
    OriginIntersection,
    PoleHit,
    ZeroPoint,
    require_in_disk,
)
from .euclid import GenCircle, line_intersection
from . import euclid

_TINY = 2.0 ** -511    # |1/conj(z)|^2 = |z|^-2 is finite for |z| >= _TINY


def ahlfors_bracket(x: complex, y: complex) -> float:
    """A[x,y] = |1 - x conj(y)|."""
    return abs(1 - x * y.conjugate())


def rho(x: complex, y: complex) -> float:
    """Hyperbolic distance in the unit disk.  A ratio |x - y| / A[x,y] that
    rounds to 1, possible only when |x| or |y| is within rounding of 1,
    raises NearBoundary."""
    require_in_disk(x, y)
    ratio = abs(x - y) / ahlfors_bracket(x, y)
    if ratio >= 1:
        raise NearBoundary("|x - y| / |1 - x conj(y)| rounds to 1")
    return 2 * math.atanh(ratio)


def mobius_T(a: complex, z: complex) -> complex:
    """T_a(z) = (z - a) / (1 - conj(a) z), the disk automorphism with
    T_a(a) = 0 and fixed points +-a/|a|."""
    require_in_disk(a)
    den = 1 - a.conjugate() * z
    if abs(den) <= POLE_TOL:
        raise PoleHit("z is the pole of T_a")
    return (z - a) / den


def geodesic_end(x: complex, y: complex) -> complex:
    """Endpoint on the x side of the geodesic through x, y: T_{-x}(-u) for
    u = T_x(y)/|T_x(y)|, written out, as mobius_T can refuse x near |x| = 1.
    It validates x only (in mobius_T): callers that have already validated
    the pair, as configurations._check_pair does, call it directly."""
    w = mobius_T(x, y)
    u = w / abs(w)
    return (x - u) / (1 - x.conjugate() * u)


def geodesic_endpoints(a: complex, b: complex) -> tuple[complex, complex]:
    """Endpoints (a_end, b_end) of the geodesic through a, b on the unit
    circle, a_end on the a side; no form cancels as |a| or |b| nears 1."""
    if a == b:
        raise CoincidentPoints("geodesic endpoints need distinct points")
    require_in_disk(a, b)
    return geodesic_end(a, b), geodesic_end(b, a)


def hyperbolic_line(a: complex, b: complex) -> GenCircle:
    """Geodesic through two distinct points of the open disk: the curve
    through a, b and 1/conj(a), orthogonal to the unit circle, a diameter
    when a, b, 0 are collinear.  It is drawn through its endpoints, which
    keep their digits as b nears a; the curve through a, b themselves has
    its center 1e-9 off, relative, at |a - b| = 1e-7."""
    require_in_disk(a, b)
    return GenCircle.through(*geodesic_endpoints(a, b), +1)


def hyperbolic_midpoint(x: complex, y: complex) -> complex:
    """The point m on the geodesic through x, y with rho(x,m) = rho(y,m)."""
    require_in_disk(x, y)
    if x == y:
        return x
    x2, y2 = abs(x) ** 2, abs(y) ** 2
    return (euclid.midpoint_numerator(x, y, x2, y2, 1)
            / euclid.midpoint_denominator(x2, y2, ahlfors_bracket(x, y), 1))


def check_cyclic_order(points: tuple[complex, ...]) -> None:
    """Require unit-modulus points in strictly increasing argument order
    (up to rotation of the whole tuple)."""
    for z in points:
        if abs(abs(z) - 1) > UNIT_CIRCLE_TOL:
            raise InvalidCyclicOrder(f"{z} is not on the unit circle")
    base = cmath.phase(points[0])
    args = [math.fmod(cmath.phase(z) - base + 4 * math.pi, 2 * math.pi)
            for z in points[1:]]
    if not all(prev < nxt for prev, nxt in zip([0.0] + args, args)):
        raise InvalidCyclicOrder("points are not in positive cyclic order")


def geodesic_intersection_on_circle(a: complex, b: complex, c: complex,
                                    d: complex) -> complex:
    """In-disk intersection w of the geodesics through (a,c) and (b,d), for
    a, b, c, d on the unit circle in positive cyclic order.  The closed
    form's roots (P +- root) / (a - b + c - d), P = ac - bd, are w and
    1/conj(w) and multiply to Q / (a - b + c - d), Q = ab(c - d) + cd(a - b).
    So w = Q / N, N the one of P +- root that adds two terms: no step
    cancels, and two diameters give Q = 0, so w = 0."""
    check_cyclic_order((a, b, c, d))
    ab, cd = a - b, c - d
    P = a * cd + d * ab
    root = cmath.sqrt(ab * (b - c) * cd * (d - a))
    N = P + root if (P * root.conjugate()).real >= 0 else P - root
    return (a * b * cd + c * d * ab) / N


def midpoint_via_lens(a: complex, b: complex) -> complex:
    """Hyperbolic midpoint built from a great circle and an orthogonal circle.

    The projected great circle through a and 1/conj(b) meets the unit circle
    in {u, -u}, and the midpoint is the in-disk intersection of the diameter
    [-u, u] with the geodesic through a, b.  The diameter is the radical line
    of the great circle (A, B, -A) and the unit circle (1, 0, -1): their
    difference (0, B, 0) passes through both common points u, -u and through
    0.  Every great circle meets the equator, so it always exists.  The
    geodesic is drawn through its endpoints, which keep their digits as b
    nears a or 0.  The point is up to ~2e-15 |B|/|A| off, relative, so a
    geodesic with |A| < LENS_MIN_CURVATURE |B|, nearly a diameter, raises
    CollinearPoints.  The great circle squares |1/conj(b)|, so a point with
    |z| < 2**-511, 0 included, is refused with ZeroPoint.
    """
    require_in_disk(a, b)
    if min(abs(a), abs(b)) < _TINY:
        raise ZeroPoint("the lens construction needs |a|, |b| >= 2**-511")
    chord = (euclid.normal(a, 1 / b.conjugate(), -1)[0], 0.0)
    B, A = geodesic = euclid.normal(*geodesic_endpoints(a, b), +1)
    if abs(A) < LENS_MIN_CURVATURE * abs(B):
        raise CollinearPoints("the geodesic through a, b is nearly a diameter")
    return _disk_meet(chord, geodesic)


def midpoint_via_inversion(a: complex, b: complex) -> complex:
    """Hyperbolic midpoint as the fixed point of the inversion swapping a, b.

    c is the intersection of L[a,b] with the line through the geodesic
    endpoints; the circle around c orthogonal to the unit circle cuts the
    geodesic (A, B, A) through a, b at the midpoint.  As the two lines turn
    parallel the point is off, relative, by up to ~7e-15 / ||a| - |b|| when
    |A| >= |B| / 10, and up to ~9e-14 / ||a| - |b|| for a geodesic near
    INVERSION_MIN_CURVATURE (b -> a along a nearly radial line makes both
    small), so a gap below INVERSION_MIN_GAP raises EqualModuli.  It is also
    up to ~2e-14 |B|/|A| off, relative, as the two lines coincide (a, b and
    0 nearly collinear, or |b| tiny), so |A| < INVERSION_MIN_CURVATURE |B|
    raises CollinearPoints, as the lens does at its own cut.
    """
    if abs(abs(a) - abs(b)) < INVERSION_MIN_GAP:
        raise EqualModuli(f"||a| - |b|| is below {INVERSION_MIN_GAP:g}")
    a_end, b_end = geodesic_endpoints(a, b)
    B, A = geodesic = euclid.normal(a, b, +1)
    if abs(A) < INVERSION_MIN_CURVATURE * abs(B):
        raise CollinearPoints("the geodesic through a, b is nearly a diameter")
    c = line_intersection(a, b, a_end, b_end)
    if abs(c) <= 1:
        raise NoInDiskRoot("inversion center inside the unit circle")
    # the circle around c orthogonal to |z| = 1 is |z|^2 - 2 Re(conj(c) z) + 1 = 0
    return _disk_meet(geodesic, (-c, 1.0))


def _disk_meet(n1: euclid.Normal, n2: euclid.Normal) -> complex:
    """euclid.meet of two curves of the s = +1 family; a point within
    DISK_EDGE_TOL of the unit circle, or none, raises NoRealIntersection."""
    z = euclid.meet(n1, n2, +1)
    if abs(z) < 1 - DISK_EDGE_TOL:
        return z
    raise NoRealIntersection("the curves meet on or near the unit circle")


def chord_vs_geodesic_midpoint(a: complex, b: complex, c: complex, d: complex
                               ) -> tuple[complex, complex]:
    """For a cyclic unit quadruple: the chord intersection f = L[a,c] ^ L[b,d]
    and the geodesic intersection m; f, m, 0 are collinear and m is the
    hyperbolic midpoint of 0 and f."""
    m = geodesic_intersection_on_circle(a, b, c, d)   # checks the cyclic order
    f = line_intersection(a, c, b, d)
    if abs(f) <= DEGENERACY_TOL:
        raise OriginIntersection("chords meet at the origin")
    return f, m


def conjecture_points(a: complex, b: complex, c: complex, d: complex,
                      h: complex) -> tuple[complex, complex, complex, complex]:
    """Points g, j, k, l of the equal-distance conjecture: g = L[a,b] ^ L[c,d],
    and j, k, l where the line through g and h meets L[a,c], L[b,d], L[a,d]."""
    g = line_intersection(a, b, c, d)
    return (g, line_intersection(g, h, a, c), line_intersection(g, h, b, d),
            line_intersection(g, h, a, d))
