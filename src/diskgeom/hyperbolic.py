"""Hyperbolic metric, Moebius maps, geodesics, and midpoint constructions
in the Poincare unit disk."""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import (
    CoincidentPoints,
    DegenerateDenominator,
    EqualModuli,
    InvalidCyclicOrder,
    NearBoundary,
    NoInDiskRoot,
    NoRealIntersection,
    OriginIntersection,
    OutsideDisk,
    PoleHit,
)
from .euclid import (
    GenCircle,
    circumcenter,
    gencircle_intersection,
    in_disk_point,
    line_intersection,
)
from . import euclid
from .spherical import great_circle_projection

UNIT_CIRCLE = GenCircle.circle(0j, 1.0)


def ahlfors_bracket(x: complex, y: complex) -> float:
    """A[x,y] = |1 - x conj(y)|."""
    return abs(1 - x * y.conjugate())


def rho(x: complex, y: complex) -> float:
    """Hyperbolic distance in the unit disk."""
    if abs(x) >= 1 or abs(y) >= 1:
        raise OutsideDisk("hyperbolic distance requires |x|,|y| < 1")
    return 2 * math.atanh(abs(x - y) / ahlfors_bracket(x, y))


def mobius_T(a: complex, z: complex) -> complex:
    """T_a(z) = (z - a) / (1 - conj(a) z), the disk automorphism with
    T_a(a) = 0 and fixed points +-a/|a|."""
    if abs(a) >= 1:
        raise OutsideDisk("|a| < 1 required")
    den = 1 - a.conjugate() * z
    if abs(den) <= 1e-15:
        raise PoleHit("z is the pole of T_a")
    return (z - a) / den


def geodesic_endpoints(a: complex, b: complex) -> tuple[complex, complex]:
    """Endpoints (a_end, b_end) of the geodesic through a, b on the unit
    circle, a_end on the a side.  Closed forms avoiding the double Moebius
    composition.  A denominator that rounds to 0, possible only when |a| or
    |b| is within rounding of 1, raises NearBoundary."""
    if a == b:
        raise CoincidentPoints("geodesic endpoints need distinct points")
    if abs(a) >= 1 or abs(b) >= 1:
        raise OutsideDisk("points must lie in the open disk")
    mab = abs(a - b)
    m1 = abs(1 - a * b.conjugate())
    den_a = (1 - a * b.conjugate()) * mab + b.conjugate() * (a - b) * m1
    den_b = (1 - a.conjugate() * b) * mab + a.conjugate() * (b - a) * m1
    if den_a == 0 or den_b == 0:
        raise NearBoundary("geodesic endpoint denominator vanishes")
    return ((b * (1 - a * b.conjugate()) * mab + (a - b) * m1) / den_a,
            (a * (1 - a.conjugate() * b) * mab + (b - a) * m1) / den_b)


class Geodesic(NamedTuple):
    """Hyperbolic line through a, b: a diameter, or a circle orthogonal to
    the unit circle."""

    carrier: GenCircle
    a: complex
    b: complex


def hyperbolic_line(a: complex, b: complex) -> Geodesic:
    """Geodesic through two distinct points of the open disk: the curve
    through a, b and 1/conj(a), a diameter when a, b, 0 are collinear."""
    if abs(a) >= 1 or abs(b) >= 1:
        raise OutsideDisk("points must lie in the open disk")
    return Geodesic(GenCircle.through(a, b, +1), a, b)


def midpoint_from_moduli(H: complex, a2: float, b2: float, m1: float) -> complex:
    """Midpoint of disk points a != b from H, |a|^2, |b|^2 and m1 = |1 - a conj(b)|."""
    return H / (1 - a2 * b2 + m1 * math.sqrt((1 - a2) * (1 - b2)))


def hyperbolic_midpoint(x: complex, y: complex) -> complex:
    """The point m on the geodesic through x, y with rho(x,m) = rho(y,m)."""
    if abs(x) >= 1 or abs(y) >= 1:
        raise OutsideDisk("points must lie in the open disk")
    if x == y:
        return x
    x2, y2 = abs(x) ** 2, abs(y) ** 2
    return midpoint_from_moduli(y * (1 - x2) + x * (1 - y2), x2, y2, ahlfors_bracket(x, y))


def check_cyclic_order(points: tuple[complex, ...]) -> None:
    """Require unit-modulus points in strictly increasing argument order
    (up to rotation of the whole tuple)."""
    for z in points:
        if abs(abs(z) - 1) > 1e-9:
            raise InvalidCyclicOrder(f"{z} is not on the unit circle")
    base = cmath.phase(points[0])
    args = [math.fmod(cmath.phase(z) - base + 4 * math.pi, 2 * math.pi)
            for z in points[1:]]
    if not all(prev < nxt for prev, nxt in zip([0.0] + args, args)):
        raise InvalidCyclicOrder("points are not in positive cyclic order")


def geodesic_intersection_on_circle(a: complex, b: complex, c: complex,
                                    d: complex) -> complex:
    """In-disk intersection w of the geodesics through (a,c) and (b,d), for
    a, b, c, d on the unit circle in positive cyclic order."""
    check_cyclic_order((a, b, c, d))
    den = a - b + c - d
    if abs(den) <= euclid.DEGENERACY_TOL:
        # two perpendicular diameters: both geodesics pass through 0
        if abs(a + c) <= 1e-9 and abs(b + d) <= 1e-9:
            return 0j
        raise DegenerateDenominator("a - b + c - d vanishes")
    root = cmath.sqrt((a - b) * (b - c) * (c - d) * (d - a))
    cands = [((a * c - b * d) + s * root) / den for s in (1, -1)]
    inside = [w for w in cands if abs(w) < 1 - 1e-12]
    if len(inside) != 1:
        raise NoInDiskRoot("root selection ambiguous; check the ordering")
    return inside[0]


def midpoint_via_lens(a: complex, b: complex) -> complex:
    """Hyperbolic midpoint built from a great circle and an orthogonal circle.

    The projected great circle through a and 1/conj(b) meets the unit circle
    in {u, -u}, and the midpoint is the in-disk intersection of the diameter
    [-u, u] with the circle through a, b, 1/conj(a).
    """
    carrier = great_circle_projection(a, 1 / b.conjugate())
    pts = gencircle_intersection(UNIT_CIRCLE, carrier)
    if pts is None:
        raise NoRealIntersection("great circle does not meet the unit circle")
    u = pts[0]
    v = circumcenter(a, b, 1 / a.conjugate())
    chord = GenCircle.line(-u, u)
    target = GenCircle.circle(v, abs(a - v))
    return in_disk_point(gencircle_intersection(chord, target))


def midpoint_via_inversion(a: complex, b: complex) -> complex:
    """Hyperbolic midpoint as the fixed point of the inversion swapping a, b.

    c is the intersection of L[a,b] with the line through the geodesic
    endpoints; the circle around c orthogonal to the unit circle cuts the
    geodesic at the midpoint.  Requires |a| != |b|.
    """
    if abs(abs(a) - abs(b)) <= 1e-12:
        raise EqualModuli("|a| == |b|: chord and endpoint chord are parallel")
    a_end, b_end = geodesic_endpoints(a, b)
    c = line_intersection(a, b, a_end, b_end)
    if abs(c) <= 1:
        raise NoInDiskRoot("inversion center inside the unit circle")
    inv_circle = GenCircle(1.0, -c, 1.0)   # center c, orthogonal to |z| = 1
    return in_disk_point(
        gencircle_intersection(hyperbolic_line(a, b).carrier, inv_circle))


def chord_vs_geodesic_midpoint(a: complex, b: complex, c: complex, d: complex
                               ) -> tuple[complex, complex]:
    """For a cyclic unit quadruple: the chord intersection f = L[a,c] ^ L[b,d]
    and the geodesic intersection m; f, m, 0 are collinear and m is the
    hyperbolic midpoint of 0 and f."""
    check_cyclic_order((a, b, c, d))
    f = line_intersection(a, c, b, d)
    if abs(f) <= euclid.DEGENERACY_TOL:
        raise OriginIntersection("chords meet at the origin")
    m = geodesic_intersection_on_circle(a, b, c, d)
    return f, m


def conjecture_points(a: complex, b: complex, c: complex, d: complex,
                      h: complex) -> tuple[complex, complex, complex, complex]:
    """Points g, j, k, l of the equal-distance conjecture: g = L[a,b] ^ L[c,d],
    and j, k, l where the line through g and h meets L[a,c], L[b,d], L[a,d]."""
    g = line_intersection(a, b, c, d)
    return (g, line_intersection(g, h, a, c), line_intersection(g, h, b, d),
            line_intersection(g, h, a, d))
