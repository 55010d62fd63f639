"""Riemann-sphere primitives.

The sphere has center (0, 0, 1/2) and radius 1/2; the plane point z maps to
(Re z, Im z, |z|^2) / (1 + |z|^2) and infinity maps to the north pole.
The point at infinity is represented by INFINITY; any complex number with an
infinite component is treated as that point.  Projected great circles are
GenCircle forms, intersected by euclid.gencircle_intersection (gcis_roots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AntipodalPair,
    CoincidentPoints,
    EqualModuli,
    GeometryError,
    NearBoundary,
    NoRealIntersection,
    OutsideDisk,
)
from .euclid import INFINITY, GenCircle, line_intersection
from . import euclid


def is_infinity(z: complex) -> bool:
    return math.isinf(z.real) or math.isinf(z.imag)


@dataclass(frozen=True)
class SpherePoint:
    """Point (xi, eta, zeta) on the sphere of center (0,0,1/2), radius 1/2."""

    xi: float
    eta: float
    zeta: float

    def distance(self, other: "SpherePoint") -> float:
        return math.sqrt((self.xi - other.xi) ** 2 + (self.eta - other.eta) ** 2
                         + (self.zeta - other.zeta) ** 2)


def to_sphere(z: complex) -> SpherePoint:
    """Stereographic image of a plane point (infinity -> north pole)."""
    if is_infinity(z):
        return SpherePoint(0.0, 0.0, 1.0)
    d = 1 + abs(z) ** 2
    return SpherePoint(z.real / d, z.imag / d, abs(z) ** 2 / d)


def chordal_distance(x: complex, y: complex) -> float:
    """Chordal metric: Euclidean distance of the stereographic images."""
    xinf, yinf = is_infinity(x), is_infinity(y)
    if xinf and yinf:
        return 0.0
    if xinf:
        return 1 / math.sqrt(1 + abs(y) ** 2)
    if yinf:
        return 1 / math.sqrt(1 + abs(x) ** 2)
    return abs(x - y) / (math.sqrt(1 + abs(x) ** 2) * math.sqrt(1 + abs(y) ** 2))


def antipodal(a: complex) -> complex:
    """Diametrically opposite point on the sphere: -1/conj(a)."""
    if is_infinity(a):
        return 0j
    if a == 0:
        return INFINITY
    return -1 / a.conjugate()


def great_circle_projection(a: complex, b: complex) -> GenCircle:
    """Stereographic projection of the great circle through the images of a, b:
    the curve through a, b and antipodal(a), a line through the origin when
    a, b, 0 are collinear.  Antipodal a, b span no unique great circle."""
    return GenCircle.through(a, b, -1)


def gcis_roots(a: complex, b: complex, c: complex, d: complex
               ) -> tuple[complex, complex]:
    """Both intersection points of the projected great circles through
    (a,b) and (c,d), by gencircle_intersection: a pair of sphere antipodes,
    0 and INFINITY when both circles are lines through 0.  A pair spanning
    no unique great circle raises AntipodalPair, and two coincident great
    circles raise ConcentricCircles."""
    pts = euclid.gencircle_intersection(great_circle_projection(a, b),
                                        great_circle_projection(c, d))
    if pts is None:
        raise NoRealIntersection("projected great circles do not meet")
    return pts


def gcis(a: complex, b: complex, c: complex, d: complex) -> complex:
    """In-disk intersection of the projected great circles through (a,b), (c,d).

    When both roots lie on the unit circle, the root on the same side as the
    Euclidean line intersection of the two defining chords is returned.
    """
    inside = [z for z in gcis_roots(a, b, c, d) if abs(z) <= 1 + 1e-12]
    if not inside:
        raise NoRealIntersection("no root in the closed unit disk")
    if len(inside) == 1:
        return inside[0]
    return min(inside, key=lambda z: abs(z - _tiebreak_reference(a, b, c, d)))


def _tiebreak_reference(a: complex, b: complex, c: complex, d: complex) -> complex:
    """Reference point selecting between two on-circle intersection roots."""
    try:
        return line_intersection(a, b, c, d)
    except euclid.ParallelLines:
        return (a + b + c + d) / 4


def gencircle_from_pair_intersection(a: complex, b: complex, c: complex,
                                     d: complex) -> complex:
    """The same point as gcis.  Held only because perfbench/tracer.py traces
    this name; ROADMAP item 6's benchmark change removes it."""
    return gcis(a, b, c, d)


def quadratic_error(H: complex, R: float) -> GeometryError | None:
    """Why conj(H) z^2 + 2 R z - H = 0 is refused (H = 0, R not finite), or None."""
    if H == 0:
        return CoincidentPoints("H must be nonzero")
    return None if math.isfinite(R) else NearBoundary("R is not finite")


def quadratic_root(H: complex, H2: float, R: float) -> complex:
    """Root (-R + sign sqrt(R^2 + H2)) / H2 * H of conj(H) z^2 + 2 R z - H = 0
    in the closed disk, H2 = |H|^2: the + root for R >= 0 (|z| = 1 iff R == 0,
    where it is the positive multiple of H).  The other root is -1/conj(z)."""
    sign = 1.0 if R >= 0 else -1.0
    return (-R + sign * math.sqrt(R ** 2 + H2)) / H2 * H


def gcis_quadratic_solve(H: complex, R: float) -> complex:
    """quadratic_root with its refusals (quadratic_error).  Held only because
    perfbench/tracer.py traces this name; ROADMAP item 6's benchmark change
    removes it."""
    error = quadratic_error(H, R)
    if error is not None:
        raise error
    return quadratic_root(H, abs(H) ** 2, R)


def chordal_midpoint(a: complex, b: complex) -> complex:
    """Point whose sphere image bisects the minor arc between those of a, b."""
    if abs(a) >= 1 or abs(b) >= 1:
        raise OutsideDisk("chordal midpoint formula requires points in the disk")
    den = abs(1 + a * b.conjugate()) \
        * math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2)) \
        - abs(a * b) ** 2 + 1
    if abs(den) <= euclid.DEGENERACY_TOL:
        raise AntipodalPair("points are antipodal on the sphere")
    return (a * (1 + abs(b) ** 2) + b * (1 + abs(a) ** 2)) / den


def orthogonal_great_circle(a: complex, b: complex) -> GenCircle:
    """Projection of the great circle through the chordal midpoint of a, b
    orthogonal to the great circle through a and b: the points chordally
    equidistant from a and b.  Requires |a| != |b|."""
    den = abs(a) ** 2 - abs(b) ** 2
    if abs(den) <= 1e-12:
        raise EqualModuli("construction requires |a| != |b|")
    return GenCircle(den, a * (1 + abs(b) ** 2) - b * (1 + abs(a) ** 2), -den)
