"""Riemann-sphere primitives.

The sphere has center (0, 0, 1/2) and radius 1/2; the plane point z maps to
(Re z, Im z, |z|^2) / (1 + |z|^2) and infinity maps to the north pole.
The point at infinity is represented by INFINITY; any complex number with an
infinite component is treated as that point.  Projected great circles are
GenCircle forms, intersected by euclid.gencircle_intersection (gcis_roots).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .errors import (
    AntipodalPair,
    CoincidentPoints,
    EqualModuli,
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
    try:
        r = abs(z)
    except OverflowError:    # finite parts, |z| above the range: 1 + |z|^2 is |z|^2
        r = abs(z / 4)
        return SpherePoint(z.real / r / r / 16, z.imag / r / r / 16, 1.0)
    h = math.hypot(1.0, r)   # sqrt(1 + |z|^2), finite for every finite |z|
    return SpherePoint(z.real / h / h, z.imag / h / h, (r / h) ** 2)


def chordal_distance(x: complex, y: complex) -> float:
    """Chordal metric: Euclidean distance of the stereographic images."""
    xinf, yinf = is_infinity(x), is_infinity(y)
    try:
        if xinf or yinf:
            return 0.0 if xinf and yinf else 1 / math.hypot(1.0, abs(x if yinf else y))
        if (d := abs(x - y)) < math.inf:
            return d / math.hypot(1.0, abs(x)) / math.hypot(1.0, abs(y))
    except OverflowError:       # finite parts, |x|, |y| or |x - y| above the range
        pass
    return math.dist(astuple(to_sphere(x)), astuple(to_sphere(y)))


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


def quadratic_root(H: complex, H2: float, R: float) -> complex:
    """Root of conj(H) z^2 + 2 R z - H = 0 in the closed disk, H2 = |H|^2:
    H / (R + sqrt(R^2 + H2)) for R >= 0 and H / (R - sqrt(R^2 + H2)) for
    R < 0, so that R and the root add no cancellation (|z| = 1 iff R == 0,
    where it is H/|H|).  The other root is -1/conj(z), and -R gives -z."""
    s = math.sqrt(R * R + H2)
    return H / (R + s) if R >= 0 else H / (R - s)


def gcis_quadratic_solve(H: complex, R: float) -> complex:
    """quadratic_root, refusing H = 0 and an R that is not finite.  Held only
    because perfbench/tracer.py traces this name; ROADMAP item 6's benchmark
    change removes it."""
    if H == 0:
        raise CoincidentPoints("H must be nonzero")
    if not math.isfinite(R):
        raise NearBoundary("R is not finite")
    return quadratic_root(H, abs(H) ** 2, R)


def chordal_midpoint(a: complex, b: complex) -> complex:
    """Point whose sphere image bisects the minor arc between those of a, b."""
    if abs(a) >= 1 or abs(b) >= 1:
        raise OutsideDisk("chordal midpoint formula requires points in the disk")
    a2, b2 = abs(a) ** 2, abs(b) ** 2
    den = euclid.midpoint_denominator(a2, b2, abs(1 + a * b.conjugate()), -1)
    if abs(den) <= euclid.DEGENERACY_TOL:
        raise AntipodalPair("points are antipodal on the sphere")
    return euclid.midpoint_numerator(a, b, a2, b2, -1) / den


def orthogonal_great_circle(a: complex, b: complex) -> GenCircle:
    """Projection of the great circle through the chordal midpoint of a, b
    orthogonal to the great circle through a and b: the points chordally
    equidistant from a and b.  Requires |a| != |b|."""
    den = abs(a) ** 2 - abs(b) ** 2
    if abs(den) <= 1e-12:
        raise EqualModuli("construction requires |a| != |b|")
    return GenCircle(den, a * (1 + abs(b) ** 2) - b * (1 + abs(a) ** 2), -den)
