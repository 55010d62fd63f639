"""Riemann-sphere primitives.

The sphere has center (0, 0, 1/2) and radius 1/2; the plane point z maps to
(Re z, Im z, |z|^2) / (1 + |z|^2) and infinity maps to the north pole.
The point at infinity is represented by INFINITY; any complex number with an
infinite component is treated as that point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    AntipodalPair,
    CoincidentPoints,
    CollinearWithOrigin,
    EqualModuli,
    GeometryError,
    IdenticalGreatCircles,
    NearBoundary,
    NoRealIntersection,
    OutsideDisk,
)
from .euclid import INFINITY, GenCircle, line_intersection, scale_of
from . import euclid


def is_infinity(z: complex) -> bool:
    return math.isinf(z.real) or math.isinf(z.imag)


@dataclass(frozen=True)
class SpherePoint:
    """Point (xi, eta, zeta) on the sphere of center (0,0,1/2), radius 1/2."""

    xi: float
    eta: float
    zeta: float

    def sphere_residual(self) -> float:
        return abs(self.xi ** 2 + self.eta ** 2 + (self.zeta - 0.5) ** 2 - 0.25)

    def distance(self, other: "SpherePoint") -> float:
        return math.sqrt((self.xi - other.xi) ** 2 + (self.eta - other.eta) ** 2
                         + (self.zeta - other.zeta) ** 2)


def to_sphere(z: complex) -> SpherePoint:
    """Stereographic image of a plane point (infinity -> north pole)."""
    if is_infinity(z):
        return SpherePoint(0.0, 0.0, 1.0)
    d = 1 + abs(z) ** 2
    return SpherePoint(z.real / d, z.imag / d, abs(z) ** 2 / d)


def from_sphere(p: SpherePoint) -> complex:
    """Inverse stereographic projection (north pole -> INFINITY)."""
    if 1 - p.zeta <= 1e-15:
        return INFINITY
    return complex(p.xi / (1 - p.zeta), p.eta / (1 - p.zeta))


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


def _gcis_coefficients(a: complex, b: complex, c: complex, d: complex
                       ) -> tuple[complex, complex, complex]:
    """Quadratic coefficients of the two-great-circle intersection equation."""
    ca, cb, cc, cd = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    a2 = (ca * cb * (a - b) + ca - cb) * (c * cd - cc * d) \
        - (a * cb - ca * b) * (cc * cd * (c - d) + cc - cd)
    a1 = -(1 - ca * cb * c * d) * (a - b) * (cc - cd) \
        + (1 - a * b * cc * cd) * (ca - cb) * (c - d) \
        + (a - b) * (c - d) * (ca * cb - cc * cd) \
        - (ca - cb) * (cc - cd) * (a * b - c * d)
    a0 = -(c * cd - cc * d) * (a * b * (ca - cb) + (a - b)) \
        + (a * cb - ca * b) * (c * d * (cc - cd) + (c - d))
    return a2, a1, a0


def gcis_roots(a: complex, b: complex, c: complex, d: complex
               ) -> tuple[complex, complex]:
    """Both intersection points of the projected great circles through
    (a,b) and (c,d); their moduli multiply to 1."""
    for pair in ((a, b), (c, d)):
        dd = pair[1] * pair[0].conjugate() - pair[0] * pair[1].conjugate()
        if abs(dd) <= euclid.DEGENERACY_TOL * scale_of(*pair) ** 2:
            raise CollinearWithOrigin(f"pair {pair} collinear with the origin")
    a2, a1, a0 = _gcis_coefficients(a, b, c, d)
    sc = scale_of(a, b, c, d) ** 4
    if abs(a2) <= 1e-12 * sc and abs(a1) <= 1e-12 * sc and abs(a0) <= 1e-12 * sc:
        raise IdenticalGreatCircles("the two great circles coincide")
    if abs(a2) <= 1e-14 * sc:
        raise IdenticalGreatCircles("degenerate intersection equation")
    disc = cmath.sqrt(a1 * a1 - 4 * a2 * a0)
    return (-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)


def gcis(a: complex, b: complex, c: complex, d: complex) -> complex:
    """In-disk intersection of the projected great circles through (a,b), (c,d).

    When both roots lie on the unit circle, the root on the same side as the
    Euclidean line intersection of the two defining chords is returned.
    """
    r1, r2 = gcis_roots(a, b, c, d)
    inside = [z for z in (r1, r2) if abs(z) <= 1 + 1e-12]
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
    """In-disk intersection of the two projected great circles, found by
    intersecting the projected curves directly (independent of the
    intersection quadratic)."""
    g1 = great_circle_projection(a, b)
    g2 = great_circle_projection(c, d)
    pts = euclid.gencircle_intersection(g1, g2)
    if pts is None:
        raise NoRealIntersection("projected great circles do not meet")
    inside = [z for z in pts if abs(z) <= 1 + 1e-9]
    if not inside:
        raise NoRealIntersection("no intersection inside the closed disk")
    if len(inside) == 1:
        return inside[0]
    return min(inside, key=lambda z: abs(z - _tiebreak_reference(a, b, c, d)))


def quadratic_error(H: complex, R: float) -> GeometryError | None:
    """Why conj(H) z^2 + 2 R z - H = 0 is refused (H = 0, R not finite), or None."""
    if H == 0:
        return CoincidentPoints("H must be nonzero")
    return None if math.isfinite(R) else NearBoundary("R is not finite")


def quadratic_root(H: complex, H2: float, R: float, sign: float | None = None) -> complex:
    """Root (-R + sign sqrt(R^2 + H2)) / H2 * H of conj(H) z^2 + 2 R z - H = 0,
    H2 = |H|^2, sign = +-1; by default the root in the closed disk, the + root
    for R >= 0 (|z| = 1 iff R == 0, where it is the positive multiple of H)."""
    if sign is None:
        sign = 1.0 if R >= 0 else -1.0
    return (-R + sign * math.sqrt(R ** 2 + H2)) / H2 * H


@dataclass(frozen=True)
class GcisQuadratic:
    """Coefficients of conj(H) z^2 + 2 R z - H = 0 with H != 0, R real."""

    H: complex
    R: float

    def __post_init__(self) -> None:
        error = quadratic_error(self.H, self.R)
        if error is not None:
            raise error

    def roots(self) -> tuple[complex, complex]:
        """Both roots, as real multiples of H; moduli multiply to 1."""
        H, H2, R = self.H, abs(self.H) ** 2, self.R
        return quadratic_root(H, H2, R, 1.0), quadratic_root(H, H2, R, -1.0)


def gcis_quadratic_solve(qd: GcisQuadratic) -> complex:
    """Root of the quadratic inside the closed disk (quadratic_root)."""
    return quadratic_root(qd.H, abs(qd.H) ** 2, qd.R)


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
