"""Euclidean primitives in the complex plane.

Points are plain Python complex numbers.  Lines are stored as two defining
points; the implicit form (conj(a)-conj(b))z - (a-b)conj(z) = conj(a)b - a conj(b)
is derived on demand.  All predicates take an absolute tolerance scaled by
max(1, operand magnitudes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ChordOutsideDisk,
    CollinearPoints,
    CollinearWithOrigin,
    ConcentricCircles,
    DegenerateInput,
    DegenerateModuli,
    NoRealIntersection,
    ParallelLines,
)

IDENTITY_TOL = 1e-9      # default tolerance for algebraic identities
DEGENERACY_TOL = 1e-12   # denominators below this (times scale) are degenerate


def scale_of(*zs: complex) -> float:
    """Magnitude scale used to normalize absolute tolerances."""
    return max(1.0, *(abs(z) for z in zs))


@dataclass(frozen=True)
class Line:
    """Euclidean line through two distinct finite points."""

    p: complex
    q: complex

    def __post_init__(self) -> None:
        if self.p == self.q:
            raise DegenerateInput("line requires two distinct points")

    def side(self, z: complex) -> float:
        """Signed residual of the implicit line equation at z (0 on the line)."""
        a, b = self.p, self.q
        val = (a.conjugate() - b.conjugate()) * z - (a - b) * z.conjugate() \
            - (a.conjugate() * b - a * b.conjugate())
        # the implicit form is purely imaginary for real offsets; use modulus
        return abs(val)


@dataclass(frozen=True)
class Circle:
    """Euclidean circle with finite center and positive radius."""

    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise DegenerateInput("circle radius must be positive and finite")


@dataclass(frozen=True)
class GenCircle:
    """A line or a circle: the class of curves closed under Moebius maps."""

    line: Line | None = None
    circle: Circle | None = None

    def __post_init__(self) -> None:
        if (self.line is None) == (self.circle is None):
            raise DegenerateInput("exactly one of line/circle must be set")

    @property
    def is_line(self) -> bool:
        return self.line is not None

    def residual(self, z: complex) -> float:
        """Distance-like residual of z from the curve."""
        if self.line is not None:
            a, b = self.line.p, self.line.q
            u = (b - a) / abs(b - a)
            return abs(((z - a) * u.conjugate()).imag)
        assert self.circle is not None
        return abs(abs(z - self.circle.center) - self.circle.radius)


def line_intersection(a: complex, b: complex, c: complex, d: complex,
                      tol: float = DEGENERACY_TOL) -> complex:
    """Intersection point of the lines through (a,b) and (c,d)."""
    if a == b or c == d:
        raise DegenerateInput("coincident defining points")
    num = (a.conjugate() * b - a * b.conjugate()) * (c - d) \
        - (c.conjugate() * d - c * d.conjugate()) * (a - b)
    den = (a.conjugate() - b.conjugate()) * (c - d) \
        - (c.conjugate() - d.conjugate()) * (a - b)
    if abs(den) <= tol * scale_of(a, b, c, d):
        raise ParallelLines(f"lines through {a},{b} and {c},{d} are parallel")
    return num / den


def lis_inverse_pairs(case: int, a: complex, b: complex) -> complex:
    """Closed forms for line intersections with the inverse-point pairs.

    case 1: lines (a,b) and (-1/conj(a), -1/conj(b)); needs |a| != |b|
    case 2: lines (a,b) and (1/conj(a), 1/conj(b));   needs |a| != |b|
    case 3: lines (a,1/conj(b)) and (b,1/conj(a));    needs |a||b| != 1
    case 4: lines (a,-1/conj(b)) and (b,-1/conj(a));  needs |a||b| != 1
    """
    if case not in (1, 2, 3, 4):
        raise ValueError(f"case must be 1..4, got {case}")
    if a == 0 or b == 0:
        raise DegenerateInput("a and b must be nonzero")
    a2, b2 = abs(a) ** 2, abs(b) ** 2
    if case in (1, 2):
        den = a2 - b2
        if abs(den) <= DEGENERACY_TOL * scale_of(a, b):
            raise DegenerateModuli("|a| == |b|")
        if case == 1:
            return (b * (1 + a2) - a * (1 + b2)) / den
        return (a * (1 - b2) - b * (1 - a2)) / den
    den = 1 - a2 * b2
    if abs(den) <= DEGENERACY_TOL * scale_of(a, b):
        raise DegenerateModuli("|a||b| == 1")
    if case == 3:
        return (a * (1 - b2) + b * (1 - a2)) / den
    return (a * (1 + b2) + b * (1 + a2)) / den


def reflect_in_line(x: complex, line: Line) -> complex:
    """Mirror image of x in the given line."""
    a, b = line.p, line.q
    dc = a.conjugate() - b.conjugate()
    return (a - b) / dc * x.conjugate() - (a * b.conjugate() - a.conjugate() * b) / dc


def unit_chord_endpoints(a: complex, b: complex) -> tuple[complex, complex]:
    """Endpoints of the chord L[a,b] on the unit circle, nearest-to-a first.

    Requires a, b inside the open disk and non-collinear with the origin.
    """
    if a == b:
        raise DegenerateInput("coincident points")
    try:
        c = line_intersection(a, b, 0j, 1j * (a - b))
    except ParallelLines:
        raise CollinearWithOrigin("chord passes through the origin") from None
    if abs(c) <= DEGENERACY_TOL:
        raise CollinearWithOrigin("chord passes through the origin")
    if abs(c) >= 1 - 1e-12:
        raise ChordOutsideDisk("chord foot point outside or on the unit circle")
    half = 1j * (c / abs(c)) * math.sqrt(1 - abs(c) ** 2)
    a1, b1 = c - half, c + half
    if abs(a1 - a) >= abs(a1 - b):
        a1, b1 = b1, a1
    return a1, b1


def circumcenter(a: complex, b: complex, c: complex) -> complex:
    """Center of the circle through three non-collinear points."""
    num = abs(a) ** 2 * (b - c) + abs(b) ** 2 * (c - a) + abs(c) ** 2 * (a - b)
    den = a * (c.conjugate() - b.conjugate()) + b * (a.conjugate() - c.conjugate()) \
        + c * (b.conjugate() - a.conjugate())
    if abs(den) <= DEGENERACY_TOL * scale_of(a, b, c) ** 2:
        raise CollinearPoints("points are collinear")
    return num / den


def circumcenter_with_inversion(a: complex, b: complex, sign: int) -> complex:
    """Center of the circle through a, b and +-1/conj(a).

    sign=+1 gives the circle through a and its unit-circle reflection
    (orthogonal to the unit circle); sign=-1 the circle through a and its
    antipode (stereographic projection of a great circle).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a == 0:
        raise DegenerateInput("a must be nonzero")
    d = b * a.conjugate() - a * b.conjugate()
    if abs(d) <= DEGENERACY_TOL * scale_of(a, b):
        raise CollinearWithOrigin("a, b collinear with the origin")
    if sign == 1:
        return (-a + b + a * b * (a.conjugate() - b.conjugate())) / d
    return (a - b + a * b * (a.conjugate() - b.conjugate())) / d


def circle_circle_intersection(c1: Circle, c2: Circle,
                               tol: float = IDENTITY_TOL
                               ) -> tuple[complex, complex] | None:
    """Both intersection points of two circles, or None when disjoint."""
    d = abs(c2.center - c1.center)
    if d <= DEGENERACY_TOL * scale_of(c1.center, c2.center):
        if abs(c1.radius - c2.radius) <= tol:
            raise ConcentricCircles("circles coincide")
        raise ConcentricCircles("concentric circles with distinct radii")
    along = (d * d + c1.radius ** 2 - c2.radius ** 2) / (2 * d)
    h2 = c1.radius ** 2 - along * along
    if h2 < -tol * scale_of(c1.center, c2.center) * max(c1.radius, c2.radius):
        return None
    h = math.sqrt(max(h2, 0.0))
    u = (c2.center - c1.center) / d
    base = c1.center + along * u
    return base + 1j * h * u, base - 1j * h * u


def line_circle_intersection(line: Line, circle: Circle,
                             tol: float = IDENTITY_TOL
                             ) -> tuple[complex, complex] | None:
    """Both intersection points of a line and a circle, or None."""
    p, q = line.p, line.q
    u = (q - p) / abs(q - p)
    w = (circle.center - p) / u          # circle center in line coordinates
    h2 = circle.radius ** 2 - w.imag ** 2
    if h2 < -tol * scale_of(circle.center) * circle.radius:
        return None
    h = math.sqrt(max(h2, 0.0))
    return p + (w.real + h) * u, p + (w.real - h) * u


def gencircle_intersection(g1: GenCircle, g2: GenCircle
                           ) -> tuple[complex, complex] | None:
    """Intersection points of two lines/circles (lines meet in one point)."""
    if g1.is_line and g2.is_line:
        assert g1.line is not None and g2.line is not None
        z = line_intersection(g1.line.p, g1.line.q, g2.line.p, g2.line.q)
        return z, z
    if g1.is_line:
        assert g1.line is not None and g2.circle is not None
        return line_circle_intersection(g1.line, g2.circle)
    if g2.is_line:
        assert g2.line is not None and g1.circle is not None
        return line_circle_intersection(g2.line, g1.circle)
    assert g1.circle is not None and g2.circle is not None
    return circle_circle_intersection(g1.circle, g2.circle)


def orthocenter(p1: complex, p2: complex, p3: complex) -> complex:
    """Orthocenter of a non-degenerate triangle."""
    cross = ((p2 - p1) * (p3 - p1).conjugate()).imag
    if abs(cross) <= DEGENERACY_TOL * scale_of(p1, p2, p3) ** 2:
        raise CollinearPoints("triangle vertices are collinear")
    # altitude from p1 is perpendicular to p2-p3, similarly from p2
    return line_intersection(p1, p1 + 1j * (p3 - p2), p2, p2 + 1j * (p3 - p1))


def in_disk_point(points: tuple[complex, complex] | None,
                  strict: bool = True) -> complex:
    """Pick the intersection point inside the (open or closed) unit disk."""
    if points is None:
        raise NoRealIntersection("curves do not intersect")
    limit = 1 - 1e-12 if strict else 1 + 1e-12
    inside = [z for z in points if abs(z) < limit]
    if not inside:
        raise NoRealIntersection("no intersection point inside the disk")
    return min(inside, key=abs) if len(inside) == 2 else inside[0]
