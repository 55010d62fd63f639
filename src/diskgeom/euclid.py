"""Euclidean primitives in the complex plane.

Points are plain Python complex numbers.  A line or circle is one Hermitian
form A|z|^2 + conj(B) z + B conj(z) + C = 0 with A, C real (Schwerdtfeger,
Geometry of Complex Numbers, 1962); lines are A = 0.  The curves through
a, b with C = sA are the geodesics of the unit disk (s = +1, orthogonal to
the unit circle) and the projected great circles (s = -1, through
antipodes).  All predicates take an absolute tolerance scaled by
max(1, operand magnitudes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AntipodalPair,
    CoincidentPoints,
    CollinearPoints,
    ConcentricCircles,
    DegenerateInput,
    DegenerateModuli,
    NoRealIntersection,
    ParallelLines,
)

IDENTITY_TOL = 1e-9      # default tolerance for algebraic identities
DEGENERACY_TOL = 1e-12   # denominators below this (times scale) are degenerate
INFINITY = complex(math.inf, math.inf)


def scale_of(*zs: complex) -> float:
    """Magnitude scale used to normalize absolute tolerances."""
    return max(1.0, *(abs(z) for z in zs))


@dataclass(frozen=True)
class GenCircle:
    """The line or circle A|z|^2 + conj(B) z + B conj(z) + C = 0 (A, C real).

    A circle has A != 0, center -B/A and radius sqrt(|B|^2 - AC)/|A|; a line
    has A = 0.  The coefficients stay bounded as a circle flattens into a
    line, so no cutoff decides between the two.
    """

    A: float
    B: complex
    C: float

    @classmethod
    def line(cls, p: complex, q: complex) -> GenCircle:
        """Line through two distinct finite points."""
        if p == q:
            raise DegenerateInput("line requires two distinct points")
        return cls(0.0, 1j * (q - p), 2 * (q * p.conjugate()).imag)

    @classmethod
    def circle(cls, center: complex, radius: float) -> GenCircle:
        """Circle with finite center and positive radius."""
        if not (radius > 0 and math.isfinite(radius)):
            raise DegenerateInput("circle radius must be positive and finite")
        return cls(1.0, -center, abs(center) ** 2 - radius ** 2)

    @classmethod
    def through(cls, a: complex, b: complex, s: float) -> GenCircle:
        """The curve through a, b with C = sA, hence also through s/conj(a).

        s = +1 gives the curves orthogonal to the unit circle (geodesics),
        s = -1 the stereographic projections of great circles; both are the
        line through 0 when a, b, 0 are collinear.  The coefficients vanish
        only for a == b and for b == s/conj(a) (the antipode of a for s = -1,
        its mirror image in the unit circle for s = +1), which are refused.
        """
        if a == b:
            raise CoincidentPoints("a curve through a, b needs a != b")
        a2, b2 = abs(a) ** 2, abs(b) ** 2
        A = 2 * (b * a.conjugate()).imag
        B = 1j * (b * (s + a2) - a * (s + b2))
        # For b = s/conj(a) rounded to a float, A and B are not exactly 0 but
        # the rounding error of their products, a few ulps of this operand
        # scale; the curve they span is noise, so refuse it like exact 0.
        if abs(A) + abs(B) <= 4 * 2 ** -52 * (abs(b) * (1 + a2) + abs(a) * (1 + b2)):
            raise AntipodalPair("b = s/conj(a) lies on every curve of the family")
        return cls(A, B, s * A)

    def _root(self) -> float:
        """sqrt(|B|^2 - AC): |A| times the radius, or |B| for a line."""
        return math.sqrt(max(abs(self.B) ** 2 - self.A * self.C, 0.0))

    @property
    def center(self) -> complex:
        """Center of a circle (A != 0)."""
        return -self.B / self.A

    @property
    def radius(self) -> float:
        return self._root() / abs(self.A)

    def residual(self, z: complex) -> float:
        """Euclidean distance from z to the curve."""
        f = self.A * abs(z) ** 2 + 2 * (self.B.conjugate() * z).real + self.C
        return abs(f) / (abs(self.A * z + self.B) + self._root())


def line_intersection(a: complex, b: complex, c: complex, d: complex) -> complex:
    """Intersection point of the lines through (a,b) and (c,d)."""
    if a == b or c == d:
        raise DegenerateInput("coincident defining points")
    num = (a.conjugate() * b - a * b.conjugate()) * (c - d) \
        - (c.conjugate() * d - c * d.conjugate()) * (a - b)
    den = (a.conjugate() - b.conjugate()) * (c - d) \
        - (c.conjugate() - d.conjugate()) * (a - b)
    if abs(den) <= DEGENERACY_TOL * scale_of(a, b, c, d):
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


def circumcenter(a: complex, b: complex, c: complex) -> complex:
    """Center of the circle through three non-collinear points."""
    num = abs(a) ** 2 * (b - c) + abs(b) ** 2 * (c - a) + abs(c) ** 2 * (a - b)
    den = a * (c.conjugate() - b.conjugate()) + b * (a.conjugate() - c.conjugate()) \
        + c * (b.conjugate() - a.conjugate())
    if abs(den) <= DEGENERACY_TOL * scale_of(a, b, c) ** 2:
        raise CollinearPoints("points are collinear")
    return num / den


def gencircle_intersection(g1: GenCircle, g2: GenCircle
                           ) -> tuple[complex, complex] | None:
    """Both intersection points of two lines/circles, or None when they miss.

    Rotating the pencil of g1, g2 by the angle of (A1, A2) gives a line L
    (their radical line) and a curve G with A >= 0 through the same points;
    the points are the roots of G along L.  Two lines (A1 = A2 = 0, which
    atan2 maps to angle 0) meet at one finite point and at INFINITY.
    """
    theta = math.atan2(g2.A, g1.A)
    c, s = math.cos(theta), math.sin(theta)
    bl, cl = s * g1.B - c * g2.B, s * g1.C - c * g2.C
    a, bg, cg = c * g1.A + s * g2.A, c * g1.B + s * g2.B, c * g1.C + s * g2.C
    nl = abs(bl)
    if nl <= DEGENERACY_TOL * (abs(s * g1.B) + abs(c * g2.B)):
        raise ConcentricCircles("the circles are concentric or coincide")
    n = bl / nl                    # unit normal of L
    p = -cl / (2 * nl) * n         # foot of the perpendicular from 0 to L
    u = 1j * n                     # z = p + t u runs along L
    # G(p + t u) = a t^2 + 2 h t + k
    h = (bg.conjugate() * u).real
    k = a * abs(p) ** 2 + 2 * (bg.conjugate() * p).real + cg
    disc = h * h - a * k
    if disc < -IDENTITY_TOL * (h * h + abs(a * k)):
        return None
    q = -(h + math.copysign(math.sqrt(max(disc, 0.0)), h))
    if a == 0 and abs(q) <= DEGENERACY_TOL * abs(bg):
        raise ParallelLines("the lines are parallel or coincide")
    if q == 0:                     # L touches G at p
        return p, p
    return p + k / q * u, (p + q / a * u if a else INFINITY)


def orthocenter(p1: complex, p2: complex, p3: complex) -> complex:
    """Orthocenter of a non-degenerate triangle."""
    cross = ((p2 - p1) * (p3 - p1).conjugate()).imag
    if abs(cross) <= DEGENERACY_TOL * scale_of(p1, p2, p3) ** 2:
        raise CollinearPoints("triangle vertices are collinear")
    # altitude from p1 is perpendicular to p2-p3, similarly from p2
    return line_intersection(p1, p1 + 1j * (p3 - p2), p2, p2 + 1j * (p3 - p1))


def in_disk_point(points: tuple[complex, complex] | None) -> complex:
    """Pick the intersection point inside the open unit disk."""
    if points is None:
        raise NoRealIntersection("curves do not intersect")
    inside = [z for z in points if abs(z) < 1 - 1e-12]
    if not inside:
        raise NoRealIntersection("no intersection point inside the disk")
    return min(inside, key=abs) if len(inside) == 2 else inside[0]
