"""Euclidean primitives in the complex plane.

Points are plain Python complex numbers.  A line or circle is one Hermitian
form A|z|^2 + conj(B) z + B conj(z) + C = 0 with A, C real (Schwerdtfeger,
Geometry of Complex Numbers, 1962); lines are A = 0.  The curves through
a, b with C = sA are the geodesics of the unit disk (s = +1, orthogonal to
the unit circle) and the projected great circles (s = -1, through
antipodes).  Under the lift l_s(z) = (2x, 2y, |z|^2 + s) such a curve is
the plane n . l_s(z) = 0 through 0, n = (Re B, Im B, A), which normal
gives as the pair (B, A).  l_s(z) points at z's image on the Riemann sphere
for s = -1, and it is the hyperboloid model for s = +1.  So two curves of one family meet along
n1 x n2 (meet; Richter-Gebert, Perspectives on Projective Geometry, 2011,
ch. 1-2; Cannon, Floyd, Kenyon and Parry, Hyperbolic geometry, MSRI Publ.
31, 1997).  Refusal thresholds come from errors.py; DEGENERACY_TOL is
scaled by the operands' magnitude here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    DEGENERACY_TOL, MEET_MIN_SINE,
    AntipodalPair,
    CoincidentPoints,
    CollinearPoints,
    ConcentricCircles,
    DegenerateInput,
    NoRealIntersection,
    ParallelLines,
)

INFINITY = complex(math.inf, math.inf)
Normal = tuple[complex, float]      # (B, A): the normal (Re B, Im B, A)
_MIN_SINE2 = MEET_MIN_SINE * MEET_MIN_SINE   # meet compares squared norms


def format_complex(z: complex) -> str:
    """Round-trippable cartesian form (17 significant digits)."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


def scale_of(*zs: complex) -> float:
    """Magnitude scale used to normalize absolute tolerances."""
    return max(1.0, *map(abs, zs))


class GenCircle(NamedTuple):
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
        """The curve through a, b with C = sA, hence also through s/conj(a):
        normal(a, b, s) as a form, with its refusals."""
        B, A = normal(a, b, s)
        # tuple.__new__ skips the generated __new__'s frame, as NamedTuple._make does
        return tuple.__new__(cls, (A, B, s * A))

    def _root(self) -> float:
        """sqrt(|B|^2 - AC): |A| times the radius, or |B| for a line."""
        return math.sqrt(max(abs(self.B) ** 2 - self.A * self.C, 0.0))

    def _circle_A(self) -> float:
        if self.A == 0:
            raise DegenerateInput("a line has no center or radius")
        return self.A

    @property
    def center(self) -> complex:
        """Center of a circle; a line (A = 0) raises DegenerateInput."""
        return -self.B / self._circle_A()

    @property
    def radius(self) -> float:
        return self._root() / abs(self._circle_A())

    def residual(self, z: complex) -> float:
        """Euclidean distance from z to the curve."""
        f = self.A * abs(z) ** 2 + 2 * (self.B.conjugate() * z).real + self.C
        return abs(f) / (abs(self.A * z + self.B) + self._root())


def normal(a: complex, b: complex, s: float) -> Normal:
    """Normal (B, A) of the curve through a, b with C = sA.

    s = +1 gives the curves orthogonal to the unit circle (geodesics),
    s = -1 the stereographic projections of great circles; both are the
    line through 0 when a, b, 0 are collinear.  The coefficients vanish
    only for a == b and for b == s/conj(a) (the antipode of a for s = -1,
    its mirror image in the unit circle for s = +1), which are refused.
    """
    if a == b:
        raise CoincidentPoints("a curve through a, b needs a != b")
    ra, rb = abs(a), abs(b)
    a2, b2 = ra ** 2, rb ** 2
    A = 2 * (b * a.conjugate()).imag
    B = 1j * (b * (s + a2) - a * (s + b2))
    # For b = s/conj(a) rounded to a float, A and B are not exactly 0 but
    # the rounding error of their products, a few ulps of this operand
    # scale; the curve they span is noise, so refuse it like exact 0.
    if abs(A) + abs(B) <= 4 * 2 ** -52 * (rb * (1 + a2) + ra * (1 + b2)):
        raise AntipodalPair("b = s/conj(a) lies on every curve of the family")
    return B, A


def meet(n1: Normal, n2: Normal, s: float) -> complex:
    """The meet z, |z| <= 1, of the curves with normals n1, n2 of the family
    C = sA; the other root is s/conj(z).  For n1 x n2 = (X, Y, Z) it is
    (X + iY) / (sZ + sgn(sZ) sqrt(Z^2 - s(X^2 + Y^2))): the denominator adds
    two terms of one sign, and a negative radicand (s = +1 only) means the
    curves miss (NoRealIntersection).  A 60-digit sweep found z up to
    ~4e-15 / sin(theta) off, relative, for the angle theta between n1 and
    n2, so sin(theta) <= MEET_MIN_SINE raises ParallelLines for two lines,
    ConcentricCircles for other curves.
    """
    (B1, A1), (B2, A2) = n1, n2
    x1, y1, x2, y2 = B1.real, B1.imag, B2.real, B2.imag
    X, Y, Z = y1 * A2 - A1 * y2, A1 * x2 - x1 * A2, x1 * y2 - y1 * x2
    XY, ZZ = X * X + Y * Y, Z * Z
    if XY + ZZ <= _MIN_SINE2 * (x1 * x1 + y1 * y1 + A1 * A1) \
            * (x2 * x2 + y2 * y2 + A2 * A2):
        if A1 == A2 == 0:
            raise ParallelLines("the lines coincide")
        raise ConcentricCircles("the curves coincide")
    D = ZZ - s * XY
    if D < 0:
        raise NoRealIntersection("the curves do not meet")
    sZ = s * Z
    return complex(X, Y) / (sZ + math.copysign(math.sqrt(D), sZ))


def midpoint_numerator(a: complex, b: complex, a2: float, b2: float, s: float) -> complex:
    """H_s = a(1 - s|b|^2) + b(1 - s|a|^2), for a2 = |a|^2 and b2 = |b|^2."""
    return a * (1 - s * b2) + b * (1 - s * a2)


def midpoint_denominator(a2: float, b2: float, m1: float, s: float) -> float:
    """H_s over this, m1 = |1 - s a conj(b)|, is the midpoint of a, b on
    GenCircle.through(a, b, s): hyperbolic for s = +1, chordal for s = -1 (the
    kappa-stereographic midpoint at kappa = -s; Bachmann et al., ICML 2020)."""
    return 1 - a2 * b2 + m1 * math.sqrt((1 - s * a2) * (1 - s * b2))


def line_intersection(a: complex, b: complex, c: complex, d: complex) -> complex:
    """Intersection point of the lines through (a,b) and (c,d)."""
    if a == b or c == d:
        raise DegenerateInput("coincident defining points")
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    ab, cd = a - b, c - d
    num = (ac * b - a * bc) * cd - (cc * d - c * dc) * ab
    den = (ac - bc) * cd - (cc - dc) * ab
    # scale_of(a, b, c, d), inlined: the call and its *args cost more than max
    if abs(den) <= DEGENERACY_TOL * max(1.0, abs(a), abs(b), abs(c), abs(d)):
        raise ParallelLines(f"lines through {a},{b} and {c},{d} are parallel")
    return num / den


def orthocenter(p1: complex, p2: complex, p3: complex) -> complex:
    """Orthocenter of a non-degenerate triangle."""
    cross = ((p2 - p1) * (p3 - p1).conjugate()).imag
    if abs(cross) <= DEGENERACY_TOL * scale_of(p1, p2, p3) ** 2:
        raise CollinearPoints("triangle vertices are collinear")
    # altitude from p1 is perpendicular to p2-p3, similarly from p2
    return line_intersection(p1, p1 + 1j * (p3 - p2), p2, p2 + 1j * (p3 - p1))

