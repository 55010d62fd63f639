"""Exception hierarchy and refusal thresholds for degenerate geometric inputs.

Every operation raises a subclass of GeometryError instead of returning a
huge or meaningless point when a denominator vanishes or a precondition
fails.  The randomized harness treats some of these as skip signals.
"""


class GeometryError(ValueError):
    """Base class for all geometric precondition / degeneracy errors."""


class DegenerateInput(GeometryError):
    """A line through coincident points, a circle radius that is not positive
    and finite, or the center or radius of a line; also a finite input to a
    curve function of euclid or spherical (normal, so GenCircle.through and
    gcis; GenCircle.circle, radius and residual; orthocenter;
    orthogonal_great_circle) whose squared modulus overflows the float range."""


class ParallelLines(GeometryError):
    """line_intersection's lines are parallel or coincide, or meet's two
    lines through 0 coincide."""


class CollinearWithOrigin(GeometryError):
    """The point pair lies on a line through the origin."""


class CollinearPoints(GeometryError):
    """Three points meant to span a triangle are collinear (orthocenter), or
    the geodesic of the lens or inversion midpoint is nearly a diameter."""


class ConcentricCircles(GeometryError):
    """meet's curves coincide: their normals are under MEET_MIN_SINE apart."""


class OutsideDisk(GeometryError):
    """A point required to be in the open unit disk is not."""


class ZeroPoint(GeometryError):
    """A point required to be nonzero is the origin."""


class PoleHit(GeometryError):
    """A Moebius transformation was evaluated at its pole."""


class CoincidentPoints(GeometryError):
    """Points required to be distinct coincide."""


class DegenerateDenominator(GeometryError):
    """A named closed-form denominator vanished for this configuration."""


class NoInDiskRoot(GeometryError):
    """midpoint_via_inversion's inversion center lies in the closed disk."""


class EqualModuli(GeometryError):
    """The construction requires |a| != |b|."""


class OriginIntersection(GeometryError):
    """The chord intersection point is the origin."""


class AntipodalPair(GeometryError):
    """The two points are antipodal on the sphere."""


class NearBoundary(GeometryError):
    """A closed form broke down because |a| or |b| is within rounding of 1."""


class NoRealIntersection(GeometryError):
    """meet's geodesics are disjoint (a valid input), the lens or inversion
    meet lies on or near the unit circle, or gcis's root is NaN."""


class InvalidCyclicOrder(GeometryError):
    """Unit-circle points are not in positive cyclic order."""


class UnknownTheorem(GeometryError):
    """The verification harness does not know this check id."""


class SamplerStarvation(GeometryError):
    """More than 10% of requested samples were rejected as degenerate."""


# One name per meaning; README's "Tolerances and refusals" lists each site.
DEGENERACY_TOL = 1e-12      # a denominator, cross product or |a| - |b| this small is 0
POLE_TOL = 1e-15            # |1 - conj(a) z| this small: z is the pole of T_a
DISK_EDGE_TOL = 1e-12       # a root this close to the unit circle lies on it
UNIT_CIRCLE_TOL = 1e-9      # points on the unit circle this close coincide
ORACLE_MIN_GAP = 1e-6       # midpoint_oracle refuses 1 - |T_x(y)| below this
INVERSION_MIN_GAP = 1e-2    # midpoint_via_inversion refuses ||a| - |b|| below this
LENS_MIN_CURVATURE = 2e-3   # midpoint_via_lens refuses a geodesic with |A| < this * |B|
INVERSION_MIN_CURVATURE = 3e-3   # midpoint_via_inversion refuses |A| < this * |B|
MEET_MIN_SINE = 1e-9        # euclid.meet refuses curves whose normals are closer (sine)
COUNTEREXAMPLE_RESIDUAL = 1e-6   # diskgeom conjecture flags a larger max residual


def require_in_disk(x: complex, y: complex = 0j) -> None:
    """Raise OutsideDisk unless |x|, |y| < 1; a NaN coordinate fails too."""
    if not (abs(x) < 1 and abs(y) < 1):
        raise OutsideDisk("points must lie in the open unit disk")
