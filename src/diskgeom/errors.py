"""Exception hierarchy for degenerate geometric inputs.

Every operation raises a subclass of GeometryError instead of returning a
huge or meaningless point when a denominator vanishes or a precondition
fails.  The randomized harness treats some of these as skip signals.
"""


class GeometryError(ValueError):
    """Base class for all geometric precondition / degeneracy errors."""


class DegenerateInput(GeometryError):
    """Two defining points of a line coincide."""


class ParallelLines(GeometryError):
    """The two lines do not meet (intersection denominator vanished)."""


class DegenerateModuli(GeometryError):
    """A closed-form denominator |a| = |b| or |a||b| = 1 vanished."""


class CollinearWithOrigin(GeometryError):
    """The point pair lies on a line through the origin."""


class CollinearPoints(GeometryError):
    """Three points meant to span a circle or triangle are collinear."""


class ConcentricCircles(GeometryError):
    """Distinct circles with a common center have no intersection."""


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
    """Neither root of the intersection quadratic lies inside the disk."""


class EqualModuli(GeometryError):
    """The construction requires |a| != |b|."""


class OriginIntersection(GeometryError):
    """The chord intersection point is the origin."""


class AntipodalPair(GeometryError):
    """The two points are antipodal on the sphere."""


class NearBoundary(GeometryError):
    """A closed form broke down because |a| or |b| is within rounding of 1."""


class NoRealIntersection(GeometryError):
    """No intersection point found where one must exist (corrupt input)."""


class InvalidCyclicOrder(GeometryError):
    """Unit-circle points are not in positive cyclic order."""


class PointOutsideDisk(GeometryError):
    """A derived point left the open disk; the sample should be skipped."""


class UnknownTheorem(GeometryError):
    """The verification harness does not know this check id."""


class SamplerMismatch(GeometryError):
    """The check requires a different sampler than the one specified."""


class SamplerStarvation(GeometryError):
    """More than 10% of requested samples were rejected as degenerate."""
