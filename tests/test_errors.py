"""Each GeometryError subclass below is raised by a literal input."""

import cmath

import pytest

from diskgeom.errors import (
    NoInDiskRoot,
    NoRealIntersection,
    OriginIntersection,
    PointOutsideDisk,
    PoleHit,
)
from diskgeom.euclid import GenCircle, gencircle_intersection, in_disk_point
from diskgeom.hyperbolic import (
    chord_vs_geodesic_midpoint,
    geodesic_intersection_on_circle,
    mobius_T,
)
from diskgeom.verify import conjecture_check

CASES = [
    # 2 = 1/conj(0.5) is the pole of T_0.5
    (PoleHit, lambda: mobius_T(0.5 + 0j, 2 + 0j)),
    # the diagonals of the square 1, i, -1, -i cross at 0
    (OriginIntersection,
     lambda: chord_vs_geodesic_midpoint(1 + 0j, 1j, -1 + 0j, -1j)),
    # h = 1.5 lies outside the disk
    (PointOutsideDisk,
     lambda: conjecture_check(cmath.exp(0.3j), cmath.exp(1.5j), cmath.exp(3j),
                              cmath.exp(4.5j), 1.5 + 0j)),
    (NoRealIntersection,
     lambda: in_disk_point(gencircle_intersection(
         GenCircle.circle(0j, 1.0), GenCircle.circle(5 + 0j, 1.0)))),
    # four points within 3e-9 rad: the crossing is ~9e-10 inside the circle,
    # but cancellation in the closed form leaves neither root inside
    (NoInDiskRoot,
     lambda: geodesic_intersection_on_circle(
         *[cmath.exp(1j * (1 + k * 1e-9)) for k in range(4)])),
]


@pytest.mark.parametrize("error,call", CASES, ids=[e.__name__ for e, _ in CASES])
def test_error_class_is_raised(error, call):
    with pytest.raises(error):
        call()
