"""Computational geometry of the unit disk and the Riemann sphere.

Points are plain Python complex numbers; the point at infinity is the
INFINITY sentinel (accepted only by the spherical-metric functions).
Submodules: euclid (lines/circles/intersections), hyperbolic (disk metric,
geodesics, midpoints), spherical (stereographic projection, great circles)
and configurations (named point families) load with the package; figures
(labeled figures), cli (command-line front end) and verify (randomized
checks) load on first use, verify also on the first read of its names here;
oracles (the independent constructions verify checks against) loads with
verify.
"""

from .errors import GeometryError
from .euclid import (
    GenCircle,
    line_intersection,
    orthocenter,
)
from .hyperbolic import (
    chord_vs_geodesic_midpoint,
    geodesic_endpoints,
    geodesic_intersection_on_circle,
    hyperbolic_line,
    hyperbolic_midpoint,
    midpoint_via_inversion,
    midpoint_via_lens,
    mobius_T,
    rho,
)
from .spherical import (
    INFINITY,
    SpherePoint,
    antipodal,
    chordal_distance,
    chordal_midpoint,
    gcis,
    great_circle_projection,
    orthogonal_great_circle,
    to_sphere,
)
from .configurations import (
    DiskConfig,
    PointFamily,
    build_config,
    collinearity_residual,
    eleven_points,
    family_report,
    h_vector,
)

__version__ = "1.0.0"

__all__ = [
    "GeometryError",
    "GenCircle", "line_intersection", "orthocenter",
    "chord_vs_geodesic_midpoint", "geodesic_endpoints",
    "geodesic_intersection_on_circle",
    "hyperbolic_line", "hyperbolic_midpoint", "midpoint_via_inversion",
    "midpoint_via_lens", "mobius_T", "rho",
    "INFINITY", "SpherePoint", "antipodal", "chordal_distance",
    "chordal_midpoint", "gcis", "great_circle_projection",
    "orthogonal_great_circle", "to_sphere",
    "DiskConfig", "PointFamily", "build_config", "collinearity_residual",
    "eleven_points", "family_report", "h_vector",
    "SampleSpec", "VerificationReport", "run_all", "run_check",
]


def __getattr__(name: str):
    if name in ("SampleSpec", "VerificationReport", "run_all", "run_check"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
