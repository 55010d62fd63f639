"""Computational geometry of the unit disk and the Riemann sphere.

Points are plain Python complex numbers; the point at infinity is the
INFINITY sentinel (accepted only by the spherical-metric functions).
Submodules: euclid (lines/circles/intersections), hyperbolic (disk metric,
geodesics, midpoints), spherical (stereographic projection, great circles),
configurations (named point families), verify (randomized checks),
figures (labeled figure reproduction), cli (command-line front end).
"""

from .errors import GeometryError
from .euclid import (
    GenCircle,
    circumcenter,
    line_intersection,
    orthocenter,
)
from .hyperbolic import (
    Geodesic,
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
from .verify import SampleSpec, VerificationReport, run_all, run_check

__version__ = "1.0.0"

__all__ = [
    "GeometryError",
    "GenCircle", "circumcenter", "line_intersection", "orthocenter",
    "Geodesic", "chord_vs_geodesic_midpoint",
    "geodesic_endpoints", "geodesic_intersection_on_circle",
    "hyperbolic_line", "hyperbolic_midpoint", "midpoint_via_inversion",
    "midpoint_via_lens", "mobius_T", "rho",
    "INFINITY", "SpherePoint", "antipodal", "chordal_distance",
    "chordal_midpoint", "gcis", "great_circle_projection",
    "orthogonal_great_circle", "to_sphere",
    "DiskConfig", "PointFamily", "build_config", "collinearity_residual",
    "eleven_points", "family_report", "h_vector",
    "SampleSpec", "VerificationReport", "run_all", "run_check",
]
