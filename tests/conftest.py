"""Shared hypothesis strategies for disk/circle point sampling."""

import cmath
import math

from hypothesis import settings, strategies as st

# Every run draws the same examples (derandomize implies no example
# database), so a green Tier-1 stays green from run to run.
settings.register_profile("diskgeom", derandomize=True)
settings.load_profile("diskgeom")

TAU = 2 * math.pi


def polar_points(r_min=0.05, r_max=0.95):
    """Complex points with modulus in [r_min, r_max]."""
    return st.builds(
        cmath.rect,
        st.floats(min_value=r_min, max_value=r_max),
        st.floats(min_value=0.0, max_value=TAU, exclude_max=True),
    )


def unit_circle_points():
    """Complex points on the unit circle."""
    return st.builds(
        cmath.rect,
        st.just(1.0),
        st.floats(min_value=0.0, max_value=TAU, exclude_max=True),
    )


def well_separated(a: complex, b: complex,
                   min_angle: float = 0.05, min_gap: float = 0.05) -> bool:
    """True when a, b are apart, away from 0, and not collinear with 0."""
    if abs(a - b) < min_gap or abs(a) < 1e-3 or abs(b) < 1e-3:
        return False
    return abs((a * b.conjugate()).imag) > min_angle * abs(a) * abs(b)
