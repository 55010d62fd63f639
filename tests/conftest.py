"""Shared hypothesis strategies for disk/circle point sampling, and a
decimal complex type for references to many digits."""

import cmath
import math
from decimal import Decimal, localcontext

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


class _Dec:
    """A complex number with Decimal parts, rounded in the current decimal
    context: + - * / with _Dec, Decimal or int, abs, conjugate and sqrt."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=0):
        if isinstance(real, complex):
            real, imag = real.real, real.imag
        self.real, self.imag = Decimal(real), Decimal(imag)   # exact from floats

    @staticmethod
    def of(z):
        return z if isinstance(z, _Dec) else _Dec(z)

    def __add__(self, z):
        z = _Dec.of(z)
        return _Dec(self.real + z.real, self.imag + z.imag)

    __radd__ = __add__

    def __neg__(self):
        return _Dec(-self.real, -self.imag)

    def __sub__(self, z):
        return self + -_Dec.of(z)

    def __rsub__(self, z):
        return -self + z

    def __mul__(self, z):
        z = _Dec.of(z)
        return _Dec(self.real * z.real - self.imag * z.imag,
                    self.real * z.imag + self.imag * z.real)

    __rmul__ = __mul__

    def __truediv__(self, z):
        z = _Dec.of(z)
        w, n = self * z.conjugate(), z.real * z.real + z.imag * z.imag
        return _Dec(w.real / n, w.imag / n)

    def __rtruediv__(self, z):
        return _Dec.of(z) / self

    def conjugate(self):
        return _Dec(self.real, -self.imag)

    def __abs__(self):
        return (self.real * self.real + self.imag * self.imag).sqrt()

    def sqrt(self):
        t = ((abs(self) + abs(self.real)) / 2).sqrt()       # no cancellation
        if self.real >= 0:
            return _Dec(t, self.imag / (2 * t))
        return _Dec(abs(self.imag) / (2 * t), t if self.imag >= 0 else -t)


def endpoint_error(end: complex, x: complex, y: complex) -> float:
    """|end - the endpoint of the geodesic through x, y on the x side|, that
    endpoint found to 60 digits by pushing T_y(x) to the unit circle and
    mapping back with T_{-y}."""
    with localcontext(prec=60):
        x, y = _Dec(x), _Dec(y)
        t = (x - y) / (1 - y.conjugate() * x)
        u = t / abs(t)
        return float(abs(_Dec(end) - (u + y) / (1 + y.conjugate() * u)))
