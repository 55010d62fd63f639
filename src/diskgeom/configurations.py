"""Six-point configurations and the named intersection-point families.

From two disk points a, b (nonzero, non-collinear with 0) we derive the
unit-circle reflections a_star = 1/conj(a), b_star and the geodesic
endpoints a_end, b_end.  The line family k, s, t, u, v, the great-circle
family k_c ... v_c, and the p/q family each have two evaluation paths:
synthetic intersections and closed forms, which must agree.

One straight-line kernel per family (_line_family, _chordal_family,
_pq_family) holds the closed forms over what _moduli computes once per pair
and returns a degenerate point as its GeometryError instance: eleven_points
raises the first in PointFamily order, family_report reports each.  The
synthetic paths stay independent of the kernels, except that the p/q path
takes the direction conj(Q) from _moduli to pick between two roots.

All eleven points of the combined family are real multiples of
H = a(1-|b|^2) + b(1-|a|^2); p, q, p_c, q_c are positive real multiples of
conj(Q) = b(1-|a|^2)^2 + a|a-b|(|1-conj(a)b| - |a-b|).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import (
    CoincidentPoints,
    CollinearWithOrigin,
    DegenerateDenominator,
    GeometryError,
    NearBoundary,
    OutsideDisk,
    ZeroPoint,
)
from .euclid import line_intersection
from .hyperbolic import geodesic_endpoints, hyperbolic_midpoint
from .spherical import GcisQuadratic, gcis, gcis_roots, quadratic_error, quadratic_root

_DENOM_TOL = 1e-12

_H_FAMILY = ("k", "s", "t", "u", "v", "m", "k_c", "s_c", "t_c", "u_c", "v_c")
_NAMES = (*_H_FAMILY, "p", "q", "p_c", "q_c", "H")       # PointFamily order


class DiskConfig(NamedTuple):
    """Validated pair a, b with the four derived boundary/reflection points."""

    a: complex
    b: complex
    a_star: complex
    b_star: complex
    a_end: complex
    b_end: complex


class PointFamily(NamedTuple):
    """All named intersection points of a configuration."""

    k: complex
    s: complex
    t: complex
    u: complex
    v: complex
    m: complex
    kc: complex
    sc: complex
    tc: complex
    uc: complex
    vc: complex
    p: complex
    q: complex
    pc: complex
    qc: complex
    H: complex


def h_vector(a: complex, b: complex) -> complex:
    """Common direction H = a(1-|b|^2) + b(1-|a|^2) of the eleven points."""
    return a * (1 - abs(b) ** 2) + b * (1 - abs(a) ** 2)


def _check_pair(a: complex, b: complex) -> None:
    """Refuse a, b unless both are nonzero, in the open disk, distinct and
    not collinear with the origin."""
    if a == 0 or b == 0:
        raise ZeroPoint("a and b must be nonzero")
    if abs(a) >= 1 or abs(b) >= 1:
        raise OutsideDisk("a and b must lie in the open unit disk")
    if a == b:
        raise CoincidentPoints("a and b must be distinct")
    if abs((a * b.conjugate()).imag) <= _DENOM_TOL * abs(a) * abs(b):
        raise CollinearWithOrigin("a, b collinear with the origin")


def build_config(a: complex, b: complex) -> DiskConfig:
    """Validate a, b and derive reflections and geodesic endpoints."""
    _check_pair(a, b)
    a_end, b_end = geodesic_endpoints(a, b)
    return DiskConfig(a, b, 1 / a.conjugate(), 1 / b.conjugate(), a_end, b_end)


def _moduli(a: complex, b: complex) -> tuple:
    """Re(a conj(b)), |a-b|, |1 - a conj(b)|, |a|^2, |b|^2, |ab|^2, H and conj(Q)."""
    ab = a * b.conjugate()
    mab, m1, a2 = abs(a - b), abs(1 - ab), abs(a) ** 2
    return (ab.real, mab, m1, a2, abs(b) ** 2, abs(a * b) ** 2, h_vector(a, b),
            b * (1 - a2) ** 2 + a * mab * (m1 - mab))


def _quotient(name: str, num: complex, den: float) -> complex | GeometryError:
    """num / den, or DegenerateDenominator when den is within rounding of 0."""
    if abs(den) <= _DENOM_TOL:
        return DegenerateDenominator(f"denominator of {name} vanishes")
    return num / den


def _raised(values: list) -> list:
    """A kernel's values, after raising the first GeometryError among them."""
    for value in values:
        if isinstance(value, GeometryError):
            raise value
    return values


def _line_family(re, mab, m1, a2, b2, ab2, H: complex) -> list:
    """k, s, t, u, v as real multiples of H; re = Re(a conj(b))."""
    return [_quotient("k", (mab - m1) * H, (1 - ab2) * mab + (2 * ab2 - (a2 + b2)) * m1),
            _quotient("s", H, 2 - 2 * re - mab * m1),
            _quotient("t", H, 2 * re - 2 * ab2 + mab * m1),
            _quotient("u", H, 1 - ab2),
            _quotient("v", (m1 - mab) * H, (2 - (a2 + b2)) * m1 - (1 - ab2) * mab)]


def _chordal_R(mab, m1, a2, b2) -> list:
    """R of conj(H) z^2 + 2Rz - H = 0 for k_c ... v_c; k_c and v_c share R's numerator
    and are refused when |a-b| is within rounding of |1 - a conj(b)| (|a| or |b| = 1)."""
    num, gap = (1 - a2) * (1 - b2) * m1, mab - m1
    if abs(gap) <= 1e-10:
        kc = vc = NearBoundary("|a-b| within rounding of |1 - a conj(b)|")
    else:
        kc, vc = num / gap, num / (m1 - mab)
    return [kc, m1 * (m1 - mab), m1 * gap, 0.0, vc]


def _chordal_family(mab, m1, a2, b2, H: complex) -> list:
    """k_c, s_c, t_c, u_c, v_c: each quadratic's root in the closed disk."""
    H2 = abs(H) ** 2
    return [R if isinstance(R, GeometryError)
            else quadratic_error(H, R) or quadratic_root(H, H2, R)
            for R in _chordal_R(mab, m1, a2, b2)]


def _positive_multiple(roots: tuple[complex, complex], direction: complex) -> complex:
    """Root that is a positive real multiple of direction; the first on a tie."""
    d = direction.conjugate()
    return roots[1] if (roots[1] * d).real > (roots[0] * d).real else roots[0]


def _pq_family(mab, m1, a2, b2, num: complex) -> list:
    """p, q, p_c, q_c as positive real multiples of num = conj(Q); p_c, q_c are
    roots of Q z^2 -+ c1 z - conj(Q) = 0, which share one discriminant."""
    c2, c1 = num.conjugate(), (1 - a2) * m1 * (mab - m1)
    disc, two_c2 = cmath.sqrt(c1 * c1 - 4 * c2 * -num), 2 * c2
    return [_quotient("p", num, (1 - a2) ** 2 + a2 * mab * (m1 - mab)),
            _quotient("q", num, b2 * (1 - a2) ** 2 + mab * (m1 - mab)),
            _positive_multiple(((c1 + disc) / two_c2, (c1 - disc) / two_c2), num),
            _positive_multiple(((-c1 + disc) / two_c2, (-c1 - disc) / two_c2), num)]


def _chords(cfg: DiskConfig) -> tuple:
    """(p1, p2, p3, p4) for k, s, t, u, v, p, q: where lines (or great circles)
    p1p2 and p3p4 meet."""
    a, b, ast, bst, ae, be = cfg.a, cfg.b, cfg.a_star, cfg.b_star, cfg.a_end, cfg.b_end
    return ((ae, ast, be, bst), (a, be, b, ae), (ae, bst, be, ast), (a, bst, b, ast),
            (a, ae, b, be), (a, be, ast, b), (a, bst, ast, be))


def five_points_euclid(cfg: DiskConfig, path: str = "closed_form"
                       ) -> tuple[complex, complex, complex, complex, complex]:
    """Points k, s, t, u, v as line intersections or via their closed forms."""
    if path == "synthetic":
        return tuple([line_intersection(*chords) for chords in _chords(cfg)[:5]])
    if path != "closed_form":
        raise ValueError(f"unknown path {path!r}")
    re, mab, m1, a2, b2, ab2, H, _ = _moduli(cfg.a, cfg.b)
    return tuple(_raised(_line_family(re, mab, m1, a2, b2, ab2, H)))


def chordal_quadratics(cfg: DiskConfig) -> dict[str, GcisQuadratic]:
    """Quadratic conj(H) z^2 + 2Rz - H = 0 for each great-circle point."""
    _, mab, m1, a2, b2, _, H, _ = _moduli(cfg.a, cfg.b)
    return dict(zip(("kc", "sc", "tc", "uc", "vc"),
                    [GcisQuadratic(H, R) for R in _raised(_chordal_R(mab, m1, a2, b2))]))


def five_points_chordal(cfg: DiskConfig, path: str = "quadratic"
                        ) -> tuple[complex, complex, complex, complex, complex]:
    """Points k_c, s_c, t_c, u_c, v_c via the quadratics or via GCIS."""
    if path == "gcis":
        return tuple([gcis(*chords) for chords in _chords(cfg)[:5]])
    if path != "quadratic":
        raise ValueError(f"unknown path {path!r}")
    _, mab, m1, a2, b2, _, H, _ = _moduli(cfg.a, cfg.b)
    return tuple(_raised(_chordal_family(mab, m1, a2, b2, H)))


def pq_family(cfg: DiskConfig, path: str = "closed_form"
              ) -> tuple[complex, complex, complex, complex]:
    """Points p, q, p_c, q_c; all positive real multiples of conj(Q).

    The chordal pair is selected among the quadratic (or GCIS) roots by that
    direction: q_c generally lies outside the unit disk.
    """
    if path == "synthetic":
        num, (p, q) = _moduli(cfg.a, cfg.b)[-1], _chords(cfg)[5:]    # num = conj(Q)
        return (line_intersection(*p), line_intersection(*q),
                _positive_multiple(gcis_roots(*p), num),
                _positive_multiple(gcis_roots(*q), num))
    if path != "closed_form":
        raise ValueError(f"unknown path {path!r}")
    _, mab, m1, a2, b2, _, _, num = _moduli(cfg.a, cfg.b)
    return tuple(_raised(_pq_family(mab, m1, a2, b2, num)))


def collinearity_residual(points: list[complex]) -> float:
    """Residual of the points lying on one line, measured about the first.

    With r_i = z_i - z_0 for the other points, the residual is the max over
    pairs i < j of |Im(r_i conj(r_j))| / max(1, |r_i| |r_j|): zero for
    exactly collinear points, dimensionless, and NaN when a point is NaN or
    infinite.
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    if not all(map(cmath.isfinite, points)):
        return math.nan
    anchor = points[0]
    rel = [(r.real, r.imag, abs(r)) for r in [z - anchor for z in points[1:]]]
    worst = 0.0
    for i, (xi, yi, mi) in enumerate(rel):
        for xj, yj, mj in rel[i + 1:]:
            # Im(r_i conj(r_j)) in the operations of Python's complex product
            r = abs(xi * -yj + yi * xj)
            if r > worst:           # else r / max(1, d) <= r <= worst
                d = mi * mj
                if d > 1.0:
                    r /= d
                if r > worst:
                    worst = r
    return worst


def family_report(a: complex, b: complex
                  ) -> tuple[dict[str, complex], dict[str, str], float | None]:
    """Every named point computed independently, with per-point status.

    Returns (points, statuses, residual): statuses map each name to "ok" or
    the degeneracy message; residual is the collinearity residual of the
    successfully computed H-family points with the origin (None when fewer
    than two survive).
    """
    cfg = build_config(a, b)
    points = {"a_star": cfg.a_star, "b_star": cfg.b_star,
              "a_end": cfg.a_end, "b_end": cfg.b_end}
    statuses = dict.fromkeys([*points, *_NAMES], "ok")
    re, mab, m1, a2, b2, ab2, H, num = _moduli(a, b)
    values = [*_line_family(re, mab, m1, a2, b2, ab2, H), hyperbolic_midpoint(a, b),
              *_chordal_family(mab, m1, a2, b2, H), *_pq_family(mab, m1, a2, b2, num), H]
    for name, value in zip(_NAMES, values):
        if isinstance(value, (DegenerateDenominator, NearBoundary)):
            statuses[name] = f"degenerate: {value}"
        elif isinstance(value, GeometryError):
            raise value
        else:
            points[name] = value
    h_family = [points[n] for n in _H_FAMILY if n in points]
    residual = collinearity_residual([0j, *h_family]) if len(h_family) >= 2 else None
    return points, statuses, residual


def h_family(a: complex, b: complex) -> tuple[list[complex], tuple]:
    """The eleven H-direction points k ... v_c of (a, b) in PointFamily order,
    raising the first degeneracy among them, and the _moduli values they
    were computed from."""
    _check_pair(a, b)
    moduli = re, mab, m1, a2, b2, ab2, H, _ = _moduli(a, b)
    return ([*_raised(_line_family(re, mab, m1, a2, b2, ab2, H)),
             hyperbolic_midpoint(a, b),
             *_raised(_chordal_family(mab, m1, a2, b2, H))], moduli)


def eleven_points(a: complex, b: complex) -> tuple[PointFamily, float]:
    """Full point family for (a, b) plus the collinearity residual of the
    eleven H-direction points with the origin."""
    points, (_, mab, m1, a2, b2, _, H, num) = h_family(a, b)
    return (PointFamily(*points, *_raised(_pq_family(mab, m1, a2, b2, num)), H),
            collinearity_residual([0j, *points]))
