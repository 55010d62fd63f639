"""Six-point configurations and the named intersection-point families.

From two disk points a, b (nonzero, non-collinear with 0) we derive the
unit-circle reflections a_star = 1/conj(a), b_star and the geodesic
endpoints a_end, b_end.  The line family k, s, t, u, v, the great-circle
family k_c ... v_c, and the p/q family each have two evaluation paths:
synthetic intersections and closed forms, which must agree.

_CLOSED_FORMS is the single source of the closed forms: it declares each
named point's formula and degeneracy condition once, and the closed-form
paths of five_points_euclid, chordal_quadratics, five_points_chordal and
pq_family, as well as eleven_points and family_report, all read it.  The
synthetic paths intersect lines and great circles and stay independent of
it; the synthetic p/q path takes only the direction conj(Q) from _moduli,
to pick between the two great-circle roots.

All eleven points of the combined family are real multiples of
H = a(1-|b|^2) + b(1-|a|^2); p, q, p_c, q_c are positive real multiples of
conj(Q) = b(1-|a|^2)^2 + a|a-b|(|1-conj(a)b| - |a-b|).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (
    CoincidentPoints,
    CollinearWithOrigin,
    DegenerateDenominator,
    NearBoundary,
    OutsideDisk,
    ZeroPoint,
)
from .euclid import line_intersection
from .hyperbolic import geodesic_endpoints, hyperbolic_midpoint
from .spherical import GcisQuadratic, gcis, gcis_quadratic_solve, gcis_roots

_DENOM_TOL = 1e-12

_CHORDAL = ("k_c", "s_c", "t_c", "u_c", "v_c")
_H_FAMILY = ("k", "s", "t", "u", "v", "m", *_CHORDAL)


@dataclass(frozen=True)
class DiskConfig:
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
    """a, b, |a-b|, |1 - a conj(b)|, |a|^2, |b|^2, |ab|^2 and the directions
    H and conj(Q): what the closed forms read, in their parameter order."""
    mab, m1, a2 = abs(a - b), abs(1 - a * b.conjugate()), abs(a) ** 2
    return (a, b, mab, m1, a2, abs(b) ** 2, abs(a * b) ** 2, h_vector(a, b),
            b * (1 - a2) ** 2 + a * mab * (m1 - mab))


def _checked_div(name: str, num: complex, den: float) -> complex:
    if abs(den) <= _DENOM_TOL:
        raise DegenerateDenominator(f"denominator of {name} vanishes")
    return num / den


def _boundary_R(a2: float, b2: float, m1: float, gap: float) -> float:
    """R of k_c (gap = |a-b| - |1 - a conj(b)|) or v_c (gap negated); refused
    when the gap is within rounding of zero, which needs |a| = 1 or |b| = 1."""
    if abs(gap) <= 1e-10:
        raise NearBoundary("|a-b| within rounding of |1 - a conj(b)|")
    return (1 - a2) * (1 - b2) * m1 / gap


def _pq_chordal(num: complex, a2: float, mab: float, m1: float, sign: float
                ) -> complex:
    """Root along num = conj(Q) of Q z^2 + sign R z - conj(Q) = 0: q_c for
    sign = 1, p_c for sign = -1."""
    c2, c1 = num.conjugate(), sign * ((1 - a2) * m1 * (mab - m1))
    disc = cmath.sqrt(c1 * c1 - 4 * c2 * -num)
    return _positive_multiple(((-c1 + disc) / (2 * c2), (-c1 - disc) / (2 * c2)), num)


# The closed form of each named point, in PointFamily order, as a function of
# what _moduli returns.  An entry raises DegenerateDenominator or NearBoundary
# when its point's degeneracy condition holds.  A great-circle entry gives the
# quadratic conj(H) z^2 + 2Rz - H = 0 of its point; _solved solves it.
_CLOSED_FORMS: dict[str, Callable[..., complex | GcisQuadratic]] = {
    "k": lambda a, b, mab, m1, a2, b2, ab2, H, num: _checked_div(
        "k", (mab - m1) * H, (1 - ab2) * mab + (2 * ab2 - (a2 + b2)) * m1),
    "s": lambda a, b, mab, m1, a2, b2, ab2, H, num: _checked_div(
        "s", H, 2 - 2 * (a * b.conjugate()).real - mab * m1),
    "t": lambda a, b, mab, m1, a2, b2, ab2, H, num: _checked_div(
        "t", H, 2 * (a * b.conjugate()).real - 2 * ab2 + mab * m1),
    "u": lambda a, b, mab, m1, a2, b2, ab2, H, num: _checked_div("u", H, 1 - ab2),
    "v": lambda a, b, mab, m1, a2, b2, ab2, H, num: _checked_div(
        "v", (m1 - mab) * H, (2 - (a2 + b2)) * m1 - (1 - ab2) * mab),
    "m": lambda a, b, mab, m1, a2, b2, ab2, H, num: hyperbolic_midpoint(a, b),
    "k_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: GcisQuadratic(
        H, _boundary_R(a2, b2, m1, mab - m1)),
    "s_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: GcisQuadratic(H, m1 * (m1 - mab)),
    "t_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: GcisQuadratic(H, m1 * (mab - m1)),
    "u_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: GcisQuadratic(H, 0.0),
    "v_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: GcisQuadratic(
        H, _boundary_R(a2, b2, m1, m1 - mab)),
    "p": lambda a, b, mab, m1, a2, b2, ab2, H, num: _checked_div(
        "p", num, (1 - a2) ** 2 + a2 * mab * (m1 - mab)),
    "q": lambda a, b, mab, m1, a2, b2, ab2, H, num: _checked_div(
        "q", num, b2 * (1 - a2) ** 2 + mab * (m1 - mab)),
    "p_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _pq_chordal(num, a2, mab, m1, -1.0),
    "q_c": lambda a, b, mab, m1, a2, b2, ab2, H, num: _pq_chordal(num, a2, mab, m1, 1.0),
    "H": lambda a, b, mab, m1, a2, b2, ab2, H, num: H,
}


def _solved(value: complex | GcisQuadratic) -> complex:
    """The point of a table entry: a quadratic's root in the closed disk."""
    if isinstance(value, GcisQuadratic):
        return gcis_quadratic_solve(value)
    return value


def _entries(cfg: DiskConfig, names: tuple[str, ...]) -> tuple:
    """The named table entries of cfg, in the given order; the first
    degenerate one raises."""
    x = _moduli(cfg.a, cfg.b)
    return tuple([_CLOSED_FORMS[name](*x) for name in names])


def five_points_euclid(cfg: DiskConfig, path: str = "closed_form"
                       ) -> tuple[complex, complex, complex, complex, complex]:
    """Points k, s, t, u, v as line intersections or via their closed forms."""
    a, b = cfg.a, cfg.b
    if path == "synthetic":
        ast, bst, ae, be = cfg.a_star, cfg.b_star, cfg.a_end, cfg.b_end
        return (line_intersection(ae, ast, be, bst),
                line_intersection(a, be, b, ae),
                line_intersection(ae, bst, be, ast),
                line_intersection(a, bst, b, ast),
                line_intersection(a, ae, b, be))
    if path != "closed_form":
        raise ValueError(f"unknown path {path!r}")
    return _entries(cfg, ("k", "s", "t", "u", "v"))


def chordal_quadratics(cfg: DiskConfig) -> dict[str, GcisQuadratic]:
    """Quadratic conj(H) z^2 + 2Rz - H = 0 for each great-circle point."""
    return dict(zip(("kc", "sc", "tc", "uc", "vc"), _entries(cfg, _CHORDAL)))


def five_points_chordal(cfg: DiskConfig, path: str = "quadratic"
                        ) -> tuple[complex, complex, complex, complex, complex]:
    """Points k_c, s_c, t_c, u_c, v_c via the quadratics or via GCIS."""
    a, b = cfg.a, cfg.b
    if path == "gcis":
        ast, bst, ae, be = cfg.a_star, cfg.b_star, cfg.a_end, cfg.b_end
        return (gcis(ae, ast, be, bst),
                gcis(a, be, b, ae),
                gcis(ae, bst, be, ast),
                gcis(a, bst, b, ast),
                gcis(a, ae, b, be))
    if path != "quadratic":
        raise ValueError(f"unknown path {path!r}")
    return tuple([gcis_quadratic_solve(qd) for qd in _entries(cfg, _CHORDAL)])


def _positive_multiple(roots: tuple[complex, complex], direction: complex
                       ) -> complex:
    """Root that is a positive real multiple of the given direction."""
    return max(roots, key=lambda z: (z * direction.conjugate()).real)


def pq_family(cfg: DiskConfig, path: str = "closed_form"
              ) -> tuple[complex, complex, complex, complex]:
    """Points p, q, p_c, q_c; all positive real multiples of conj(Q).

    The chordal pair is selected among the quadratic (or GCIS) roots by that
    direction: q_c generally lies outside the unit disk.
    """
    if path == "synthetic":
        a, b, num = cfg.a, cfg.b, _moduli(cfg.a, cfg.b)[-1]    # num = conj(Q)
        p = line_intersection(a, cfg.b_end, cfg.a_star, b)
        q = line_intersection(a, cfg.b_star, cfg.a_star, cfg.b_end)
        pc = _positive_multiple(gcis_roots(a, cfg.b_end, cfg.a_star, b), num)
        qc = _positive_multiple(
            gcis_roots(a, cfg.b_star, cfg.a_star, cfg.b_end), num)
        return p, q, pc, qc
    if path != "closed_form":
        raise ValueError(f"unknown path {path!r}")
    return _entries(cfg, ("p", "q", "p_c", "q_c"))


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
    statuses = dict.fromkeys([*points, *_CLOSED_FORMS], "ok")
    x = _moduli(a, b)
    for name, form in _CLOSED_FORMS.items():
        try:
            points[name] = _solved(form(*x))
        except (DegenerateDenominator, NearBoundary) as exc:
            statuses[name] = f"degenerate: {exc}"
    h_family = [points[n] for n in _H_FAMILY if n in points]
    residual = collinearity_residual([0j, *h_family]) if len(h_family) >= 2 else None
    return points, statuses, residual


def eleven_points(a: complex, b: complex) -> tuple[PointFamily, float]:
    """Full point family for (a, b) plus the collinearity residual of the
    eleven H-direction points with the origin."""
    _check_pair(a, b)
    x = _moduli(a, b)
    values = [_solved(form(*x)) for form in _CLOSED_FORMS.values()]
    return PointFamily(*values), collinearity_residual([0j, *values[:len(_H_FAMILY)]])
