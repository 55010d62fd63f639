"""Six-point configurations and the named intersection-point families.

From two disk points a, b (nonzero, non-collinear with 0) we derive the
unit-circle reflections a_star = 1/conj(a), b_star and the geodesic
endpoints a_end, b_end.  The line family k, s, t, u, v, the great-circle
family k_c ... v_c, and the p/q family each have two evaluation paths:
synthetic intersections and closed forms, which must agree.

One straight-line kernel per family (_line_family, _chordal_family,
_pq_family) holds the closed forms over what _moduli computes once per pair,
as does midpoint_from_moduli for m.  A kernel appends its points to one list,
a degenerate point as its GeometryError instance, and returns the first such
error: h_family raises it, family_report reports each.  Only p/q callers
build conj(Q) (_conj_q); the synthetic paths stay independent of the
kernels, except that the p/q path takes conj(Q) to pick between two roots.

All eleven points of the combined family are real multiples of
H = a(1-|b|^2) + b(1-|a|^2); p, q, p_c, q_c are positive real multiples of
conj(Q) = b(1-|a|^2)^2 + a|a-b|(|1-conj(a)b| - |a-b|).
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations
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
from .hyperbolic import geodesic_endpoints, midpoint_from_moduli
from .spherical import gcis, gcis_roots, quadratic_error, quadratic_root

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
    return _moduli(a, b)[-1]


def _check_pair(a: complex, b: complex) -> None:
    """Refuse a, b unless both are nonzero, in the open disk, distinct and
    not collinear with the origin."""
    if a == 0 or b == 0:
        raise ZeroPoint("a and b must be nonzero")
    if not (abs(a) < 1 and abs(b) < 1):         # a NaN coordinate fails too
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
    """Re(a conj(b)), |a-b|, |1 - a conj(b)|, |a|^2, |b|^2, |ab|^2 and H."""
    ab = a * b.conjugate()
    a2, b2 = abs(a) ** 2, abs(b) ** 2
    return (ab.real, abs(a - b), abs(1 - ab), a2, b2, abs(a * b) ** 2,
            a * (1 - b2) + b * (1 - a2))


def _conj_q(a: complex, b: complex, mab: float, m1: float, a2: float) -> complex:
    """conj(Q), the direction of p, q, p_c and q_c, from _moduli's values."""
    return b * (1 - a2) ** 2 + a * mab * (m1 - mab)


def _quotients(names: str, nums: tuple, dens: tuple, out: list) -> GeometryError | None:
    """Append num / den to out, or DegenerateDenominator if den is within rounding of 0."""
    first = None
    for name, num, den in zip(names, nums, dens):
        if abs(den) <= _DENOM_TOL:
            out.append(DegenerateDenominator(f"denominator of {name} vanishes"))
            first = first or out[-1]
        else:
            out.append(num / den)
    return first


def _line_family(re, mab, m1, a2, b2, ab2, H: complex, out: list) -> GeometryError | None:
    """Append k, s, t, u, v, real multiples of H, to out (re = Re(a conj(b)))."""
    return _quotients("kstuv", ((mab - m1) * H, H, H, H, (m1 - mab) * H),
                      ((1 - ab2) * mab + (2 * ab2 - (a2 + b2)) * m1,
                       2 - 2 * re - mab * m1, 2 * re - 2 * ab2 + mab * m1, 1 - ab2,
                       (2 - (a2 + b2)) * m1 - (1 - ab2) * mab), out)


def _chordal_R(mab, m1, a2, b2) -> list:
    """R of conj(H) z^2 + 2Rz - H = 0 for k_c ... v_c; k_c and v_c share R's numerator
    and are refused when |a-b| is within rounding of |1 - a conj(b)| (|a| or |b| = 1)."""
    num, gap = (1 - a2) * (1 - b2) * m1, mab - m1
    if abs(gap) <= 1e-10:
        kc = vc = NearBoundary("|a-b| within rounding of |1 - a conj(b)|")
    else:
        kc, vc = num / gap, num / (m1 - mab)
    return [kc, m1 * (m1 - mab), m1 * gap, 0.0, vc]


def _chordal_family(mab, m1, a2, b2, H: complex, out: list) -> GeometryError | None:
    """Append k_c ... v_c, each quadratic's root in the closed disk, to out."""
    H2, nonzero, first = abs(H) ** 2, H != 0, None
    for R in _chordal_R(mab, m1, a2, b2):
        if isinstance(R, float) and nonzero and math.isfinite(R):
            out.append(quadratic_root(H, H2, R))
        else:
            out.append(R if isinstance(R, GeometryError) else quadratic_error(H, R))
            first = first or out[-1]
    return first


def _positive_multiple(roots: tuple[complex, complex], direction: complex) -> complex:
    """Root that is a positive real multiple of direction; the first on a tie."""
    d = direction.conjugate()
    return roots[1] if (roots[1] * d).real > (roots[0] * d).real else roots[0]


def _pq_family(mab, m1, a2, b2, num: complex, out: list) -> GeometryError | None:
    """Append p, q, p_c, q_c, positive real multiples of num = conj(Q), to out; p_c,
    q_c are roots of Q z^2 -+ c1 z - conj(Q) = 0, which share one discriminant."""
    first = _quotients("pq", (num, num), ((1 - a2) ** 2 + a2 * mab * (m1 - mab),
                                          b2 * (1 - a2) ** 2 + mab * (m1 - mab)), out)
    c2, c1 = num.conjugate(), (1 - a2) * m1 * (mab - m1)
    disc, two_c2 = cmath.sqrt(c1 * c1 - 4 * c2 * -num), 2 * c2
    out += [_positive_multiple(((c1 + disc) / two_c2, (c1 - disc) / two_c2), num),
            _positive_multiple(((-c1 + disc) / two_c2, (-c1 - disc) / two_c2), num)]
    return first


def _points(kernel, *args) -> tuple:
    """A kernel's points, after raising the first GeometryError among them."""
    out = []
    if error := kernel(*args, out):
        raise error
    return tuple(out)


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
    return _points(_line_family, *_moduli(cfg.a, cfg.b))


def five_points_chordal(cfg: DiskConfig, path: str = "quadratic"
                        ) -> tuple[complex, complex, complex, complex, complex]:
    """Points k_c, s_c, t_c, u_c, v_c via the quadratics or via GCIS."""
    if path == "gcis":
        return tuple([gcis(*chords) for chords in _chords(cfg)[:5]])
    if path != "quadratic":
        raise ValueError(f"unknown path {path!r}")
    _, mab, m1, a2, b2, _, H = _moduli(cfg.a, cfg.b)
    return _points(_chordal_family, mab, m1, a2, b2, H)


def pq_family(cfg: DiskConfig, path: str = "closed_form"
              ) -> tuple[complex, complex, complex, complex]:
    """Points p, q, p_c, q_c; all positive real multiples of conj(Q).

    The chordal pair is selected among the quadratic (or GCIS) roots by that
    direction: q_c generally lies outside the unit disk.
    """
    if path not in ("closed_form", "synthetic"):
        raise ValueError(f"unknown path {path!r}")
    _, mab, m1, a2, b2, _, _ = _moduli(cfg.a, cfg.b)
    num = _conj_q(cfg.a, cfg.b, mab, m1, a2)
    if path == "closed_form":
        return _points(_pq_family, mab, m1, a2, b2, num)
    p, q = _chords(cfg)[5:]
    return (line_intersection(*p), line_intersection(*q),
            _positive_multiple(gcis_roots(*p), num),
            _positive_multiple(gcis_roots(*q), num))


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
    worst = low = 0.0                   # low = -worst
    for (xi, yi, mi), (xj, yj, mj) in combinations(rel, 2):
        # Im(r_i conj(r_j)), up to its sign, in Python's complex product
        r = yi * xj - xi * yj
        if r > worst or r < low:        # else r / max(1, d) <= |r| <= worst
            r, d = abs(r), mi * mj
            if d > 1.0:
                r /= d
            if r > worst:
                worst, low = r, -r
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
    re, mab, m1, a2, b2, ab2, H = _moduli(a, b)
    values = []
    _line_family(re, mab, m1, a2, b2, ab2, H, values)
    values.append(midpoint_from_moduli(H, a2, b2, m1))
    _chordal_family(mab, m1, a2, b2, H, values)
    _pq_family(mab, m1, a2, b2, _conj_q(a, b, mab, m1, a2), values)
    for name, value in zip(_NAMES, [*values, H]):
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
    moduli = re, mab, m1, a2, b2, ab2, H = _moduli(a, b)
    points = []
    error = _line_family(re, mab, m1, a2, b2, ab2, H, points)
    points.append(midpoint_from_moduli(H, a2, b2, m1))
    if error := error or _chordal_family(mab, m1, a2, b2, H, points):
        raise error
    return points, moduli


def eleven_points(a: complex, b: complex) -> tuple[PointFamily, float]:
    """Full point family for (a, b) plus the collinearity residual of the
    eleven H-direction points with the origin."""
    points, (_, mab, m1, a2, b2, _, H) = h_family(a, b)
    pq = _points(_pq_family, mab, m1, a2, b2, _conj_q(a, b, mab, m1, a2))
    return PointFamily(*points, *pq, H), collinearity_residual([0j, *points])
