"""Six-point configurations and the named intersection-point families.

From two disk points a, b (nonzero, non-collinear with 0) we derive the
unit-circle reflections a_star = 1/conj(a), b_star and the geodesic
endpoints a_end, b_end.  The line family k, s, t, u, v, the great-circle
family k_c ... v_c, and the p/q family each have two evaluation paths:
synthetic intersections and closed forms, which must agree.

One straight-line kernel per family (_line_family, _chordal_family,
_pq_family) holds the closed forms over what _moduli computes once per pair.
Only the line family can refuse: it appends its points to one list, a
degenerate point as its GeometryError instance, and returns the first such
error, which h_family raises and family_report reports per point.  The
great-circle and p/q kernels divide by sums of positive terms and return
their points.  The synthetic paths use no closed form.
m is euclid's one midpoint formula, H_s / midpoint_denominator, at s = +1
(the disk geodesic); s = -1 (the projected great circle) is chordal_midpoint.

All eleven points of the combined family are real multiples of
H = H_{+1} = a(1-|b|^2) + b(1-|a|^2); p, q, p_c, q_c are positive real
multiples of N = |a-b| H + |1-a conj(b)| (1-|a|^2) b, and q_c = 1/conj(p_c).
The great-circle and p/q forms are written with
m1^2 - mab^2 = (1-|a|^2)(1-|b|^2), m1 = |1-a conj(b)| and mab = |a-b|, so
that they hold no difference m1 - mab, which cancels near the unit circle.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .errors import (
    CoincidentPoints,
    CollinearWithOrigin,
    DegenerateDenominator,
    GeometryError,
    OutsideDisk,
    ZeroPoint,
)
from .euclid import line_intersection, midpoint_denominator, midpoint_numerator
from .hyperbolic import geodesic_endpoints
from .spherical import gcis, gcis_roots, quadratic_root

_DENOM_TOL = 1e-12
_FAR = 2.0 ** 510                  # collinearity_residual's NaN bound on |z|

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
            midpoint_numerator(a, b, a2, b2, 1))


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


def _chordal_family(mab, m1, a2, b2, H: complex) -> list:
    """k_c ... v_c, the roots of conj(H) z^2 + 2Rz - H = 0 in the closed disk
    for R = -m1 sigma, m1 P / sigma, -m1 P / sigma, 0 and m1 sigma, with
    P = (1-|a|^2)(1-|b|^2) and sigma = m1 + mab; -R gives the negated root."""
    H2 = abs(H) ** 2
    kc = quadratic_root(H, H2, -m1 * (m1 + mab))
    sc = quadratic_root(H, H2, m1 * ((1 - a2) * (1 - b2)) / (m1 + mab))
    return [kc, sc, -sc, quadratic_root(H, H2, 0.0), -kc]


def _positive_multiple(roots: tuple[complex, complex], direction: complex) -> complex:
    """Root that is a positive real multiple of direction; the first on a tie."""
    d = direction.conjugate()
    return roots[1] if (roots[1] * d).real > (roots[0] * d).real else roots[0]


def _pq_family(b, mab, m1, a2, b2, ab2, H: complex) -> list:
    """p, q, p_c, q_c, positive real multiples of N = mab H + m1 (1-|a|^2) b.

    p and q are N over sums of positive terms; p_c is the root of
    conj(N) z^2 + m1 P z - N = 0 in the disk, and q_c, a root of the
    quadratic with the negated roots, is 1/conj(p_c)."""
    N = mab * H + m1 * (1 - a2) * b
    pc = quadratic_root(N, N.real * N.real + N.imag * N.imag,
                        m1 * ((1 - a2) * (1 - b2)) / 2)
    return [N / (mab * (1 - ab2) + m1 * (1 - a2)),
            N / (mab * (1 - ab2) + m1 * b2 * (1 - a2)), pc, 1 / pc.conjugate()]


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
    return tuple(_chordal_family(mab, m1, a2, b2, H))


def pq_family(cfg: DiskConfig, path: str = "closed_form"
              ) -> tuple[complex, complex, complex, complex]:
    """Points p, q, p_c, q_c; all positive real multiples of N.

    The synthetic path, which uses no closed form, picks the GCIS root on p's
    (q's) chords that is a positive multiple of the line intersection p (q).
    """
    if path == "synthetic":
        p, q = _chords(cfg)[5:]
        p_pt, q_pt = line_intersection(*p), line_intersection(*q)
        return (p_pt, q_pt, _positive_multiple(gcis_roots(*p), p_pt),
                _positive_multiple(gcis_roots(*q), q_pt))
    if path != "closed_form":
        raise ValueError(f"unknown path {path!r}")
    _, mab, m1, a2, b2, ab2, H = _moduli(cfg.a, cfg.b)
    return tuple(_pq_family(cfg.b, mab, m1, a2, b2, ab2, H))


def collinearity_residual(points: list[complex]) -> float:
    """Residual of the points lying on one line, measured about the first.

    With r_i = z_i - z_0 for the other points, the residual is the max over
    pairs i < j of |Im(r_i conj(r_j))| / max(1, |r_i| |r_j|): zero for
    exactly collinear points, dimensionless, and NaN when a point is NaN,
    infinite or has |z| >= 2**510, past which |r_i| |r_j| can overflow.
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    # the sum of the moduli is NaN for a NaN point and at least their max;
    # abs raises OverflowError for a finite point beyond the float range
    try:
        total = sum(map(abs, points))
        if not total < _FAR and (math.isnan(total) or max(map(abs, points)) >= _FAR):
            return math.nan
    except OverflowError:
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
                  ) -> tuple[dict[str, complex], dict[str, str], float]:
    """Every named point computed independently, with per-point status.

    Returns (points, statuses, residual): statuses map each name to "ok" or
    the degeneracy message of a line-family point; residual is the
    collinearity residual of the H-family points it computed with the origin.
    """
    cfg = build_config(a, b)
    points = {"a_star": cfg.a_star, "b_star": cfg.b_star,
              "a_end": cfg.a_end, "b_end": cfg.b_end}
    statuses = dict.fromkeys([*points, *_NAMES], "ok")
    moduli = _, mab, m1, a2, b2, ab2, H = _moduli(a, b)
    values = []
    _line_family(*moduli, values)
    values += [H / midpoint_denominator(a2, b2, m1, 1), *_chordal_family(mab, m1, a2, b2, H),
               *_pq_family(b, mab, m1, a2, b2, ab2, H), H]
    for name, value in zip(_NAMES, values):
        if isinstance(value, GeometryError):
            statuses[name] = f"degenerate: {value}"
        else:
            points[name] = value
    h_family = [points[n] for n in _H_FAMILY if n in points]
    return points, statuses, collinearity_residual([0j, *h_family])


def h_family(a: complex, b: complex) -> tuple[list[complex], tuple]:
    """The eleven H-direction points k ... v_c of (a, b) in PointFamily order,
    raising the first degeneracy among them, and the _moduli values they
    were computed from."""
    _check_pair(a, b)
    moduli = _, mab, m1, a2, b2, _, H = _moduli(a, b)
    return [*_points(_line_family, *moduli), H / midpoint_denominator(a2, b2, m1, 1),
            *_chordal_family(mab, m1, a2, b2, H)], moduli


def eleven_points(a: complex, b: complex) -> tuple[PointFamily, float]:
    """Full point family for (a, b) plus the collinearity residual of the
    eleven H-direction points with the origin."""
    points, (_, mab, m1, a2, b2, ab2, H) = h_family(a, b)
    return (PointFamily(*points, *_pq_family(b, mab, m1, a2, b2, ab2, H), H),
            collinearity_residual([0j, *points]))
