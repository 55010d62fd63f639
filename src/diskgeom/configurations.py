"""Six-point configurations and the named intersection-point families.

From two disk points a, b (nonzero, non-collinear with 0) we derive the
unit-circle reflections a_star = 1/conj(a), b_star and the geodesic
endpoints a_end, b_end.  Each entry point (build_config, family_points, so
family_report, and h_family, so eleven_points) validates the pair once, by
_check_pair; build_config and family_points then take the endpoints from
hyperbolic.geodesic_end, without geodesic_endpoints' second check.  The line
family k, s, t, u, v, the great-circle family k_c ... v_c, and the p/q
family are given here by their closed forms; oracles builds each point
again where its two chords (lines or projected great circles) meet, and
verify checks that the two agree.

One straight-line kernel per family (_line_family, _chordal_family,
_pq_family) holds the closed forms over what _moduli computes once per pair.
Only the line family can refuse: it appends its points to one list, a
degenerate point as its GeometryError instance, and returns the first such
error, which h_family raises and family_points reports per point (it
walks the points one by one only when there is such an error).  The
great-circle and p/q kernels divide by sums of positive terms and return
their points.

m is euclid's one midpoint formula, H_s / midpoint_denominator, at s = +1
(the disk geodesic); s = -1 (the projected great circle) is chordal_midpoint.

The great-circle kernel returns its three distinct roots k_c, s_c, u_c; the
callers that lay out PointFamily order write t_c = -s_c and v_c = -k_c.
So the eleven H-direction points are nine distinct ones and two negations,
and the H-family residual is taken over 0 and those nine: 36 pairs instead
of 55, with the same value (see collinearity_residual).

All eleven points of the combined family are real multiples of
H = H_{+1} = a(1-|b|^2) + b(1-|a|^2); p, q, p_c, q_c are positive real
multiples of N = |a-b| H + |1-a conj(b)| (1-|a|^2) b, and q_c = 1/conj(p_c).
Every form is written with m1^2 - mab^2 = (1-|a|^2)(1-|b|^2),
m1 = |1-a conj(b)| and mab = |a-b|, so that none subtracts one modulus from
the other, which cancels near the unit circle.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .errors import (
    DEGENERACY_TOL,
    CoincidentPoints,
    CollinearWithOrigin,
    DegenerateDenominator,
    GeometryError,
    ZeroPoint,
    require_in_disk,
)
from .euclid import midpoint_denominator, midpoint_numerator
from .hyperbolic import geodesic_end
from .spherical import quadratic_root

_FAR = 2.0 ** 510                  # collinearity_residual's NaN bound on |z|

_NAMES = ("k", "s", "t", "u", "v", "m", "k_c", "s_c", "t_c", "u_c", "v_c",
          "p", "q", "p_c", "q_c", "H")                    # PointFamily order
_REPORT_NAMES = ("a_star", "b_star", "a_end", "b_end", *_NAMES)  # family_report order


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
    require_in_disk(a, b)
    if a == b:
        raise CoincidentPoints("a and b must be distinct")
    if abs((a * b.conjugate()).imag) <= DEGENERACY_TOL * abs(a) * abs(b):
        raise CollinearWithOrigin("a, b collinear with the origin")


def build_config(a: complex, b: complex) -> DiskConfig:
    """Validate a, b and derive reflections and geodesic endpoints."""
    _check_pair(a, b)
    return DiskConfig(a, b, 1 / a.conjugate(), 1 / b.conjugate(),
                      geodesic_end(a, b), geodesic_end(b, a))


def _moduli(a: complex, b: complex) -> tuple:
    """Re(a conj(b)), |a-b|, |1 - a conj(b)|, |a|^2, |b|^2, |ab|^2 and H."""
    ab = a * b.conjugate()
    a2, b2 = abs(a) ** 2, abs(b) ** 2
    return (ab.real, abs(a - b), abs(1 - ab), a2, b2, abs(a * b) ** 2,
            midpoint_numerator(a, b, a2, b2, 1))


def _line_family(re, mab, m1, ab2, H: complex, out: list) -> GeometryError | None:
    """Append k, t = H/(X -+ P), s, v = H/(Y -+ P) and u = H/(1 - |ab|^2) to
    out: a point whose denominator is within rounding of 0 as its
    DegenerateDenominator.  Return the first such error, or None."""
    first = None
    X, Y, P = 2 * re - 2 * ab2, 2 - 2 * re, mab * m1       # re = Re(a conj(b))
    for name, den in (("k", X - P), ("s", Y - P), ("t", X + P), ("u", 1 - ab2),
                      ("v", Y + P)):
        if abs(den) <= DEGENERACY_TOL:
            out.append(DegenerateDenominator(f"denominator of {name} vanishes"))
            first = first or out[-1]
        else:
            out.append(H / den)
    return first


def _chordal_family(mab, m1, a2, b2, H: complex) -> tuple[complex, complex, complex]:
    """k_c, s_c, u_c, the roots of conj(H) z^2 + 2Rz - H = 0 in the closed disk
    for R = -m1 sigma, m1 P / sigma and 0, with P = (1-|a|^2)(1-|b|^2) and
    sigma = m1 + mab.  t_c = -s_c and v_c = -k_c are the roots for -R."""
    H2 = abs(H) ** 2
    return (quadratic_root(H, H2, -m1 * (m1 + mab)),
            quadratic_root(H, H2, m1 * ((1 - a2) * (1 - b2)) / (m1 + mab)),
            quadratic_root(H, H2, 0.0))


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


def _line_points(re, mab, m1, ab2, H: complex) -> list:
    """k, s, t, u, v, after raising the first DegenerateDenominator among them."""
    out = []
    if error := _line_family(re, mab, m1, ab2, H, out):
        raise error
    return out


def five_points_euclid(cfg: DiskConfig
                       ) -> tuple[complex, complex, complex, complex, complex]:
    """Points k, s, t, u, v via their closed forms."""
    re, mab, m1, _, _, ab2, H = _moduli(cfg.a, cfg.b)
    return tuple(_line_points(re, mab, m1, ab2, H))


def five_points_chordal(cfg: DiskConfig
                        ) -> tuple[complex, complex, complex, complex, complex]:
    """Points k_c, s_c, t_c, u_c, v_c via the great-circle quadratics."""
    _, mab, m1, a2, b2, _, H = _moduli(cfg.a, cfg.b)
    kc, sc, uc = _chordal_family(mab, m1, a2, b2, H)
    return kc, sc, -sc, uc, -kc


def pq_family(cfg: DiskConfig) -> tuple[complex, complex, complex, complex]:
    """Points p, q, p_c, q_c; all positive real multiples of N."""
    _, mab, m1, a2, b2, ab2, H = _moduli(cfg.a, cfg.b)
    return tuple(_pq_family(cfg.b, mab, m1, a2, b2, ab2, H))


def collinearity_residual(points: list[complex]) -> float:
    """Residual of the points lying on one line, measured about the first.

    With r_i = z_i - z_0 for the other points, the residual is the max over
    pairs i < j of |Im(r_i conj(r_j))| / max(1, |r_i| |r_j|): zero for
    exactly collinear points, dimensionless, and NaN when a point is NaN,
    infinite or has |z| >= 2**510, past which |r_i| |r_j| can overflow.

    About z_0 = 0, adding -z for a listed z changes no bit of it: IEEE
    negation is exact, so a pair with -z gives the same |Im(r_i conj(r_j))|
    and |r_i| |r_j| as the pair with z, the pair (z, -z) gives exactly 0, and
    -z has the same modulus.  So the eleven H-direction points, in which
    t_c = -s_c and v_c = -k_c, have the residual of their nine distinct ones.
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
    anchor, rel = points[0], points[1:]
    if anchor != 0:       # z - 0 is z up to the sign of a zero, which the scan ignores
        rel = [z - anchor for z in rel]
    rel = [(r.real, r.imag, abs(r)) for r in rel]
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


def family_points(a: complex, b: complex
                  ) -> tuple[dict[str, complex], dict[str, str], list[complex]]:
    """Every named point computed independently, with per-point status, and
    no residual.

    Returns (points, statuses, h_points): statuses map each name to "ok" or
    the degeneracy message of a line-family point, which points then lacks;
    h_points is the origin and the distinct H-family points it computed,
    the list family_report takes its residual over.  The pair is validated
    once, by _check_pair, and the endpoints come from geodesic_end.
    """
    _check_pair(a, b)
    points = {"a_star": 1 / a.conjugate(), "b_star": 1 / b.conjugate(),
              "a_end": geodesic_end(a, b), "b_end": geodesic_end(b, a)}
    statuses = dict.fromkeys(_REPORT_NAMES, "ok")
    re, mab, m1, a2, b2, ab2, H = _moduli(a, b)
    line = []
    error = _line_family(re, mab, m1, ab2, H, line)
    kc, sc, uc = _chordal_family(mab, m1, a2, b2, H)
    m = H / midpoint_denominator(a2, b2, m1, 1)
    values = zip(_NAMES, [*line, m, kc, sc, -sc, uc, -kc,
                          *_pq_family(b, mab, m1, a2, b2, ab2, H), H])
    if error is None:
        points.update(values)
    else:
        for name, value in values:
            if isinstance(value, GeometryError):
                statuses[name] = f"degenerate: {value}"
            else:
                points[name] = value
        line = [z for z in line if not isinstance(z, GeometryError)]
    return points, statuses, [0j, *line, m, kc, sc, uc]


def family_report(a: complex, b: complex
                  ) -> tuple[dict[str, complex], dict[str, str], float]:
    """family_points with its residual: returns (points, statuses, residual),
    residual the collinearity residual of the H-family points it computed
    with the origin, taken over the distinct ones."""
    points, statuses, h_points = family_points(a, b)
    return points, statuses, collinearity_residual(h_points)


def h_family(a: complex, b: complex) -> tuple[list[complex], tuple]:
    """The nine distinct H-direction points k, s, t, u, v, m, k_c, s_c, u_c
    of (a, b), raising the first degeneracy among them, and the _moduli
    values they were computed from; t_c = -s_c and v_c = -k_c."""
    _check_pair(a, b)
    moduli = re, mab, m1, a2, b2, ab2, H = _moduli(a, b)
    return [*_line_points(re, mab, m1, ab2, H), H / midpoint_denominator(a2, b2, m1, 1),
            *_chordal_family(mab, m1, a2, b2, H)], moduli


def eleven_points(a: complex, b: complex) -> tuple[PointFamily, float]:
    """Full point family for (a, b) plus the collinearity residual of the
    eleven H-direction points with the origin."""
    points, (_, mab, m1, a2, b2, ab2, H) = h_family(a, b)
    k, s, t, u, v, m, kc, sc, uc = points
    # tuple.__new__ skips the generated __new__'s frame, as NamedTuple._make does
    return (tuple.__new__(PointFamily, (k, s, t, u, v, m, kc, sc, -sc, uc, -kc,
                                        *_pq_family(b, mab, m1, a2, b2, ab2, H), H)),
            collinearity_residual([0j, *points]))
