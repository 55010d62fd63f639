"""Independent constructions of the points the closed forms give.

Each function here builds a point, or a residual, from its geometric
definition, so that verify can check a closed form against it: the line
family k, s, t, u, v and p, q as meets of chords, the great-circle family
and p_c, q_c as meets of projected great circles, the hyperbolic midpoint by
bisection of the metric, and the Moebius lemma of the equal-distance
conjecture.  None reads a closed form: from configurations this module takes
DiskConfig alone (tests/test_package.py pins it), and verify alone imports it.
"""

from __future__ import annotations

import math

from .configurations import DiskConfig
from .errors import ORACLE_MIN_GAP, NearBoundary, require_in_disk
from .euclid import line_intersection
from .hyperbolic import conjecture_points, mobius_T
from .spherical import gcis, gcis_roots


def _chords(cfg: DiskConfig) -> tuple:
    """(p1, p2, p3, p4) for k, s, t, u, v, p, q: where lines (or great circles)
    p1p2 and p3p4 meet."""
    a, b, ast, bst, ae, be = cfg.a, cfg.b, cfg.a_star, cfg.b_star, cfg.a_end, cfg.b_end
    return ((ae, ast, be, bst), (a, be, b, ae), (ae, bst, be, ast), (a, bst, b, ast),
            (a, ae, b, be), (a, be, ast, b), (a, bst, ast, be))


def _positive_multiple(roots: tuple[complex, complex], direction: complex) -> complex:
    """Root that is a positive real multiple of direction; the first on a tie."""
    d = direction.conjugate()
    return roots[1] if (roots[1] * d).real > (roots[0] * d).real else roots[0]


def line_points(cfg: DiskConfig) -> tuple[complex, complex, complex, complex, complex]:
    """Points k, s, t, u, v as line intersections of their chords."""
    return tuple([line_intersection(*chords) for chords in _chords(cfg)[:5]])


def chordal_points(cfg: DiskConfig
                   ) -> tuple[complex, complex, complex, complex, complex]:
    """Points k_c, s_c, t_c, u_c, v_c via GCIS: the meet's in-disk root, but
    u_c, on the circle with its antipode (R = 0), is the root on the side of
    its chords' line crossing u, as pq_points picks p_c, q_c."""
    k, s, t, u, v = _chords(cfg)[:5]
    return (gcis(*k), gcis(*s), gcis(*t),
            _positive_multiple(gcis_roots(*u), line_intersection(*u)), gcis(*v))


def pq_points(cfg: DiskConfig) -> tuple[complex, complex, complex, complex]:
    """Points p, q as line intersections, and p_c, q_c as the GCIS root on
    p's (q's) chords that is a positive multiple of the line intersection
    p (q)."""
    p, q = _chords(cfg)[5:]
    p_pt, q_pt = line_intersection(*p), line_intersection(*q)
    return (p_pt, q_pt, _positive_multiple(gcis_roots(*p), p_pt),
            _positive_multiple(gcis_roots(*q), q_pt))


# beta * sqrt(1 - |yp|): the half-width of the band around the estimated
# crossing inside which midpoint_oracle's metric decides every step.
_CROSSING_BAND = 64 * 2.0 ** -53


def midpoint_oracle(x: complex, y: complex) -> complex:
    """Hyperbolic midpoint by bisection along the T_x-straightened geodesic:
    the point w = mid * u of [0, yp], yp = T_x(y), with rho(0, w) = rho(w, yp).
    A yp with 1 - |yp| < ORACLE_MIN_GAP raises NearBoundary, so each |w| < 1.

    The bisection runs in two phases from one budget of 100 steps, with
    mid = 0.5 * (lo + hi) throughout.  Phase 1 asks no metric: it sets
    lo = mid while mid < t - beta and hi = mid while mid > t + beta, where
    t = |yp| / (1 + sqrt(1 - |yp|^2)) is where rho(0, t u) = rho(t u, yp)
    and beta = 64 * 2**-53 / sqrt(1 - |yp|).  Phase 2 starts at the first
    mid inside that band, and the metric decides every step after it.  Over
    200,000 pairs with 1 - |yp| log-uniform in 1e-6 ... 0.5, the metric-only
    bisection ended within 1.15 * 2**-53 / sqrt(1 - |yp|) of t, so beta keeps
    a margin of 55 or more.  The metric then checks phase 1's ends: lo must lie
    below the crossing unless it is 0, and hi must not unless it is |yp|; if
    either fails, the bisection reruns from [0, |yp|] on the metric alone.
    So t only skips steps the metric decides the same way, and t never picks
    the result; it reads |yp| alone, no closed form."""
    if x == y:
        return x
    require_in_disk(yp := mobius_T(x, y))
    ayp = abs(yp)
    if 1 - ayp < ORACLE_MIN_GAP:
        raise NearBoundary(f"1 - |T_x(y)| = {1 - ayp:.3g} is below {ORACLE_MIN_GAP:g}")
    u = yp / ayp
    t = ayp / (1 + math.sqrt((1 - ayp) * (1 + ayp)))
    return mobius_T(-x, _bisect_crossing(yp, u, t) * u)


def _below_crossing(mid: float, u: complex, yp: complex) -> bool:
    """rho(0, w) < rho(w, yp) at w = mid * u, both distances written out.
    rho(0, w) is exactly 2 atanh(|w|), since 0 - w is -w and |1 - 0 conj(w)|
    is 1.0; halving both sides is exact, so the test compares the two atanh.
    _bisect_crossing's phase 2 inlines the same test."""
    w = mid * u
    return math.atanh(abs(w)) < math.atanh(abs(w - yp) / abs(1 - w * yp.conjugate()))


def _bisect_crossing(yp: complex, u: complex, t: float) -> float:
    """midpoint_oracle's bisection of [0, |yp|] with crossing estimate t,
    as 0.5 * (lo + hi).  A t off by more than the band costs time, not bits,
    as the end check catches it; a NaN t skips phase 1.  Stopping once
    mid is lo or hi keeps the 100-step result: each later step keeps
    (lo, hi) or moves the other end onto mid, so 0.5 * (lo + hi) stays mid."""
    ayp = abs(yp)
    band = _CROSSING_BAND / math.sqrt(1 - ayp)
    near, far = t - band, t + band
    lo, hi = 0.0, ayp
    steps = 100
    while steps:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid < near:
            lo = mid
        elif mid > far:
            hi = mid
        else:
            break
        steps -= 1
    if (lo and not _below_crossing(lo, u, yp)) or (hi != ayp and _below_crossing(hi, u, yp)):
        lo, hi, steps = 0.0, ayp, 100
    ypc = yp.conjugate()
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        w = mid * u
        if math.atanh(abs(w)) < math.atanh(abs(w - yp) / abs(1 - w * ypc)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mobius_invariance_check(a: complex, b: complex, c: complex, d: complex,
                            h: complex) -> tuple[float, float]:
    """Moduli-difference residuals (| |T_w(h)|-|T_w(l)| |, | |T_w(j)|-|T_w(k)| |)
    for a conjecture configuration, at the lemma's point w = 1/conj(g)."""
    g, j, k, l = conjecture_points(a, b, c, d, h)
    w = 1 / g.conjugate()
    return (abs(abs(mobius_T(w, h)) - abs(mobius_T(w, l))),
            abs(abs(mobius_T(w, j)) - abs(mobius_T(w, k))))
