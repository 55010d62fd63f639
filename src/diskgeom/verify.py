"""Randomized, seedable verification harness with independent oracles.

Each check draws samples from a named sampler.  Sample ``index`` of a run
with ``seed`` reads the counter-based Philox stream (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011) with key
``seed mod 2**64`` and counter ``index << 128``: the stream of
``Generator(Philox(key=seed & (2**64 - 1), counter=index << 128))``.
Sample ``index`` therefore depends on (seed, index) alone, not on
evaluation order, and each sample starts a block of 2**128 counter values
of its own.  Each sampler is one attempt function in ``_ATTEMPTS``, which
reads a window of uniforms and accepts or rejects it; ``_retry``, the one
retry loop, slides that window along the sample's stream until an attempt
accepts.  ``sample_*`` is the single-index form of each sampler;
``run_check`` reads the same stream a chunk of samples at a time, drawing
every sample's first attempt in one vectorized Philox pass and handing a
sample whose first attempt is rejected to ``sample_*``, which replays it
from its start; a chunk of fewer than ``_MIN_CHUNK`` samples is drawn by
``sample_*`` alone.  Samples that hit a degenerate configuration raise a
GeometryError and are counted as skipped; a run fails with
SamplerStarvation when fewer than 90% of the requested samples survive.

numpy serves only the Philox stream, so it is imported by the two functions
that draw from it, on the first draw; importing this module, and with it
``diskgeom`` and its CLI, does not load numpy.  The attempts themselves,
the lens sampler's arc points included, use ``math`` alone.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

from .errors import (
    GeometryError,
    OutsideDisk,
    PointOutsideDisk,
    SamplerStarvation,
    UnknownTheorem,
)
from .euclid import GenCircle, line_intersection, orthocenter, scale_of
from .hyperbolic import (
    chord_vs_geodesic_midpoint,
    conjecture_points,
    geodesic_intersection_on_circle,
    hyperbolic_midpoint,
    midpoint_via_inversion,
    midpoint_via_lens,
    mobius_T,
    rho,
)
from .spherical import (
    chordal_distance,
    chordal_midpoint,
    great_circle_projection,
    orthogonal_great_circle,
    to_sphere,
)
from .configurations import (
    build_config,
    collinearity_residual,
    five_points_chordal,
    five_points_euclid,
    h_family,
    pq_family,
)


@dataclass(frozen=True)
class SampleSpec:
    """How many samples to draw, from which seed, and the least ||a| - |b||
    of a disk pair."""

    count: int
    seed: int
    moduli_margin: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass
class VerificationReport:
    """Residual statistics of one randomized check."""

    theorem_id: str
    sampler: str
    requested: int
    evaluated: int
    skipped: int
    seed: int
    tolerance: float
    max_residual: float
    mean_residual: float
    worst_input: list[list[float]]
    passed: bool
    assertive: bool
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


_M64 = (1 << 64) - 1
_per_thread = threading.local()


def _rng(spec: SampleSpec, index: int) -> "numpy.random.Generator":
    """The stream of sample ``index``: this thread's one Philox generator,
    re-keyed in place (building a generator per sample costs ~8x more).
    It is valid until this thread's next ``_rng`` call."""
    try:
        rng = _per_thread.rng
    except AttributeError:
        import numpy as np    # here, not at the top: only a sample draw needs numpy
        rng = _per_thread.rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, index & _M64, index >> 64),
                  "key": (spec.seed & _M64, 0)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return rng


_CHUNK = 1024                     # samples per vectorized draw in run_check
# A shorter chunk is drawn one sample at a time: a vectorized draw costs
# ~0.2 ms however few samples it covers, and saves that over re-keying one
# generator per sample only above ~100-200 samples (measured on all three
# samplers).
_MIN_CHUNK = 256
_PHILOX_M = ((0xCA5A826395121157,), (0xD2E7470EE14C6C93,))   # for words 2, 0
_PHILOX_W = ((0x9E3779B97F4A7C15,), (0xBB67AE8584CAA73B,))   # key bumps


def _first_uniforms(seed: int, begin: int, end: int, words: int
                    ) -> list[list[float]]:
    """Row i - begin holds ``_rng(spec, i).random(words)`` for sample i in
    begin .. end-1 of a spec with this seed, from one pass of Philox4x64-10
    over numpy arrays.

    numpy increments counter word 0 before its first block, so block j = 1,
    2, ... of sample i is Philox of counter (j, 0, i, 0) under key
    (seed mod 2**64, 0).
    Each round multiplies words 2 and 0 by the two Philox constants; the high
    half of each 64x64-bit product is assembled from its 32-bit halves."""
    import numpy as np    # here, not at the top: only a sample draw needs numpy
    blocks, n = -(-words // 4), end - begin
    even = np.zeros((2, blocks * n), np.uint64)     # words (0, 2) per counter
    even[0] = np.repeat(np.arange(1, blocks + 1, dtype=np.uint64), n)
    even[1] = np.tile(np.arange(begin, end, dtype=np.uint64), blocks)
    odd = np.zeros_like(even)                       # words (1, 3)
    mult, weyl = np.array(_PHILOX_M, np.uint64), np.array(_PHILOX_W, np.uint64)
    m_lo, m_hi = mult & 0xFFFFFFFF, mult >> 32
    key = np.array([[seed & _M64], [0]], np.uint64)
    for rnd in range(10):
        if rnd:
            key += weyl
        x = even[::-1]                              # words (2, 0)
        x_lo, x_hi = x & 0xFFFFFFFF, x >> 32
        cross = x_hi * m_lo
        mid = x_lo * m_hi + (x_lo * m_lo >> 32) + (cross & 0xFFFFFFFF)   # < 2**64
        high = x_hi * m_hi + (cross >> 32) + (mid >> 32)
        even, odd = high ^ odd ^ key, x * mult
    out = np.stack([even[0], odd[0], even[1], odd[1]], axis=1)
    out = out.reshape(blocks, n, 4).transpose(1, 0, 2).reshape(n, 4 * blocks)
    # numpy's random(): the top 53 bits times 2**-53
    return ((out[:, :words] >> 11) * 2.0 ** -53).tolist()


# The samplers' fixed margins: 0.05 <= |a|, |b| <= 0.95 for a disk pair and
# a lens pair, angles >= 0.05 from collinear with 0 and from a lens corner,
# and circle gaps >= 0.1.
_MIN_RADIUS = 0.05
_MAX_RADIUS = 1 - 0.05
_MIN_ANGLE = 0.05
_MIN_GAP = 0.1


def _disk_pair_attempt(spec: SampleSpec, u: Sequence[float]
                       ) -> tuple[complex, complex] | None:
    """One disk_pair attempt on four uniforms; None when it is rejected."""
    ua, ub, va, vb = u
    # lo + (hi - lo) u is numpy's uniform(lo, hi)
    span = _MAX_RADIUS - _MIN_RADIUS
    ra, rb = _MIN_RADIUS + span * ua, _MIN_RADIUS + span * ub
    ta, tb = 2 * math.pi * va, 2 * math.pi * vb
    gap = abs(math.remainder(ta - tb, math.pi))
    if gap < _MIN_ANGLE or math.pi - gap < _MIN_ANGLE:
        return None
    if spec.moduli_margin and abs(ra - rb) < spec.moduli_margin:
        return None
    return complex(ra * math.cos(ta), ra * math.sin(ta)), \
        complex(rb * math.cos(tb), rb * math.sin(tb))


_TAU = 2 * math.pi


def _circle_quadruple_attempt(spec: SampleSpec, u: Sequence[float]
                              ) -> tuple[complex, complex, complex, complex, float] | None:
    """One circle_quadruple attempt on six uniforms; None when it is rejected.
    The first four place the points and decide; the fifth turns them
    together and the sixth is the chord parameter."""
    w, x, y, z, turn, tpos = u
    # _TAU u is numpy's uniform(0, 2 pi), so the angles are bit-identical
    t0, t1, t2, t3 = angles = sorted([_TAU * w, _TAU * x, _TAU * y, _TAU * z])
    if min(t1 - t0, t2 - t1, t3 - t2, t0 + _TAU - t3) < _MIN_GAP:
        return None
    start = _TAU * turn
    return (*[complex(math.cos(t + start), math.sin(t + start)) for t in angles],
            tpos)


def _lens_pair_attempt(spec: SampleSpec, u: Sequence[float]
                       ) -> tuple[complex, complex] | None:
    """One lens_pair attempt on three uniforms; None when it is rejected.
    No arc is empty: the narrowest, at t = 3, spans pi - 2 atan(3) ~ 0.64,
    more than 2 _MIN_ANGLE."""
    ut, ua, ub = u
    t = 0.2 + (3.0 - 0.2) * ut                # arc circle center at -it
    center = -1j * t
    radius = math.sqrt(1 + t * t)
    lo = math.atan2(t, -1.0)                  # angle of -1 seen from center
    hi = math.atan2(t, 1.0)                   # angle of +1 seen from center
    first, last = hi + _MIN_ANGLE, lo - _MIN_ANGLE
    ta, tb = first + (last - first) * ua, first + (last - first) * ub
    a = center + radius * complex(math.cos(ta), math.sin(ta))
    b = (center + radius * complex(math.cos(tb), math.sin(tb))).conjugate()
    if a.imag <= 0 or b.imag >= 0:
        return None
    if abs(a) >= _MAX_RADIUS or abs(b) >= _MAX_RADIUS:
        return None
    return a, b


# per sampler: how far one attempt moves along the stream, how many uniforms
# it reads, and the attempt itself
_ATTEMPTS: dict[str, tuple[int, int, Callable]] = {
    "disk_pair": (4, 4, _disk_pair_attempt),
    "circle_quadruple": (4, 6, _circle_quadruple_attempt),
    "lens_pair": (3, 3, _lens_pair_attempt),
}


def _retry(sampler: str, spec: SampleSpec, index: int) -> tuple:
    """Sample ``index`` of ``sampler``: its attempt on a window of ``words``
    uniforms of the sample's stream, slid ``stride`` on after each rejection."""
    stride, words, attempt = _ATTEMPTS[sampler]
    rng = _rng(spec, index)
    u = rng.random(words).tolist()
    for _ in range(1000):
        sample = attempt(spec, u)
        if sample is not None:
            return sample
        u = u[stride:] + rng.random(stride).tolist()
    raise SamplerStarvation(f"{sampler} rejection sampling did not converge")


def sample_disk_pair(spec: SampleSpec, index: int) -> tuple[complex, complex]:
    """Pair in the punctured disk, non-collinear with 0, within margins."""
    return _retry("disk_pair", spec, index)


def sample_circle_quadruple(spec: SampleSpec, index: int
                            ) -> tuple[complex, complex, complex, complex, float]:
    """Four unit-circle points in positive cyclic order with angular gaps
    >= _MIN_GAP, plus a uniform parameter usable for chord points."""
    return _retry("circle_quadruple", spec, index)


def sample_lens_pair(spec: SampleSpec, index: int) -> tuple[complex, complex]:
    """Boundary points of a lens through -1 and 1 symmetric in the real axis:
    a on the upper arc, b on the lower (mirrored) arc."""
    return _retry("lens_pair", spec, index)


SAMPLERS: dict[str, Callable] = {
    "disk_pair": sample_disk_pair,
    "circle_quadruple": sample_circle_quadruple,
    "lens_pair": sample_lens_pair,
}


def _samples(spec: SampleSpec, sampler: str) -> Iterator[tuple]:
    """Samples 0 .. count-1 of ``spec``, equal to ``SAMPLERS[sampler]``'s.
    First attempts are drawn a chunk at a time; a sample whose first attempt
    is rejected, or whose chunk is too small to vectorize, is drawn by the
    scalar sampler from its start."""
    draw = SAMPLERS[sampler]
    _, words, attempt = _ATTEMPTS[sampler]
    for begin in range(0, spec.count, _CHUNK):
        end = min(begin + _CHUNK, spec.count)
        if end - begin < _MIN_CHUNK:
            for i in range(begin, end):
                yield draw(spec, i)
            continue
        for i, u in enumerate(_first_uniforms(spec.seed, begin, end, words), begin):
            sample = attempt(spec, u)
            yield draw(spec, i) if sample is None else sample


# ---------------------------------------------------------------------------
# independent oracles


def midpoint_oracle(x: complex, y: complex) -> complex:
    """Hyperbolic midpoint by bisection along the T_x-straightened geodesic:
    the point w = mid * u of [0, yp] with rho(0, w) = rho(w, yp).
    Both distances are written out.  rho(0, w) is exactly 2 atanh(|w|), since
    0 - w is -w and |1 - 0 conj(w)| is 1.0; halving both sides of
    rho(0, w) < rho(w, yp) is exact, so the test compares the two atanh.
    Stopping once mid is lo or hi keeps the 100-step result: each later step
    keeps (lo, hi) or moves the other end onto mid, so 0.5 * (lo + hi) stays mid."""
    if x == y:
        return x
    yp = mobius_T(x, y)
    ayp, ypc = abs(yp), yp.conjugate()
    if ayp >= 1:
        raise OutsideDisk("hyperbolic distance requires |x|,|y| < 1")
    u = yp / ayp
    lo, hi = 0.0, ayp
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        w = mid * u
        aw = abs(w)
        if aw >= 1:
            raise OutsideDisk("hyperbolic distance requires |x|,|y| < 1")
        if math.atanh(aw) < math.atanh(abs(w - yp) / abs(1 - w * ypc)):
            lo = mid
        else:
            hi = mid
    return mobius_T(-x, 0.5 * (lo + hi) * u)


def conjecture_check(a: complex, b: complex, c: complex, d: complex,
                     h: complex) -> float:
    """Residual |rho(h,j) - rho(k,l)| for the four-chord configuration.

    Samples whose derived points leave the open disk raise PointOutsideDisk
    (a skip signal, not a failure).
    """
    _, j, k, l = conjecture_points(a, b, c, d, h)
    for z in (h, j, k, l):
        if abs(z) >= 1:
            raise PointOutsideDisk(f"derived point {z} outside the open disk")
    return abs(rho(h, j) - rho(k, l))


def mobius_invariance_check(a: complex, b: complex, c: complex, d: complex,
                            h: complex, w: complex | None = None
                            ) -> tuple[float, float]:
    """Moduli-difference residuals (| |T_w(h)|-|T_w(l)| |, | |T_w(j)|-|T_w(k)| |)
    for a conjecture configuration; w defaults to 1/conj(g)."""
    g, j, k, l = conjecture_points(a, b, c, d, h)
    if w is None:
        w = 1 / g.conjugate()
    return (abs(abs(mobius_T(w, h)) - abs(mobius_T(w, l))),
            abs(abs(mobius_T(w, j)) - abs(mobius_T(w, k))))


# ---------------------------------------------------------------------------
# per-theorem residuals


def _residual_five_points_collinear(sample: Sequence[complex]) -> float:
    a, b = sample
    cfg = build_config(a, b)
    k, s, t, u, v = five_points_euclid(cfg, path="synthetic")
    return collinearity_residual([0j, k, s, t, u, v, hyperbolic_midpoint(a, b)])


def _residual_explicit_formulas(sample: Sequence[complex]) -> float:
    a, b = sample
    cfg = build_config(a, b)
    syn = five_points_euclid(cfg, path="synthetic")
    closed = five_points_euclid(cfg, path="closed_form")
    return max(abs(x - y) / scale_of(x, y) for x, y in zip(syn, closed))


def _residual_five_points_chordal(sample: Sequence[complex]) -> float:
    a, b = sample
    cfg = build_config(a, b)
    via_gcis = five_points_chordal(cfg, path="gcis")
    via_quad = five_points_chordal(cfg, path="quadratic")
    agreement = max(abs(x - y) / scale_of(x, y)
                    for x, y in zip(via_gcis, via_quad))
    return max(agreement, collinearity_residual([0j, *via_quad]))


def _residual_eleven_points(sample: Sequence[complex]) -> float:
    """eleven_points(a, b)[1] without p/q, which it does not read.

    That changes no skip count, as the p/q kernel never refuses: its
    denominators are sums of positive terms."""
    a, b = sample
    return collinearity_residual([0j, *h_family(a, b)[0]])


def _residual_pq_collinear(sample: Sequence[complex]) -> float:
    a, b = sample
    cfg = build_config(a, b)
    closed = pq_family(cfg, path="closed_form")
    syn = pq_family(cfg, path="synthetic")
    agreement = max(abs(x - y) / scale_of(x, y) for x, y in zip(closed, syn))
    return max(agreement, collinearity_residual([0j, *closed]))


def _residual_lens_lemma(sample: Sequence[complex]) -> float:
    a, b = sample
    return abs(hyperbolic_midpoint(a, b).imag)


def _residual_midpoint_constructions(sample: Sequence[complex]) -> float:
    a, b = sample
    m = hyperbolic_midpoint(a, b)
    residuals = [
        abs(midpoint_via_lens(a, b) - m),
        abs(midpoint_via_inversion(a, b) - m),
        abs(rho(a, m) - rho(b, m)),
        abs(rho(a, m) + rho(m, b) - rho(a, b)),
    ]
    return max(residuals)


def _residual_midpoint_oracle(sample: Sequence[complex]) -> float:
    a, b = sample
    return abs(midpoint_oracle(a, b) - hyperbolic_midpoint(a, b))


def _altitude_residual(h: complex, p1: complex, p2: complex, p3: complex
                       ) -> float:
    """Max residual of h lying on the three altitudes of triangle p1 p2 p3."""
    worst = 0.0
    for apex, u, v in ((p1, p2, p3), (p2, p1, p3), (p3, p1, p2)):
        side = v - u
        r = abs(((h - apex) * side.conjugate()).real) \
            / max(1.0, abs(side) * scale_of(h, apex))
        worst = max(worst, r)
    return worst


def _residual_orthocenter_w2(sample: Sequence) -> float:
    a, b, c, d = sample[:4]
    w1 = line_intersection(a, b, c, d)
    w2 = line_intersection(a, c, b, d)
    w3 = line_intersection(a, d, b, c)
    direct = abs(orthocenter(0j, w1, w3) - w2) / scale_of(w1, w2, w3)
    return max(direct, _altitude_residual(w2, 0j, w1, w3))


def _residual_w_in_disk(sample: Sequence) -> float:
    """Distance from w to the geodesics through (a, c) and (b, d), built
    exactly on the unit circle as GenCircle.through(x, y, +1): its
    coefficients vanish only for y = 1/conj(x) = x, so unit-circle points
    need no shrink into the disk.  The curves come from the four points
    alone, independent of w's +- closed form."""
    a, b, c, d = sample[:4]
    w = geodesic_intersection_on_circle(a, b, c, d)
    return max(GenCircle.through(a, c, +1).residual(w),
               GenCircle.through(b, d, +1).residual(w))


def _residual_chord_geodesic_collinear(sample: Sequence) -> float:
    a, b, c, d = sample[:4]
    f, m = chord_vs_geodesic_midpoint(a, b, c, d)
    return collinearity_residual([0j, f, m])


def _residual_midpoint_origin_f(sample: Sequence) -> float:
    a, b, c, d = sample[:4]
    f, m = chord_vs_geodesic_midpoint(a, b, c, d)
    return abs(m - hyperbolic_midpoint(0j, f))


def _residual_chordal_midpoint(sample: Sequence[complex]) -> float:
    a, b = sample
    m = chordal_midpoint(a, b)
    residuals = [abs(chordal_distance(a, m) - chordal_distance(b, m))]
    # coplanarity with the sphere center: the triple product of the offsets
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = [
        (p.xi, p.eta, p.zeta - 0.5) for p in map(to_sphere, (a, b, m))]
    residuals.append(abs((y1 * z2 - z1 * y2) * x3 + (z1 * x2 - x1 * z2) * y3
                         + (x1 * y2 - y1 * x2) * z3))
    first = great_circle_projection(a, b)
    circ = orthogonal_great_circle(a, b)
    residuals += [first.residual(m), circ.residual(m)]
    # right-angle meeting: |c1 - c2|^2 = r1^2 + r2^2 (a, b, 0 not collinear)
    d2 = abs(first.center - circ.center) ** 2
    residuals.append(abs(d2 - first.radius ** 2 - circ.radius ** 2) / max(1.0, d2))
    return max(residuals)


def conjecture_inputs(sample: Sequence
                      ) -> tuple[complex, complex, complex, complex, complex]:
    """(a, b, c, d, h) of a circle_quadruple sample (a, b, c, d, t): h lies
    on the chord from b to c, a fraction 0.05 + 0.9 t of the way."""
    a, b, c, d, tpos = sample
    return a, b, c, d, b + (0.05 + 0.9 * tpos) * (c - b)


def _residual_conjecture(sample: Sequence) -> float:
    return conjecture_check(*conjecture_inputs(sample))


@dataclass(frozen=True)
class _Check:
    sampler: str
    default_tol: float
    fn: Callable
    assertive: bool = True
    # the least ||a| - |b|| its formulas need to stay well-conditioned
    moduli_margin: float = 0.0


CHECKS: dict[str, _Check] = {
    "five_points_collinear": _Check("disk_pair", 1e-8, _residual_five_points_collinear),
    "explicit_formulas": _Check("disk_pair", 1e-9, _residual_explicit_formulas),
    "five_points_chordal": _Check("disk_pair", 1e-8, _residual_five_points_chordal),
    "eleven_points": _Check("disk_pair", 1e-8, _residual_eleven_points),
    "pq_collinear": _Check("disk_pair", 1e-8, _residual_pq_collinear),
    "lens_lemma": _Check("lens_pair", 1e-9, _residual_lens_lemma),
    "midpoint_constructions": _Check("disk_pair", 1e-9, _residual_midpoint_constructions,
                                     moduli_margin=0.02),
    "midpoint_oracle": _Check("disk_pair", 1e-9, _residual_midpoint_oracle),
    "orthocenter_w2": _Check("circle_quadruple", 1e-8, _residual_orthocenter_w2),
    "w_in_disk": _Check("circle_quadruple", 1e-9, _residual_w_in_disk),
    "chord_geodesic_collinear": _Check("circle_quadruple", 1e-9,
                                       _residual_chord_geodesic_collinear),
    "midpoint_origin_f": _Check("circle_quadruple", 1e-9, _residual_midpoint_origin_f),
    "chordal_midpoint": _Check("disk_pair", 1e-9, _residual_chordal_midpoint,
                               moduli_margin=0.02),
    "conjecture": _Check("circle_quadruple", 1e-9, _residual_conjecture,
                         assertive=False),
}

def default_spec(theorem_id: str, count: int, seed: int) -> SampleSpec:
    """SampleSpec of ``count`` samples with the check's moduli margin."""
    check = CHECKS.get(theorem_id)
    if check is None:
        raise UnknownTheorem(f"unknown theorem id {theorem_id!r}")
    return SampleSpec(count=count, seed=seed, moduli_margin=check.moduli_margin)


def _flatten_input(sample: Sequence) -> list[list[float]]:
    out = []
    for item in sample:
        z = complex(item)
        out.append([z.real, z.imag])
    return out


def run_check(theorem_id: str, spec: SampleSpec,
              tol: float | None = None) -> VerificationReport:
    """Run one randomized check and aggregate residual statistics."""
    check = CHECKS.get(theorem_id)
    if check is None:
        raise UnknownTheorem(f"unknown theorem id {theorem_id!r}")
    if tol is None:
        tol = check.default_tol
    start = time.perf_counter()
    max_res, sum_res = 0.0, 0.0
    worst: Sequence = ()
    evaluated = skipped = 0
    for sample in _samples(spec, check.sampler):
        try:
            r = check.fn(sample)
        except GeometryError:
            skipped += 1
            continue
        evaluated += 1
        sum_res += r
        if r >= max_res or math.isnan(r):    # a NaN stays the max once seen
            max_res, worst = r, sample
    if evaluated < 0.9 * spec.count:
        raise SamplerStarvation(
            f"only {evaluated}/{spec.count} samples survived for {theorem_id}")
    return VerificationReport(
        theorem_id=theorem_id,
        sampler=check.sampler,
        requested=spec.count,
        evaluated=evaluated,
        skipped=skipped,
        seed=spec.seed,
        tolerance=tol,
        max_residual=max_res,
        mean_residual=sum_res / evaluated,
        worst_input=_flatten_input(worst),
        passed=math.isfinite(max_res) and (max_res <= tol or not check.assertive),
        assertive=check.assertive,
        wall_time_s=time.perf_counter() - start,
    )


def run_all(count: int, seed: int, tol: float | None = None
            ) -> list[VerificationReport]:
    """Run every registered check with its preset sampler."""
    return [run_check(tid, default_spec(tid, count, seed), tol)
            for tid in CHECKS]
