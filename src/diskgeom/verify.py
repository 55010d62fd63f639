"""Randomized, seedable verification harness; the independent constructions
it checks the closed forms against live in ``oracles``.

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
accepts.  ``sample_*`` is the single-index form of each sampler.

``run_all`` and ``run_check`` are one evaluation engine, ``_run``.  It
groups the requested checks by their stream, a (sampler, SampleSpec)
pair, and draws each stream once per run, a chunk of at most ``_CHUNK``
samples at a time: every sample's first attempt in one vectorized Philox
pass, and a sample whose first attempt is rejected by ``sample_*``, which
replays it from its start; a chunk of fewer than ``_MIN_CHUNK`` samples is
drawn by ``sample_*`` alone.  Every check of the stream then scans the
chunk with its own running statistics, in sample order, so a report is the
same whichever checks share its stream.  The chunk is dropped before the
next one is drawn: nothing drawn outlives the run.  Samples that hit a
degenerate configuration raise a GeometryError and are counted as skipped;
a run fails with SamplerStarvation when fewer than 90% of a check's
requested samples survive.

numpy serves only the Philox stream, so it is imported by the two functions
that draw from it, on the first draw; importing this module, and with it
``diskgeom`` and its CLI, does not load numpy.  The attempts themselves,
the lens sampler's arc points included, use ``math`` alone.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import GeometryError, SamplerStarvation, UnknownTheorem
from .euclid import GenCircle, line_intersection, orthocenter, scale_of
from .hyperbolic import (
    chord_vs_geodesic_midpoint,
    conjecture_points,
    geodesic_intersection_on_circle,
    hyperbolic_midpoint,
    midpoint_via_inversion,
    midpoint_via_lens,
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
from .oracles import chordal_points, line_points, midpoint_oracle, pq_points


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
    """Residual statistics of one randomized check.

    ``wall_time_s`` is the check's own evaluation time plus an equal share
    of the time spent drawing its stream, which every check of the run that
    reads the same stream splits; every other field depends on the check,
    its SampleSpec and the tolerance alone."""

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
        """The fields in order, as dataclasses.asdict gives them, without its
        deep copy: every field but worst_input is immutable."""
        return {**vars(self), "worst_input": [list(z) for z in self.worst_input]}


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


_CHUNK = 1024                     # samples per vectorized draw of a stream
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


def _draw_chunk(spec: SampleSpec, sampler: str, begin: int, end: int) -> list[tuple]:
    """Samples begin .. end-1 of ``spec``, equal to ``SAMPLERS[sampler]``'s.
    First attempts are drawn in one vectorized pass; a sample whose first
    attempt is rejected, or whose chunk is too small to vectorize, is drawn
    by the scalar sampler from its start."""
    draw = SAMPLERS[sampler]
    if end - begin < _MIN_CHUNK:
        return [draw(spec, i) for i in range(begin, end)]
    _, words, attempt = _ATTEMPTS[sampler]
    samples = []
    for i, u in enumerate(_first_uniforms(spec.seed, begin, end, words), begin):
        sample = attempt(spec, u)
        samples.append(draw(spec, i) if sample is None else sample)
    return samples


def conjecture_check(a: complex, b: complex, c: complex, d: complex,
                     h: complex) -> float:
    """Residual |rho(h,j) - rho(k,l)| for the four-chord configuration.

    A derived point outside the open disk, or NaN, raises rho's OutsideDisk
    (a skip signal, not a failure).
    """
    _, j, k, l = conjecture_points(a, b, c, d, h)
    return abs(rho(h, j) - rho(k, l))


# ---------------------------------------------------------------------------
# per-theorem residuals


def _residual_five_points_collinear(sample: Sequence[complex]) -> float:
    a, b = sample
    cfg = build_config(a, b)
    k, s, t, u, v = line_points(cfg)
    return collinearity_residual([0j, k, s, t, u, v, hyperbolic_midpoint(a, b)])


def _agreement(xs: Sequence[complex], ys: Sequence[complex]) -> float:
    """How far two constructions of the same points disagree:
    max |x - y| / max(1, |x|, |y|)."""
    return max(abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in zip(xs, ys))


def _residual_explicit_formulas(sample: Sequence[complex]) -> float:
    a, b = sample
    cfg = build_config(a, b)
    return _agreement(line_points(cfg), five_points_euclid(cfg))


def _residual_five_points_chordal(sample: Sequence[complex]) -> float:
    a, b = sample
    cfg = build_config(a, b)
    via_gcis = chordal_points(cfg)
    via_quad = kc, sc, _, uc, _ = five_points_chordal(cfg)
    # t_c = -s_c and v_c = -k_c add no bit to the residual about 0
    return max(_agreement(via_gcis, via_quad),
               collinearity_residual([0j, kc, sc, uc]))


def _residual_eleven_points(sample: Sequence[complex]) -> float:
    """eleven_points(a, b)[1] without p/q, which it does not read: the
    residual over 0 and h_family's nine distinct points.

    That changes no skip count, as the p/q kernel never refuses: its
    denominators are sums of positive terms."""
    a, b = sample
    return collinearity_residual([0j, *h_family(a, b)[0]])


def _residual_pq_collinear(sample: Sequence[complex]) -> float:
    a, b = sample
    cfg = build_config(a, b)
    closed = pq_family(cfg)
    syn = pq_points(cfg)
    return max(_agreement(closed, syn), collinearity_residual([0j, *closed]))


def _residual_lens_lemma(sample: Sequence[complex]) -> float:
    a, b = sample
    return abs(hyperbolic_midpoint(a, b).imag)


def _residual_midpoint_constructions(sample: Sequence[complex]) -> float:
    a, b = sample
    m = hyperbolic_midpoint(a, b)
    residuals = [
        abs(midpoint_via_lens(a, b) - m),
        abs(midpoint_via_inversion(a, b) - m),
        abs((am := rho(a, m)) - rho(b, m)),
        abs(am + rho(m, b) - rho(a, b)),
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


def _check(theorem_id: str) -> _Check:
    check = CHECKS.get(theorem_id)
    if check is None:
        raise UnknownTheorem(f"unknown theorem id {theorem_id!r}")
    return check


def default_spec(theorem_id: str, count: int, seed: int) -> SampleSpec:
    """SampleSpec of ``count`` samples with the check's moduli margin."""
    return SampleSpec(count=count, seed=seed,
                      moduli_margin=_check(theorem_id).moduli_margin)


def _flatten_input(sample: Sequence) -> list[list[float]]:
    out = []
    for item in sample:
        z = complex(item)
        out.append([z.real, z.imag])
    return out


class _Tally:
    """One check's running statistics over its stream, in sample order."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.max_res, self.sum_res = 0.0, 0.0
        self.worst: Sequence = ()
        self.evaluated = self.skipped = 0
        self.seconds = 0.0

    def scan(self, samples: list[tuple]) -> None:
        start = time.perf_counter()
        fn, max_res, sum_res, worst = self.fn, self.max_res, self.sum_res, self.worst
        evaluated = skipped = 0
        for sample in samples:
            try:
                r = fn(sample)
            except GeometryError:
                skipped += 1
                continue
            evaluated += 1
            sum_res += r
            if r >= max_res or math.isnan(r):    # a NaN stays the max once seen
                max_res, worst = r, sample
        self.max_res, self.sum_res, self.worst = max_res, sum_res, worst
        self.evaluated += evaluated
        self.skipped += skipped
        self.seconds += time.perf_counter() - start


def _run(jobs: Sequence[tuple[str, SampleSpec]], tol: float | None
         ) -> list[VerificationReport]:
    """The reports of the (theorem id, spec) ``jobs``, in their order.  Each
    distinct (sampler, spec) stream is drawn once, a chunk at a time, and
    every job that reads it scans each chunk before the next is drawn."""
    checks = [_check(theorem_id) for theorem_id, _ in jobs]
    tallies = [_Tally(check.fn) for check in checks]
    streams: dict[tuple[str, SampleSpec], list[_Tally]] = {}
    for (_, spec), check, tally in zip(jobs, checks, tallies):
        streams.setdefault((check.sampler, spec), []).append(tally)
    for (sampler, spec), readers in streams.items():
        for begin in range(0, spec.count, _CHUNK):
            start = time.perf_counter()
            samples = _draw_chunk(spec, sampler, begin, min(begin + _CHUNK, spec.count))
            share = (time.perf_counter() - start) / len(readers)
            for tally in readers:
                tally.seconds += share
                tally.scan(samples)
    for (theorem_id, spec), tally in zip(jobs, tallies):
        if tally.evaluated < 0.9 * spec.count:
            raise SamplerStarvation(
                f"only {tally.evaluated}/{spec.count} samples survived for {theorem_id}")
    reports = []
    for (theorem_id, spec), check, tally in zip(jobs, checks, tallies):
        check_tol = check.default_tol if tol is None else tol
        reports.append(VerificationReport(
            theorem_id=theorem_id,
            sampler=check.sampler,
            requested=spec.count,
            evaluated=tally.evaluated,
            skipped=tally.skipped,
            seed=spec.seed,
            tolerance=check_tol,
            max_residual=tally.max_res,
            mean_residual=tally.sum_res / tally.evaluated,
            worst_input=_flatten_input(tally.worst),
            passed=math.isfinite(tally.max_res)
            and (tally.max_res <= check_tol or not check.assertive),
            assertive=check.assertive,
            wall_time_s=tally.seconds,
        ))
    return reports


def run_check(theorem_id: str, spec: SampleSpec,
              tol: float | None = None) -> VerificationReport:
    """Run one randomized check and aggregate residual statistics."""
    return _run([(theorem_id, spec)], tol)[0]


def run_all(count: int, seed: int, tol: float | None = None,
            ids: Sequence[str] | None = None) -> list[VerificationReport]:
    """Run the checks ``ids`` (every registered one by default), each on its
    default_spec, reading each distinct stream once; the reports come in the
    order of ``ids``.  SamplerStarvation is raised after every check has
    run, for the first starving one in that order."""
    ids = list(CHECKS) if ids is None else ids
    return _run([(tid, default_spec(tid, count, seed)) for tid in ids], tol)
