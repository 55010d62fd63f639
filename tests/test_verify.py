"""Tests for the randomized verification harness."""

import cmath
import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from diskgeom.errors import (
    ORACLE_MIN_GAP,
    DegenerateDenominator,
    GeometryError,
    NearBoundary,
    OutsideDisk,
    PointOutsideDisk,
    SamplerStarvation,
    UnknownTheorem,
)
from diskgeom import verify
from diskgeom.verify import (
    CHECKS,
    SAMPLERS,
    SampleSpec,
    _Check,
    _disk_pair_attempt,
    _first_uniforms,
    _residual_explicit_formulas,
    _rng,
    conjecture_check,
    default_spec,
    run_all,
    run_check,
    sample_circle_quadruple,
    sample_disk_pair,
    sample_lens_pair,
)
from diskgeom.hyperbolic import hyperbolic_midpoint, mobius_T, rho
from diskgeom.oracles import _bisect_crossing, midpoint_oracle, mobius_invariance_check


def _spec(count=50, seed=7, **kw):
    return SampleSpec(count=count, seed=seed, **kw)


def _fix(monkeypatch, fixed):
    """Set the samplers' fixed margins, e.g. {"min_gap": 0.5} sets _MIN_GAP."""
    for name, value in fixed.items():
        monkeypatch.setattr(verify, f"_{name.upper()}", value)


# ---------------------------------------------------------------------------
# samplers


def test_disk_pair_sampler_respects_margins():
    spec = _spec(moduli_margin=0.3)
    for i in range(50):
        a, b = sample_disk_pair(spec, i)
        assert 0.05 <= abs(a) <= 0.95 and 0.05 <= abs(b) <= 0.95
        assert abs(abs(a) - abs(b)) >= 0.3 - 1e-12
        assert abs((a * b.conjugate()).imag) > 0


def test_circle_quadruple_sampler_cyclic():
    spec = _spec()
    for i in range(50):
        a, b, c, d, t = sample_circle_quadruple(spec, i)
        for z in (a, b, c, d):
            assert abs(abs(z) - 1) <= 1e-12
        assert 0.0 <= t <= 1.0


def test_lens_pair_sampler_is_mirror_symmetric_domain():
    spec = _spec()
    for i in range(50):
        a, b = sample_lens_pair(spec, i)
        assert a.imag > 0 and b.imag < 0
        assert abs(a) < 1 and abs(b) < 1


def test_samples_independent_of_schedule():
    # sample i depends only on (seed, i), not on how many came before
    spec = _spec(count=10)
    direct = sample_disk_pair(spec, 7)
    assert sample_disk_pair(spec, 7) == direct
    assert sample_disk_pair(_spec(count=99), 7) == direct


def test_different_seeds_differ():
    assert sample_disk_pair(_spec(seed=1), 0) != sample_disk_pair(_spec(seed=2), 0)


# The samplers as first written, one scalar rng.uniform call per value, each
# on a freshly built Philox generator: the reference that pins the sample
# stream.  A change that moves the stream must change these deliberately.
# Each takes the sampler's fixed margins as parameters.


def _reference_rng(spec, index):
    return np.random.Generator(np.random.Philox(key=spec.seed & (2**64 - 1),
                                                counter=index << 128))


def _reference_disk_pair(spec, index, min_angle=0.05):
    rng = _reference_rng(spec, index)
    while True:
        ra = rng.uniform(0.05, 1 - 0.05)
        rb = rng.uniform(0.05, 1 - 0.05)
        ta = rng.uniform(0, 2 * math.pi)
        tb = rng.uniform(0, 2 * math.pi)
        gap = abs(math.remainder(ta - tb, math.pi))
        if gap < min_angle or math.pi - gap < min_angle:
            continue
        if spec.moduli_margin and abs(ra - rb) < spec.moduli_margin:
            continue
        return complex(ra * math.cos(ta), ra * math.sin(ta)), \
            complex(rb * math.cos(tb), rb * math.sin(tb))


def _reference_circle_quadruple(spec, index, min_gap=0.1):
    rng = _reference_rng(spec, index)
    while True:
        angles = np.sort(rng.uniform(0, 2 * math.pi, size=4))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
        if np.min(gaps) < min_gap:
            continue
        start = rng.uniform(0, 2 * math.pi)
        a, b, c, d = (complex(math.cos(t + start), math.sin(t + start))
                      for t in angles)
        return a, b, c, d, float(rng.uniform(0, 1))


def _reference_lens_pair(spec, index, min_angle=0.05):
    rng = _reference_rng(spec, index)
    while True:
        t = rng.uniform(0.2, 3.0)
        center = -1j * t
        radius = math.sqrt(1 + t * t)
        lo, hi = math.atan2(t, -1.0), math.atan2(t, 1.0)
        a = complex(center + radius
                    * np.exp(1j * rng.uniform(hi + min_angle, lo - min_angle)))
        b = complex(center + radius
                    * np.exp(1j * rng.uniform(hi + min_angle, lo - min_angle))).conjugate()
        if a.imag <= 0 or b.imag >= 0:
            continue
        if abs(a) >= 1 - 0.05 or abs(b) >= 1 - 0.05:
            continue
        return a, b


@pytest.mark.parametrize("seed", [0, 20260823, 2**63 + 5])
@pytest.mark.parametrize("sampler, reference, margin, fixed", [
    (sample_disk_pair, _reference_disk_pair, 0.0, {}),
    (sample_disk_pair, _reference_disk_pair, 0.02, {}),
    (sample_disk_pair, _reference_disk_pair, 0.3, {"min_angle": 0.6}),   # rejects ~3 in 4
    (sample_circle_quadruple, _reference_circle_quadruple, 0.0, {}),
    (sample_circle_quadruple, _reference_circle_quadruple, 0.0,
     {"min_gap": 0.5}),                                                  # rejects ~2 in 3
    (sample_lens_pair, _reference_lens_pair, 0.0, {}),
    (sample_lens_pair, _reference_lens_pair, 0.0, {"min_angle": 0.01}),  # rejects ~1 in 10
])
def test_sample_stream_matches_scalar_uniform_reference(
        monkeypatch, seed, sampler, reference, margin, fixed):
    _fix(monkeypatch, fixed)
    spec = _spec(seed=seed, moduli_margin=margin)
    for i in range(300):
        assert sampler(spec, i) == reference(spec, i, **fixed)


def test_disk_pair_golden_samples():
    spec = _spec(seed=0)
    assert [sample_disk_pair(spec, i) for i in range(3)] == [
        (0.04618615709483897+0.03891069366594894j, -0.24579126355783903-0.10529175694688635j),
        (0.45784408380936775+0.43169824974881427j, -0.05659666230803706+0.09101285039768006j),
        (-0.35676228893533135+0.8485161172477573j, 0.025231187696273295+0.49398663610406707j),
    ]


@pytest.mark.parametrize("seed", [0, -1, 2**63 + 5, 2**64 - 1])
def test_samples_ignore_interleaving_threads_and_extreme_indices(seed):
    # every sampler re-keys one generator per thread, so nothing a previous
    # sample drew (a long rejection run, a half-used block, a cached 32-bit
    # half) may leak into the next one
    plain = _spec(seed=seed)
    picky = _spec(seed=seed, moduli_margin=0.6)    # accepts ~1 attempt in 9
    lens = _spec(seed=seed)
    first = sample_disk_pair(plain, 5)
    sample_disk_pair(picky, 9)
    sample_lens_pair(lens, 9)
    assert sample_disk_pair(plain, 5) == first
    _rng(plain, 9).integers(0, 2**32, size=3, dtype=np.uint32)
    assert _rng(plain, 5).integers(0, 2**32, size=3, dtype=np.uint32).tolist() \
        == _reference_rng(plain, 5).integers(0, 2**32, size=3, dtype=np.uint32).tolist()
    assert sample_disk_pair(plain, 5) == first

    indices = [0, 1, 5, 9, 2**32, 2**64 - 1, 2**64]
    for spec, sampler, reference in ((plain, sample_disk_pair, _reference_disk_pair),
                                     (picky, sample_disk_pair, _reference_disk_pair),
                                     (lens, sample_lens_pair, _reference_lens_pair)):
        forward = [sampler(spec, i) for i in indices]
        backward = [sampler(spec, i) for i in reversed(indices)]
        assert forward == backward[::-1]
        assert forward == [reference(spec, i) for i in indices]

    # two threads on disjoint index ranges match one sequential run
    spec = _spec(seed=seed)
    sequential = [sample_circle_quadruple(spec, i) for i in range(400)]
    results = [None, None]

    def work(slot, start):
        results[slot] = [sample_circle_quadruple(spec, i)
                         for i in range(start, start + 200)]

    threads = [threading.Thread(target=work, args=(k, 200 * k)) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results[0] + results[1] == sequential


# ---------------------------------------------------------------------------
# run_check's chunked sample stream


@pytest.mark.parametrize("seed", [0, -1, 20260823, 2**63 + 5])
@pytest.mark.parametrize("words", [3, 4, 6, 9])
def test_first_uniforms_match_the_scalar_generator(seed, words):
    spec = _spec(seed=seed)
    for begin, end in ((0, 40), (1000, 1030), (2**64 - 20, 2**64 - 1)):
        rows = _first_uniforms(seed, begin, end, words)
        assert rows == [_rng(spec, i).random(words).tolist() for i in range(begin, end)]


def _scalar_run_check(theorem_id, spec):
    """run_check's report without wall_time_s, from its loop as first
    written: one scalar sampler call per sample."""
    check = CHECKS[theorem_id]
    sampler = SAMPLERS[check.sampler]
    max_res, sum_res, worst = 0.0, 0.0, ()
    evaluated = skipped = 0
    for i in range(spec.count):
        sample = sampler(spec, i)
        try:
            r = check.fn(sample)
        except GeometryError:
            skipped += 1
            continue
        evaluated += 1
        sum_res += r
        if r >= max_res or math.isnan(r):
            max_res, worst = r, sample
    if evaluated < 0.9 * spec.count:
        raise SamplerStarvation(f"only {evaluated}/{spec.count} samples survived")
    return dict(theorem_id=theorem_id, sampler=check.sampler, requested=spec.count,
                evaluated=evaluated, skipped=skipped, seed=spec.seed,
                tolerance=check.default_tol, max_residual=max_res,
                mean_residual=sum_res / evaluated,
                worst_input=[[complex(z).real, complex(z).imag] for z in worst],
                passed=math.isfinite(max_res) and (max_res <= check.default_tol
                                                   or not check.assertive),
                assertive=check.assertive)


def _chunked_report(theorem_id, spec):
    report = run_check(theorem_id, spec).to_dict()
    report.pop("wall_time_s")
    return report


def _stream_probe(sample):
    """A cheap residual that varies with every coordinate of the sample and
    refuses about one sample in 40."""
    r = abs(sum(map(complex, sample)))
    if int(r * 1e7) % 40 == 0:
        raise DegenerateDenominator("refused on purpose")
    return r


@pytest.mark.parametrize("seed", [0, 20260823, 2**63 + 5])
@pytest.mark.parametrize("sampler, margin, fixed", [
    ("disk_pair", 0.0, {}),
    ("disk_pair", 0.02, {}),
    ("disk_pair", 0.3, {"min_angle": 0.6}),     # rejects ~3 in 4
    ("circle_quadruple", 0.0, {}),
    ("circle_quadruple", 0.0, {"min_gap": 0.5}),  # rejects ~2 in 3
    ("lens_pair", 0.0, {}),
    ("lens_pair", 0.0, {"min_angle": 0.01}),    # rejects ~1 in 10
])
def test_chunked_stream_reports_equal_the_scalar_loop(monkeypatch, seed, sampler,
                                                      margin, fixed):
    _fix(monkeypatch, fixed)
    monkeypatch.setitem(CHECKS, "stream_probe", _Check(sampler, 1.0, _stream_probe))
    for count in (1, 256, 1023, 1024, 1025, 1280, 2049):
        spec = _spec(count=count, seed=seed, moduli_margin=margin)
        try:
            expected = _scalar_run_check("stream_probe", spec)
        except SamplerStarvation:         # a lone sample that the probe refuses
            with pytest.raises(SamplerStarvation):
                run_check("stream_probe", spec)
            continue
        assert _chunked_report("stream_probe", spec) == expected, count
        if count == 2049:
            assert expected["skipped"] > 0


def test_chunked_stream_reports_equal_the_scalar_loop_on_every_check():
    for theorem_id in CHECKS:
        spec = default_spec(theorem_id, 1025, 20260823)
        assert _chunked_report(theorem_id, spec) == _scalar_run_check(theorem_id, spec)


def test_run_check_draws_one_by_one_only_rejected_first_attempts_and_short_chunks(
        monkeypatch):
    calls = []

    def counted(spec, index):
        calls.append(index)
        return sample_disk_pair(spec, index)

    monkeypatch.setitem(SAMPLERS, "disk_pair", counted)
    spec = default_spec("eleven_points", 1024 + 255, 5)   # a full chunk, a short one
    run_check("eleven_points", spec)
    rejected = [i for i in range(1024)
                if _disk_pair_attempt(spec, _rng(spec, i).random(4).tolist()) is None]
    assert 0 < len(rejected) < 100
    assert calls == rejected + list(range(1024, 1279))


# ---------------------------------------------------------------------------
# run_all's shared draws


def _without_wall_time(reports):
    return [{k: v for k, v in report.to_dict().items() if k != "wall_time_s"}
            for report in reports]


def _one_by_one(count, seed, ids=None):
    return [run_check(tid, default_spec(tid, count, seed))
            for tid in (CHECKS if ids is None else ids)]


@pytest.mark.parametrize("seed", [3, 20260823, 2**63 + 5])
def test_run_all_equals_one_run_check_per_check(seed):
    for count in (1, 72, 255, 256, 1025):
        assert _without_wall_time(run_all(count, seed)) \
            == _without_wall_time(_one_by_one(count, seed)), count


def _starving_probe(sample):
    """_stream_probe refusing about one sample in four: more than a run
    may skip."""
    r = abs(sum(map(complex, sample)))
    if int(r * 1e7) % 4 == 0:
        raise DegenerateDenominator("refused on purpose")
    return r


@pytest.mark.parametrize("seed", [0, 2**63 + 5])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_run_all_with_a_probe_on_each_sampler_equals_run_check(monkeypatch, seed,
                                                               sampler):
    # the probe and the registered checks of its sampler, which share its
    # stream (disk_pair's margin-0.02 checks read a second one)
    monkeypatch.setitem(CHECKS, "stream_probe", _Check(sampler, 1.0, _stream_probe))
    ids = [tid for tid, check in CHECKS.items() if check.sampler == sampler]
    skipped = 0
    for count in (1, 72, 256, 1025):
        try:
            expected = _without_wall_time(_one_by_one(count, seed, ids))
        except SamplerStarvation as want:       # the probe refuses a lone sample
            with pytest.raises(SamplerStarvation) as got:
                run_all(count, seed, ids=ids)
            assert str(got.value) == str(want)
            continue
        assert _without_wall_time(run_all(count, seed, ids=ids)) == expected, count
        skipped += expected[-1]["skipped"]
    assert skipped > 0

    monkeypatch.setitem(CHECKS, "stream_probe", _Check(sampler, 1.0, _starving_probe))
    for count in (72, 256, 1025):
        with pytest.raises(SamplerStarvation) as want:
            run_check("stream_probe", default_spec("stream_probe", count, seed))
        assert str(want.value).endswith(" samples survived for stream_probe")
        with pytest.raises(SamplerStarvation) as got:
            run_all(count, seed, ids=ids)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("ids, starving", [
    (["starving_lens", "eleven_points", "starving_disk", "last"], "starving_lens"),
    (["eleven_points", "starving_disk", "last", "starving_lens"], "starving_disk"),
])
def test_run_all_raises_starvation_after_every_check_ran_for_the_first_in_order(
        monkeypatch, ids, starving):
    def refuse(sample):
        raise DegenerateDenominator("refused on purpose")

    ran = []

    def counted(sample):
        ran.append(sample)
        return 0.0

    monkeypatch.setitem(CHECKS, "starving_disk", _Check("disk_pair", 1.0, refuse))
    monkeypatch.setitem(CHECKS, "starving_lens", _Check("lens_pair", 1.0, refuse))
    monkeypatch.setitem(CHECKS, "last", _Check("circle_quadruple", 1.0, counted))
    with pytest.raises(SamplerStarvation,
                       match=f"^only 0/30 samples survived for {starving}$"):
        run_all(30, 4, ids=ids)
    assert len(ran) == 30


def test_run_all_draws_each_stream_once(monkeypatch):
    calls = []

    def counting(name):
        draw = SAMPLERS[name]

        def counted(spec, index):
            calls.append((name, spec.moduli_margin, index))
            return draw(spec, index)
        return counted

    for name in list(SAMPLERS):
        monkeypatch.setitem(SAMPLERS, name, counting(name))
    for seed in (0, 11):
        calls.clear()
        reports = run_all(72, seed)
        assert len(reports) == len(CHECKS) == 14
        # disk_pair at margins 0 and 0.02, circle_quadruple and lens_pair
        assert len(calls) == 4 * 72
        assert sorted(set(calls)) == sorted(calls)
        assert {(name, margin) for name, margin, _ in calls} == {
            ("disk_pair", 0.0), ("disk_pair", 0.02),
            ("circle_quadruple", 0.0), ("lens_pair", 0.0)}


def test_run_all_keeps_the_requested_order_and_tolerance():
    ids = ["lens_lemma", "w_in_disk", "eleven_points", "lens_lemma"]
    reports = run_all(20, 5, tol=1e-30, ids=ids)
    assert [r.theorem_id for r in reports] == ids
    assert all(r.tolerance == 1e-30 for r in reports)
    assert _without_wall_time(reports[:1]) == _without_wall_time(reports[3:])
    assert all(r.wall_time_s > 0 for r in reports)
    with pytest.raises(UnknownTheorem):
        run_all(20, 5, ids=["lens_lemma", "nope"])


@pytest.mark.parametrize("xs, ys, value", [
    ([0.5], [3.0], 2.5 / 3.0),          # |y| sets the scale
    ([3.0], [0.5], 2.5 / 3.0),          # |x| sets the scale
    ([0.25], [0.5j], abs(0.25 - 0.5j)),  # both inside the unit disk: scale 1
    ([0.1, 2j], [0.3, 1.5j], 0.25),      # the worst of the pairs
])
def test_agreement_divides_by_the_largest_of_one_and_both_moduli(xs, ys, value):
    assert verify._agreement(xs, ys) == value


# ---------------------------------------------------------------------------
# near-parallel pairs: k lies far out, as the two lines that define it are
# nearly parallel (ROADMAP item 2)


@pytest.mark.parametrize("pair", [
    (0.3354012204885022-0.8338315520651073j, -0.09683382154370475-0.8013668324404474j),
    (0.2576325891834976-0.16083647706234835j, 0.5437267955578289-0.4844307702753028j),
    (-0.7606490918670203-0.14890338702032754j, -0.7217482563403843-0.5949093219719779j),
])
def test_explicit_formulas_near_parallel_pair(pair):
    assert _residual_explicit_formulas(pair) <= 1e-9


@pytest.mark.parametrize("s, k", [(1013, 575), (1016, 102)])
def test_verify_all_passes_that_met_a_near_parallel_pair_hold(s, k):
    # the benchmark's verify_all passes pass_seed(s, k) = s * 1_000_003 + k + 1
    reports = run_all(72, s * 1_000_003 + k + 1)
    assert all(r.passed for r in reports if r.assertive), \
        [(r.theorem_id, r.max_residual) for r in reports if not r.passed]


# ---------------------------------------------------------------------------
# oracles


def test_midpoint_oracle_matches_closed_form():
    for a, b in ((0.3 + 0.2j, -0.4 + 0.5j), (0.1j, 0.8 + 0.1j)):
        assert abs(midpoint_oracle(a, b) - hyperbolic_midpoint(a, b)) <= 1e-9


def _hundred_step_midpoint_oracle(x, y):
    """midpoint_oracle as first written: always 100 bisection steps."""
    if x == y:
        return x
    yp = mobius_T(x, y)
    u = yp / abs(yp)
    lo, hi = 0.0, abs(yp)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if rho(0j, mid * u) < rho(mid * u, yp):
            lo = mid
        else:
            hi = mid
    return mobius_T(-x, 0.5 * (lo + hi) * u)


@pytest.mark.parametrize("x, y, refusing", [
    (0.3 + 0.1j, 1.2, rho),        # |T_x(y)| >= 1
    (0.3 + 0.1j, 3, rho),
    (1.2, 0.3j, mobius_T),         # |x| >= 1
])
def test_midpoint_oracle_refuses_with_rho_and_mobius_T_messages(x, y, refusing):
    with pytest.raises(OutsideDisk) as want:
        refusing(x, y)
    with pytest.raises(OutsideDisk) as got:
        midpoint_oracle(x, y)
    assert str(got.value) == str(want.value)


def test_midpoint_oracle_refuses_a_straightened_end_within_rounding_of_the_circle():
    # the true midpoint is 0.99999999139681061 (50-digit mpmath); the
    # bisection returned 0.9999999894632878, 1.9e-9 off, with no refusal
    with pytest.raises(NearBoundary):
        midpoint_oracle(0.9999999999999999, 0.5)
    # a pair on which the unguarded oracle raised a bare ValueError
    with pytest.raises(NearBoundary):
        midpoint_oracle(0.9217225784810857 - 0.3878498270183668j,
                        -0.9850991502994594 + 0.17198735197812856j)
    # just above the threshold, 1 - |T_x(y)| = 1.04e-6: 4.5e-11 off the
    # 60-digit midpoint
    x, y = -0.5991237551172892 - 0.7978793844498148j, 0.8272548655991855 - 0.5609535722386768j
    assert 1e-6 < 1 - abs(mobius_T(x, y)) < 1.1e-6
    assert abs(midpoint_oracle(x, y) - (0.36586319419992257867 - 0.38810734774153621066j)) \
        <= 1e-10


def test_midpoint_oracle_early_exit_keeps_the_hundred_step_result():
    spec = default_spec("midpoint_oracle", 2000, 29)
    for i in range(spec.count):
        x, y = sample_disk_pair(spec, i)
        assert midpoint_oracle(x, y) == _hundred_step_midpoint_oracle(x, y), (x, y)
        assert midpoint_oracle(x, x) == x == _hundred_step_midpoint_oracle(x, x)


def _outcome(oracle, x, y):
    try:
        return oracle(x, y)
    except Exception as exc:   # the exception type is the outcome
        return type(exc)


def _hard_midpoint_pairs(count):
    """count pairs of each regime: 1 - |T_x(y)| log-uniform in [1e-6, 0.5],
    |x - y| down to 1e-15, |x| down to 1e-300, and 1 - |T_x(y)| in
    [1e-9, 1e-6), which ORACLE_MIN_GAP refuses."""
    rng = np.random.default_rng(32)
    turn = np.exp(2j * np.pi * rng.random((4, count)))
    x = 0.95 * np.sqrt(rng.random((3, count))) * turn[:3]
    gap = 10.0 ** np.concatenate([rng.uniform(-6, math.log10(0.5), count),
                                  rng.uniform(-9, -6, count)])
    ends = (1 - gap) * np.exp(2j * np.pi * rng.random(2 * count))
    pairs = [(complex(a), mobius_T(-complex(a), complex(e)))
             for a, e in zip(np.concatenate([x[0], x[0]]), ends)]
    pairs += [(complex(a), complex(a + d * z)) for a, d, z in
              zip(x[1], 10.0 ** rng.uniform(-15, -1, count), turn[3])]
    pairs += [(complex(d * z), complex(b)) for d, z, b in
              zip(10.0 ** rng.uniform(-300, -1, count), turn[2], x[2])]
    return pairs


def test_midpoint_oracle_keeps_the_hundred_step_result_in_hard_regimes():
    refused = 0
    for x, y in _hard_midpoint_pairs(2500):
        want = _outcome(_hundred_step_midpoint_oracle, x, y)
        if want is not OutsideDisk and 1 - abs(mobius_T(x, y)) < ORACLE_MIN_GAP:
            want, refused = NearBoundary, refused + 1
        assert _outcome(midpoint_oracle, x, y) == want, (x, y)
    assert refused > 2000      # the refusing regime, give or take rounding at 1e-6


@pytest.mark.parametrize("scale", [1 - 1e-3, 1 + 1e-3, 1 - 1e-9, 1 + 1e-9, math.nan])
def test_a_wrong_crossing_estimate_cannot_steer_the_midpoint_oracle(scale):
    spec = default_spec("midpoint_oracle", 100, 29)
    pairs = [sample_disk_pair(spec, i) for i in range(spec.count)]
    for x, y in pairs + _hard_midpoint_pairs(20):
        yp = mobius_T(x, y)
        ayp = abs(yp)
        if 1 - ayp < ORACLE_MIN_GAP:
            continue
        u = yp / ayp
        t = ayp / (1 + math.sqrt((1 - ayp) * (1 + ayp)))
        assert mobius_T(-x, _bisect_crossing(yp, u, t * scale) * u) \
            == _hundred_step_midpoint_oracle(x, y), (x, y)


def test_conjecture_check_generic_quadruple_is_tiny():
    import cmath
    a, b, c, d = (cmath.exp(1j * t) for t in (0.0, 1.2, 2.8, 4.4))
    h = b + 0.5 * (c - b)
    assert conjecture_check(a, b, c, d, h) <= 1e-9


def test_conjecture_check_skips_a_nan_point_with_its_own_signal():
    # abs(nan) >= 1 is false, so only `not abs(z) < 1` stops NaN before rho
    a, b, c, d = (cmath.exp(1j * t) for t in (0.3, 1.5, 3.0, 4.5))
    with pytest.raises(PointOutsideDisk):
        conjecture_check(a, b, c, d, complex(math.nan, 0.1))


def test_mobius_invariance_check_returns_small_residuals():
    import cmath
    a, b, c, d = (cmath.exp(1j * t) for t in (-0.1, 0.5, 1.5, 3.3))
    h = b + 0.447 * (c - b)
    r1, r2 = mobius_invariance_check(a, b, c, d, h)
    assert r1 <= 1e-9 and r2 <= 1e-9


# ---------------------------------------------------------------------------
# run_check plumbing


def test_unknown_theorem_raises():
    with pytest.raises(UnknownTheorem):
        run_check("nope", _spec())
    with pytest.raises(UnknownTheorem):
        default_spec("nope", 10, 0)


def test_run_check_is_deterministic():
    spec = default_spec("eleven_points", 50, 123)
    r1 = run_check("eleven_points", spec)
    r2 = run_check("eleven_points", spec)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    assert d1 == d2


def test_run_check_report_fields():
    report = run_check("lens_lemma", default_spec("lens_lemma", 30, 5))
    assert report.requested == 30
    assert report.evaluated + report.skipped == 30
    assert report.passed
    assert report.max_residual <= report.tolerance
    assert report.mean_residual <= report.max_residual
    assert len(report.worst_input) == 2


def test_report_dict_is_asdict_and_owns_its_worst_input():
    report = run_check("lens_lemma", default_spec("lens_lemma", 30, 5))
    kept = dataclasses.asdict(report)
    doc = report.to_dict()
    assert list(doc.items()) == list(kept.items())
    doc["worst_input"][0][0] = 7.0
    doc["worst_input"].append([0.0, 0.0])
    assert dataclasses.asdict(report) == kept


def test_tolerance_override_can_fail_a_check():
    report = run_check("eleven_points", default_spec("eleven_points", 30, 5),
                       tol=1e-30)
    assert not report.passed


@pytest.mark.parametrize("theorem_id, residuals", [
    ("lens_lemma", [math.nan]),
    ("lens_lemma", [math.inf]),
    ("lens_lemma", [0.0, math.nan, 1e-12, 0.0]),     # one NaN among finite ones
    ("conjecture", [math.nan]),                      # fails even when report-only
])
def test_non_finite_residual_fails_the_check(monkeypatch, theorem_id, residuals):
    calls = iter(range(10 ** 6))

    def fn(sample):
        return residuals[next(calls) % len(residuals)]

    monkeypatch.setitem(CHECKS, theorem_id,
                        dataclasses.replace(CHECKS[theorem_id], fn=fn))
    report = run_check(theorem_id, default_spec(theorem_id, 30, 5))
    assert not report.passed
    assert not math.isfinite(report.max_residual)
    assert len(report.worst_input) > 0


@pytest.mark.parametrize("refused", [(), (0,), (3, 17, 18, 40, 49),
                                     (3, 17, 18, 40, 49, 0), tuple(range(0, 50, 2))])
def test_skipped_samples_are_counted_and_starvation_raised(monkeypatch, refused):
    # a test-local check refuses the samples at the chosen indices; run_check
    # must count them as skipped and refuse the run once fewer than 90% survive
    calls = iter(range(10 ** 6))

    def fn(sample):
        if next(calls) in refused:
            raise DegenerateDenominator("refused on purpose")
        return 2.0 ** -40

    monkeypatch.setitem(CHECKS, "skip_probe", _Check("disk_pair", 1e-9, fn))
    spec = default_spec("skip_probe", 50, 3)
    survivors = 50 - len(refused)
    if survivors < 0.9 * 50:
        with pytest.raises(SamplerStarvation, match=f"only {survivors}/50 samples"):
            run_check("skip_probe", spec)
        return
    report = run_check("skip_probe", spec)
    assert (report.evaluated, report.skipped) == (survivors, len(refused))
    assert report.evaluated + report.skipped == report.requested
    assert report.passed and report.mean_residual == report.max_residual == 2.0 ** -40
    last = max(set(range(50)) - set(refused))      # ties go to the latest sample
    assert report.worst_input == [[z.real, z.imag] for z in sample_disk_pair(spec, last)]


def test_conjecture_check_never_fails_on_residual():
    report = run_check("conjecture", default_spec("conjecture", 30, 5),
                       tol=1e-30)
    assert not report.assertive
    assert report.passed


def test_every_registered_check_passes_smoke_run():
    for tid in CHECKS:
        report = run_check(tid, default_spec(tid, 25, 11))
        assert report.passed, (tid, report.max_residual)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_w_in_disk_residual_is_at_rounding_level(seed):
    # the oracle's geodesics pass exactly through the unit-circle points
    report = run_check("w_in_disk", default_spec("w_in_disk", 2000, seed))
    assert report.max_residual <= 1e-13
