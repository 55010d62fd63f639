"""The three benchmark workloads, their seeded inputs and their output checks.

Every workload runs in one process and one thread as a closed loop with a
single caller: the next pass or request starts when the previous one ends.

* ``eleven_sweep``: ``run_check("eleven_points", ...)`` passes, the
  acceptance-criterion-05 sweep: one headline pass of 10^5 samples, then
  short passes.
* ``verify_all``: ``cli.main(["verify", "--theorem", "all", ...])``
  in-process, all 14 checks and all three samplers.
* ``point_queries``: scalar ``eleven_points`` / ``family_report`` calls on
  pairs from the benchmark's own generator, with one request in 50 a
  figure render.

Pass or block ``k`` of a run draws its inputs from ``pass_seed(seed, k)``, so
inputs never repeat within a run and still depend on ``--seed`` alone.

Library functions are looked up through their module at call time, so the
tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import statistics
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from diskgeom import cli, configurations, figures, verify
from diskgeom.errors import GeometryError

RESIDUAL_TOL = 1e-8          # bound on a point query's H-family residual
NEAR_SHARE = 0.10            # share of point-query pairs near a degeneracy
NEAR_KINDS = ("collinear", "moduli", "boundary")
FIGURE_EVERY = 50            # every 50th request renders a figure (2%)
MIN_SIN = 0.05               # regular pairs: |sin(angle between a and b)| >= this


@dataclass(frozen=True)
class Sizes:
    """Work per timed pass; a traced run repeats the first pass."""

    headline_samples: int = 100_000  # eleven_sweep's first pass, the 10^5 sweep
    sweep_samples: int = 1_000       # eleven_sweep samples per later pass
    verify_samples: int = 72         # verify_all samples per check per pass (14 checks)
    query_block: int = 1_000         # point_queries requests per timed block


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass ``k`` of a run with ``seed``; distinct for every (seed, k)
    with k < 1_000_003."""
    return seed * 1_000_003 + k + 1


@dataclass
class Tally:
    """Operations attempted, failed (wrong output) and skipped (typed refusal)."""

    attempted: int = 0
    failed: int = 0
    skipped: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.skipped += other.skipped


@dataclass
class Pass:
    """Outcome of one timed unit of work."""

    tally: Tally
    wall_s: float            # wall time of the library calls
    latency_us: list[float]  # [p50, p99] us of one sample's check or one request
    residual_ratio: float    # largest max_residual / tolerance over the checks


# ---------------------------------------------------------------------------
# output checks


def report_ok(report: dict) -> bool:
    """A check report is good when its residuals are finite, its sample
    counts add up and, for an assertive check, it passed."""
    return (math.isfinite(report["max_residual"])
            and math.isfinite(report["mean_residual"])
            and report["evaluated"] + report["skipped"] == report["requested"]
            and (report["passed"] or not report["assertive"]))


def _largest_ratio(reports: list[dict]) -> float:
    return max(r["max_residual"] / r["tolerance"] for r in reports)


def _tally_reports(reports: list[dict]) -> Tally:
    tally = Tally()
    for rep in reports:
        tally.attempted += rep["requested"]
        tally.skipped += rep["skipped"]
        if not report_ok(rep):
            tally.failed += rep["requested"]
    return tally


def _p50_p99_us(seconds) -> list[float]:
    cuts = statistics.quantiles(seconds, n=100)
    return [cuts[49] * 1e6, cuts[98] * 1e6]


# ---------------------------------------------------------------------------
# sweeps


@contextlib.contextmanager
def timed_checks(seconds: list[float]):
    """Append the wall time of every call of a registered check's function
    (one sample's evaluation, without its sampling) to ``seconds``; restore
    ``verify.CHECKS`` on exit."""
    originals = dict(verify.CHECKS)

    def timed(fn):
        def call(sample):
            t0 = perf_counter()
            try:
                return fn(sample)
            finally:
                seconds.append(perf_counter() - t0)
        return call

    for name, check in originals.items():
        verify.CHECKS[name] = dataclasses.replace(check, fn=timed(check.fn))
    try:
        yield
    finally:
        verify.CHECKS.update(originals)


def eleven_sweep_pass(seed: int, samples: int, time_samples: bool = True) -> Pass:
    """One run_check("eleven_points") pass.  Without ``time_samples`` the
    pass holds no per-sample timings, so its memory is the library's alone,
    and its latencies are empty."""
    seconds: list[float] = []
    with timed_checks(seconds) if time_samples else contextlib.nullcontext():
        t0 = perf_counter()
        report = verify.run_check("eleven_points",
                                  verify.default_spec("eleven_points", samples, seed))
        wall_s = perf_counter() - t0
    report = dataclasses.asdict(report)
    latency = _p50_p99_us(seconds) if time_samples else []
    return Pass(_tally_reports([report]), wall_s, latency, _largest_ratio([report]))


def verify_all_pass(seed: int, samples: int, out_path: str) -> Pass:
    argv = ["verify", "--theorem", "all", "--samples", str(samples),
            "--seed", str(seed), "--out", out_path]
    seconds: list[float] = []
    with timed_checks(seconds), contextlib.redirect_stdout(io.StringIO()) as stdout:
        t0 = perf_counter()
        code = cli.main(argv)
        wall_s = perf_counter() - t0
    with open(out_path, encoding="utf-8") as fh:
        reports = json.load(fh)
    os.remove(out_path)
    tally = _tally_reports(reports)
    lines = stdout.getvalue().splitlines()
    complete = ([r["theorem_id"] for r in reports] == list(verify.CHECKS)
                and len(lines) == len(reports))
    if (code != 0 or not complete) and tally.failed == 0:
        tally.failed = max(tally.attempted, 1)
    return Pass(tally, wall_s, _p50_p99_us(seconds), _largest_ratio(reports))


# ---------------------------------------------------------------------------
# point queries


def regular_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    """A pair with moduli in [0.05, 0.95], at least MIN_SIN off collinear with 0."""
    while True:
        ra, rb = rng.uniform(0.05, 0.95, size=2)
        ta, tb = rng.uniform(0.0, 2 * math.pi, size=2)
        if abs(math.sin(ta - tb)) >= MIN_SIN:
            return complex(ra * math.cos(ta), ra * math.sin(ta)), \
                complex(rb * math.cos(tb), rb * math.sin(tb))


def _near_pair(rng: np.random.Generator, kind: str) -> tuple[complex, complex]:
    """A pair within eps in [1e-14, 1e-4] of one degeneracy."""
    eps = 10.0 ** rng.uniform(-14, -4)
    sign = rng.choice((-1.0, 1.0))
    a, b = regular_pair(rng)
    if kind == "collinear":      # b's direction within eps of the line through 0 and a
        turn = math.pi * rng.integers(0, 2) + sign * eps
        b = abs(b) * (a / abs(a)) * complex(math.cos(turn), math.sin(turn))
    elif kind == "moduli":       # |b| within a relative eps of |a|
        b = b / abs(b) * abs(a) * (1 + sign * eps)
    else:                        # a within eps of the unit circle
        a = a / abs(a) * (1 - eps)
    return a, b


def make_queries(seed: int, count: int) -> list[tuple]:
    """Seeded point-query requests ``(op, x, y, near_kind)``.

    Every FIGURE_EVERY-th request is ``("figure", figure_id, None, None)``,
    cycling through FIGURE_IDS.  The others alternate ``eleven_points`` and
    ``family_report`` on a pair; exactly round(NEAR_SHARE * pairs) of the
    pairs sit near a degeneracy named by ``near_kind``.
    """
    rng = np.random.default_rng(seed)
    pairs = count - count // FIGURE_EVERY
    near = set(rng.permutation(pairs)[:round(NEAR_SHARE * pairs)].tolist())
    requests: list[tuple] = []
    figure_index = pair_index = 0
    for i in range(count):
        if i % FIGURE_EVERY == FIGURE_EVERY - 1:
            fig_id = figures.FIGURE_IDS[figure_index % len(figures.FIGURE_IDS)]
            figure_index += 1
            requests.append(("figure", fig_id, None, None))
            continue
        kind = NEAR_KINDS[int(rng.integers(len(NEAR_KINDS)))] if pair_index in near else None
        a, b = _near_pair(rng, kind) if kind else regular_pair(rng)
        op = "eleven_points" if pair_index % 2 == 0 else "family_report"
        requests.append((op, a, b, kind))
        pair_index += 1
    return requests


def _query(op: str, x, y):
    if op == "eleven_points":
        return configurations.eleven_points(x, y)
    if op == "family_report":
        return configurations.family_report(x, y)
    fig = figures.build_figure(x)
    return fig, figures.figure_svg(fig)


def query_ok(op: str, result) -> bool:
    """Residual of the H family finite and within RESIDUAL_TOL; a figure has
    finite points and a complete SVG document."""
    if op == "figure":
        fig, svg = result
        return (all(math.isfinite(z.real) and math.isfinite(z.imag)
                    for z in fig.points.values())
                and svg.startswith("<svg") and svg.endswith("</svg>"))
    residual = result[1] if op == "eleven_points" else result[2]
    return residual is None or (math.isfinite(residual) and residual <= RESIDUAL_TOL)


def query_pass(requests: list[tuple], latencies: array) -> Pass:
    """Run the first len(latencies) ``requests`` one at a time; latencies
    are stored in seconds.  The residual ratio is the largest H-family
    residual over RESIDUAL_TOL."""
    tally = Tally(attempted=len(latencies))
    ratio = 0.0
    begin = perf_counter()
    for i in range(len(latencies)):
        op, x, y, _ = requests[i]
        error = None
        t0 = perf_counter()
        try:
            result = _query(op, x, y)
        except Exception as exc:   # typed refusals are skips, anything else fails
            error = exc
        latencies[i] = perf_counter() - t0
        if isinstance(error, GeometryError):
            tally.skipped += 1
        elif error is not None or not query_ok(op, result):
            tally.failed += 1
        elif op != "figure":
            residual = result[1] if op == "eleven_points" else result[2]
            if residual is not None:
                ratio = max(ratio, residual / RESIDUAL_TOL)
    wall_s = perf_counter() - begin
    return Pass(tally, wall_s, _p50_p99_us(latencies), ratio)
