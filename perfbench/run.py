#!/usr/bin/env python3
"""diskgeom benchmark: one workload per run, untraced (end-to-end) or traced.

    python3 perfbench/run.py --workload eleven_sweep --seed 1 --seconds 30 --trace 0

Workloads: eleven_sweep, verify_all, point_queries (see perfbench/README.md).
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it wraps the public functions of every diskgeom module and reports per-layer
counts and self times.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every output checked out, 1 when an output was wrong, and 2 when the run
could not start (no library under src/, or DISKGEOM_TOL set).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("eleven_sweep", "verify_all", "point_queries")
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 15
RESIDUAL_PASSES = 150    # residual_ratio comes from the first 150 passes of a run

END_TO_END = (("setup_s", "s"), ("samples_per_s", "1/s"), ("query_p50_us", "us"),
              ("query_p99_us", "us"), ("residual_ratio", "ratio"), ("peak_rss_mb", "MiB"))

# Start-up cost every diskgeom command pays: import the CLI, compute one family.
SETUP_CODE = ("import sys\nimport diskgeom.cli\nfrom diskgeom.configurations import eleven_points\n"
              "eleven_points(complex(sys.argv[1]), complex(sys.argv[2]))\n")


class StartError(Exception):
    """The benchmark cannot run in this checkout or environment."""


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every traced-run metric; op = one sample or request."""
    from tracer import ERROR_KINDS, span_names
    out = []
    for span in span_names():
        out += [(f"{span}.calls", "count/op"), (f"{span}.self_s", "s/op"),
                (f"{span}.errors", "count/op")]
    out.append(("configurations.collinearity_residual.pairs", "count/op"))
    out += [(f"errors.{kind}", "count/op") for kind in (*ERROR_KINDS, "other")]
    out += [("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
            ("run.skip_share", "ratio"), ("run.failed_share", "ratio")]
    return out


def import_library() -> None:
    """Put the checkout's src/ first on sys.path and import diskgeom from it."""
    if os.environ.get("DISKGEOM_TOL"):
        raise StartError("DISKGEOM_TOL is set; it would loosen verify tolerances")
    if not (SRC / "diskgeom" / "__init__.py").is_file():
        raise StartError(f"no diskgeom package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import diskgeom
    if Path(diskgeom.__file__).resolve().parent != SRC / "diskgeom":
        raise StartError(f"imported diskgeom from {diskgeom.__file__}, not {SRC}")


def setup_timer(a: complex, b: complex):
    """Function timing one fresh interpreter that imports diskgeom.cli and
    computes one eleven_points family."""
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", SETUP_CODE, repr(a), repr(b)]

    def once() -> float:
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0
    return once


def fast_end(values, high: bool = False) -> float:
    """The 2.5th percentile of ``values`` (97.5th with ``high``).

    On a shared machine other processes slow every pass by up to 2.5 times,
    in phases longer than a run; over ten runs, the fast end of each run's
    passes spread half as much as their median (perfbench/README.md)."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=40)
    return cuts[-1] if high else cuts[0]


def unit_of_work(workload: str, seed: int, sizes):
    """Function of the pass index ``k`` that runs one pass on the inputs of
    ``workloads.pass_seed(seed, k)`` and returns a workloads.Pass.  Inputs
    never repeat within a run, and the first k passes of a run are the same
    for a seed however many passes fit in the time."""
    import workloads as wl
    if workload == "point_queries":
        latencies = array("d", bytes(8 * sizes.query_block))
        return lambda k: wl.query_pass(
            wl.make_queries(wl.pass_seed(seed, k), sizes.query_block), latencies)
    if workload == "eleven_sweep":
        return lambda k: wl.eleven_sweep_pass(wl.pass_seed(seed, k), sizes.sweep_samples)
    out_path = str(OUT_DIR / f"verify_{os.getpid()}.json")
    return lambda k: wl.verify_all_pass(wl.pass_seed(seed, k), sizes.verify_samples, out_path)


def run_untraced(workload: str, seed: int, seconds: float, sizes):
    """Timed passes until their wall time adds up to ``seconds`` and at
    least RESIDUAL_PASSES have run, with SETUP_RUNS set-up timings spread
    over the run; end-to-end metrics.  ``eleven_sweep`` first runs its
    headline pass of ``sizes.headline_samples`` on ``seed`` itself."""
    import numpy as np
    import workloads as wl
    setup = setup_timer(*wl.regular_pair(np.random.default_rng(seed)))
    setup()     # unmeasured: leaves compiled bytecode behind, as any earlier command would
    timed = unit_of_work(workload, seed, sizes)
    tally = wl.Tally()
    passes, setups = [], []
    busy = 0.0
    detail = ""
    if workload == "eleven_sweep":
        headline = wl.eleven_sweep_pass(seed, sizes.headline_samples, time_samples=False)
        tally.add(headline.tally)
        busy += headline.wall_s
        detail = (f"headline pass of {headline.tally.attempted} samples: "
                  f"{headline.tally.attempted / headline.wall_s:.6g} samples/s; ")
    while len(passes) < RESIDUAL_PASSES or busy < seconds:
        # set-ups are spread over the run, so that they see the same machine as the passes
        if len(setups) < SETUP_RUNS and busy >= len(setups) * seconds / SETUP_RUNS:
            setups.append(setup())
        passes.append(timed(len(passes)))
        tally.add(passes[-1].tally)
        busy += passes[-1].wall_s
    while len(setups) < SETUP_RUNS:
        setups.append(setup())
    rates = [p.tally.attempted / p.wall_s for p in passes]
    values = {
        "setup_s": statistics.median(setups),
        "samples_per_s": fast_end(rates, high=True),
        "query_p50_us": fast_end(p.latency_us[0] for p in passes),
        "query_p99_us": fast_end(p.latency_us[1] for p in passes),
        "residual_ratio": statistics.median(p.residual_ratio for p in passes[:RESIDUAL_PASSES]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail += (f"{len(passes)} passes of {passes[0].tally.attempted} ops; "
               f"median pass {statistics.median(rates):.6g} ops/s")
    return tally, values, detail, True


def run_traced(workload: str, seed: int, seconds: float, sizes):
    """Alternate untraced and traced runs of the first pass until ``seconds``
    have elapsed; per-layer metrics per op."""
    import workloads as wl
    from tracer import ERROR_KINDS, Tracer, span_names

    unit = unit_of_work(workload, seed, sizes)
    plain, traced, coverage = [], [], []
    self_s: dict[str, list[float]] = {s: [] for s in span_names()}
    first = None
    exact = True
    tally = wl.Tally()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        done = unit(0)
        plain.append(done.wall_s)
        tally.add(done.tally)
        tracer = Tracer()
        with tracer.installed():
            done = unit(0)
        traced.append(done.wall_s)
        tally.add(done.tally)
        ops = done.tally.attempted
        coverage.append(tracer.root_ns / 1e9 / done.wall_s)
        for span in self_s:
            self_s[span].append(tracer.self_ns[span] / 1e9 / ops)
        if first is None:
            first, first_tally = tracer.counts(), done.tally
        elif tracer.counts() != first or done.tally != first_tally:
            exact = False
    ops = first_tally.attempted
    values = {}
    for span in span_names():
        values[f"{span}.calls"] = first[f"{span}.calls"] / ops
        values[f"{span}.self_s"] = statistics.median(self_s[span])
        values[f"{span}.errors"] = first[f"{span}.errors"] / ops
    values["configurations.collinearity_residual.pairs"] = \
        first["configurations.collinearity_residual.pairs"] / ops
    for kind in (*ERROR_KINDS, "other"):
        values[f"errors.{kind}"] = first[f"errors.{kind}"] / ops
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    values["trace.coverage"] = statistics.median(coverage)
    values["run.skip_share"] = first_tally.skipped / ops
    values["run.failed_share"] = first_tally.failed / ops
    detail = f"{len(traced)} traced units of {ops} ops; counts exact: {exact}"
    return tally, values, detail, exact


def main(argv: list[str] | None = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.environ.update(SINGLE_THREAD)
    try:
        import_library()
    except (StartError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads as wl
    sizes = sizes or wl.Sizes()
    OUT_DIR.mkdir(exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        tally, values, detail, exact = run(args.workload, args.seed, args.seconds, sizes)
    finally:
        for leftover in OUT_DIR.glob(f"verify_{os.getpid()}.json"):
            leftover.unlink()
        if not any(OUT_DIR.iterdir()):
            OUT_DIR.rmdir()
    declared = per_layer_metrics() if args.trace else END_TO_END
    correct = tally.failed == 0 and exact
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {detail}")
    print(f"attempted={tally.attempted} failed={tally.failed} skipped={tally.skipped} "
          f"failed_share={tally.failed / tally.attempted:.6g} "
          f"skip_share={tally.skipped / tally.attempted:.6g}")
    for name, unit in declared:
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
