#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json over ten seeds and summarise.

    python3 perfbench/collect.py --out perfbench/BENCH_seed.json

For each workload this makes one untraced run per seed (seeds 1..10) and
reports, per end-to-end metric, the median, the quartiles and the spread
(quartile distance over median) next to a third of the metric's bound.
It then makes two traced runs with seed 1 and checks that every count
(``*.calls``, ``*.errors``, ``errors.*``, ``*.pairs``) repeats exactly.
With ``--out`` it writes all of it, with the machine, the versions and
whether every check held, as JSON.  Exits 1 when any run fails, any
spread (``setup_s`` included) reaches a third of its bound, or a count
differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
COUNT_SUFFIXES = (".calls", ".errors", ".pairs")
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3, "values": values}


def is_count(name: str) -> bool:
    return name.startswith("errors.") or name.endswith(COUNT_SUFFIXES)


def versions() -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"versions": versions(), "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        entry = {"end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs], bound)
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["steady"] else "WIDE"
            ok = ok and stats["steady"]
            print(f"{workload:14s} {name:14s} median={stats['median']:.6g} "
                  f"spread={stats['spread']:.4f} bound/3={bound / 3:.4f} {flag}")
        entry["failed"] = sum(r["failed"] for r in runs)
        ok = ok and entry["failed"] == 0 and all(r["correct"] for r in runs)
        first, second = (run_once(workload, 1, seconds, 1) for _ in range(2))
        counts = {k: v["value"] for k, v in first["metrics"].items() if is_count(k)}
        same = all(second["metrics"][k]["value"] == v for k, v in counts.items())
        ok = ok and same
        entry["per_layer"] = {k: v["value"] for k, v in first["metrics"].items()}
        entry["counts_repeat_exactly"] = same
        print(f"{workload:14s} traced counts repeat exactly: {same}")
        doc["workloads"][workload] = entry
    doc["all_checks_held"] = ok
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
