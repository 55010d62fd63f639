"""Tests of the benchmark itself: inputs, declared metrics, output checks.

Run with ``python3 -m pytest -q perfbench``.
"""

import json
import math
from array import array
from pathlib import Path

import pytest

import run

run.import_library()

import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from diskgeom import verify  # noqa: E402

TINY = wl.Sizes(headline_samples=50, sweep_samples=20, verify_samples=3, query_block=100)
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)], sizes=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


def test_query_generator_is_seeded_and_has_its_near_degenerate_share():
    requests = wl.make_queries(11, 3000)
    assert requests == wl.make_queries(11, 3000)
    assert requests != wl.make_queries(12, 3000)
    pairs = [r for r in requests if r[0] != "figure"]
    figures = [r for r in requests if r[0] == "figure"]
    near = [r for r in pairs if r[3] is not None]
    assert len(figures) == 3000 // wl.FIGURE_EVERY
    assert len(near) == round(wl.NEAR_SHARE * len(pairs))
    assert {r[3] for r in near} == set(wl.NEAR_KINDS)
    for _, a, b, kind in near:
        if kind == "collinear":
            assert abs((a * b.conjugate()).imag) <= 1e-4 * abs(a) * abs(b)
        elif kind == "moduli":
            assert abs(abs(a) - abs(b)) <= 1e-4 * abs(a)
        else:
            assert 1 - 1e-4 <= abs(a) < 1


def test_regular_and_near_pairs_pass_the_output_check():
    done = wl.query_pass(wl.make_queries(5, 600), array("d", bytes(8 * 600)))
    assert done.tally.attempted == 600 and done.tally.failed == 0
    assert 0 < done.tally.skipped < 0.1 * 600
    assert 0 < done.residual_ratio <= 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_exactly_the_declared_metrics(capsys, workload, trace):
    code, lines = _run(capsys, workload, trace)
    result = json.loads(lines[-1])
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_nan_residual_fails_the_run(capsys, monkeypatch):
    stub = verify._Check("disk_pair", 1e-8, lambda sample: math.nan)
    monkeypatch.setitem(verify.CHECKS, "eleven_points", stub)
    code, lines = _run(capsys, "eleven_sweep")
    result = json.loads(lines[-1])
    assert code == 1 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert "failed_share=1" in lines[1]


def test_diskgeom_tol_refuses_to_run(capsys, monkeypatch):
    monkeypatch.setenv("DISKGEOM_TOL", "1")
    code, lines = _run(capsys, "verify_all")
    assert code == 2 and lines == []


def test_traced_counts_repeat_and_tracer_restores_the_library():
    original = verify.SAMPLERS["disk_pair"]
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        with t.installed():
            assert verify.SAMPLERS["disk_pair"] is not original
            wl.eleven_sweep_pass(4, 25)
            wl.query_pass(wl.make_queries(4, 120), array("d", bytes(8 * 120)))
        counts.append(t.counts())
    assert verify.SAMPLERS["disk_pair"] is original
    assert counts[0] == counts[1]
    assert counts[0]["configurations.collinearity_residual.pairs"] >= 66 * 25
    assert counts[0]["configurations.eleven_points.calls"] > 25


def test_passes_draw_distinct_inputs_and_restore_the_checks():
    original = verify.CHECKS["eleven_points"]
    assert len({wl.pass_seed(s, k) for s in range(3) for k in range(1000)}) == 3000
    unit = run.unit_of_work("point_queries", 7, TINY)
    first, again, second = unit(0), unit(0), unit(1)
    assert first.residual_ratio == again.residual_ratio != second.residual_ratio
    done = wl.eleven_sweep_pass(wl.pass_seed(7, 0), 30)
    assert verify.CHECKS["eleven_points"] is original
    assert 0 < done.latency_us[0] <= done.latency_us[1] and 0 < done.residual_ratio < 1
