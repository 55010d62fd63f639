"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every criterion is an independent test; failures are real.
"""

import cmath
import math
import time

import numpy as np
import pytest

from diskgeom.euclid import line_intersection, scale_of
from diskgeom.hyperbolic import hyperbolic_midpoint, midpoint_via_inversion
from diskgeom.spherical import chordal_distance, gcis, gcis_roots, to_sphere
from diskgeom.configurations import (
    build_config,
    collinearity_residual,
    eleven_points,
    five_points_chordal,
    five_points_euclid,
    pq_family,
)
from diskgeom.figures import build_figure
from diskgeom.verify import default_spec, run_check, sample_disk_pair

FIG_TOL = 2e-3


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _coords_close(z: complex, xy: tuple[float, float],
                  tol: float = FIG_TOL) -> bool:
    return abs(z.real - xy[0]) <= tol and abs(z.imag - xy[1]) <= tol


def test_criterion_01_figure_1():
    start = time.perf_counter()
    a, b = 0.5 + 0j, 0.7 * cmath.exp(1j)
    cfg = build_config(a, b)
    k, s, t, u, v = five_points_euclid(cfg)
    m = hyperbolic_midpoint(a, b)
    expected = {"k": (k, (-1.396, -1.145)), "v": (v, (0.251, 0.206)),
                "m": (m, (0.381, 0.313)), "s": (s, (0.488, 0.400)),
                "u": (u, (0.613, 0.503)), "t": (t, (0.826, 0.677)),
                "a_star": (cfg.a_star, (2.0, 0.0)),
                "b_star": (cfg.b_star, (0.771, 1.202)),
                "a_end": (cfg.a_end, (0.933, -0.359)),
                "b_end": (cfg.b_end, (0.474, 0.880))}
    bad = [n for n, (z, xy) in expected.items() if not _coords_close(z, xy)]
    elapsed = time.perf_counter() - start
    _report("figure-1", not bad and elapsed < 1.0,
            f"mismatched={bad or 'none'} runtime={elapsed:.3f}s")


def test_criterion_02_figure_2():
    cfg = build_config(0.5 + 0j, 0.6 * cmath.exp(1j))
    kc, sc, tc, uc, vc = five_points_chordal(cfg)
    expected = [(kc, (-0.213, -0.143)), (sc, (0.541, 0.364)),
                (tc, (-0.541, -0.364)), (uc, (0.829, 0.557)),
                (vc, (0.213, 0.143))]
    coords_ok = all(_coords_close(z, xy) for z, xy in expected)
    identities = max(abs(abs(uc) - 1), abs(vc + kc), abs(tc + sc))
    _report("figure-2", coords_ok and identities <= 1e-9,
            f"coords_ok={coords_ok} identity_residual={identities:.2e}")


def test_criterion_03_figure_3():
    cfg = build_config(0.5 + 0j, 0.6 * cmath.exp(1j))
    p, q, pc, qc = pq_family(cfg)
    expected = [(p, (0.449, 0.467)), (q, (0.710, 0.738)),
                (pc, (0.524, 0.544)), (qc, (0.917, 0.953))]
    coords_ok = all(_coords_close(z, xy) for z, xy in expected)
    residual = collinearity_residual([0j, p, q, pc, qc])
    _report("figure-3", coords_ok and residual <= 1e-9,
            f"coords_ok={coords_ok} collinearity={residual:.2e}")


def test_criterion_04_figure_5():
    fig = build_figure(5)
    a, b = 0.5 * cmath.exp(0.6j), 0.7 * cmath.exp(6j)
    coords_ok = (_coords_close(fig.points["c"], (1.223, -1.211))
                 and _coords_close(fig.points["m"], (0.515, -0.001)))
    agreement = abs(midpoint_via_inversion(a, b) - hyperbolic_midpoint(a, b))
    _report("figure-5", coords_ok and agreement <= 1e-9,
            f"coords_ok={coords_ok} midpoint_agreement={agreement:.2e}")


def test_criterion_05_eleven_point_collinearity():
    start = time.perf_counter()
    spec = default_spec("eleven_points", 100_000, seed=20260823)
    report = run_check("eleven_points", spec)
    elapsed = time.perf_counter() - start
    _report("eleven-points-100k",
            report.max_residual <= 1e-8 and elapsed < 60.0,
            f"max_residual={report.max_residual:.2e} "
            f"evaluated={report.evaluated} runtime={elapsed:.1f}s")


def test_criterion_06_dual_path_equivalence():
    worst = 0.0
    for tid in ("explicit_formulas", "five_points_chordal", "pq_collinear"):
        report = run_check(tid, default_spec(tid, 10_000, seed=6))
        worst = max(worst, report.max_residual)
    # quadratic path vs brute-force circle-intersection oracle
    spec = default_spec("five_points_chordal", 10_000, seed=60)
    oracle_worst = 0.0
    for i in range(2_000):
        a, b = sample_disk_pair(spec, i)
        cfg = build_config(a, b)
        via_quad = five_points_chordal(cfg)
        pairs = ((cfg.a_end, cfg.a_star, cfg.b_end, cfg.b_star),
                 (a, cfg.b_end, b, cfg.a_end),
                 (cfg.a_end, cfg.b_star, cfg.b_end, cfg.a_star),
                 (a, cfg.b_star, b, cfg.a_star),
                 (a, cfg.a_end, b, cfg.b_end))
        for i, (z, args) in enumerate(zip(via_quad, pairs)):
            if i == 3:   # u_c and its antipode both lie on the unit circle:
                # the root on the side of its chords' line crossing
                u = line_intersection(*args).conjugate()
                w = max(gcis_roots(*args), key=lambda r: (r * u).real)
            else:
                w = gcis(*args)
            oracle_worst = max(oracle_worst, abs(z - w) / scale_of(z, w))
    ok = worst <= 1e-9 and oracle_worst <= 1e-9
    _report("dual-path", ok,
            f"closed_vs_synthetic={worst:.2e} quad_vs_oracle={oracle_worst:.2e}")


def test_criterion_07_midpoint_identities():
    r1 = run_check("midpoint_constructions",
                   default_spec("midpoint_constructions", 10_000, seed=7))
    r2 = run_check("midpoint_oracle",
                   default_spec("midpoint_oracle", 10_000, seed=7))
    ok = r1.max_residual <= 1e-9 and r2.max_residual <= 1e-9
    _report("midpoint-identities", ok,
            f"constructions={r1.max_residual:.2e} oracle={r2.max_residual:.2e}")


def test_criterion_08_chordal_midpoint():
    report = run_check("chordal_midpoint",
                       default_spec("chordal_midpoint", 10_000, seed=8))
    _report("chordal-midpoint", report.max_residual <= 1e-9,
            f"max_residual={report.max_residual:.2e} "
            f"evaluated={report.evaluated}")


def test_criterion_09_chordal_metric_isometry():
    rng = np.random.default_rng(9)
    worst = 0.0
    for i in range(100_000):
        re_im = rng.normal(0.0, 2.0, size=4)
        x = complex(re_im[0], re_im[1])
        y = complex(re_im[2], re_im[3])
        if i % 50 == 0:
            from diskgeom.spherical import INFINITY
            y = INFINITY
        r = abs(chordal_distance(x, y) - to_sphere(x).distance(to_sphere(y)))
        worst = max(worst, r)
    _report("chordal-isometry", worst <= 1e-12, f"max_residual={worst:.2e}")


def test_criterion_10_orthocenter_and_w():
    r1 = run_check("orthocenter_w2",
                   default_spec("orthocenter_w2", 10_000, seed=10))
    r2 = run_check("w_in_disk", default_spec("w_in_disk", 10_000, seed=10))
    ok = r1.max_residual <= 1e-8 and r2.max_residual <= 1e-9
    _report("orthocenter-w", ok,
            f"altitudes={r1.max_residual:.2e} w_on_geodesics={r2.max_residual:.2e}")


def test_criterion_11_conjecture_harness():
    report = run_check("conjecture", default_spec("conjecture", 10_000, seed=11))
    acceptance = report.evaluated / report.requested
    fig = build_figure(6)
    expected = {"g": (0.645, 1.624), "f": (0.589, 0.381), "m": (0.344, 0.222),
                "j": (0.487, 0.502), "k": (0.464, 0.338), "l": (0.400, -0.117),
                "h": (0.517, 0.711)}
    bad = [n for n, xy in expected.items()
           if not _coords_close(fig.points[n], xy)]
    ok = acceptance >= 0.9 and not bad
    _report("conjecture-harness", ok,
            f"acceptance={acceptance:.1%} figure6_mismatch={bad or 'none'} "
            f"max_residual={report.max_residual:.2e} (reported, not asserted)")
