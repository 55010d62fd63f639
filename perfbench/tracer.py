"""Span tracer for diskgeom's public functions, installed from outside the package.

The tracer replaces each listed function, wherever a diskgeom module (or a
dict registry such as ``verify.SAMPLERS``) holds a reference to it, with a
wrapper that records one span per call.  ``Tracer.installed()`` restores the
originals on exit, so an untraced run in the same process sees the library
unchanged.

Per span name the tracer keeps exact counts (calls, typed errors) and the
self time: the span's duration minus the time covered by its child spans.
A ``GeometryError`` is counted once, at the innermost traced function it
escapes from.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter
from typing import Callable, Iterator

from diskgeom.errors import GeometryError

TRACED: dict[str, tuple[str, ...]] = {
    "verify": ("sample_disk_pair", "sample_circle_quadruple", "sample_lens_pair",
               "run_check", "midpoint_oracle"),
    "configurations": ("build_config", "five_points_euclid", "five_points_chordal",
                       "pq_family", "eleven_points", "family_report",
                       "collinearity_residual"),
    "hyperbolic": ("hyperbolic_midpoint", "geodesic_endpoints", "midpoint_via_lens",
                   "midpoint_via_inversion", "rho", "mobius_T"),
    "spherical": ("gcis", "gcis_roots", "gcis_quadratic_solve",
                  "great_circle_projection", "gencircle_from_pair_intersection",
                  "chordal_midpoint"),
    "euclid": ("line_intersection", "orthocenter"),
    "figures": ("build_figure", "figure_svg"),
    "cli": ("main",),
}

# Functions with two evaluation paths get one span per path: (default, other).
PATHS: dict[str, tuple[str, str]] = {
    "five_points_euclid": ("closed_form", "synthetic"),
    "five_points_chordal": ("quadratic", "gcis"),
    "pq_family": ("closed_form", "synthetic"),
}

# GeometryError subclasses the benchmark inputs can reach; others are "other".
ERROR_KINDS = ("ZeroPoint", "OutsideDisk", "CoincidentPoints", "CollinearWithOrigin",
               "DegenerateDenominator", "NearBoundary", "EqualModuli",
               "NoInDiskRoot", "PointOutsideDisk")


def span_names() -> list[str]:
    """Every span name the tracer can record, in a fixed order."""
    names = []
    for module, funcs in TRACED.items():
        for func in funcs:
            if func in PATHS:
                names.extend(f"{module}.{func}.{p}" for p in PATHS[func])
            else:
                names.append(f"{module}.{func}")
    return names


class Tracer:
    """Span recorder; one instance per traced unit of work."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.error_kinds: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.pairs = 0          # n(n-1)/2 over collinearity_residual calls
        self.root_ns = 0        # time covered by outermost spans
        self._stack: list[list[int]] = []

    def _wrap(self, name: str, fn: Callable, path_default: str | None) -> Callable:
        stack, clock = self._stack, time.perf_counter_ns
        count_pairs = name == "configurations.collinearity_residual"

        def traced(*args, **kwargs):
            span = name
            if path_default is not None:
                span = f"{name}.{kwargs.get('path', args[1] if len(args) > 1 else path_default)}"
            if count_pairs:
                n = len(args[0] if args else kwargs["points"])
                self.pairs += n * (n - 1) // 2
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except GeometryError as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.errors[span] += 1
                    kind = type(exc).__name__
                    self.error_kinds[kind if kind in ERROR_KINDS else "other"] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_ns += duration
                self.calls[span] += 1
                self.self_ns[span] += duration - frame[0]

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every reference to the traced functions; restore on exit."""
        replacements: dict[int, Callable] = {}
        for module, funcs in TRACED.items():
            mod = sys.modules[f"diskgeom.{module}"]
            for func in funcs:
                original = getattr(mod, func)
                default = PATHS[func][0] if func in PATHS else None
                replacements[id(original)] = self._wrap(f"{module}.{func}", original, default)
        undo: list[tuple[object, str, object]] = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "diskgeom" and not mod_name.startswith("diskgeom."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, replacements[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replacements:
                            undo.append((value, key, item))
                            value[key] = replacements[id(item)]
        try:
            yield self
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def counts(self) -> dict[str, int]:
        """Exact counters, for comparing two traced runs of the same input."""
        out = {f"{s}.calls": self.calls[s] for s in span_names()}
        out.update({f"{s}.errors": self.errors[s] for s in span_names()})
        out.update({f"errors.{k}": self.error_kinds[k] for k in (*ERROR_KINDS, "other")})
        out["configurations.collinearity_residual.pairs"] = self.pairs
        return out
