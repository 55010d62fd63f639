"""Command-line front end.

Subcommands:
  points      compute every named point of a configuration
  verify      run the randomized theorem checks
  conjecture  run the equal-distance conjecture sweep (report only)
  figure      reproduce a labeled figure as JSON or SVG

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or validation error.  Complex literals accept R, A+Bi, A-Bi, and
polar R@T with T in radians.  verify's --tol is the one override of a
check's default tolerance.
"""

from __future__ import annotations

import argparse
import cmath
import json
import re
import sys

from .errors import GeometryError
from .configurations import collinearity_residual, family_report
from .figures import (
    FIGURE_IDS,
    build_figure,
    figure_json,
    figure_svg,
    format_complex,
)
from .hyperbolic import conjecture_points
from .verify import (
    CHECKS,
    conjecture_inputs,
    default_spec,
    run_check,
    sample_circle_quadruple,
)

_COMPLEX_RE = re.compile(
    r"""^\s*(?P<re>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
        (?:(?P<im>[+-]\d*(?:\.\d*)?(?:[eE][+-]?\d+)?)i
          |@(?P<arg>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?))?\s*$""",
    re.VERBOSE)


def parse_complex(text: str) -> complex:
    """Parse R, A+Bi / A-Bi, or polar R@T (radians)."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse complex literal {text!r}")
    real = float(m.group("re"))
    if m.group("arg") is not None:
        return cmath.rect(real, float(m.group("arg")))
    if m.group("im") is not None:
        imag_text = m.group("im")
        if imag_text in ("+", "-"):
            imag_text += "1"
        return complex(real, float(imag_text))
    return complex(real, 0.0)


def cmd_points(args: argparse.Namespace) -> int:
    try:
        a = parse_complex(args.a)
        b = parse_complex(args.b)
        points, statuses, residual = family_report(a, b)
    except (ValueError, GeometryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    pq = [points[n] for n in ("p", "q", "p_c", "q_c")]
    report = {
        "input": {
            "a": {"cartesian": format_complex(a),
                  "polar": f"{abs(a):.17g}@{cmath.phase(a):.17g}"},
            "b": {"cartesian": format_complex(b),
                  "polar": f"{abs(b):.17g}@{cmath.phase(b):.17g}"},
        },
        "points": {name: [z.real, z.imag] for name, z in points.items()},
        "status": statuses,
        "collinearity_residual_h_family": residual,
        "collinearity_residual_pq": collinearity_residual([0j, *pq]),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_verify(args: argparse.Namespace) -> int:
    ids = list(CHECKS) if args.theorem == "all" else [args.theorem]
    unknown = [t for t in ids if t not in CHECKS]
    if unknown:
        return _usage_error(f"unknown theorem id(s) {unknown}; "
                            f"known: {', '.join(CHECKS)} or 'all'")
    if args.samples < 1:
        return _usage_error(f"--samples must be >= 1, got {args.samples}")
    if args.tol is not None and not args.tol >= 0:
        return _usage_error(f"--tol must be >= 0, got {args.tol}")
    reports = []
    all_passed = True
    for tid in ids:
        report = run_check(tid, default_spec(tid, args.samples, args.seed), args.tol)
        reports.append(report.to_dict())
        flag = "PASS" if report.passed else "FAIL"
        print(f"{flag} {tid}: max_residual={report.max_residual:.3e} "
              f"tol={report.tolerance:.1e} "
              f"({report.evaluated}/{report.requested} samples)")
        all_passed = all_passed and report.passed
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2)
    return 0 if all_passed else 1


def cmd_conjecture(args: argparse.Namespace) -> int:
    if args.samples < 1:
        return _usage_error(f"--samples must be >= 1, got {args.samples}")
    spec = default_spec("conjecture", args.samples, args.seed)
    report = run_check("conjecture", spec)
    doc = report.to_dict()
    if args.samples == 1:
        # echo the full derived configuration of the single sample
        inputs = conjecture_inputs(sample_circle_quadruple(spec, 0))
        doc["sample"] = {
            name: [z.real, z.imag] for name, z in
            zip("abcdhgjkl", (*inputs, *conjecture_points(*inputs)))
        }
    flagged = report.max_residual > 1e-6
    doc["possible_counterexample"] = flagged
    print(json.dumps(doc, indent=2))
    if flagged:
        print(f"NOTE: max residual {report.max_residual:.3e} is large; "
              "inspect worst_input", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.id not in FIGURE_IDS:
        return _usage_error(f"unknown figure id {args.id}; valid: {FIGURE_IDS}")
    fig = build_figure(args.id)
    text = figure_json(fig) if args.format == "json" else figure_svg(fig)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskgeom",
        description="Unit-disk / Riemann-sphere intersection-point kernel")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", help="compute all named points for (a, b)")
    p.add_argument("--a", required=True, help="complex literal, e.g. 0.5 or 0.7@1.0")
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_points)

    v = sub.add_parser("verify", help="run randomized theorem checks")
    v.add_argument("--theorem", required=True,
                   help=f"one of: {', '.join(CHECKS)}, or 'all'")
    v.add_argument("--samples", type=int, default=10000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("conjecture", help="equal-distance conjecture sweep")
    c.add_argument("--samples", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_conjecture)

    f = sub.add_parser("figure", help="reproduce a labeled figure")
    f.add_argument("--id", type=int, required=True)
    f.add_argument("--format", choices=("json", "svg"), default="json")
    f.add_argument("--out", default=None)
    f.set_defaults(fn=cmd_figure)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # points' `--a X` as `--a=X`: argparse reads an X such as -0.4+0.1i as an option
    for i in range(len(argv) - 1, 0, -1):
        if argv[0] == "points" and argv[i - 1] in ("--a", "--b"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GeometryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
