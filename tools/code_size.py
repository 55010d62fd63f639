"""Code size of Python modules: code lines and decision points, as JSON.

Code lines are the lines that hold a token other than a comment, with
docstrings (a string statement first in a module, class or function body)
excluded.  Decision points are if and elif branches, conditional
expressions, for and while loops, except handlers, comprehension clauses
(each for and each if), and each extra operand of and/or.

Usage: python tools/code_size.py [PATH ...]   (default: src/diskgeom)

A directory counts its *.py files.  The output maps each module to
{"code_lines", "decision_points"} and adds a "total" entry.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_BRANCHES = (ast.If, ast.IfExp, ast.For, ast.AsyncFor, ast.While, ast.ExceptHandler)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, docstrings excluded."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def decision_points(source: str) -> int:
    """Branches, loops, handlers, comprehension clauses and and/or operands."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BRANCHES):
            count += 1
        elif isinstance(node, ast.comprehension):
            count += 1 + len(node.ifs)
        elif isinstance(node, ast.BoolOp):
            count += len(node.values) - 1
    return count


def measure(paths: list[Path]) -> dict[str, dict[str, int]]:
    """Per-module sizes of the *.py files under paths, and their total."""
    files = []
    for path in paths:
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    sizes = {}
    for path in files:
        source = path.read_text(encoding="utf-8")
        sizes[str(path)] = {"code_lines": code_lines(source),
                            "decision_points": decision_points(source)}
    sizes["total"] = {key: sum(s[key] for s in sizes.values())
                      for key in ("code_lines", "decision_points")}
    return sizes


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    print(json.dumps(measure([Path(a) for a in args or ["src/diskgeom"]]), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
