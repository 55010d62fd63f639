"""Package-level checks: the public names, README's example, the imports and
what importing loads."""

import ast
import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diskgeom
from diskgeom import errors

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "diskgeom").glob("*.py")
                 if p.name != "__init__.py")          # __init__ re-exports on purpose


def test_every_public_name_resolves():
    assert [name for name in diskgeom.__all__ if not hasattr(diskgeom, name)] == []


def test_readme_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```pycon\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README.md", None, 0)
    report = []
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)


def _names_read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unused_imports(path: Path) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = _names_read(tree)
    return [name for name in bound if name not in read]


def _unused_private_names(path: Path) -> list[str]:
    """_-prefixed functions, classes and constants defined at module level
    that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [t.id for t in targets if isinstance(t, ast.Name)]
    read = _names_read(tree)
    return [name for name in bound if name.startswith("_")
            and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_its_private_names(path):
    assert _unused_private_names(path) == []


def _policy_breaches(path: Path) -> list[str]:
    """A float constant in (0, 1e-5) outside verify.CHECKS, or an OutsideDisk
    construction: the refusal policy's thresholds and its in-disk guard
    belong to errors.py alone."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    checks = set()                     # the nodes of verify's CHECKS table
    for node in tree.body if path.name == "verify.py" else []:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "CHECKS" for t in targets):
                checks |= {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < node.value < 1e-5 and id(node) not in checks):
            found.append(f"{path.name}:{node.lineno}: {node.value!r}")
        elif isinstance(node, ast.Call) and "OutsideDisk" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(f"{path.name}:{node.lineno}: OutsideDisk(")
    return found


def test_errors_py_alone_defines_tolerances_and_raises_outside_disk():
    paths = sorted((ROOT / "src" / "diskgeom").glob("*.py"))
    assert [site for p in paths if p.name != "errors.py" for site in _policy_breaches(p)] == []


def test_readme_tolerance_table_gives_each_threshold_of_errors_py_its_value():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Tolerances and refusals\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, re.MULTILINE)
    thresholds = {name: value for name, value in vars(errors).items()
                  if isinstance(value, float)}
    assert sorted(name for name, _ in rows) == sorted(thresholds)
    assert [(name, float(value)) for name, value in rows] \
        == [(name, thresholds[name]) for name, _ in rows]


# What the independent constructions must not read: the closed-form kernels,
# and every function built on them.
_CLOSED_FORMS = {"_moduli", "_line_family", "_chordal_family", "_pq_family",
                 "_line_points", "h_family", "h_vector", "eleven_points",
                 "family_points", "family_report", "five_points_euclid",
                 "five_points_chordal", "pq_family", "quadratic_root",
                 "midpoint_numerator", "midpoint_denominator", "hyperbolic_midpoint"}


def _closed_form_reads(path: Path) -> list[str]:
    """Names a module imports from configurations other than DiskConfig, and
    the closed forms it imports or reads as an attribute of any module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                name = alias.name.rsplit(".", 1)[-1]
                if name in _CLOSED_FORMS or name == "configurations" or (
                        module.endswith("configurations") and name != "DiskConfig"):
                    found.append(f"{module}.{alias.name}")
        elif isinstance(node, ast.Attribute) and node.attr in _CLOSED_FORMS:
            found.append(f"attribute {node.attr}")
    return found


def test_oracles_read_no_closed_form():
    assert _closed_form_reads(ROOT / "src" / "diskgeom" / "oracles.py") == []


# Everything but a sample draw runs without numpy; the first draw loads it.
_NUMPY_ON_FIRST_DRAW = """
import contextlib, io, sys
import diskgeom, diskgeom.cli
from diskgeom import run_check, SampleSpec
from diskgeom.configurations import eleven_points, family_report
from diskgeom.figures import FIGURE_IDS, build_figure, figure_svg
eleven_points(0.5, 0.7j)
family_report(0.5, 0.7j)
for fig_id in FIGURE_IDS:
    figure_svg(build_figure(fig_id))
with contextlib.redirect_stdout(io.StringIO()):
    assert diskgeom.cli.main(["points", "--a", "0.5", "--b", "0.7@1"]) == 0
    assert diskgeom.cli.main(["figure", "--id", "6", "--format", "svg"]) == 0
assert "numpy" not in sys.modules, "numpy loaded before any sample draw"
run_check("eleven_points", SampleSpec(count=1, seed=0))
assert "numpy" in sys.modules, "a sample draw ran without numpy"
"""


def _run_fresh(code: str) -> None:
    """Run code in a fresh interpreter that imports diskgeom from this tree."""
    src = str(Path(diskgeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_numpy_loads_on_the_first_sample_draw_only():
    _run_fresh(_NUMPY_ON_FIRST_DRAW)


# The package, the CLI and the point path load neither the harness nor figures;
# the modules loaded before `import diskgeom` (by site, say) do not count.
_POINT_PATH_FOOTPRINT = """
import contextlib, io, sys
before = set(sys.modules)
import diskgeom, diskgeom.cli
from diskgeom.configurations import eleven_points, family_report
eleven_points(0.5, 0.7j)
family_report(0.5, 0.7j)
heavy = {"diskgeom.verify", "diskgeom.oracles", "diskgeom.figures", "dataclasses",
         "json", "argparse", "numpy"}
assert not heavy & (set(sys.modules) - before), sorted(heavy & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    assert diskgeom.cli.main(["points", "--a", "0.5", "--b", "0.7@1"]) == 0
    assert diskgeom.cli.main(["figure", "--id", "6", "--format", "svg"]) == 0
assert not {"diskgeom.verify", "diskgeom.oracles"} & set(sys.modules), \
    "points or figure loaded the harness"
assert diskgeom.run_check is sys.modules["diskgeom.verify"].run_check
assert [name for name in diskgeom.__all__ if not hasattr(diskgeom, name)] == []
"""


def test_import_and_the_point_path_load_no_harness():
    _run_fresh(_POINT_PATH_FOOTPRINT)
