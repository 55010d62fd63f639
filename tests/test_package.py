"""Package-level checks: the public names, README's example and the imports."""

import ast
import doctest
import re
from pathlib import Path

import pytest

import diskgeom

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


def _unused_imports(path: Path) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path) == []
