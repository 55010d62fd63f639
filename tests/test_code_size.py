"""tools/code_size.py on a small module whose counts are known by hand."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_size.py"

SOURCE = '''"""Module docstring,
on two lines."""
import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    if x and os.sep or x:
        return [y for y in x if y]
    elif x:
        return 1 if x else 2
    for _ in x:
        while x:
            try:
                pass
            except ValueError:
                pass
    s = """a string,
not a docstring"""
    return s


class C:
    """Class docstring."""
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_size_counts_a_synthetic_module(tmp_path, capsys):
    tool = _tool()
    # import, def, if, return, elif, return, for, while, try, pass, except,
    # pass, both lines of s, return s and class: docstrings and comments drop
    assert tool.code_lines(SOURCE) == 16
    # if, and, or, the comprehension's for and its if, elif, the conditional
    # expression, for, while and except
    assert tool.decision_points(SOURCE) == 10
    (tmp_path / "m.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "n.py").write_text("x = 1\n", encoding="utf-8")
    assert tool.main([str(tmp_path)]) == 0
    sizes = json.loads(capsys.readouterr().out)
    assert sizes[str(tmp_path / "n.py")] == {"code_lines": 1, "decision_points": 0}
    assert sizes["total"] == {"code_lines": 17, "decision_points": 10}
