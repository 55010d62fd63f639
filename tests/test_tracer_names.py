"""Every function that perfbench/tracer.py traces exists in diskgeom.

Tracer.installed() looks each listed name up with getattr, so a renamed or
deleted function breaks every traced benchmark run; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.TRACED.items() for name in names]


@pytest.mark.parametrize("module,name", _traced())
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"diskgeom.{module}"), name))
