"""The benchmark tracer's targets exist in the package.

perfbench/tracing.py wraps package functions by name when a workload runs
with --trace 1; a traced name that no longer resolves breaks that run. This
check loads the tracer's tables without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
TABLES = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(TABLES)


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _name, _post in TABLES.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,cls,meth", [(m, c, f) for m, c, f, _name in TABLES.METHODS])
def test_traced_method_resolves(module, cls, meth):
    assert callable(getattr(importlib.import_module(module), cls).__dict__[meth])
