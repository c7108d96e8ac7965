"""The benchmark tracer's targets exist in the package and its hooks read them.

perfbench/tracing.py wraps package functions by name when a workload runs
with --trace 1; a traced name that no longer resolves, or a return value its
post hooks cannot read, breaks that run. These checks load the tracer's
tables and call its hooks without installing anything. A last check keeps
every public name of the package documented.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import fiberframe
from fiberframe import FiberTarget, FlowOptions, connect, newton_refine, project_to_fiber, random_frame_on_fiber

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


def test_post_hooks_read_real_returns():
    # a return shape the hooks no longer understand fails here, not in a traced run
    t = FiberTarget.funtf(2, 4)
    F0, F1 = random_frame_on_fiber(t, seed=0), random_frame_on_fiber(t, seed=1)
    X = F0 + 1e-3 * np.ones_like(F0)
    projected = project_to_fiber(X, t, FlowOptions(tol=1e-20))
    refined = newton_refine(X, t, FlowOptions(tol=1e-20))
    path = connect(F0, F1, t)
    tracer = TABLES.Tracer()
    TABLES._project_post(tracer, (), {}, projected)
    tracer.connect_accept_tol = 0.5e-16
    TABLES._project_post(tracer, (), {}, projected)
    TABLES._report_iters("flows.newton_refine.iters")(tracer, (), {}, refined)
    TABLES._connect_post(tracer, (), {}, path)
    counts = {name: value for (_scope, name), value in tracer.counters.items()}
    assert counts["flows.project_to_fiber.converged"] == 2
    assert counts["homotopy.project.calls"] == 1
    assert counts["homotopy.project.accepted"] == 1
    assert counts["flows.newton_refine.iters"] == refined[1].iterations
    assert counts["homotopy.samples"] == len(path)


def test_public_names_have_docstrings():
    undocumented = [
        name
        for name in fiberframe.__all__
        if name != "__version__" and not (getattr(fiberframe, name).__doc__ or "").strip()
    ]
    assert undocumented == []
