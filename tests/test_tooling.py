"""The benchmark tracer's targets exist in the package and its hooks read them.

perfbench/tracing.py wraps package functions by name when a workload runs
with --trace 1; a traced name that no longer resolves, or a return value its
post hooks cannot read, breaks that run. These checks load the tracer's
tables and call its hooks, install it once around one call (and uninstall
it), and check that importing the package loads every module the tracer
wraps. The last checks pin the package's export surface, keep every
public name documented and every module's imports read.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fiberframe
from fiberframe import ConnectOptions, FiberTarget, FlowOptions, connect, project_to_fiber, random_frame_on_fiber
from fiberframe.cli import main
from fiberframe.flows import newton_refine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(fiberframe.__file__).resolve().parent
TRACING = PERFBENCH / "tracing.py"
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


def test_tracer_nests_the_newton_alias_in_project_to_fiber():
    # the tracer wraps flows.newton_refine and flows.project_to_fiber by name.
    # newton_refine is an alias, so one call records a newton_refine span
    # inside its project_to_fiber span, and uninstall restores one function
    flows = importlib.import_module("fiberframe.flows")
    t = FiberTarget.funtf(2, 4)
    X = random_frame_on_fiber(t, seed=0) + 1e-3 * np.ones((2, 4))
    originals = (flows.project_to_fiber, flows.newton_refine, fiberframe.project_to_fiber)
    tracer = TABLES.Tracer()
    tracer.install()
    try:
        _F, rep = fiberframe.project_to_fiber(X, t, FlowOptions(tol=1e-20))
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.span_name]
    outer = [i for i, name in enumerate(names) if name == "flows.project_to_fiber"]
    inner = [i for i, name in enumerate(names) if name == "flows.newton_refine"]
    assert len(outer) == 1 and tracer.span_parent[outer[0]] == -1
    assert len(inner) == 1 and tracer.span_parent[inner[0]] == outer[0]
    assert rep.iterations > 0
    assert tracer.counters[(tracer.scope, "flows.newton_refine.iters")] == rep.iterations
    restored = (flows.project_to_fiber, flows.newton_refine, fiberframe.project_to_fiber)
    assert all(now is before for now, before in zip(restored, originals))


def test_newton_refine_is_an_alias_not_an_export():
    # the tracer's name for the Newton route; no wrapper, and not public
    assert importlib.import_module("fiberframe.flows").newton_refine is fiberframe.project_to_fiber
    assert "newton_refine" not in fiberframe.__all__


def test_public_names_have_docstrings():
    undocumented = [
        name
        for name in fiberframe.__all__
        if name != "__version__" and not (getattr(fiberframe, name).__doc__ or "").strip()
    ]
    assert undocumented == []


@pytest.mark.parametrize("entry", ["fiberframe", "fiberframe.cli"])
def test_import_loads_traced_modules(entry):
    # install() indexes sys.modules for every METHODS entry with no guard, so a
    # traced module that the import leaves unloaded breaks a --trace 1 run. The
    # CLI module is the one exception for `import fiberframe`: its FUNCTIONS
    # entry is skipped when unloaded, and the CLI child process imports it.
    traced = {m for m, _a, _n, _p in TABLES.FUNCTIONS} | {m for m, _c, _f, _n in TABLES.METHODS}
    expected = sorted(m for m in traced if entry == "fiberframe.cli" or m != "fiberframe.cli")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fiberframe.__file__)))
    code = f"import sys, {entry}; print(' '.join(m for m in {expected!r} if m not in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


def test_cli_import_loads_no_scipy():
    # the package needs numpy alone; one call is no reason to keep a dependency
    src = os.path.dirname(os.path.dirname(os.path.abspath(fiberframe.__file__)))
    code = "import sys, fiberframe.cli; print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


def test_exports_are_the_submodules_all():
    names = ("core", "errors", "fiber", "fileio", "flows", "equivalence", "homotopy", "momentum", "design")
    modules = [importlib.import_module(f"fiberframe.{name}") for name in names]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert len(fiberframe.__all__) == len(set(fiberframe.__all__))
    assert set(fiberframe.__all__) == set(declared) | {"__version__"}
    for module in modules:
        for name in module.__all__:
            assert getattr(fiberframe, name) is getattr(module, name), name


def test_momentum_export_is_the_function():
    # the function shares its submodule's name, and the package binds the function
    assert fiberframe.momentum is importlib.import_module("fiberframe.momentum").momentum


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_reads_every_import(path):
    # a name imported and never read is left over from a deleted caller;
    # __init__.py re-exports by design, and __future__ imports are directives
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


def test_cli_makes_no_numerical_decision():
    # the CLI reports the library's verdicts: a decision constant read there
    # is a second home for a rule that the library already decides
    constants = {"RANK_RTOL", "EIGEN_RTOL", "HERMITIAN_TOL", "CLUSTER_TOL", "CLUSTER_AMBIGUITY"}
    constants |= {"MAJORIZATION_TOL", "COINCIDE_RTOL"}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert sorted(named & constants) == []


def test_connect_has_no_new_knob(capsys):
    # connect chooses between its eigenstep route and its bridge by one rule
    # with constants in homotopy, not by an option: the option fields and the
    # connect command's flags stay as they are
    assert [f.name for f in fields(ConnectOptions)] == ["path_tol", "delta", "seed"]
    assert [f.name for f in fields(FlowOptions)] == ["max_iters", "tol"]
    with pytest.raises(SystemExit) as exc:
        main(["connect", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert sorted(set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out))) == ["--delta", "--help", "--out", "-h"]


def _callers(tree, name):
    # qualified names of the functions (Class.method for methods) that call name
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    found.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_admissibility_is_derived_where_a_certificate_is_first_needed():
    # a target derives its certificate once, at construction, and keeps it as
    # FiberTarget.admissibility; the CLI, connect and the constructors that
    # take a target read it. A new call of the test is a second derivation
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls |= {f"{path.stem}.{caller}" for caller in _callers(tree, "_admissibility")}
    assert sorted(calls) == [
        "design.construct_frame",
        "design.hermitian_with_diagonal",
        "design.is_admissible",
        "design.random_admissible_norms",
        "fiber.FiberTarget.__post_init__",
    ]
    for path in ("cli.py", "homotopy.py"):
        tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        assert sorted(imported & {"_admissibility", "is_admissible"}) == [], path


def test_flows_solves_its_normal_system_in_one_function():
    # _normal_preimage builds the system once and _solve solves it, for the
    # Newton step and for its second-order correction; a new right-hand side
    # or shift extends that solve instead of adding another LU site
    tree = ast.parse((SRC / "flows.py").read_text(encoding="utf-8"))
    assert _callers(tree, "solve") == {"_solve"}
    assert _callers(tree, "lstsq") == {"_solve"}


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling modules by bare name, as run.py's worker does
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("seed,steps", [(27, 75), (29, 66), (79, 95)])
def test_cli_setup_polishes_past_sixty_newton_steps(workloads, seed, steps, tmp_path, monkeypatch):
    # at these seeds one polish in random_frame_on_fiber needs more than 60
    # Newton steps; FlowOptions.max_iters alone bounds it, so the set-up builds
    polishes = []
    newton = fiberframe.design._newton

    def counted(F, target, options):
        out = newton(F, target, options)
        polishes.append(out)
        return out

    monkeypatch.setattr(fiberframe.design, "_newton", counted)
    workloads.Cli(fiberframe, seed, tmp_path, smoke=False)
    # _newton returns (frames, phi, iterations, trace, stalled) of a stack of one
    assert all(phi[0] <= 1e-26 for _F, phi, _iters, _trace, _stalled in polishes)
    assert max(iters[0] for _F, _phi, iters, _trace, _stalled in polishes) == steps


def test_repair_newton_inputs_take_two_newton_steps(workloads, tmp_path):
    # every repair-newton input (1e-2 perturbations of constructed frames on
    # generic targets at (4,16), (8,64) and (16,128)) reaches 1e-20 in 2
    # steps of project_to_fiber, where the plain Newton step takes 3
    from fiberframe.flows import _normal_preimage, _repair

    work = workloads.RepairNewton(fiberframe, 1, tmp_path, smoke=False)
    opts = FlowOptions(tol=1e-20)
    for shape, pool in work.inputs.items():
        for _S, _r, target, X in pool:
            _F, rep = project_to_fiber(X, target, opts)
            _G, plain = _repair("newton", X, target, opts, _normal_preimage)
            assert (rep.status, rep.iterations, plain.status, plain.iterations) == ("converged", 2, "converged", 3), shape


def test_connect_k2_ops_take_the_eigenstep_route(workloads, tmp_path):
    # every connect-k2 op samples the eigenstep segment: no projection, at
    # most 1 + _EXTRA_DEPTH sampling rounds, and the workload's own oracle
    # passes; the workload then measures the sampler, not the bridge
    work = workloads.ConnectK2(fiberframe, 1, tmp_path, smoke=False)
    for i in range(len(work.pairs)):
        path = work.op(i)
        assert (path.report.route, path.report.projections) == ("eigensteps", 0), i
        assert path.report.levels <= 1 + fiberframe.homotopy._EXTRA_DEPTH, i
        assert work.check(i, path) is None, i
