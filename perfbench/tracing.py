"""Span tracing of fiberframe layers, installed from outside the package.

The tracer wraps public functions of the package in place. A function that
other modules bind with ``from .x import y`` is replaced in every
``fiberframe`` module namespace that holds it, so calls through any of those
bindings are traced. Spans (name, parent, op id, start, end) stay in memory
in compact arrays and are written out once at the end.

Each span's self time is its duration minus the durations of its direct
child spans. Counters (iterations, rounds, samples, acceptances) are read
from the values the traced functions return.
"""

from __future__ import annotations

import sys
import time
from array import array

SETUP_OP = -1


def _report_iters(key):
    def post(tracer, args, kwargs, out):
        tracer.count(key, out[1].iterations)

    return post


def _project_post(tracer, args, kwargs, out):
    rep = out[1]
    tracer.count("flows.project_to_fiber.converged", int(rep.converged))
    if tracer.connect_accept_tol is not None:
        tracer.count("homotopy.project.calls", 1)
        tracer.count("homotopy.project.accepted", int(rep.final_residual <= tracer.connect_accept_tol))


def _connect_pre(tracer, args, kwargs):
    opts = args[3] if len(args) > 3 else kwargs.get("options")
    path_tol = opts.path_tol if opts is not None else 1e-8
    saved = tracer.connect_accept_tol
    tracer.connect_accept_tol = 0.5 * path_tol * path_tol
    return saved


def _connect_post(tracer, args, kwargs, out):
    tracer.count("homotopy.samples", len(out))


# (module, attribute, span name, post hook). A post hook sees the return value.
FUNCTIONS = [
    ("fiberframe.core", "as_frame_matrix", "core.as_frame_matrix", None),
    ("fiberframe.core", "norms_squared", "core.norms_squared", None),
    ("fiberframe._linalg", "as_complex_matrix", "linalg.as_complex_matrix", None),
    ("fiberframe._linalg", "frame_polar_isometry", "linalg.frame_polar_isometry", None),
    ("fiberframe._linalg", "psd_sqrt", "linalg.psd_sqrt", None),
    ("fiberframe._linalg", "unitary_log_factors", "linalg.unitary_log_factors", None),
    ("fiberframe.momentum", "is_regular_value", "momentum.is_regular_value", None),
    ("fiberframe.flows", "fiber_residual", "flows.fiber_residual", None),
    ("fiberframe.flows", "newton_refine", "flows.newton_refine", _report_iters("flows.newton_refine.iters")),
    (
        "fiberframe.flows",
        "alternate_projections",
        "flows.alternate_projections",
        _report_iters("flows.alternate_projections.rounds"),
    ),
    ("fiberframe.flows", "flow_to_fiber", "flows.flow_to_fiber", _report_iters("flows.flow_to_fiber.iters")),
    ("fiberframe.flows", "project_to_fiber", "flows.project_to_fiber", _project_post),
    ("fiberframe.homotopy", "connect", "homotopy.connect", _connect_post),
    ("fiberframe.homotopy", "validate_path", "homotopy.validate_path", None),
    ("fiberframe.design", "random_frame_on_fiber", "design.random_frame_on_fiber", None),
    ("fiberframe.design", "construct_frame", "design.construct_frame", None),
    ("fiberframe.design", "is_admissible", "design.is_admissible", None),
    ("fiberframe.fileio", "read_frame", "fileio.read_frame", None),
    ("fiberframe.fileio", "read_target", "fileio.read_target", None),
    ("fiberframe.fileio", "write_frame", "fileio.write_frame", None),
    ("fiberframe.fileio", "write_path", "fileio.write_path", None),
    ("fiberframe.cli", "main", "cli.main", None),
]

PRE_HOOKS = {"homotopy.connect": _connect_pre}

# FiberTarget is a class: its construction is traced through __post_init__,
# which the dataclass __init__ calls, so isinstance and classmethods still work.
METHODS = [("fiberframe.fiber", "FiberTarget", "__post_init__", "fiber.FiberTarget")]


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of fiberframe and scipy.linalg from `-X importtime` output."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2] in ("fiberframe", "scipy.linalg") and parts[1].isdigit():
            found[parts[2]] = int(parts[1]) * 1e-6
    return found


class Tracer:
    """In-memory span store plus per-scope aggregates (calls, inclusive and self seconds)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self.op = SETUP_OP
        self.connect_accept_tol = None
        # aggregates keyed by (scope, name); scope is "setup" or "ops"
        self.calls: dict[tuple, int] = {}
        self.total_s: dict[tuple, float] = {}
        self.self_s: dict[tuple, float] = {}
        self.counters: dict[tuple, float] = {}
        self._installed: list[tuple] = []

    @property
    def scope(self) -> str:
        return "setup" if self.op == SETUP_OP else "ops"

    def count(self, key: str, value) -> None:
        k = (self.scope, key)
        self.counters[k] = self.counters.get(k, 0) + value

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, post=None, pre=None):
        nid = self._id(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            entry = [idx, 0.0]
            stack.append(entry)
            saved = pre(tracer, args, kwargs) if pre is not None else None
            t0 = clock()
            tracer.span_start[idx] = t0
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if pre is not None:
                    tracer.connect_accept_tol = saved
                dur = t1 - t0
                tracer.span_end[idx] = t1
                if stack:
                    stack[-1][1] += dur
                key = (tracer.scope, name)
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.total_s[key] = tracer.total_s.get(key, 0.0) + dur
                tracer.self_s[key] = tracer.self_s.get(key, 0.0) + dur - entry[1]
            if post is not None:
                post(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target in every fiberframe module namespace that binds it."""
        if self._installed:
            return
        mods = [m for n, m in list(sys.modules.items()) if n == "fiberframe" or n.startswith("fiberframe.")]
        for modname, attr, name, post in FUNCTIONS:
            if modname not in sys.modules:
                continue
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, name, post, PRE_HOOKS.get(name))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for modname, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[meth]
            self._installed.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._installed):
            setattr(obj, key, original)
        self._installed = []

    def merge(self, summary: dict, op: int) -> None:
        """Fold in the summary() of a traced child process, as work of one op."""
        scope = "setup" if op == SETUP_OP else "ops"
        for table, attr in (("calls", self.calls), ("total_s", self.total_s), ("self_s", self.self_s), ("counters", self.counters)):
            for (s, name), value in summary[table]:
                if s == "ops":
                    attr[(scope, name)] = attr.get((scope, name), 0) + value
        base = len(self.span_start)
        for nm, parent, start, end in summary["spans"]:
            self.span_name.append(self._id(nm))
            self.span_parent.append(parent + base if parent >= 0 else -1)
            self.span_op.append(op)
            self.span_start.append(start)
            self.span_end.append(end)

    def summary(self) -> dict:
        """JSON-ready aggregates and spans (used by traced child processes)."""
        return {
            "calls": [[list(k), v] for k, v in self.calls.items()],
            "total_s": [[list(k), v] for k, v in self.total_s.items()],
            "self_s": [[list(k), v] for k, v in self.self_s.items()],
            "counters": [[list(k), v] for k, v in self.counters.items()],
            "spans": [
                [self.names[n], p, s, e]
                for n, p, s, e in zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ],
        }

    def write_spans(self, path) -> None:
        """Write all spans as one binary file (numpy .npz)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
