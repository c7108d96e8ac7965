"""One benchmark process: import fiberframe, make the inputs, run the closed loop.

Launched by run.py with BLAS threads pinned and src/ on PYTHONPATH. Prints
"READY" once the inputs exist (run.py times set-up up to that line), then
does the workload's harness-only input checks (prepare), runs, and prints one
"RESULT <json>" line. With --trace 1 it runs one pass of ops untraced and the
same pass traced, and reports per-layer metrics over the traced pass.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time

import tracing

# The loop runs at least this many ops, so that ten lie beyond the 75th percentile.
MIN_OPS = 40

# Layers whose work is making inputs: their counts cover set-up and the pass.
# Every other layer counts the ops of the pass only.
SETUP_LAYERS = (
    "design.random_frame_on_fiber",
    "design.construct_frame",
    "design.is_admissible",
    "fiber.FiberTarget",
    "momentum.is_regular_value",
)
TIMED_LAYERS = (
    "core.as_frame_matrix",
    "linalg.as_complex_matrix",
    "core.norms_squared",
    "flows.fiber_residual",
    "flows.newton_refine",
    "flows.alternate_projections",
    "linalg.frame_polar_isometry",
    "linalg.psd_sqrt",
    "flows.project_to_fiber",
    "flows.flow_to_fiber",
    "linalg.unitary_log_factors",
) + SETUP_LAYERS


def layer_metrics(tracer, samples, pass_ops, overhead_s) -> dict:
    def get(table, name, scopes=("ops",)):
        return sum(table.get((s, name), 0) for s in scopes)

    def scopes(layer):
        return ("setup", "ops") if layer in SETUP_LAYERS else ("ops",)

    c, t = tracer.calls, tracer.total_s
    m = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.calls"] = get(c, layer, scopes(layer))
        m[f"{layer}.s"] = get(t, layer, scopes(layer))
    cnt = tracer.counters
    m["flows.newton_refine.iters"] = get(cnt, "flows.newton_refine.iters")
    m["flows.alternate_projections.rounds"] = get(cnt, "flows.alternate_projections.rounds")
    m["flows.flow_to_fiber.iters"] = get(cnt, "flows.flow_to_fiber.iters")
    projects = m["flows.project_to_fiber.calls"]
    m["flows.project_to_fiber.converged_ratio"] = get(cnt, "flows.project_to_fiber.converged") / projects if projects else 0.0
    m["homotopy.connect.calls"] = get(c, "homotopy.connect")
    m["homotopy.connect.self_s"] = get(tracer.self_s, "homotopy.connect")
    attempts = get(cnt, "homotopy.project.calls")
    m["homotopy.project.calls"] = attempts
    m["homotopy.project.accept_ratio"] = get(cnt, "homotopy.project.accepted") / attempts if attempts else 0.0
    m["homotopy.samples"] = get(cnt, "homotopy.samples")
    m["homotopy.validate_path.s"] = get(t, "homotopy.validate_path")
    for name in ("fileio.read_frame", "fileio.read_target", "fileio.write_frame", "fileio.write_path", "cli.main"):
        m[f"{name}.s"] = get(t, name)
    # per-process figures of the CLI children: median over the traced pass
    for key in ("cli.startup_s", "import.fiberframe_s", "import.scipy_linalg_s"):
        m[key] = statistics.median(samples[key]) if samples.get(key) else 0.0
    m["trace.pass_ops"] = pass_ops
    m["trace.overhead_s"] = overhead_s
    return m


class Reference:
    """A fixed unit of small dense linear algebra driven from Python, timed next to every op.

    On a shared 2-vCPU sandbox the speed of the same work drifts by up to 2x
    within seconds, which moves every op time with it. run.py divides each
    op time by the local reference time, so the reported times are seconds
    on a machine where one reference unit takes REFERENCE_S.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        g = np.random.default_rng(0)
        self.A = g.standard_normal((4, 16)) + 1j * g.standard_normal((4, 16))
        B = g.standard_normal((48, 48))
        self.B = B + B.T

    def seconds(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(10):
            U, s, Vh = np.linalg.svd(self.A, full_matrices=False)
            C = (U * s) @ Vh
            bool(np.all(np.isfinite(C)))
            C @ C.conj().T
        np.linalg.eigh(self.B)
        return time.perf_counter() - t0


class PeakRss(threading.Thread):
    """Largest resident set of this process while running, sampled every 10 ms."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak = 0
        self._done = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _rss(self) -> int:
        with open("/proc/self/statm", encoding="ascii") as f:
            return int(f.read().split()[1]) * self._page

    def run(self):
        while not self._done.wait(0.01):
            self.peak = max(self.peak, self._rss())

    def stop(self) -> float:
        self._done.set()
        self.join()
        return max(self.peak, self._rss()) / 2**20


def release_free_memory() -> None:
    """Hand freed heap pages back to the OS (glibc), so the loop's RSS starts from live data.

    Set-up sometimes runs Newton inside random_frame_on_fiber, and the pages
    it freed would otherwise stay resident and set the loop's peak.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def run_op(wl, i, traced, failures):
    """Run op i; returns (seconds, output or None if it failed).

    A raised error is recorded as kind "error", an output that fails its check
    as kind "wrong".
    """
    clock = time.perf_counter
    t0 = clock()
    try:
        out = wl.op(i, traced)
    except Exception as exc:  # any error of an op is a failed op; the loop goes on
        dt = clock() - t0
        failures.append(["error", f"op {i}: {type(exc).__name__}: {exc}"])
        return dt, None
    dt = clock() - t0
    reason = wl.check(i, out)
    if reason:
        failures.append(["wrong", f"op {i}: {reason}"])
        return dt, None
    return dt, out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness smoke test")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args()

    import fiberframe as ff

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(ff.__file__).startswith(src + os.sep):
        print(f"fiberframe was imported from {ff.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workdir = os.path.join(args.out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ff, args.seed, workdir, args.smoke)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if hasattr(wl, "prepare"):
            wl.prepare()
        failures: list[str] = []
        result = {"failures": failures}
        if hasattr(wl, "rejected"):
            result["inputs_rejected"] = [wl.rejected, wl.drawn]
        if tracer is None:
            run_op(wl, 0, False, failures)  # warm-up, untimed
            ref = Reference()
            times, refs = [], []
            release_free_memory()
            rss = PeakRss()
            rss.start()
            begin = time.perf_counter()
            i = 0
            # whole cycles only, so every run holds the input classes in the same proportions
            while len(times) < MIN_OPS or len(times) % wl.cycle_len or time.perf_counter() - begin < args.seconds:
                refs.append(ref.seconds())
                dt, _out = run_op(wl, i, False, failures)
                times.append(dt)
                i += 1
            refs.append(ref.seconds())
            peak = rss.stop()
            result["times"] = times
            result["refs"] = refs
            result["attempted"] = len(times) + 1
            # the CLI's memory is that of its processes, not of this one
            children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            result["peak_rss_mb"] = children if args.workload == "cli" else peak
        else:
            tracer.uninstall()
            untraced = sum(run_op(wl, i, False, failures)[0] for i in range(wl.pass_ops))
            tracer.install()
            samples: dict[str, list] = {}
            traced = 0.0
            for i in range(wl.pass_ops):
                tracer.op = i
                dt, out = run_op(wl, i, True, failures)
                traced += dt
                if out is not None and hasattr(wl, "collect"):
                    wl.collect(i, out, dt, tracer, samples)
            tracer.uninstall()
            result["attempted"] = 2 * wl.pass_ops
            result["per_layer"] = layer_metrics(tracer, samples, wl.pass_ops, traced - untraced)
            tracer.write_spans(os.path.join(args.out_dir, f"spans-{args.workload}.npz"))
        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "fiberframe": ff.__version__,
        }
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
