"""fiberframe benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its src/.
Workloads: connect-k2, repair-newton, repair-alt, cli (see BENCHMARK.json
for why each exists). Every process this script launches gets
OPENBLAS_NUM_THREADS (and the other BLAS thread variables) pinned to 1.

--trace 0 runs set-up SETUP_REPEATS times (the middle one in the measuring
process, which then runs the closed loop for --seconds); it prints setup_s
(median over the set-ups), ops_per_s, op_s.p50, op_s.p75, peak_rss_mb, and
fail_frac on the summary line. Op times are scaled to a nominal machine
speed measured by a reference unit timed before every op (see
worker.Reference); the summary line also shows the unscaled figures.
--trace 1 runs one fixed pass of ops untraced and then traced, and prints
the per-layer metrics of the traced pass, unscaled.

The line "computed [...]" names every metric the run computed; the last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"} with the metrics BENCHMARK.json lists. Spans of a traced run go
to .perfbench/spans-<workload>.npz and the machine description to
.perfbench/env.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from tracing import parse_importtime

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("connect-k2", "repair-newton", "repair-alt", "cli")
BLAS_THREADS = "1"
SETUP_REPEATS = 5
DEADLINE_S = 170.0
TAIL_PERCENTILE = 75
# Nominal duration of one worker.Reference unit: op times are rescaled to a
# machine on which the unit takes this long (about the 2-vCPU Xeon sandbox
# the benchmark was defined on).
REFERENCE_S = 1.0e-3


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" when it is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_worker(args, deadline, setup_only=False):
    """Launch one worker; returns (setup seconds, result dict or None, worker stderr)."""
    cmd = [sys.executable]
    if args.trace and not setup_only:
        cmd += ["-X", "importtime"]
    cmd += [
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT_DIR,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    with tempfile.TemporaryFile(mode="w+", dir=OUT_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        setup_s, result = None, None
        try:
            for line in proc.stdout:
                if line == "READY\n":
                    setup_s = time.perf_counter() - t0
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    if proc.returncode != 0 or setup_s is None or (result is None and not setup_only):
        sys.stderr.write(stderr[-4000:])
        raise RuntimeError(f"worker for {args.workload} exited {proc.returncode}")
    return setup_s, result, stderr


def quantile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness smoke test")
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "fiberframe", "__init__.py")):
        print(f"no fiberframe package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        # set-ups before and after the measuring process, so that the median
        # spans the run rather than one few-second stretch of machine speed
        extra = 0 if args.trace else SETUP_REPEATS - 1
        setups = [run_worker(args, deadline, setup_only=True)[0] for _ in range(extra // 2)]
        setup_s, res, stderr = run_worker(args, deadline)
        setups.append(setup_s)
        setups += [run_worker(args, deadline, setup_only=True)[0] for _ in range(extra - extra // 2)]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    failed = len(res["failures"])
    attempted = res["attempted"]
    wrong = sum(kind == "wrong" for kind, _ in res["failures"])
    for kind, reason in res["failures"][:20]:
        print(f"FAILED ({kind}) {reason}", file=sys.stderr)

    if args.trace:
        metrics = res["per_layer"]
        if args.workload != "cli":
            for module, secs in parse_importtime(stderr).items():
                metrics[f"import.{module.replace('.', '_')}_s"] = secs
        specs = bench["per_layer"]
    else:
        times = res["times"]
        refs = res["refs"]
        # op i ran between reference units i and i + 1; the median of the
        # units around it gives the machine's speed at that moment
        scaled = [
            t * REFERENCE_S / statistics.median(refs[max(0, i - 3): i + 5]) for i, t in enumerate(times)
        ]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(scaled) / sum(scaled),
            "op_s.p50": statistics.median(scaled),
            f"op_s.p{TAIL_PERCENTILE}": quantile(scaled, TAIL_PERCENTILE),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        raw = {
            "raw_ops_per_s": len(times) / sum(times),
            "raw_op_s.p50": statistics.median(times),
            f"raw_op_s.p{TAIL_PERCENTILE}": quantile(times, TAIL_PERCENTILE),
            "reference_s": statistics.median(refs),
        }
        beyond = sum(t > metrics[f"op_s.p{TAIL_PERCENTILE}"] for t in scaled)
        if beyond < 10:
            print(f"warning: only {beyond} ops beyond p{TAIL_PERCENTILE} ({len(times)} ops)", file=sys.stderr)
        rejected = "rejected_inputs={}/{} ".format(*res["inputs_rejected"]) if "inputs_rejected" in res else ""
        print(
            f"{args.workload} seed={args.seed} ops={len(times)} fail_frac={failed / attempted:.4g} {rejected}"
            + " ".join(f"{k}={v:.6g}" for k, v in {**metrics, **raw}.items())
        )
        specs = bench["end_to_end"]

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        **res["versions"],
    }
    with open(os.path.join(OUT_DIR, "env.json"), "w", encoding="utf-8") as f:
        json.dump(env, f, indent=1)
    print("env " + json.dumps(env))

    print("computed " + json.dumps(sorted(metrics)))
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        print(f"metrics missing from the run: {missing}", file=sys.stderr)
        return 1
    out = {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
