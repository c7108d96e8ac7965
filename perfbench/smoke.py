"""Smoke test of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload with tiny inputs for one second, untraced and traced,
and checks that the names of the metrics each run computed (its "computed"
line) are exactly those BENCHMARK.json lists, that every op passed its
output check (fail_frac == 0), and that the traced per-layer counts repeat
exactly on a second traced run at the same seed.
Exits 0 when all hold. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "ratio")


def run(workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    computed = next(json.loads(ln[len("computed "):]) for ln in lines if ln.startswith("computed "))
    return computed, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            computed, res = run(name, trace)
            expected = {m["name"] for m in bench[key]}
            if set(computed) != expected:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(computed) ^ expected)} differ")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: fail_frac = {res['failed']}/{res['attempted']}")
            if trace:
                _computed, again = run(name, trace)
                for m in bench[key]:
                    a, b = res["metrics"][m["name"]]["value"], again["metrics"][m["name"]]["value"]
                    if m["unit"] in COUNT_UNITS and a != b:
                        problems.append(f"{name}: {m['name']} was {a}, then {b}")
        print(f"{name}: ok" if not any(p.startswith(name) for p in problems) else f"{name}: FAILED", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
