"""The four benchmark workloads: inputs made from a seed, one op, one output check.

The seed varies the inputs within a fixed suite (see ConnectK2 and _Repair):
a run holds too few ops for seed-drawn fibers to average out.

Every workload is a closed loop with one caller: op i starts after op i-1
returns. Ops cycle through a fixed pattern of input classes so that each run
holds the classes in fixed proportions; the pattern is chosen so that the
median and the 75th percentile of op time fall inside a class, not on the
boundary between two, where a one-op shift would move them a lot.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import oracle
from tracing import parse_importtime

HERE = os.path.dirname(os.path.abspath(__file__))

REPAIR_TOL = 1e-20
PATH_TOL = 1e-8
DELTA = 0.05
CLI_TOL = 1e-8  # the CLI default --tol, in norm units


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _fixed_rng(workload: str) -> np.random.Generator:
    """Draws the inputs that are the same for every seed (fibers, base frames, endpoint pairs)."""
    return np.random.default_rng([sum(map(ord, workload)), 2018])


def _hermitian_with_spectrum(rng, lam):
    Z = rng.standard_normal((lam.size, lam.size)) + 1j * rng.standard_normal((lam.size, lam.size))
    Q, _ = np.linalg.qr(Z)
    S = (Q * lam) @ Q.conj().T
    return 0.5 * (S + S.conj().T)


def _generic_target(ff, rng, k, N):
    """A fiber with a generic (non-diagonal) operator and random admissible norms."""
    lam = np.sort(rng.uniform(0.5, 2.0, k))[::-1]
    r = np.asarray(ff.random_admissible_norms(lam, N, rng), dtype=float)
    S = _hermitian_with_spectrum(rng, lam)
    return S, r


def _perturb(rng, F, rel=1e-2):
    E = rng.standard_normal(F.shape) + 1j * rng.standard_normal(F.shape)
    return F + rel * np.linalg.norm(F) * E / np.linalg.norm(E)


def _fiber_symmetry(rng, S, N):
    """A random (U, phases) with U unitary and U S = S U.

    F -> U F diag(phases) maps the fiber of (S, r) onto itself and keeps
    distances between frames, so it changes the numbers of an endpoint pair
    but not the geometry of the path between them.
    """
    w, V = np.linalg.eigh(S)
    U = np.zeros_like(S)
    for lam in np.unique(np.round(w, 9)):
        Vi = V[:, np.isclose(w, lam)]
        m = Vi.shape[1]
        Q, R = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        U += Vi @ (Q * (np.diag(R) / np.abs(np.diag(R)))) @ Vi.conj().T
    return U, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))


def criterion_fibers():
    """(S, r) of the four fibers of the connectivity acceptance test."""
    fibers = [(2.0 * np.eye(2), np.ones(4)), (2.5 * np.eye(2), np.ones(5)), (3.0 * np.eye(2), np.ones(6))]
    fibers.append((np.diag([2.0, 1.0]), np.ones(3)))
    return [(S.astype(complex), r) for S, r in fibers]


class ConnectK2:
    """connect() between two random frames on a k=2 fiber, cycling the four test fibers."""

    name = "connect-k2"
    # diag(2,1)/N=3, the slowest fiber, twice per cycle: p75 falls inside its
    # ops rather than on the edge between it and the three FUNTF fibers
    fiber_cycle = (0, 1, 2, 3, 3)

    def __init__(self, ff, seed, workdir, smoke):
        self.ff = ff
        # A run holds about 70 ops and a path's cost varies severalfold with
        # its endpoints, so seed-drawn pairs moved p75 by a quarter from seed
        # to seed. The pairs are fixed; the seed applies a symmetry of the
        # fiber to each, which changes the frames but not the path geometry.
        fixed, rng = _fixed_rng(self.name), _rng(seed, self.name)
        fibers = criterion_fibers()
        self.cycle_len = len(self.fiber_cycle)
        n_pairs = len(self.fiber_cycle) * (1 if smoke else 13)
        self.pass_ops = len(self.fiber_cycle) * (1 if smoke else 5)
        self.pairs = []
        for j in range(n_pairs):
            S, r = fibers[self.fiber_cycle[j % len(self.fiber_cycle)]]
            target = ff.FiberTarget(S, r)
            s0, s1 = (int(x) for x in fixed.integers(0, 2**31, 2))
            U, phases = _fiber_symmetry(rng, S, r.size)
            F0 = U @ ff.random_frame_on_fiber(target, seed=s0) * phases
            F1 = U @ ff.random_frame_on_fiber(target, seed=s1) * phases
            self.pairs.append((S, r, target, F0, F1))

    def op(self, i, traced=False):
        _S, _r, target, F0, F1 = self.pairs[i % len(self.pairs)]
        return self.ff.connect(F0, F1, target, self.ff.ConnectOptions(path_tol=PATH_TOL, delta=DELTA, seed=i))

    def check(self, i, path):
        S, r, _target, F0, F1 = self.pairs[i % len(self.pairs)]
        return oracle.check_path(path.times, path.frames, S, r, F0, F1, PATH_TOL, DELTA)


class _Repair:
    """project_to_fiber(X, target, tol=1e-20) from perturbed frames; ops cycle `pattern` sizes.

    The fibers and base frames are the same for every seed (`make_base`
    draws them from a fixed generator); the seed draws the perturbations.
    Seed-drawn fibers made op times and set-up time swing from seed to seed.
    """

    pattern: tuple = ()
    per_class = 16
    bases = 8  # base frames per size; per_class / bases perturbations of each
    pass_cycles = 2  # cycles of the pattern in one traced pass

    def __init__(self, ff, seed, workdir, smoke):
        self.ff = ff
        self.rng = rng = _rng(seed, self.name)
        fixed = _fixed_rng(self.name)
        pattern = ((4, 16),) if smoke else self.pattern
        self.cycle = pattern
        self.cycle_len = len(pattern)
        self.pass_ops = (1 if smoke else self.pass_cycles) * len(pattern)
        n = 2 if smoke else self.per_class
        self.base_frames, self.inputs = {}, {}
        for shape in dict.fromkeys(pattern):
            bases = [self.make_base(fixed, *shape) for _ in range(min(n, self.bases))]
            self.base_frames[shape] = bases
            pool = []
            for j in range(n):
                S, r, target, F = bases[j % len(bases)]
                pool.append((S, r, target, _perturb(rng, F)))
            self.inputs[shape] = pool
        self.options = ff.FlowOptions(tol=REPAIR_TOL)

    def _input(self, i):
        shape = self.cycle[i % len(self.cycle)]
        pool = self.inputs[shape]
        return pool[(i // len(self.cycle)) % len(pool)]

    def op(self, i, traced=False):
        _S, _r, target, X = self._input(i)
        return self.ff.project_to_fiber(X, target, self.options)

    def check(self, i, out):
        S, r, _target, _X = self._input(i)
        F, report = out
        if not report.converged:
            return f"project_to_fiber ended {report.status!r} at residual {report.final_residual:.3e}"
        return oracle.check_frame(F, S, r, REPAIR_TOL)


class RepairNewton(_Repair):
    """Starts from constructed frames, where alternating projection stalls at its cap and Newton finishes."""

    name = "repair-newton"
    # Newton takes 2 or 3 iterations, so each size's op times form two
    # clusters. p50 falls in the upper part of the (4,16) ops, where one
    # iteration more moves little, and p75 in the lower part of the (16,128)
    # ops; (16,128) carries most of the time and so of ops_per_s.
    pattern = ((4, 16), (4, 16), (4, 16), (4, 16), (8, 64), (16, 128), (16, 128))
    pass_cycles = 1

    def make_base(self, rng, k, N):
        S, r = _generic_target(self.ff, rng, k, N)
        return S, r, self.ff.FiberTarget(S, r), self.ff.construct_frame_with_operator(S, r, rng=rng)


class RepairAlt(_Repair):
    """Starts from perturbed random fiber frames, where alternating projection alone converges."""

    name = "repair-alt"
    # (16,128) twice: p50 and p75 fall inside the (16,128) class.
    pattern = ((8, 64), (16, 128), (16, 128))
    pass_cycles = 10
    per_class = 32
    # project_to_fiber hands off to Newton after 200 alternating rounds. A
    # perturbed frame that needs more (by oracle.alternating_rounds, plain
    # numpy) is replaced in prepare() by another perturbation of its base.
    max_rounds = 200

    def __init__(self, ff, seed, workdir, smoke):
        self.drawn = self.rejected = 0
        super().__init__(ff, seed, workdir, smoke)

    def make_base(self, rng, k, N):
        S, r = _generic_target(self.ff, rng, k, N)
        target = self.ff.FiberTarget(S, r)
        return S, r, target, self.ff.random_frame_on_fiber(target, seed=int(rng.integers(0, 2**31)))

    def prepare(self):
        """Replace inputs that alternating projection does not bring onto the fiber within max_rounds.

        Harness-only work, done after set-up is timed: the oracle counts the
        rounds and the replacements are perturbations of the same base frame
        (of the next base, if twenty in a row need too many rounds).
        """
        for shape, pool in self.inputs.items():
            bases = self.base_frames[shape]
            for j, (S, r, target, X) in enumerate(pool):
                b = j % len(bases)
                for attempt in range(20 * len(bases)):
                    self.drawn += 1
                    if oracle.alternating_rounds(X, S, r, REPAIR_TOL, self.max_rounds) is not None:
                        break
                    self.rejected += 1
                    S, r, target, F = bases[(b + attempt // 20) % len(bases)]
                    X = _perturb(self.rng, F)
                else:
                    raise RuntimeError(f"no input at {shape} where alternating projection converges alone")
                pool[j] = (S, r, target, X)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)
        f.write("\n")


def _frame_obj(F):
    return {"k": F.shape[0], "N": F.shape[1], "re": F.real.tolist(), "im": F.imag.tolist()}


def _target_obj(S, r):
    return {"S": {"re": S.real.tolist(), "im": S.imag.tolist()}, "r": r.tolist()}


class Cli:
    """One `python -m fiberframe.cli --quiet ...` process per op on small (k <= 3) files."""

    name = "cli"
    # Every op pays interpreter start and imports (~0.5 s). One connect in
    # seven keeps p50 and p75 inside the steady short commands; connect, whose
    # time varies with the endpoint pair, weighs on ops_per_s.
    commands = ("construct", "check", "tighten", "construct", "check", "tighten", "connect")

    def __init__(self, ff, seed, workdir, smoke):
        rng = _rng(seed, self.name)
        self.dir = workdir
        self.cycle_len = len(self.commands)
        self.pass_ops = len(self.commands) if smoke else 2 * len(self.commands)
        n = 4 if smoke else 8
        self.inputs = {cmd: [] for cmd in self.commands}
        out, out_path = os.path.join(workdir, "out.json"), os.path.join(workdir, "out.jsonl")

        def path(stem, j):
            return os.path.join(workdir, f"{stem}{j}.json")

        for j in range(n):
            k = 2 + j % 2
            N = int(rng.integers(k + 1, 7))
            lam = np.sort(rng.uniform(0.5, 2.0, k))[::-1]
            r = np.asarray(ff.random_admissible_norms(lam, N, rng), dtype=float)
            args = ["--lambda", *(repr(float(x)) for x in lam), "--r", *(repr(float(x)) for x in r), "--out", out]
            self.inputs["construct"].append((args, np.diag(lam).astype(complex), r))

            S, r = _generic_target(ff, rng, k, N)
            target = ff.FiberTarget(S, r)
            _write_json(path("target", j), _target_obj(S, r))
            F = ff.random_frame_on_fiber(target, seed=int(rng.integers(0, 2**31)))
            _write_json(path("onfiber", j), _frame_obj(F))
            self.inputs["check"].append(([path("onfiber", j), "--target", path("target", j)], S, r, F))
            _write_json(path("noisy", j), _frame_obj(_perturb(rng, F, 1e-3)))
            self.inputs["tighten"].append(([path("noisy", j), "--target", path("target", j), "--out", out], S, r))

        for j, (S, r) in enumerate(criterion_fibers() * (n // 4)):
            target = ff.FiberTarget(S, r)
            _write_json(path("ctarget", j), _target_obj(S, r))
            ends = [ff.random_frame_on_fiber(target, seed=int(rng.integers(0, 2**31))) for _ in range(2)]
            _write_json(path("enda", j), _frame_obj(ends[0]))
            _write_json(path("endb", j), _frame_obj(ends[1]))
            args = [path("enda", j), path("endb", j), path("ctarget", j), "--out", out_path]
            self.inputs["connect"].append((args, S, r, *ends))

    def _slot(self, i):
        """(command, its input) of op i: the n-th use of a command takes its n-th input."""
        L = len(self.commands)
        cmd = self.commands[i % L]
        n = (i // L) * self.commands.count(cmd) + self.commands[: i % L].count(cmd)
        pool = self.inputs[cmd]
        return cmd, pool[n % len(pool)]

    def op(self, i, traced=False):
        cmd, inp = self._slot(i)
        argv = [sys.executable]
        env = None
        trace_out = os.path.join(self.dir, f"trace{i}.json")
        if traced:
            argv += ["-X", "importtime", os.path.join(HERE, "clichild.py")]
            env = dict(os.environ, PERFBENCH_TRACE_OUT=trace_out)
        else:
            argv += ["-m", "fiberframe.cli"]
        argv += ["--quiet", "--seed", str(i), cmd, *inp[0]]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        return proc, (trace_out if traced else None)

    def check(self, i, out):
        proc, _trace = out
        cmd, inp = self._slot(i)
        if proc.returncode != 0:
            return f"{cmd} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        try:
            if cmd == "check":
                _args, S, r, F = inp
                if "on_fiber: True" not in proc.stdout.splitlines():
                    return "check did not report on_fiber: True"
                return oracle.check_frame(F, S, r, CLI_TOL**2)
            if cmd == "connect":
                _args, S, r, F0, F1 = inp
                times, frames = oracle.read_path_file(os.path.join(self.dir, "out.jsonl"))
                return oracle.check_path(times, frames, S, r, F0, F1, CLI_TOL, DELTA)
            _args, S, r = inp
            F = oracle.read_frame_file(os.path.join(self.dir, "out.json"))
            return oracle.check_frame(F, S, r, CLI_TOL**2)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"{cmd}: could not re-read the written file: {exc}"

    def collect(self, i, out, wall, tracer, samples):
        """Fold a traced child's spans into the tracer; note its start-up and import times."""
        proc, trace_out = out
        if not os.path.exists(trace_out):
            return
        with open(trace_out, "r", encoding="utf-8") as f:
            summary = json.load(f)
        os.remove(trace_out)
        tracer.merge(summary, op=i)
        main_s = sum(v for (_scope, name), v in summary["total_s"] if name == "cli.main")
        samples.setdefault("cli.startup_s", []).append(wall - main_s)
        for module, secs in parse_importtime(proc.stderr).items():
            samples.setdefault(f"import.{module.replace('.', '_')}_s", []).append(secs)


WORKLOADS = {w.name: w for w in (ConnectK2, RepairNewton, RepairAlt, Cli)}
