"""Command line interface.

Subcommands: check, construct, tighten, connect, equiv. Global flags --seed,
--tol, --quiet, --json apply to every subcommand; --tol is always in norm
units (membership and convergence use its square as the residual bound) and
must be finite and >= 0 (> 0 for connect), and --seed an integer >= 0.
Exit codes: 0 success, 1 a check or computation failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from ._linalg import _non_negative_int, _positive, _tolerance
from .core import _bounds_or_none, _funtf, norms_squared
from .errors import ConnectError, InadmissibleError, OffFiberError
from .fiber import FiberTarget
from .fileio import _frame_format, _frame_obj, _mat_to_obj, _read_operator, read_frame, read_target, write_frame, write_path
from .flows import (
    FlowOptions,
    alternate_projections,
    fiber_residual,
    flow_to_fiber,
    project_to_fiber,
)
from .design import construct_frame, construct_frame_with_operator
from .equivalence import unitary_equivalent
from .homotopy import ConnectOptions, connect
from .momentum import is_regular_value, momentum


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fiberframe",
        description="Finite frames with prescribed frame operator and norms: "
        "check, construct, repair, connect.",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    p.add_argument("--tol", type=float, default=1e-8, help="tolerance in norm units")
    p.add_argument("--quiet", action="store_true", help="suppress the header line")
    p.add_argument("--json", dest="as_json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify frame properties and optional fiber membership")
    c.add_argument("frame", help="frame file (.json or .csv)")
    c.add_argument("--target", help="fiber target file (JSON)")
    c.set_defaults(handler=_cmd_check)

    c = sub.add_parser("construct", help="build a frame with prescribed spectrum and norms")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--lambda", dest="lam", type=float, nargs="+", help="frame operator spectrum")
    g.add_argument("--S", dest="operator_file", help="JSON file with the frame operator")
    c.add_argument("--r", type=float, nargs="+", required=True, help="squared column norms")
    c.add_argument("--out", help="output frame file (.json or .csv); default stdout JSON")
    c.set_defaults(handler=_cmd_construct)

    c = sub.add_parser("tighten", help="repair a frame onto a fiber by descent/projection")
    c.add_argument("frame", help="frame file (.json or .csv)")
    c.add_argument("--target", help="fiber target file; default: tight operator, current norms")
    c.add_argument(
        "--method",
        choices=("auto", "gradient", "alternating"),
        default="auto",
        help="repair route (auto = Gauss-Newton)",
    )
    c.add_argument(
        "--max-iters",
        type=int,
        default=FlowOptions.max_iters,
        help="most iterations of the repair run (Newton steps, gradient steps or alternating rounds)",
    )
    c.add_argument("--out", help="output frame file for the repaired frame")
    c.set_defaults(handler=_cmd_tighten)

    c = sub.add_parser("connect", help="trace an on-fiber path between two frames")
    c.add_argument("frame_from", help="start frame file")
    c.add_argument("frame_to", help="end frame file")
    c.add_argument("target", help="fiber target file (JSON)")
    c.add_argument("--delta", type=float, default=ConnectOptions.delta, help="max relative step between samples")
    c.add_argument("--out", required=True, help="output path file (JSON Lines)")
    c.set_defaults(handler=_cmd_connect)

    c = sub.add_parser("equiv", help="decide unitary equivalence of two frames")
    c.add_argument("frame_a")
    c.add_argument("frame_b")
    c.set_defaults(handler=_cmd_equiv)
    return p


class _Output:
    """Collects results; emits a single JSON object or plain text lines."""

    def __init__(self, args):
        self.as_json = args.as_json
        self.quiet = args.quiet
        self.payload = {
            "version": __version__,
            "seed": args.seed,
            "tol": args.tol,
            "command": args.command,
        }
        if not (self.quiet or self.as_json):
            print(f"fiberframe {__version__} | seed={args.seed} tol={args.tol:g}")

    def add(self, key, value):
        self.payload[key] = value
        if not self.as_json:
            print(f"{key}: {value}")

    def flush(self):
        if self.as_json:
            print(json.dumps(self.payload))


def _check_out(path, frame_file: bool) -> None:
    """Usage error before any work: an --out in a missing directory, or a frame file of unsupported extension."""
    if frame_file:
        _frame_format(path)
    folder = os.path.dirname(os.fspath(path))
    if folder and not os.path.isdir(folder):
        raise FileNotFoundError(f"output directory {folder!r} does not exist")


def _cmd_check(args, out: _Output) -> int:
    F = read_frame(args.frame)
    out.add("k", F.shape[0])
    out.add("N", F.shape[1])
    # one SVD decides is_frame, the bounds, is_tight and is_funtf
    b = _bounds_or_none(F)
    out.add("is_frame", b is not None)
    failed = b is None
    if b is not None:
        out.add("lower_bound", b.lower)
        out.add("upper_bound", b.upper)
        out.add("is_tight", b.is_tight(args.tol))
        out.add("is_funtf", _funtf(F, b, args.tol))
    mom = momentum(F)
    out.add("momentum_consistency", mom.consistency_residual())
    if args.target:
        target = read_target(args.target)
        phi = fiber_residual(F, target)
        on_fiber = phi <= args.tol**2
        out.add("fiber_residual", phi)
        out.add("on_fiber", on_fiber)
        # FiberTarget construction rejects a target that is not a regular value,
        # and one whose sums leave the fiber empty
        out.add("target_regular_value", True)
        adm = target.admissibility
        out.add("target_admissible", bool(adm))
        if not adm:
            out.add("violation", adm.describe())
        failed = failed or not on_fiber
    return 1 if failed else 0


def _cmd_construct(args, out: _Output) -> int:
    if args.out:
        _check_out(args.out, frame_file=True)
    r = np.asarray(args.r, dtype=float)
    rng = np.random.default_rng(args.seed)
    if args.operator_file:
        F = construct_frame_with_operator(_read_operator(args.operator_file), r, rng=rng)
    else:
        F = construct_frame(np.asarray(args.lam, dtype=float), r, rng=rng)
    out.add("admissible", True)
    out.add("norm_error", float(np.max(np.abs(norms_squared(F) - r))))
    if args.out:
        write_frame(F, args.out)
        out.add("out", args.out)
    else:
        out.payload["frame"] = _frame_obj(F)
        if not out.as_json:
            print(json.dumps(out.payload["frame"]))
    return 0


def _cmd_tighten(args, out: _Output) -> int:
    _non_negative_int(args.max_iters, "--max-iters")
    if args.out:
        _check_out(args.out, frame_file=True)
    F0 = read_frame(args.frame)
    if args.target:
        target = read_target(args.target)
    else:
        r = norms_squared(F0)
        S = float(np.sum(r)) / F0.shape[0] * np.eye(F0.shape[0], dtype=complex)
        # c I with the frame's norms: a zero column is a failed check, not a usage error
        regular = is_regular_value(S, -0.5 * r)
        if not regular:
            out.add("target_regular_value", False)
            out.add("reason", regular.reason)
            return 1
        target = FiberTarget(operator=S, norms_sq=r)
    # a fiber empty through a partial sum is a valid target, where every
    # route would stall: it fails here with its certificate
    adm = target.admissibility
    if not adm:
        raise InadmissibleError(adm.describe(), adm)
    opts = FlowOptions(max_iters=args.max_iters, tol=args.tol**2)
    runner = {
        "gradient": flow_to_fiber,
        "alternating": alternate_projections,
        "auto": project_to_fiber,
    }[args.method]
    F, report = runner(F0, target, opts)
    out.add("method", report.method)
    out.add("status", report.status)
    out.add("iterations", report.iterations)
    out.add("final_residual", report.final_residual)
    if report.message:
        out.add("message", report.message)
    if args.out:
        write_frame(F, args.out)
        out.add("out", args.out)
    # the run's report goes to --json output only, as connect's does
    out.payload["report"] = report.to_dict()
    return 0 if report.converged else 1


def _cmd_connect(args, out: _Output) -> int:
    _positive(args.tol, "--tol")
    _positive(args.delta, "--delta")
    _check_out(args.out, frame_file=False)
    F0 = read_frame(args.frame_from)
    F1 = read_frame(args.frame_to)
    target = read_target(args.target)
    opts = ConnectOptions(path_tol=args.tol, delta=args.delta, seed=args.seed)
    try:
        path = connect(F0, F1, target, opts)
    except OffFiberError as exc:
        out.add("status", "endpoint_off_fiber")
        out.add("endpoint", ("from", "to")[exc.index])
        out.add("fiber_residual", exc.residual)
        return 1
    except ConnectError as exc:
        out.add("status", "failed")
        out.add("error", str(exc))
        if exc.t is not None:
            out.add("t", exc.t)
        return 1
    write_path(
        path,
        args.out,
        extra={"version": __version__, "seed": args.seed, "path_tol": opts.path_tol, "delta": opts.delta},
    )
    out.add("status", "connected")
    out.add("samples", len(path))
    out.add("max_residual", path.check.max_residual)
    out.add("max_step", path.check.max_step)
    out.add("out", args.out)
    # the run's counts go to --json output only; the text lines stay as they were
    out.payload["report"] = path.report.to_dict()
    return 0


def _cmd_equiv(args, out: _Output) -> int:
    Fa = read_frame(args.frame_a)
    Fb = read_frame(args.frame_b)
    U = unitary_equivalent(Fa, Fb, tol=args.tol)
    if U is None:
        out.add("equivalent", False)
        return 1
    out.add("equivalent", True)
    out.payload["unitary"] = _mat_to_obj(U)
    if not out.as_json:
        print(json.dumps(out.payload["unitary"]))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _tolerance(args.tol, "--tol")
        _non_negative_int(args.seed, "--seed")
        out = _Output(args)
        code = args.handler(args, out)
    except InadmissibleError as exc:
        # an empty fiber, from any command, is a failed check with its
        # certificate; caught first, as InadmissibleError is a ValueError
        out.add("admissible", False)
        out.add("violation", str(exc))
        code = 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
