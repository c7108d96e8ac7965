import json
import sys

import numpy as np
import pytest

from fiberframe import (
    FiberTarget,
    FlowOptions,
    alternate_projections,
    fiber_residual,
    flow_to_fiber,
    project_to_fiber,
    random_frame_on_fiber,
    read_frame,
    read_path,
    validate_path,
    write_frame,
    write_target,
)
from fiberframe import cli, homotopy
from fiberframe.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def funtf_files(tmp_path, seeds=(0,)):
    t = FiberTarget.funtf(2, 4)
    tfile = tmp_path / "target.json"
    write_target(t, tfile)
    frames = []
    for s in seeds:
        f = tmp_path / f"frame{s}.json"
        write_frame(random_frame_on_fiber(t, seed=s), f)
        frames.append(f)
    return t, str(tfile), [str(f) for f in frames]


class TestCheck:
    def test_funtf_detected(self, tmp_path, capsys):
        _, tfile, (ffile,) = funtf_files(tmp_path)
        code, out, _ = run(capsys, "check", ffile)
        assert code == 0
        assert "is_funtf: True" in out

    def test_on_fiber_membership(self, tmp_path, capsys):
        _, tfile, (ffile,) = funtf_files(tmp_path)
        code, out, _ = run(capsys, "check", ffile, "--target", tfile)
        assert code == 0
        assert "on_fiber: True" in out

    def test_off_fiber_fails(self, tmp_path, capsys):
        t, tfile, (ffile,) = funtf_files(tmp_path)
        F = read_frame(ffile) * 1.05
        bad = tmp_path / "bad.json"
        write_frame(F, bad)
        code, out, _ = run(capsys, "check", str(bad), "--target", tfile)
        assert code == 1
        assert "on_fiber: False" in out

    def test_rank_deficient_fails(self, tmp_path, capsys):
        F = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], dtype=complex)
        f = tmp_path / "flat.json"
        write_frame(F, f)
        code, out, _ = run(capsys, "check", str(f))
        assert code == 1
        assert "is_frame: False" in out

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_one_svd_per_check(self, tmp_path, capsys, monkeypatch, rank_deficient):
        # one frame_bounds call decides is_frame, the bounds, is_tight and is_funtf
        t, tfile, (ffile,) = funtf_files(tmp_path)
        if rank_deficient:
            ffile = str(tmp_path / "flat.json")
            write_frame(np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]), ffile)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        code, out, _ = run(capsys, "check", ffile, "--target", tfile)
        assert code == int(rank_deficient)
        assert ("is_frame: False" if rank_deficient else "is_funtf: True") in out
        assert len(calls) == 1

    def test_json_output_is_single_object(self, tmp_path, capsys):
        _, tfile, (ffile,) = funtf_files(tmp_path)
        code, out, _ = run(capsys, "--json", "check", ffile, "--target", tfile)
        assert code == 0
        obj = json.loads(out)
        assert obj["command"] == "check"
        assert obj["on_fiber"] is True

    def test_quiet_suppresses_header(self, tmp_path, capsys):
        _, tfile, (ffile,) = funtf_files(tmp_path)
        _, out, _ = run(capsys, "--quiet", "check", ffile)
        assert "fiberframe" not in out.splitlines()[0]

    def test_target_regular_value_key(self, tmp_path, capsys):
        _, tfile, (ffile,) = funtf_files(tmp_path)
        code, out, _ = run(capsys, "--json", "check", ffile, "--target", tfile)
        assert code == 0
        assert json.loads(out)["target_regular_value"] is True
        code, out, _ = run(capsys, "check", ffile, "--target", tfile)
        assert code == 0
        assert "target_regular_value: True" in out.splitlines()
        # a target that is not a regular value never reaches the key: reading it fails
        bad = tmp_path / "singular.json"
        singular = {"re": [[2.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        bad.write_text(json.dumps({"S": singular, "r": [1, 1]}))
        code, out, err = run(capsys, "check", ffile, "--target", str(bad))
        assert code == 2
        assert "regular momentum value" in err
        assert "target_regular_value" not in out


class TestConstruct:
    def test_writes_frame_on_fiber(self, tmp_path, capsys):
        outfile = tmp_path / "built.json"
        code, out, _ = run(
            capsys,
            "construct",
            "--lambda", "2", "1",
            "--r", "1", "1", "1",
            "--out", str(outfile),
        )
        assert code == 0
        F = read_frame(outfile)
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        assert fiber_residual(F, t) <= 1e-16

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for f in (a, b):
            code, _, _ = run(
                capsys, "--seed", "7", "construct",
                "--lambda", "2", "1", "--r", "1.2", "0.9", "0.9", "--out", str(f),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("wrap", [False, True], ids=["bare_matrix", "target_file"])
    def test_operator_file(self, tmp_path, capsys, wrap):
        S = {"re": [[1.5, 0.5], [0.5, 1.5]], "im": [[0.0, 0.25], [-0.25, 0.0]]}
        f = tmp_path / "S.json"
        f.write_text(json.dumps({"S": S, "r": [1, 1, 1]} if wrap else S))
        outfile = tmp_path / "built.json"
        code, _, _ = run(capsys, "construct", "--S", str(f), "--r", "1", "1", "1", "--out", str(outfile))
        assert code == 0
        S_mat = np.array(S["re"]) + 1j * np.array(S["im"])
        t = FiberTarget(operator=S_mat, norms_sq=np.ones(3))
        assert fiber_residual(read_frame(outfile), t) <= 1e-16

    def test_inadmissible_reports_violation(self, capsys):
        code, out, _ = run(capsys, "construct", "--lambda", "1", "1", "--r", "1.5", "0.5")
        assert code == 1
        assert "admissible: False" in out
        assert "partial" in out

    def test_inadmissible_json_is_one_object(self, capsys):
        code, out, _ = run(capsys, "--json", "construct", "--lambda", "1", "1", "--r", "1.5", "0.5")
        assert code == 1
        assert json.loads(out)["admissible"] is False

    def test_singular_spectrum_is_usage_error(self, tmp_path, capsys):
        # the rule of FiberTarget: the smaller eigenvalue is below 1e-12 times the larger
        outfile = tmp_path / "c.json"
        code, out, err = run(
            capsys, "--quiet", "construct", "--lambda", "2", "1e-17", "--r", "1", "1", "--out", str(outfile)
        )
        assert code == 2
        assert "admissible" not in out
        assert "operator part is not positive definite" in err
        assert not outfile.exists()

    def test_stdout_frame_when_no_out(self, capsys):
        code, out, _ = run(capsys, "--quiet", "construct", "--lambda", "1", "--r", "0.6", "0.4")
        assert code == 0
        frame_line = out.strip().splitlines()[-1]
        obj = json.loads(frame_line)
        assert obj["k"] == 1 and obj["N"] == 2


class TestTighten:
    def test_repairs_perturbed_frame(self, tmp_path, capsys):
        t, tfile, (ffile,) = funtf_files(tmp_path)
        rng = np.random.default_rng(60)
        F = read_frame(ffile)
        F = F + 1e-2 * np.linalg.norm(F) / np.sqrt(F.size) * (
            rng.standard_normal(F.shape) + 1j * rng.standard_normal(F.shape)
        )
        noisy = tmp_path / "noisy.json"
        write_frame(F, noisy)
        fixed = tmp_path / "fixed.json"
        code, out, _ = run(
            capsys, "--tol", "1e-6",
            "tighten", str(noisy), "--target", tfile, "--out", str(fixed),
        )
        assert code == 0
        assert "status: converged" in out
        G = read_frame(fixed)
        assert fiber_residual(G, t) <= 1e-12

    def test_default_target_is_tight(self, tmp_path, capsys):
        t, tfile, (ffile,) = funtf_files(tmp_path)
        code, out, _ = run(capsys, "tighten", ffile)
        assert code == 0
        assert "iterations: 0" in out

    @pytest.mark.parametrize(
        "method,target,violation",
        [
            ("auto", "file", "partial sum violated at ell=1: top norms add to 1.9 > spectrum 1.5"),
            ("gradient", "file", "partial sum violated at ell=1: top norms add to 1.9 > spectrum 1.5"),
            ("alternating", "file", "partial sum violated at ell=1: top norms add to 1.9 > spectrum 1.5"),
            ("auto", "default", "partial sum violated at ell=1: top norms add to 9 > spectrum 4.585"),
        ],
        ids=["auto", "gradient", "alternating", "default_target"],
    )
    def test_empty_fiber_fails_with_message(self, tmp_path, capsys, method, target, violation):
        # the target is tested before a route runs, where each would stall. The
        # file holds diag(1.5, 0.5) with r = (1.9, 0.05, 0.05); the default
        # target c I with the frame's own norms puts 9 against c = 4.585
        ffile = tmp_path / "start.json"
        argv = ["tighten", str(ffile), "--method", method]
        if target == "file":
            tfile = tmp_path / "empty.json"
            empty = FiberTarget(operator=np.diag([1.5, 0.5]).astype(complex), norms_sq=[1.9, 0.05, 0.05])
            write_target(empty, tfile)
            rng = np.random.default_rng(0)
            write_frame(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)), ffile)
            argv += ["--target", str(tfile)]
        else:
            write_frame(np.array([[3.0, 0.1, 0.1, 0.1], [0.0, 0.2, 0.1, 0.3]]), ffile)
        code, out, _ = run(capsys, "--quiet", *argv)
        assert code == 1
        assert out.splitlines() == ["admissible: False", f"violation: {violation}"]
        code, out, _ = run(capsys, "--json", *argv)
        obj = json.loads(out)
        assert code == 1
        assert (obj["admissible"], obj["violation"]) == (False, violation) and "report" not in obj

    @pytest.mark.parametrize(
        "frame,columns",
        [([[1, 0, 0], [0, 1, 0]], "3 of 3"), ([[1, 0, 0, 1e-13], [0, 1, 0, 0]], "3, 4 of 4")],
        ids=["zero", "below_floor"],
    )
    def test_default_target_with_zero_column_fails(self, tmp_path, capsys, frame, columns):
        # c I with a zero norm is not a regular value: a failed check (exit 1)
        # naming the columns; a column below RANK_RTOL times the largest norm
        # counts as zero
        ffile = tmp_path / "z.json"
        write_frame(np.array(frame, dtype=complex), ffile)
        reason = f"torus part has a non-negative entry in column(s) {columns}"
        code, out, err = run(capsys, "--quiet", "tighten", str(ffile))
        assert code == 1 and not err
        assert out.splitlines() == ["target_regular_value: False", f"reason: {reason}"]
        code, out, _ = run(capsys, "--json", "tighten", str(ffile))
        obj = json.loads(out)
        assert code == 1
        assert (obj["target_regular_value"], obj["reason"]) == (False, reason) and "report" not in obj

    def test_stall_prints_its_message(self, tmp_path, capsys):
        # a full-rank start with a zero column cannot restore that column's
        # norm (the zero-column trap), so Newton stalls. Replace this input
        # once a column fill or a damped step makes repair converge from it;
        # the iterations and the residual vary with the BLAS kernel, so they
        # are not pinned
        _t, tfile, _frames = funtf_files(tmp_path)
        ffile = tmp_path / "trap.json"
        write_frame(np.array([[1, 0, 1, 0], [0, 1, 1, 0]], dtype=complex), ffile)
        argv = ["tighten", str(ffile), "--target", tfile]
        message = "no damped step decreases the residual"
        code, out, err = run(capsys, "--quiet", *argv)
        lines = out.splitlines()
        assert code == 1 and not err
        assert [line.split(": ")[0] for line in lines] == ["method", "status", "iterations", "final_residual", "message"]
        assert lines[:2] == ["method: newton", "status: stalled"] and lines[-1] == f"message: {message}"
        code, out, _ = run(capsys, "--json", *argv)
        obj = json.loads(out)
        assert code == 1
        assert (obj["status"], obj["message"], obj["report"]["message"]) == ("stalled", message, message)
        assert obj["iterations"] == obj["report"]["iterations"] > 0

    @pytest.mark.parametrize("method", ["auto", "gradient", "alternating"])
    def test_report_in_json_only(self, tmp_path, capsys, method):
        t, tfile, (ffile,) = funtf_files(tmp_path)
        F0 = read_frame(ffile) * 1.01
        noisy = tmp_path / "noisy.json"
        write_frame(F0, noisy)
        argv = ["tighten", str(noisy), "--target", tfile, "--method", method, "--max-iters", "50"]
        code, out, _ = run(capsys, "--json", *argv)
        obj = json.loads(out)
        route = {"auto": project_to_fiber, "gradient": flow_to_fiber, "alternating": alternate_projections}[method]
        _F, report = route(F0, t, FlowOptions(max_iters=50, tol=1e-16))
        assert code == (0 if report.converged else 1)
        assert obj["report"] == report.to_dict()
        assert obj["report"]["residual_trace"][-1] == obj["report"]["final_residual"] == obj["final_residual"]
        code, out, _ = run(capsys, "--quiet", *argv)
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "method",
            "status",
            "iterations",
            "final_residual",
        ]


class TestConnect:
    def test_writes_valid_path(self, tmp_path, capsys):
        t, tfile, files = funtf_files(tmp_path, seeds=(0, 1))
        pfile = tmp_path / "path.jsonl"
        code, out, _ = run(capsys, "connect", files[0], files[1], tfile, "--out", str(pfile))
        assert code == 0
        assert "status: connected" in out
        path, header = read_path(pfile)
        chk = validate_path(path, tol=1e-8, delta=0.05)
        assert chk.ok, chk.message
        assert header["seed"] == 0

    def test_report_in_json_only(self, tmp_path, capsys):
        t, tfile, files = funtf_files(tmp_path, seeds=(0, 1))
        pfile = str(tmp_path / "path.jsonl")
        code, out, _ = run(capsys, "--json", "connect", files[0], files[1], tfile, "--out", pfile)
        assert code == 0
        obj = json.loads(out)
        assert obj["report"] == {
            "route": "eigensteps",
            "projections": 0,
            "newton_iterations": 0,
            "kicks": 0,
            "levels": 2,
            "unwind": 0,
            "unwind_dropped": 0,
            "unwind_length": 0.0,
            "length": pytest.approx(2.606458, abs=1e-6),
        }
        code, out, _ = run(capsys, "--quiet", "connect", files[0], files[1], tfile, "--out", pfile)
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "status",
            "samples",
            "max_residual",
            "max_step",
            "out",
        ]

    def test_off_fiber_endpoint_fails(self, tmp_path, capsys):
        t, tfile, files = funtf_files(tmp_path, seeds=(0, 1))
        F = read_frame(files[0]) * 1.05
        bad = tmp_path / "bad.json"
        write_frame(F, bad)
        code, out, _ = run(
            capsys, "connect", str(bad), files[1], tfile, "--out", str(tmp_path / "p.jsonl")
        )
        assert code == 1
        assert "endpoint_off_fiber" in out

    def test_off_fiber_endpoint_json_is_one_object(self, tmp_path, capsys):
        t, tfile, files = funtf_files(tmp_path, seeds=(0, 1))
        bad = tmp_path / "bad.json"
        write_frame(read_frame(files[0]) * 1.05, bad)
        code, out, _ = run(capsys, "--json", "connect", str(bad), files[1], tfile, "--out", str(tmp_path / "p.jsonl"))
        assert code == 1
        assert json.loads(out)["status"] == "endpoint_off_fiber"

    def test_off_fiber_to_endpoint_reports_its_residual(self, tmp_path, capsys):
        t, tfile, files = funtf_files(tmp_path, seeds=(0, 1))
        F1 = read_frame(files[1]) * 1.05
        bad = tmp_path / "bad.json"
        write_frame(F1, bad)
        argv = ("connect", files[0], str(bad), tfile, "--out", str(tmp_path / "p.jsonl"))
        code, out, _ = run(capsys, "--quiet", *argv)
        assert code == 1
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["status"] == "endpoint_off_fiber" and lines["endpoint"] == "to"
        assert float(lines["fiber_residual"]) == fiber_residual(F1, t)
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 1
        obj = json.loads(out)
        assert obj["endpoint"] == "to" and obj["fiber_residual"] == fiber_residual(F1, t)

    def test_off_fiber_from_is_reported_before_to_shape(self, tmp_path, capsys):
        # the from endpoint is checked in full before the to endpoint is read
        t, tfile, (ffile,) = funtf_files(tmp_path)
        bad = tmp_path / "bad.json"
        write_frame(read_frame(ffile) * 1.05, bad)
        wide = tmp_path / "wide.json"
        write_frame(random_frame_on_fiber(FiberTarget.funtf(2, 5), seed=0), wide)
        code, out, err = run(capsys, "--quiet", "connect", str(bad), str(wide), tfile, "--out", str(tmp_path / "p.jsonl"))
        assert code == 1 and not err
        assert "status: endpoint_off_fiber" in out and "endpoint: from" in out

    def test_printed_numbers_are_the_written_path_check(self, tmp_path, capsys):
        t, tfile, files = funtf_files(tmp_path, seeds=(0, 1))
        pfile = str(tmp_path / "path.jsonl")
        code, out, _ = run(capsys, "--json", "connect", files[0], files[1], tfile, "--out", pfile)
        assert code == 0
        obj = json.loads(out)
        ends = (read_frame(files[0]), read_frame(files[1]))
        chk = validate_path(read_path(pfile)[0], tol=1e-8, delta=0.05, endpoints=ends)
        assert (obj["max_residual"], obj["max_step"]) == (chk.max_residual, chk.max_step)
        code, out, _ = run(capsys, "--quiet", "connect", files[0], files[1], tfile, "--out", pfile)
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert (float(lines["max_residual"]), float(lines["max_step"])) == (chk.max_residual, chk.max_step)

    def test_path_is_validated_once(self, tmp_path, capsys, monkeypatch):
        # connect checks its path once, with the private kernel of
        # validate_path, and the CLI reads that check; the wrapper replaces
        # every package binding of validate_path, as the perfbench tracer
        # does, so a call through any of them counts
        t, tfile, files = funtf_files(tmp_path, seeds=(0, 1))
        real, kernel = homotopy.validate_path, homotopy._check_path
        calls, checks = [], []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def counted_check(*args):
            checks.append(1)
            return kernel(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("fiberframe") and getattr(module, "validate_path", None) is real:
                monkeypatch.setattr(module, "validate_path", counted)
        monkeypatch.setattr(homotopy, "_check_path", counted_check)
        code, _, _ = run(capsys, "connect", files[0], files[1], tfile, "--out", str(tmp_path / "p.jsonl"))
        assert code == 0
        assert len(checks) == 1 and calls == []

    def test_bridge_failure_reports_t(self, tmp_path, capsys, monkeypatch):
        # every projection comes back doubled, off the fiber, as in
        # TestConnectRecovery, so connect raises ConnectError with its t
        monkeypatch.setattr(homotopy, "_eigenstep_segment", lambda *args: None)
        t, tfile, files = funtf_files(tmp_path, seeds=(0, 1))
        real = homotopy._newton

        def rejected(X, target, opts):
            G, phi, *rest = real(X, target, opts)
            G = 2.0 * G
            return (G, np.array([fiber_residual(g, target) for g in G]), *rest)

        monkeypatch.setattr(homotopy, "_newton", rejected)
        pfile = tmp_path / "p.jsonl"
        code, out, _ = run(capsys, "--quiet", "connect", files[0], files[1], tfile, "--out", str(pfile))
        assert code == 1
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["status"] == "failed"
        assert "projection failed" in lines["error"]
        assert 0.0 <= float(lines["t"]) <= 1.0
        code, out, _ = run(capsys, "--json", "connect", files[0], files[1], tfile, "--out", str(pfile))
        assert code == 1
        obj = json.loads(out)
        assert obj["status"] == "failed" and obj["t"] == float(lines["t"])
        assert not pfile.exists()


class TestEquiv:
    def test_detects_equivalence(self, tmp_path, capsys):
        t, tfile, (ffile,) = funtf_files(tmp_path)
        F = read_frame(ffile)
        rng = np.random.default_rng(61)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Q, _ = np.linalg.qr(A)
        g = tmp_path / "rotated.json"
        write_frame(Q @ F, g)
        code, out, _ = run(capsys, "--json", "equiv", ffile, str(g))
        assert code == 0
        obj = json.loads(out)
        assert obj["equivalent"] is True
        U = np.asarray(obj["unitary"]["re"]) + 1j * np.asarray(obj["unitary"]["im"])
        assert np.linalg.norm(U @ F - Q @ F) <= 1e-8 * np.linalg.norm(F)

    def test_rejects_unrelated(self, tmp_path, capsys):
        t, tfile, files = funtf_files(tmp_path, seeds=(0, 1))
        code, out, _ = run(capsys, "equiv", files[0], files[1])
        assert code == 1
        assert "equivalent: False" in out

    def test_text_output_prints_the_unitary(self, tmp_path, capsys):
        _, _, (ffile,) = funtf_files(tmp_path)
        F = read_frame(ffile)
        Q = np.array([[0.0, 1.0], [1j, 0.0]])
        g = tmp_path / "rotated.json"
        write_frame(Q @ F, g)
        code, out, _ = run(capsys, "equiv", ffile, str(g))
        assert code == 0
        header, verdict, unitary = out.splitlines()
        assert header.startswith("fiberframe ") and verdict == "equivalent: True"
        obj = json.loads(unitary)
        U = np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])
        assert np.linalg.norm(U - Q) <= 1e-8


class TestErrors:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 2
        assert "error:" in err

    def test_shape_mismatch_is_usage_error(self, tmp_path, capsys):
        t, tfile, (ffile,) = funtf_files(tmp_path)
        other = FiberTarget.funtf(2, 5)
        t2 = tmp_path / "other.json"
        write_target(other, t2)
        code, _, err = run(capsys, "check", ffile, "--target", str(t2))
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"re": [[2, 0], [0, 1]], "im": [0]}',
            '{"S": {"re": [[NaN, 0], [0, 1]], "im": [[0, 0], [0, 0]]}}',
        ],
        ids=["re_im_shape_mismatch", "nan"],
    )
    def test_bad_operator_file_is_usage_error(self, tmp_path, capsys, text):
        f = tmp_path / "S.json"
        f.write_text(text)
        code, _, err = run(capsys, "construct", "--S", str(f), "--r", "1", "1", "1")
        assert code == 2
        assert "error:" in err

    def test_wrongly_typed_frame_field_is_usage_error(self, tmp_path, capsys):
        _, tfile, (ffile,) = funtf_files(tmp_path)
        F = read_frame(ffile)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"k": [2], "N": 4, "re": F.real.tolist(), "im": F.imag.tolist()}))
        code, _, err = run(capsys, "check", str(bad), "--target", tfile)
        assert code == 2
        assert "'k'" in err

    @pytest.mark.parametrize(
        "before,after",
        [((), ("--max-iters", "-1")), ((), ("--max-iters", "-1", "--method", "gradient")),
         (("--tol", "nan"), ()), (("--tol", "inf"), ())],
    )
    def test_bad_flow_options_are_usage_errors(self, tmp_path, capsys, before, after):
        # FlowOptions rejects them before a step runs; no status is reported
        _, tfile, (ffile,) = funtf_files(tmp_path)
        noisy = tmp_path / "noisy.json"
        write_frame(read_frame(ffile) + 0.01, noisy)
        code, out, err = run(capsys, *before, "tighten", str(noisy), "--target", tfile, *after)
        assert code == 2
        assert "error:" in err and "status" not in out

    @pytest.mark.parametrize(
        "command,before,after,named",
        [("check", ("--tol", "-1"), (), "--tol"), ("equiv", ("--tol", "-1"), (), "--tol"),
         ("connect", ("--tol", "nan"), (), "--tol"), ("connect", (), ("--delta", "nan"), "delta")],
        ids=["check_negative_tol", "equiv_negative_tol", "connect_nan_tol", "connect_nan_delta"],
    )
    def test_bad_tolerances_are_usage_errors(self, tmp_path, capsys, command, before, after, named):
        # a negative --tol squares to a positive bound, and a NaN one fails every comparison
        _, tfile, (f0, f1) = funtf_files(tmp_path, seeds=(0, 1))
        noisy = tmp_path / "noisy.json"
        write_frame(read_frame(f0) + 0.1, noisy)
        operands = {
            "check": (str(noisy), "--target", tfile),
            "equiv": (f0, f0),
            "connect": (f0, f1, tfile, "--out", str(tmp_path / "p.jsonl")),
        }[command]
        code, out, err = run(capsys, *before, command, *operands, *after)
        assert code == 2
        assert err.startswith("error:") and named in err
        assert "status" not in out and "on_fiber" not in out and "equivalent" not in out

    @pytest.mark.parametrize(
        "command,before,after,flag",
        [("construct", ("--seed", "-1"), (), "--seed"), ("connect", ("--seed", "-1"), (), "--seed"),
         ("connect", ("--tol", "0"), (), "--tol"), ("connect", (), ("--delta", "0"), "--delta"),
         ("tighten", (), ("--max-iters", "-1"), "--max-iters")],
        ids=["construct_seed", "connect_seed", "connect_tol", "connect_delta", "tighten_max_iters"],
    )
    def test_bad_numeric_flag_is_named_before_work(self, tmp_path, capsys, monkeypatch, command, before, after, flag):
        # the error names the flag, not a library argument, and comes before
        # any file is read or any frame built, so no --out file is written
        def unreachable(*args, **kwargs):
            raise AssertionError("worked before the flag was checked")

        _t, tfile, (f0, f1) = funtf_files(tmp_path, seeds=(0, 1))
        for route in ("read_frame", "construct_frame"):
            monkeypatch.setattr(cli, route, unreachable)
        outfile = tmp_path / ("p.jsonl" if command == "connect" else "out.json")
        operands = {
            "construct": ("--lambda", "2", "1", "--r", "1", "1", "1"),
            "connect": (f0, f1, tfile),
            "tighten": (f0, "--target", tfile),
        }[command]
        code, _out, err = run(capsys, *before, command, *operands, *after, "--out", str(outfile))
        assert code == 2
        assert err.startswith(f"error: {flag} must be ")
        assert not outfile.exists()

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command,name", [("construct", "x.txt"), ("tighten", "y.npy")])
    def test_bad_out_extension_is_rejected_before_work(self, tmp_path, capsys, monkeypatch, command, name, as_json):
        # the writer is chosen by extension; an unsupported one fails before a
        # frame is built or repaired, so nothing is printed and nothing written
        def unreachable(*args, **kwargs):
            raise AssertionError("computed before the --out extension was checked")

        for route in ("construct_frame", "project_to_fiber"):
            monkeypatch.setattr(cli, route, unreachable)
        _t, tfile, (ffile,) = funtf_files(tmp_path)
        outfile = tmp_path / name
        operands = {
            "construct": ("--lambda", "2", "1", "--r", "1", "1", "1"),
            "tighten": (ffile, "--target", tfile),
        }[command]
        code, out, err = run(capsys, "--json" if as_json else "--quiet", command, *operands, "--out", str(outfile))
        assert (code, out) == (2, "")
        assert err == f"error: unsupported frame file extension '{outfile.suffix}'\n"
        assert not outfile.exists()

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command,name", [("construct", "x.json"), ("tighten", "y.json"), ("connect", "p.jsonl")])
    def test_out_in_missing_directory_is_rejected_before_work(
        self, tmp_path, capsys, monkeypatch, command, name, as_json
    ):
        # an --out whose directory does not exist fails before a frame is
        # built, repaired or connected: no result line and no file
        def unreachable(*args, **kwargs):
            raise AssertionError("computed before the --out directory was checked")

        for route in ("construct_frame", "project_to_fiber", "connect"):
            monkeypatch.setattr(cli, route, unreachable)
        _t, tfile, (f0, f1) = funtf_files(tmp_path, seeds=(0, 1))
        missing = tmp_path / "missing_dir"
        operands = {
            "construct": ("--lambda", "2", "1", "--r", "1", "1", "1"),
            "tighten": (f0, "--target", tfile),
            "connect": (f0, f1, tfile),
        }[command]
        code, out, err = run(capsys, "--json" if as_json else "--quiet", command, *operands, "--out", str(missing / name))
        assert (code, out) == (2, "")
        assert err == f"error: output directory {str(missing)!r} does not exist\n"
        assert not missing.exists()

    def test_zero_tol_is_valid(self, tmp_path, capsys):
        _, _, (ffile,) = funtf_files(tmp_path)
        code, out, _ = run(capsys, "--tol", "0", "check", ffile)
        assert code == 0
        assert "is_frame: True" in out

    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestTargetVerdicts:
    """Each command reports a target's verdict alike: an empty fiber of any
    kind exits 1 with its certificate, and a target that is not a regular
    value is a usage error (exit 2)."""

    PARTIAL = "partial sum violated at ell=1: top norms add to 1.9 > spectrum 1.5"
    TARGETS = {
        "total": ({"lambda": [2.0, 1.0], "r": [1.0, 1.0, 1.5]}, "sum of norms 3.5 != sum of spectrum 3"),
        "shape": ({"lambda": [2.0, 1.0, 1.0], "r": [2.0, 2.0]}, "only 2 vectors for dimension 3"),
        "partial_sum": ({"lambda": [1.5, 0.5], "r": [1.9, 0.05, 0.05]}, PARTIAL),
        "not_regular": (
            {"lambda": [2.0, 1.0], "r": [1.5, 1.5 - 1e-13, 1e-13]},
            "target is not a regular momentum value: torus part has a non-negative entry in column(s) 3 of 3",
        ),
    }

    @pytest.mark.parametrize("command", ["check", "tighten", "connect"])
    @pytest.mark.parametrize("case", list(TARGETS))
    def test_verdict_report(self, tmp_path, capsys, command, case):
        obj, verdict = self.TARGETS[case]
        tfile, ffile = tmp_path / "t.json", tmp_path / "f.json"
        tfile.write_text(json.dumps(obj))
        write_frame(np.array([[1.0, 0.1, 0.0], [0.0, 0.2, 0.3]], dtype=complex), ffile)
        argv = {
            "check": ["check", str(ffile), "--target", str(tfile)],
            "tighten": ["tighten", str(ffile), "--target", str(tfile)],
            "connect": ["connect", str(ffile), str(ffile), str(tfile), "--out", str(tmp_path / "p.jsonl")],
        }[command]
        code, out, err = run(capsys, "--quiet", *argv)
        if case == "not_regular":
            assert (code, err) == (2, f"error: {verdict}\n")
            assert "admissible" not in out
            return
        # a partial-sum fiber reads as a target: check reports it with its own key
        lines = ["admissible: False", f"violation: {verdict}"]
        if command == "check" and case == "partial_sum":
            lines = ["on_fiber: False", "target_regular_value: True", "target_admissible: False", lines[1]]
        assert code == 1 and not err
        assert out.splitlines()[-len(lines) :] == lines
        if command != "check":
            assert out.splitlines() == lines
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 1 and json.loads(out)["violation"] == verdict
