import json

import numpy as np
import pytest

from conftest import rand_frame

from fiberframe import (
    FiberTarget,
    connect,
    random_frame_on_fiber,
    read_frame,
    read_path,
    read_target,
    write_frame,
    write_path,
    write_target,
)


class TestFrameRoundTrip:
    @pytest.mark.parametrize("ext", ["json", "csv"])
    def test_bit_exact(self, ext, tmp_path):
        rng = np.random.default_rng(50)
        for i in range(10):
            F = rand_frame(rng, int(rng.integers(1, 5)), int(rng.integers(1, 9)))
            p = tmp_path / f"f{i}.{ext}"
            write_frame(F, p)
            G = read_frame(p)
            assert G.dtype == np.complex128
            assert np.array_equal(F, G)

    def test_unsupported_extension(self, tmp_path):
        F = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="extension"):
            write_frame(F, tmp_path / "f.txt")
        with pytest.raises(ValueError, match="extension"):
            read_frame(tmp_path / "f.txt")

    def test_json_shape_mismatch_rejected(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"k": 2, "N": 3, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}))
        with pytest.raises(ValueError, match="shape"):
            read_frame(p)

    def test_json_nan_rejected(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text('{"k": 1, "N": 1, "re": [[NaN]], "im": [[0.0]]}')
        with pytest.raises(ValueError, match="non-finite"):
            read_frame(p)

    @pytest.mark.parametrize(
        "field,value", [("k", [2]), ("k", 2.5), ("N", None), ("N", "1"), ("re", {"x": 1.0})]
    )
    def test_json_wrongly_typed_field_rejected(self, tmp_path, field, value):
        # a field of the wrong JSON type is a ValueError naming the field, not a TypeError
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"k": 2, "N": 1, "re": [[1.0], [0.0]], "im": [[0.0], [0.0]], field: value}))
        with pytest.raises(ValueError, match=repr(field)):
            read_frame(p)

    def test_csv_ragged_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("(1+0j),(0+0j)\n(1+0j)\n")
        with pytest.raises(ValueError, match="rectangular"):
            read_frame(p)

    def test_csv_bad_literal_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("(1+0j),spam\n")
        with pytest.raises(ValueError, match="complex literal"):
            read_frame(p)


class TestTargetRoundTrip:
    def test_operator_form(self, tmp_path):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        p = tmp_path / "t.json"
        write_target(t, p)
        back = read_target(p)
        assert np.array_equal(back.operator, t.operator)
        assert np.array_equal(back.norms_sq, t.norms_sq)

    def test_spectrum_form(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"lambda": [2.0, 1.0], "r": [1.0, 1.0, 1.0]}))
        t = read_target(p)
        assert np.array_equal(t.operator, np.diag([2.0, 1.0]).astype(complex))

    def test_missing_keys_rejected(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"r": [1.0, 1.0]}))
        with pytest.raises(ValueError, match="'S'|'lambda'"):
            read_target(p)

    def test_inconsistent_target_rejected(self, tmp_path):
        # trace of S must equal the sum of the squared norms
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"lambda": [2.0, 1.0], "r": [1.0, 1.0]}))
        with pytest.raises(ValueError):
            read_target(p)


class TestPathRoundTrip:
    def test_bit_exact_with_header(self, tmp_path):
        t = FiberTarget.funtf(2, 4)
        F0 = random_frame_on_fiber(t, seed=0)
        F1 = random_frame_on_fiber(t, seed=1)
        path = connect(F0, F1, t)
        p = tmp_path / "path.jsonl"
        write_path(path, p, extra={"note": "unit test"})
        back, header = read_path(p)
        assert header["kind"] == "frame_path"
        assert header["samples"] == len(path)
        assert header["note"] == "unit test"
        assert np.array_equal(back.times, path.times)
        assert np.array_equal(back.frames, path.frames)
        assert np.array_equal(back.target.operator, t.operator)

    def test_header_target_in_spectrum_form(self, tmp_path):
        # a header target may take either form that read_target reads
        t = FiberTarget.funtf(2, 4)
        path = connect(random_frame_on_fiber(t, seed=0), random_frame_on_fiber(t, seed=1), t)
        p, again = tmp_path / "path.jsonl", tmp_path / "again.jsonl"
        write_path(path, p)
        header, *rest = p.read_text().splitlines()
        header = json.dumps({**json.loads(header), "target": {"lambda": [2.0, 2.0], "r": [1.0] * 4}})
        p.write_text("\n".join([header, *rest]) + "\n")
        back, _ = read_path(p)
        assert np.array_equal(back.target.operator, t.operator)
        assert np.array_equal(back.target.norms_sq, t.norms_sq)
        write_path(back, again)
        twice, header = read_path(again)
        assert "S" in header["target"]
        assert np.array_equal(twice.times, path.times)
        assert np.array_equal(twice.frames, path.frames)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "path.jsonl"
        p.write_text('{"kind": "something_else"}\n')
        with pytest.raises(ValueError, match="header"):
            read_path(p)

    def test_sample_count_mismatch_rejected(self, tmp_path):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        path = connect(F, F, t)
        p = tmp_path / "path.jsonl"
        write_path(path, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="sample count|match"):
            read_path(p)

    @pytest.mark.parametrize("value", [[0], None, "0.5", {"t": 0}])
    def test_wrongly_typed_time_rejected(self, tmp_path, value):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        p = tmp_path / "path.jsonl"
        write_path(connect(F, F, t), p)
        header, first, *rest = p.read_text().splitlines()
        first = json.dumps({**json.loads(first), "t": value})
        p.write_text("\n".join([header, first, *rest]) + "\n")
        with pytest.raises(ValueError, match="'t'"):
            read_path(p)

    @pytest.mark.parametrize("field,value", [("samples", [2]), ("target", [1.0])])
    def test_wrongly_typed_header_field_rejected(self, tmp_path, field, value):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        p = tmp_path / "path.jsonl"
        write_path(connect(F, F, t), p)
        header, *rest = p.read_text().splitlines()
        header = json.dumps({**json.loads(header), field: value})
        p.write_text("\n".join([header, *rest]) + "\n")
        with pytest.raises(ValueError, match=repr(field)):
            read_path(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "path.jsonl"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_path(p)
