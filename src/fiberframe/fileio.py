"""File formats for frames, fiber targets, and paths.

Frames travel as JSON ({"k", "N", "re", "im"} with row-major real/imaginary
parts) or CSV (k rows of complex literals). Targets are JSON with either an
explicit operator {"S": {"re", "im"}, "r": [...]} or a spectrum
{"lambda": [...], "r": [...]}. Paths are JSON Lines: a header object followed
by one {"t", "re", "im"} object per sample. All floats are written with
repr-style shortest round-trip formatting, so read(write(x)) is bit-exact,
and every reader rejects non-finite values.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from ._linalg import _instance, as_complex_matrix
from .core import as_frame_matrix
from .fiber import FiberTarget
from .homotopy import FramePath

__all__ = [
    "read_frame",
    "write_frame",
    "read_target",
    "write_target",
    "read_path",
    "write_path",
]


def _reject_constant(token):
    raise ValueError(f"non-finite value {token!r} is not allowed")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f, parse_constant=_reject_constant)


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)
        f.write("\n")


def _number(obj: dict, key: str, kind: type, name: str):
    """obj[key] as kind, int or float; ValueError naming the field unless it is a JSON number of that kind."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ValueError(f"{name} field {key!r} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _floats(value, name: str) -> np.ndarray:
    """A JSON array as floats; ValueError naming the field when it is not an array of numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of numbers") from None


def _mat_to_obj(F: np.ndarray) -> dict:
    return {"re": F.real.tolist(), "im": F.imag.tolist()}


def _mat_from_obj(obj, name="matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ValueError(f"{name} must be an object with 're' and 'im' arrays")
    re, im = _floats(obj["re"], f"{name} 're'"), _floats(obj["im"], f"{name} 'im'")
    if re.shape != im.shape or re.ndim != 2:
        raise ValueError(f"{name} 're' and 'im' must be equal-shape 2-d arrays")
    return as_complex_matrix(re + 1j * im, name)


def _frame_obj(F: np.ndarray) -> dict:
    return {"k": F.shape[0], "N": F.shape[1], **_mat_to_obj(F)}


def _write_frame_json(F, path) -> None:
    """Write a frame as one JSON object {"k", "N", "re", "im"}."""
    _write_json(_frame_obj(as_frame_matrix(F)), path)


def _read_frame_json(path) -> np.ndarray:
    """Read a frame written by _write_frame_json; its shape must match the declared (k, N)."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError("frame file must contain a JSON object")
    for key in ("k", "N", "re", "im"):
        if key not in obj:
            raise ValueError(f"frame file is missing key {key!r}")
    F = _mat_from_obj(obj, "frame")
    if F.shape != (_number(obj, "k", int, "frame"), _number(obj, "N", int, "frame")):
        raise ValueError(f"frame shape {F.shape} does not match declared (k, N)")
    return F


def _write_frame_csv(F, path) -> None:
    """Write a frame as CSV: one row per frame row, one complex literal per entry."""
    F = as_frame_matrix(F)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        for row in F:
            writer.writerow([repr(complex(z)) for z in row])


def _read_frame_csv(path) -> np.ndarray:
    """Read a CSV frame: a non-empty rectangular table of complex literals; blank lines are skipped."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        for line in csv.reader(f):
            if not line:
                continue
            try:
                rows.append([complex(cell.strip()) for cell in line])
            except ValueError as exc:
                raise ValueError(f"bad complex literal in CSV frame: {exc}") from None
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("CSV frame must be a non-empty rectangular table")
    return as_frame_matrix(np.array(rows, dtype=complex), "frame")


_FRAME_FORMATS = {".json": (_read_frame_json, _write_frame_json), ".csv": (_read_frame_csv, _write_frame_csv)}


def _frame_format(path):
    """(reader, writer) of a frame file by its extension (.json or .csv, in any case)."""
    ext = os.path.splitext(os.fspath(path))[1].lower()
    if ext not in _FRAME_FORMATS:
        raise ValueError(f"unsupported frame file extension {ext!r}")
    return _FRAME_FORMATS[ext]


def write_frame(F, path) -> None:
    """Write a frame, dispatching on the file extension (.json or .csv)."""
    _frame_format(path)[1](F, path)


def read_frame(path) -> np.ndarray:
    """Read a frame, dispatching on the file extension (.json or .csv)."""
    return _frame_format(path)[0](path)


def _target_obj(target: FiberTarget) -> dict:
    return {"S": _mat_to_obj(target.operator), "r": target.norms_sq.tolist()}


def write_target(target: FiberTarget, path) -> None:
    """Write a fiber target as JSON {"S": {"re", "im"}, "r": [...]}, readable by read_target."""
    _instance(target, FiberTarget, "target")
    _write_json(_target_obj(target), path)


def _target_from_obj(obj, name: str) -> FiberTarget:
    """A target object {"S": {"re", "im"}, "r": [...]} or {"lambda": [...], "r": [...]}, called name in errors."""
    if not isinstance(obj, dict) or "r" not in obj:
        raise ValueError(f"{name} must be a JSON object with an 'r' array")
    r = _floats(obj["r"], "target 'r'")
    if "S" in obj:
        return FiberTarget(operator=_mat_from_obj(obj["S"], "S"), norms_sq=r)
    if "lambda" in obj:
        return FiberTarget.from_spectrum(_floats(obj["lambda"], "target 'lambda'"), r)
    raise ValueError(f"{name} needs either an 'S' matrix or a 'lambda' spectrum")


def read_target(path) -> FiberTarget:
    """Read a fiber target: either {"S": ..., "r": ...} or {"lambda": ..., "r": ...}."""
    return _target_from_obj(_load_json(path), "target file")


def _read_operator(path) -> np.ndarray:
    """The operator matrix of a JSON file: a bare {"re", "im"} object or the "S" of a target file."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "S" in obj:
        obj = obj["S"]
    return _mat_from_obj(obj, "operator")


def write_path(path_obj: FramePath, path, extra: dict | None = None) -> None:
    """Write a path as JSON Lines: one header object, then one object per sample."""
    header = {
        "kind": "frame_path",
        "format_version": 1,
        "k": path_obj.target.k,
        "N": path_obj.target.N,
        "samples": len(path_obj),
        "target": _target_obj(path_obj.target),
    }
    if extra:
        header.update(extra)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header) + "\n")
        for t, F in path_obj:
            f.write(json.dumps({"t": float(t), **_mat_to_obj(F)}) + "\n")


def read_path(path):
    """Read a JSON Lines path; returns (FramePath, header dict).

    The header's "target" takes either form that read_target reads.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("path file is empty")
    header = json.loads(lines[0], parse_constant=_reject_constant)
    if not isinstance(header, dict) or header.get("kind") != "frame_path":
        raise ValueError("path file does not start with a frame_path header")
    target = _target_from_obj(header.get("target"), "path header 'target'")
    times = []
    frames = []
    for ln in lines[1:]:
        obj = json.loads(ln, parse_constant=_reject_constant)
        if not isinstance(obj, dict) or "t" not in obj:
            raise ValueError("path sample must be an object with 't', 're' and 'im'")
        times.append(_number(obj, "t", float, "path sample"))
        frames.append(_mat_from_obj(obj, "sample"))
    if not frames:
        raise ValueError("path file has no samples")
    declared = _number(header, "samples", int, "path header") if "samples" in header else len(frames)
    if len(frames) != declared:
        raise ValueError("sample count does not match the header")
    return FramePath(np.asarray(times), np.stack(frames), target), header
