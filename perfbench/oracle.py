"""Output checks that share no code with fiberframe.

Every returned frame and path sample is re-measured here with plain numpy:
the fiber gap ||F F* - S||_F^2 + ||norms - r||^2, step sizes, endpoints and
sample times. Files written by the CLI are re-read with the json module.
Each check returns None when the output is correct, else a reason string.
"""

from __future__ import annotations

import json

import numpy as np


def fiber_gap(F, S, r) -> float:
    D = F @ F.conj().T - S
    g = np.sum(F.real**2 + F.imag**2, axis=0) - r
    return float(np.sum(D.real**2 + D.imag**2) + np.dot(g, g))


def check_frame(F, S, r, tol: float):
    """A repaired or constructed frame: right shape, finite, fiber gap <= tol (squared units)."""
    F = np.asarray(F)
    if F.shape != (S.shape[0], r.shape[0]):
        return f"frame shape {F.shape} != ({S.shape[0]}, {r.shape[0]})"
    if not np.all(np.isfinite(F)):
        return "frame has non-finite entries"
    gap = fiber_gap(F, S, r)
    # 1e-3 relative slack covers the rounding difference between two evaluations
    if not gap <= tol * (1.0 + 1e-3):
        return f"fiber gap {gap:.3e} > {tol:.3e}"
    return None


def check_path(times, frames, S, r, F0, F1, path_tol: float, delta: float):
    """A traced path: times 0..1 increasing, samples on the fiber, small steps, exact endpoints."""
    t = np.asarray(times, dtype=float)
    Fs = np.asarray(frames)
    if t.ndim != 1 or t.size < 2 or Fs.shape[0] != t.size:
        return "path needs at least two samples, one time per sample"
    if t[0] != 0.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0.0):
        return "times must run strictly upward from 0 to 1"
    for i, F in enumerate(Fs):
        reason = check_frame(F, S, r, path_tol * path_tol)
        if reason:
            return f"sample {i}: {reason}"
    scale = float(np.sqrt(np.sum(np.abs(F0) ** 2)))
    steps = np.sqrt(np.sum(np.abs(np.diff(Fs, axis=0)) ** 2, axis=(1, 2)))
    limit = delta * scale * (1.0 + 1e-9)
    if steps.max() > limit:
        return f"step {steps.max():.3e} > delta * ||F0|| = {limit:.3e}"
    end_tol = 1e-12 * max(1.0, scale)
    if np.abs(Fs[0] - F0).max() > end_tol or np.abs(Fs[-1] - F1).max() > end_tol:
        return "path endpoints differ from the requested frames"
    return None


def alternating_rounds(X, S, r, tol: float, max_rounds: int):
    """Rounds of textbook alternating projection from X until the fiber gap is <= tol.

    One round maps F to S^(1/2) times the polar isometry of F, then rescales
    every column to its prescribed norm. Returns None after max_rounds.
    """
    w, V = np.linalg.eigh(S)
    S_half = (V * np.sqrt(w)) @ V.conj().T
    F = X
    for rounds in range(1, max_rounds + 1):
        U, _s, Vh = np.linalg.svd(F, full_matrices=False)
        F = S_half @ (U @ Vh)
        F = F * np.sqrt(r / np.sum(F.real**2 + F.imag**2, axis=0))
        if fiber_gap(F, S, r) <= tol:
            return rounds
    return None


def _matrix(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def read_frame_file(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        obj = json.load(f)
    F = _matrix(obj)
    if F.shape != (obj["k"], obj["N"]):
        raise ValueError(f"declared shape ({obj['k']}, {obj['N']}) != stored {F.shape}")
    return F


def read_path_file(path):
    """(times, frames) from a JSON Lines path file: header line, then one line per sample."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln for ln in f if ln.strip()]
    header = json.loads(lines[0])
    samples = [json.loads(ln) for ln in lines[1:]]
    if header.get("kind") != "frame_path" or header.get("samples") != len(samples):
        raise ValueError("path header does not describe the samples that follow")
    return [s["t"] for s in samples], np.stack([_matrix(s) for s in samples])
