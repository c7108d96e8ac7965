"""Numerical paths between two frames on the same fiber.

Any two frames with equal frame operator S and equal squared norms can be
joined by a path that stays on that fiber (for regular targets). connect()
produces an explicit discrete witness: gauge-align the endpoints with a
unitary from the commutant of S, trace the straight chord while projecting
every sample onto the fiber (retrying a sample with seeded tangent kicks when
its projection is rejected), then unwind the gauge along a one-parameter
unitary group, which moves on the fiber exactly. A chord or unwind sample that
stays off the fiber is dropped; one bridge pass then subdivides every gap
wider than delta between consecutive on-fiber samples, so it is the only
subdivision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    as_hermitian,
    cluster_by_gap,
    polar_unitary,
    eigh_desc,
    unitary_log_factors,
)
from .core import _frame_pair, as_frame_matrix
from .errors import ClusteringError, ConnectError
from .fiber import FiberTarget
from .flows import FlowOptions, _normal_preimage, _residual, project_to_fiber

__all__ = [
    "ConnectOptions",
    "FramePath",
    "PathCheck",
    "gauge_align",
    "connect",
    "validate_path",
]


# seeded tangent kicks tried on a rejected sample, and their size relative to ||F0||
_KICKS = 5
_KICK_SCALE = 1e-4
# relative eigenvalue gap below which the gauge treats eigenvalues as one cluster
_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class ConnectOptions:
    """Tuning for connect().

    path_tol bounds the fiber deviation of every sample in norm units (the
    squared residual stays below path_tol^2). delta bounds consecutive-sample
    distance relative to the Frobenius norm of the first endpoint.
    max_refine_depth limits the recursion of the bridge pass, which halves
    every gap wider than delta. seed drives the tangent kicks tried on a
    sample whose projection is rejected.
    """

    path_tol: float = 1e-8
    delta: float = 0.05
    max_refine_depth: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.path_tol <= 0 or self.delta <= 0:
            raise ValueError("path_tol and delta must be positive")
        if self.max_refine_depth < 0:
            raise ValueError("max_refine_depth must be non-negative")


@dataclass(eq=False)
class FramePath:
    """Discrete path on a fiber: times in [0, 1] with one frame per time."""

    times: np.ndarray
    frames: np.ndarray
    target: FiberTarget

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        Fs = np.asarray(self.frames)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two samples")
        if Fs.shape != (t.size, self.target.k, self.target.N):
            raise ValueError(
                f"frames shape {Fs.shape} does not match "
                f"({t.size}, {self.target.k}, {self.target.N})"
            )
        if abs(t[0]) > 1e-15 or abs(t[-1] - 1.0) > 1e-15:
            raise ValueError("times must start at 0 and end at 1")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        self.times = t
        self.frames = Fs.astype(np.complex128, copy=False)

    def __len__(self) -> int:
        return self.times.size

    def __iter__(self):
        return zip(self.times, self.frames)

    def residuals(self) -> np.ndarray:
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("frames contain non-finite entries")
        return np.array([_residual(F, self.target) for F in self.frames])

    def step_norms(self) -> np.ndarray:
        d = np.diff(self.frames, axis=0)
        return np.sqrt(np.sum(np.abs(d) ** 2, axis=(1, 2)))


@dataclass(frozen=True)
class PathCheck:
    """Result of validate_path with the worst offenders recorded."""

    ok: bool
    max_residual: float
    max_step: float
    step_limit: float
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_path(path: FramePath, tol: float = 1e-8, delta: float = 0.05, endpoints=None):
    """Check that every sample sits on the fiber and steps stay small.

    tol is in norm units: a sample passes when its squared residual is at
    most tol^2. delta limits each consecutive step relative to the norm of
    the first sample. endpoints, when given as (F0, F1), must match the first
    and last sample to 1e-12 relative.
    """
    res = path.residuals()
    steps = path.step_norms()
    scale = float(np.linalg.norm(path.frames[0]))
    step_limit = delta * scale
    max_res = float(np.max(res))
    max_step = float(np.max(steps)) if steps.size else 0.0
    problems = []
    if max_res > tol * tol:
        problems.append(f"sample residual {max_res:.3e} exceeds tol^2 = {tol * tol:.3e}")
    if max_step > step_limit * (1.0 + 1e-9):
        problems.append(f"step {max_step:.3e} exceeds delta * ||F_0|| = {step_limit:.3e}")
    if endpoints is not None:
        F0, F1 = endpoints
        d0 = np.linalg.norm(path.frames[0] - as_frame_matrix(F0))
        d1 = np.linalg.norm(path.frames[-1] - as_frame_matrix(F1))
        if d0 > 1e-12 * max(1.0, scale) or d1 > 1e-12 * max(1.0, scale):
            problems.append("endpoints do not match the requested frames")
    return PathCheck(
        ok=not problems,
        max_residual=max_res,
        max_step=max_step,
        step_limit=step_limit,
        message="; ".join(problems),
    )


def _commutant_gauge(F0: np.ndarray, F1: np.ndarray, operator: np.ndarray, cluster_tol: float):
    """Unitary V commuting with the operator's spectral blocks minimizing ||F0 - V F1||.

    Falls back to the identity when the spectrum cannot be clustered safely.
    """
    k = F0.shape[0]
    w, U = eigh_desc(operator)
    try:
        clusters = cluster_by_gap(w, cluster_tol)
    except ClusteringError:
        return np.eye(k, dtype=complex)
    A = U.conj().T @ F0
    B = U.conj().T @ F1
    blocks = np.zeros((k, k), dtype=complex)
    for cl in clusters:
        M = A[cl] @ B[cl].conj().T
        blocks[np.ix_(cl, cl)] = polar_unitary(M)
    return U @ blocks @ U.conj().T


def gauge_align(F0, F1, operator, cluster_tol: float = _CLUSTER_TOL) -> np.ndarray:
    """Best commutant-unitary alignment V F1 of F1 toward F0.

    V commutes with the clustered spectral projections of the operator, so it
    preserves both fiber constraints (operator and column norms) up to the
    cluster widths; blockwise it is the orthogonal-Procrustes optimum.
    """
    F0, F1 = _frame_pair(F0, F1)
    S = as_hermitian(operator, name="operator")
    V = _commutant_gauge(F0, F1, S, cluster_tol)
    return V @ F1


def _tangent_kick(rng: np.random.Generator, F: np.ndarray, size: float) -> np.ndarray:
    """Random perturbation of norm `size`, projected onto the fiber tangent space at F.

    The normal space at F is {A F + F diag(d) : A Hermitian, d real}, the range
    of the adjoint of the momentum derivative D(F); the normal component of a
    random G0 is the minimum-norm preimage of D(F) G0, the same solve that
    gives the Newton step.
    """
    k, N = F.shape
    G0 = rng.standard_normal((k, N)) + 1j * rng.standard_normal((k, N))
    W = F @ G0.conj().T
    T = G0 - _normal_preimage(F, W + W.conj().T, 2.0 * np.real(np.sum(F.conj() * G0, axis=0)))
    nrm = np.linalg.norm(T)
    if nrm == 0.0:
        return np.zeros_like(F)
    return (size / nrm) * T


def connect(F0, F1, target: FiberTarget, options: ConnectOptions | None = None) -> FramePath:
    """Discrete on-fiber path from F0 to F1; both must lie on the target fiber.

    Raises ValueError when an endpoint is off the fiber (beyond path_tol) and
    ConnectError (with the chord parameter near the failure in .t) when the
    bridge pass cannot close a gap between on-fiber samples. The result is
    validated before being returned and is deterministic for a fixed seed.
    """
    opts = options or ConnectOptions()
    F0, F1 = _frame_pair(F0, F1)
    if F0.shape != (target.k, target.N):
        raise ValueError(f"frame shape {F0.shape} does not match target")
    ptol2 = opts.path_tol**2
    for name, F in (("F0", F0), ("F1", F1)):
        phi = _residual(F, target)
        if phi > ptol2:
            raise ValueError(f"{name} is off the fiber: residual {phi:.3e} > {ptol2:.3e}")

    scale = float(np.linalg.norm(F0))
    delta_abs = opts.delta * scale
    rng = np.random.default_rng(opts.seed)
    k = target.k

    if np.linalg.norm(F1 - F0) <= 1e-14 * max(1.0, scale):
        return FramePath(np.array([0.0, 1.0]), np.stack([F0, F1]), target)

    V = _commutant_gauge(F0, F1, target.operator, _CLUSTER_TOL)
    unwind = np.linalg.norm(V - np.eye(k)) > 1e-12 * np.sqrt(k)
    F1a = V @ F1 if unwind else F1

    proj_opts = FlowOptions(tol=min(1e-20, 0.01 * ptol2), stall_iters=100)
    accept_tol = 0.5 * ptol2

    def project(X, kick_base):
        # on-fiber projection of X, else of X plus a seeded tangent kick at
        # kick_base; None when every try is rejected
        G, _rep = project_to_fiber(X, target, proj_opts)
        if _residual(G, target) <= accept_tol:
            return G
        for _ in range(_KICKS):
            Xk = X + _tangent_kick(rng, kick_base, _KICK_SCALE * scale)
            G, _rep = project_to_fiber(Xk, target, proj_opts)
            if _residual(G, target) <= accept_tol:
                return G
        return None

    def bridge(Fa, Fb, depth, t_hint):
        # both ends on the fiber; subdivide their chord until steps fit delta
        if depth > opts.max_refine_depth:
            raise ConnectError("bridging between fiber points exceeded depth", t=t_hint)
        gap = float(np.linalg.norm(Fb - Fa))
        M = project(0.5 * (Fa + Fb), kick_base=Fa)
        if M is None:
            raise ConnectError("projection failed while bridging fiber points", t=t_hint)
        if max(np.linalg.norm(M - Fa), np.linalg.norm(Fb - M)) >= gap * (1.0 - 1e-12):
            raise ConnectError("bridging made no progress between fiber points", t=t_hint)
        left = [] if np.linalg.norm(M - Fa) <= delta_abs else bridge(Fa, M, depth + 1, t_hint)
        right = [] if np.linalg.norm(Fb - M) <= delta_abs else bridge(M, Fb, depth + 1, t_hint)
        return left + [M] + right

    chord_len = float(np.linalg.norm(F1a - F0))
    n0 = max(1, int(np.ceil(1.5 * chord_len / delta_abs))) if delta_abs > 0 else 1

    # (chord parameter, on-fiber frame) pairs; a sample whose projection is
    # rejected is dropped and the bridge pass below closes the gap it leaves.
    # Without an unwind the chord ends at F1 itself, so its last sample is F1.
    samples = [(0.0, F0)]
    for i in range(1, n0 + 1 if unwind else n0):
        G = project((1.0 - i / n0) * F0 + (i / n0) * F1a, kick_base=samples[-1][1])
        if G is not None:
            samples.append((i / n0, G))

    if unwind:
        Z, theta = unitary_log_factors(V)
        dist = float(np.linalg.norm(F1a - F1))
        nsteps = max(1, int(np.ceil(dist / (0.5 * delta_abs)))) if delta_abs > 0 else 1
        for s in np.linspace(0.0, 1.0, nsteps + 1)[1:-1]:
            Fs = ((Z * np.exp(1j * (1.0 - s) * theta)) @ Z.conj().T) @ F1
            if _residual(Fs, target) <= accept_tol:
                samples.append((1.0, Fs))
    samples.append((1.0, F1))

    frames = [F0]
    for (ta, _), (tb, G) in zip(samples, samples[1:]):
        if np.linalg.norm(G - frames[-1]) > delta_abs:
            frames.extend(bridge(frames[-1], G, 0, t_hint=0.5 * (ta + tb)))
        frames.append(G)

    # prune near-duplicate samples; F0 and F1 stay, and the early return for
    # F1 == F0 keeps the step between them, so every time step is positive
    thresh = 1e-13 * max(1.0, scale)
    kept = [F0]
    for F in frames[1:-1]:
        if np.linalg.norm(F - kept[-1]) > thresh:
            kept.append(F)
    while len(kept) > 1 and np.linalg.norm(F1 - kept[-1]) <= thresh:
        kept.pop()
    kept.append(F1)

    arr = np.stack(kept)
    seg = np.sqrt(np.sum(np.abs(np.diff(arr, axis=0)) ** 2, axis=(1, 2)))
    times = np.concatenate([[0.0], np.cumsum(seg) / np.sum(seg)])
    times[-1] = 1.0
    path = FramePath(times, arr, target)

    check = validate_path(path, tol=opts.path_tol, delta=opts.delta, endpoints=(F0, F1))
    if not check:
        raise ConnectError(f"traced path failed validation: {check.message}", t=None)
    return path
