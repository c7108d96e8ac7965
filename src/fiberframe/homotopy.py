"""Numerical paths between two frames on the same fiber.

Any two frames with equal frame operator S and equal squared norms can be
joined by a path that stays on that fiber (for regular targets). connect()
produces an explicit discrete witness. The fiber is a level set of the
momentum map of U(k) x T^N, so the unitaries commuting with S (U(k)_S, the
stabilizer of S) and the column phases T^N both move a frame exactly along
it. This symmetry stage runs in the eigenbasis U of S, which the target
computes once: there U(k)_S is block diagonal, one U(m) per eigenvalue
cluster of multiplicity m. The endpoints are mapped there once and aligned
over U(k)_S x T^N: a block-diagonal unitary V and column phases
D = diag(exp(i phi)) with V U* F1 D close to U* F0, by alternating exact
block minimisation. With V = Z diag(exp(i theta)) Z*, its logarithm taken
block by block (a 1 x 1 block's angle is its phase), the unwind
s -> U Z diag(exp(i (1 - s) theta)) Z* U* F1 diag(exp(i (1 - s) phi)) then runs
from the aligned endpoint U V U* F1 D to F1 on the fiber exactly, in steps of
equal arc length at most delta; its samples are built in the basis U Z and
mapped back by one product. The endpoints and the unwind samples are the
anchors. The path is one ordered array of frames, and a bridge pass
subdivides its gaps wider than delta round by round: a round cuts each open
gap into 2, 4, 8 or 16 pieces (up to four bisection levels), projects the
chord points of all open gaps onto the fiber in one stacked Newton solve (a
point whose projection is rejected is retried with seeded tangent kicks) and
merges them into the array, and the pieces still wider than delta are the
next round's open gaps. So the chord from F0 to the aligned endpoint is
bridged like every other gap. An unwind sample off the fiber (V commutes
with S only up to the widths of its eigenvalue clusters) is dropped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ._linalg import (
    COINCIDE_RTOL,
    _finite_array,
    _non_negative_int,
    _real_number,
    polar_unitary,
    unitary_log_factors,
)
from .errors import ConnectError, OffFiberError
from .fiber import FiberTarget
from .flows import FlowOptions, _gaps, _newton, _normal_preimage, _phi, _residual, _target_frame
from .momentum import _derivative

__all__ = [
    "ConnectOptions",
    "ConnectReport",
    "FramePath",
    "PathCheck",
    "connect",
    "validate_path",
]


# seeded tangent kicks tried on a rejected sample, and their size relative to ||F0||
_KICKS = 5
_KICK_SCALE = 1e-4
# a bridge round cuts a gap into at most 2^_ROUND_LEVELS pieces: at k = 2 a
# Newton run of 16 rows costs about as much as one of 1, and 16 pieces close
# most of the 11-16 delta chords of the k = 2 fibers in one round instead of
# two; but rows far from the fiber take more iterations, and a cap of 5 or 6
# made funtf(8,64) and funtf(4,16) at delta = 1e-3 slower again
_ROUND_LEVELS = 4
# the bridge gives up when gaps stay open after _EXTRA_DEPTH rounds beyond
# those a straight chord of the widest anchor gap needs
_EXTRA_DEPTH = 4
# bytes of kernel temporaries one stacked projection may hold; a round with
# more rows is projected in several runs. A (16,128) row holds about 0.9 MB,
# and runs of 4 rows instead of 15 made funtf(16,128) about 12% faster on a
# core with 4 MB of L2 cache
_STACK_BYTES = 1 << 22


def _positive(value, name: str) -> None:
    """ValueError unless value is a finite real number > 0; a bool is not one."""
    if not _real_number(value) or not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class ConnectOptions:
    """Tuning for connect().

    path_tol bounds the fiber deviation of every sample in norm units (the
    squared residual stays below path_tol^2). delta bounds consecutive-sample
    distance relative to the Frobenius norm of the first endpoint. seed
    drives the tangent kicks tried on a bridge point whose projection is
    rejected. ValueError unless path_tol and delta are finite and > 0 and
    seed is an integer >= 0 (not a bool).
    """

    path_tol: float = 1e-8
    delta: float = 0.05
    seed: int = 0

    def __post_init__(self):
        _positive(self.path_tol, "path_tol")
        _positive(self.delta, "delta")
        _non_negative_int(self.seed, "seed")


@dataclass
class ConnectReport:
    """Counts of one connect() run; deterministic for a fixed seed.

    projections counts the frames projected onto the fiber (bridge points
    and kicked retries), newton_iterations their accepted Newton steps, kicks
    the tangent kicks tried, levels the bridge rounds. unwind counts the
    exact unwind samples kept as anchors, unwind_dropped those the accept
    filter dropped. unwind_length is the unwind's exact arc length divided
    by ||F0||, 0 when there is no unwind; a measurement rather than a count,
    it is left out of report equality, which compares the work done.
    """

    projections: int = 0
    newton_iterations: int = 0
    kicks: int = 0
    levels: int = 0
    unwind: int = 0
    unwind_dropped: int = 0
    unwind_length: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)
class FramePath:
    """Discrete path on a fiber: finite times in [0, 1] with one finite frame per time.

    report and check hold the counts and the PathCheck of the connect() run
    that traced the path; both are None for a path read from file.
    """

    times: np.ndarray
    frames: np.ndarray
    target: FiberTarget
    report: ConnectReport | None = None
    check: PathCheck | None = None

    def __post_init__(self):
        t = _finite_array(self.times, np.float64, 1, "times")
        Fs = _finite_array(self.frames, np.complex128, 3, "frames")
        if t.size < 2:
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
        self.times, self.frames = t, Fs

    def __len__(self) -> int:
        return self.times.size

    def __iter__(self):
        return zip(self.times, self.frames)

    def residuals(self) -> np.ndarray:
        return _phi(*_gaps(self.frames, self.target))

    def step_norms(self) -> np.ndarray:
        return _frobenius(np.diff(self.frames, axis=0))


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


def validate_path(path: FramePath, tol=ConnectOptions.path_tol, delta=ConnectOptions.delta, endpoints=None):
    """Check that every sample sits on the fiber and steps stay small.

    tol is in norm units: a sample passes when its squared residual is at
    most tol^2. delta limits each consecutive step relative to the norm of
    the first sample. endpoints, when given as (F0, F1), must match the first
    and last sample to 1e-12 relative (COINCIDE_RTOL). ValueError unless tol
    and delta are finite and > 0, the rule of ConnectOptions, and each
    endpoint has the path's shape (k, N).
    """
    _positive(tol, "tol")
    _positive(delta, "delta")
    res = path.residuals()
    steps = path.step_norms()
    scale = float(np.linalg.norm(path.frames[0]))
    step_limit = delta * scale
    max_res = float(np.max(res))
    max_step = float(np.max(steps))
    problems = []
    # not <=: a NaN residual (a frame made non-finite after the path was built) fails
    if not max_res <= tol * tol:
        problems.append(f"sample residual {max_res:.3e} exceeds tol^2 = {tol * tol:.3e}")
    if max_step > step_limit * (1.0 + 1e-9):
        problems.append(f"step {max_step:.3e} exceeds delta * ||F_0|| = {step_limit:.3e}")
    if endpoints is not None:
        F0, F1 = (_target_frame(F, path.target) for F in endpoints)
        d0 = np.linalg.norm(path.frames[0] - F0)
        d1 = np.linalg.norm(path.frames[-1] - F1)
        if max(d0, d1) > COINCIDE_RTOL * scale:
            problems.append("endpoints do not match the requested frames")
    return PathCheck(
        ok=not problems,
        max_residual=max_res,
        max_step=max_step,
        step_limit=step_limit,
        message="; ".join(problems),
    )


def _block_procrustes(A: np.ndarray, B: np.ndarray, blocks) -> np.ndarray:
    """Block-diagonal unitary V minimizing ||A - V B||, frames in the eigenbasis of the operator.

    Each block is the orthogonal-Procrustes optimum, the polar factor of
    M = A[b] B[b]*, which for a 1 x 1 block is the phase of M (1 when M = 0);
    V is the identity when there are no blocks.
    """
    V = np.eye(len(A), dtype=complex)
    for b in blocks:
        M = A[b] @ B[b].conj().T
        V[b, b] = polar_unitary(M) if len(M) > 1 else np.exp(1j * np.angle(M))
    return V


def _column_angles(F0: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Angles phi minimizing ||F0 - G diag(exp(i phi))||: those of <g_j, f0_j>, 0 where one vanishes."""
    return np.angle(np.vecdot(G, F0, axis=0))


def _eigen_gauge(A: np.ndarray, B: np.ndarray, blocks):
    """Block-diagonal V and column angles phi with V B diag(exp(i phi)) close to A.

    A and B are the endpoints in the eigenbasis of the operator, where U(k)_S
    is block diagonal over the clusters (blocks). Alternating exact block
    minimisation of ||A - V B diag(exp(i phi))|| over V (the block Procrustes
    optimum for the current phases) and phi. It starts from the closer of the
    two one-group optima, V for phi = 0 (the block-Procrustes optimum
    _block_procrustes(A, B)) and phi for V = I, and then solves V and phi once
    more. No step lengthens the distance, so V B D is never farther from A
    than _block_procrustes(A, B) B. From V, the alternation would close a
    pure column-phase difference B = A D only linearly.
    """
    V = _block_procrustes(A, B, blocks)
    phi = _column_angles(A, B)
    if np.linalg.norm(A - V @ B) <= np.linalg.norm(A - B * np.exp(1j * phi)):
        phi = _column_angles(A, V @ B)
    V = _block_procrustes(A, B * np.exp(1j * phi), blocks)
    return V, _column_angles(A, V @ B)


def _block_log(V: np.ndarray, blocks):
    """Block-diagonal Z and angles theta with V = Z diag(exp(i theta)) Z*, theta in (-pi, pi].

    V is block diagonal over blocks and the identity off them. A 1 x 1
    block's angle is its phase; larger blocks go through unitary_log_factors.
    """
    Z = np.eye(len(V), dtype=complex)
    theta = np.angle(np.diagonal(V))
    for b in blocks:
        if b.stop - b.start > 1:
            Z[b, b], theta[b] = unitary_log_factors(V[b, b])
    return Z, theta


def _frobenius(D: np.ndarray) -> np.ndarray:
    """Frobenius norm of each frame of a stack, summed as np.linalg.norm sums one frame."""
    re, im = D.real.reshape(len(D), -1), D.imag.reshape(len(D), -1)
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _tangent_kick(rng: np.random.Generator, F: np.ndarray, size: float) -> np.ndarray:
    """Random perturbation of norm `size`, projected onto the fiber tangent space at F.

    The normal space at F is {A F + F diag(d) : A Hermitian, d real}, the range
    of the adjoint of the momentum derivative D(F); the normal component of a
    random G0 is the minimum-norm preimage of D(F) G0, the same solve that
    gives the Newton step.
    """
    k, N = F.shape
    G0 = rng.standard_normal((k, N)) + 1j * rng.standard_normal((k, N))
    T = G0 - _normal_preimage(F, *_derivative(F, G0))
    nrm = np.linalg.norm(T)
    if nrm == 0.0:
        return np.zeros_like(F)
    return (size / nrm) * T


def connect(F0, F1, target: FiberTarget, options: ConnectOptions | None = None) -> FramePath:
    """Discrete on-fiber path from F0 to F1; both must lie on the target fiber.

    The anchors are F0, the on-fiber unwind samples and F1. The unwind runs
    over U(k)_S x T^N from the aligned endpoint V F1 D (V a unitary commuting
    with the operator's spectral clusters and D column phases, alternated to
    bring F1 close to F0) to F1. The alignment, the logarithm of V and the
    samples are computed in the eigenbasis of the operator that the target
    holds, where V is block diagonal; they are taken block by block and the
    samples mapped back by one product, so V is never formed in the original
    basis. The column angles are shifted by the whole turn that makes the
    unwind shortest (the global phase acts through both groups), and it takes
    ceil(L / (delta ||F0||)) samples of equal arc length, L its exact length,
    so every step is within delta; those that pass the accept filter are kept,
    and the report counts both and records L / ||F0||. Frames within
    COINCIDE_RTOL ||F0|| (1e-12 relative) are one sample: F1 that close to F0
    gives [F0, F1], V F1 D that close to F1 no unwind, and an anchor that
    close to the one before it is dropped. The bridge pass then runs round by
    round over the ordered array of samples: each round cuts every gap of
    width w > delta into m = 2^min(_ROUND_LEVELS, ceil(log2(w / delta)))
    pieces (2, 4, 8 or 16), projects their chord points in one Newton solve
    (in several when its kernel temporaries would pass _STACK_BYTES), retries
    each rejected point (accepted within half of path_tol^2) with seeded
    tangent kicks in path order and merges the points in; every piece of a gap
    must be shorter than it. Every interior sample is a bridge point or an
    exact unwind sample; the path's report counts the work.

    Raises OffFiberError when an endpoint is off the fiber (beyond path_tol),
    F0 first, and ConnectError when the bridge pass cannot close a gap between
    anchors: a point rejected after every kick (its chord parameter in .t), a
    piece no shorter than its gap, a gap still open after _EXTRA_DEPTH rounds
    beyond the ceil(h / _ROUND_LEVELS) that the h halvings of the widest
    anchor gap need (its midpoint's chord parameter in .t), or a path failing
    validate_path with the run's options. A returned path, [F0, F1] too, holds
    that PathCheck in .check and is deterministic for a fixed seed.
    """
    opts = options or ConnectOptions()
    ptol2 = opts.path_tol**2
    ends = []
    for index, F in enumerate((F0, F1)):
        ends.append(_target_frame(F, target))
        phi = _residual(ends[-1], target)
        if phi > ptol2:
            raise OffFiberError(f"F{index} is off the fiber: residual {phi:.3e} > {ptol2:.3e}", index, phi)
    F0, F1 = ends

    scale = float(np.linalg.norm(F0))
    delta_abs = opts.delta * scale
    rng = None
    k = target.k
    report = ConnectReport()

    def validated(path):
        path.check = validate_path(path, tol=opts.path_tol, delta=opts.delta, endpoints=(F0, F1))
        if not path.check:
            raise ConnectError(f"traced path failed validation: {path.check.message}", t=None)
        return path

    close = COINCIDE_RTOL * scale
    if np.linalg.norm(F1 - F0) <= close:
        return validated(FramePath(np.array([0.0, 1.0]), np.stack([F0, F1]), target, report))

    proj_opts = FlowOptions(tol=min(1e-20, 0.01 * ptol2))
    accept_tol = 0.5 * ptol2

    # a row of the Newton kernel holds about 24 k^2 N + 8 N^2 bytes (its pair
    # products, their real factor and its N x N system)
    chunk = max(1, _STACK_BYTES // (24 * k * k * target.N + 8 * target.N**2))

    def project(X):
        # Newton projection of the stack X; the frames and which rows are accepted
        G, phi = np.empty_like(X), np.empty(len(X))
        for i in range(0, len(X), chunk):
            rows = slice(i, i + chunk)
            G[rows], phi[rows], iters, _trace, _stalled = _newton(X[rows], target, proj_opts)
            report.newton_iterations += int(iters.sum())
        report.projections += len(X)
        return G, phi <= accept_tol

    def kicked(X, base, t):
        # projection of X plus a seeded tangent kick at base, until one is accepted
        nonlocal rng
        rng = rng or np.random.default_rng(opts.seed)
        for _ in range(_KICKS):
            report.kicks += 1
            G, ok = project((X + _tangent_kick(rng, base, _KICK_SCALE * scale))[None])
            if ok[0]:
                return G[0]
        raise ConnectError("projection failed while bridging fiber points", t=t)

    # the anchors are F0, the on-fiber unwind samples and F1; the chord runs
    # from F0 to the first of them, the aligned endpoint V F1 D, over chord
    # parameters 0 to 1, and the unwind from V F1 D to F1 sits at parameter 1
    unwind = np.empty((0, k, target.N), dtype=complex)
    # the symmetry stage runs in the eigenbasis U of the operator, where
    # U(k)_S is block diagonal over its clusters: the endpoints are mapped
    # once, and the unwind samples are mapped back by one product
    _w, U, clusters = target._spectral
    blocks = clusters or ()
    Uh = U.conj().T
    B = Uh @ F1
    V, phi = _eigen_gauge(Uh @ F0, B, blocks)
    reach = np.linalg.norm(V @ B * np.exp(1j * phi) - B)
    if reach > close:
        # V = Z diag(exp(i theta)) Z*, so in the basis U Z the unwind
        # multiplies entry (l, j) of C = Z* B by exp(i u (theta_l + phi_j)).
        # It is an orbit of a one-parameter group of isometries, so its length
        # L is the norm of its constant velocity C (theta_l + phi_j).
        # Shifting phi by a whole turn 2 pi m keeps its ends (the global
        # phase acts through both groups); m is the integer nearest the
        # minimizer of L, and arcs of at most delta_abs keep every chord
        # within delta
        Z, theta = _block_log(V, blocks)
        C = Z.conj().T @ B
        angles = theta[:, None] + phi
        turns = np.round(np.real(np.vdot(C, C * angles)) / (2.0 * np.pi * np.real(np.vdot(C, C))))
        angles -= 2.0 * np.pi * turns
        length = float(np.linalg.norm(C * angles))
        nsteps = int(np.ceil(length / delta_abs))
        u = 1.0 - np.linspace(0.0, 1.0, nsteps + 1)[:-1]
        Es = C[:, None] * np.exp(1j * u[:, None] * angles[:, None])
        Fs = ((U @ Z) @ Es.reshape(k, -1)).reshape(Es.shape).transpose(1, 0, 2)
        unwind = Fs[_phi(*_gaps(Fs, target)) <= accept_tol]
        report.unwind, report.unwind_dropped = len(unwind), nsteps - len(unwind)
        report.unwind_length = length / scale
    arr = np.concatenate((F0[None], unwind, F1[None]))
    t = np.minimum(np.arange(len(arr)), 1.0)

    # an anchor within close of the one before it is dropped; F0 and F1 stay.
    # Unwind steps are arcs of one length, above delta / 2 unless the unwind
    # is one step of its whole length, so this drops V F1 D when it coincides
    # with F0 (F1 a symmetry image of F0). Bridge points are not
    # pruned: each starts w / m > delta / 2 from its neighbours, and one
    # projected onto the far end of its gap fails the progress check.
    seg = _frobenius(np.diff(arr, axis=0))
    keep = np.concatenate(([True], seg[:-1] > close, [True]))
    arr, t = arr[keep], t[keep]
    seg = _frobenius(np.diff(arr, axis=0))

    # arr holds the path in order with chord parameters t, and seg[i] is the
    # distance from arr[i] to arr[i + 1]. Each round merges the chord points of
    # every open gap in after its left end, so the new seg holds its pieces.
    h = np.log2(max(float(np.max(seg)), delta_abs) / delta_abs)
    budget = int(np.ceil(h / _ROUND_LEVELS)) + _EXTRA_DEPTH
    while True:
        gap = np.flatnonzero(seg > delta_abs)
        if not gap.size:
            break
        if report.levels >= budget:
            t_mid = float(t[gap[0]] + t[gap[0] + 1]) / 2
            raise ConnectError("bridging between fiber points exceeded depth", t=t_mid)
        report.levels += 1
        m = 2 ** np.clip(np.ceil(np.log2(seg[gap] / delta_abs)), 1, _ROUND_LEVELS).astype(int)
        # row r is chord point j = 1 .. m - 1 of gap rep[r], at fraction f[r] = j / m
        rep = np.repeat(gap, m - 1)
        f = (np.arange(rep.size) + 1 - np.repeat(np.cumsum(m - 1) - (m - 1), m - 1)) / np.repeat(m, m - 1)
        X = arr[rep] + f[:, None, None] * (arr[rep + 1] - arr[rep])
        ta, tb = t[rep], t[rep + 1]
        tm = ta + f * (tb - ta)
        G, ok = project(X)
        for j in np.flatnonzero(~ok):
            G[j] = kicked(X[j], arr[rep[j]], float(tm[j]))
        order = np.argsort(np.concatenate((np.arange(len(arr)), rep + f)), kind="stable")
        arr, t = np.concatenate((arr, G))[order], np.concatenate((t, tm))[order]
        wide = seg[rep] * (1.0 - 1e-12)
        seg = _frobenius(np.diff(arr, axis=0))
        # row r now sits at rep[r] + r + 1; every piece of its gap borders a row
        at = rep + np.arange(rep.size) + 1
        stuck = np.flatnonzero(np.maximum(seg[at - 1], seg[at]) >= wide)
        if stuck.size:
            t_mid = float(ta[stuck[0]] + tb[stuck[0]]) / 2
            raise ConnectError("bridging made no progress between fiber points", t=t_mid)

    times = np.concatenate([[0.0], np.cumsum(seg) / np.sum(seg)])
    times[-1] = 1.0
    return validated(FramePath(times, arr, target, report))
