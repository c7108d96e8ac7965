"""Numerical paths between two frames on the same fiber.

Any two frames with equal frame operator S and equal squared norms can be
joined by a path that stays on that fiber (for regular targets). connect()
produces an explicit discrete witness. The fiber is a level set of the
momentum map of U(k) x T^N, so the unitaries commuting with S (U(k)_S, the
stabilizer of S) and the column phases T^N both move a frame exactly along
it. The endpoints are aligned over U(k)_S x T^N first: a unitary V
commuting with S and column phases D = diag(exp(i phi)) with V F1 D close to
F0, by alternating exact minimisation. The unwind s -> Z exp(i (1 - s) theta) Z*
F1 diag(exp(i (1 - s) phi)), with V = Z diag(exp(i theta)) Z*, then runs
from V F1 D to F1 on the fiber exactly. The endpoints and the unwind samples
are the anchors. The path is one ordered array of frames, and a bridge pass
subdivides its gaps wider than delta round by round: a round cuts each open
gap into 2, 4 or 8 pieces (up to three bisection levels), projects the chord
points of all open gaps onto the fiber in one stacked Newton solve (a point
whose projection is rejected is retried with seeded tangent kicks) and
merges them into the array, and the pieces still wider than delta are the
next round's open gaps. So the chord from F0 to V F1 D is bridged like every
other gap. An unwind sample off the fiber (V commutes with S only up to the
widths of its eigenvalue clusters) is dropped.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from ._linalg import as_hermitian, polar_unitary, spectral_clusters, unitary_log_factors
from .core import _frame_pair, as_frame_matrix
from .errors import ConnectError
from .fiber import FiberTarget
from .flows import FlowOptions, _gaps, _newton, _non_negative_int, _normal_preimage, _phi, _residual, _target_frame

__all__ = [
    "ConnectOptions",
    "ConnectReport",
    "FramePath",
    "PathCheck",
    "gauge_align",
    "connect",
    "validate_path",
]


# seeded tangent kicks tried on a rejected sample, and their size relative to ||F0||
_KICKS = 5
_KICK_SCALE = 1e-4
# a bridge round cuts a gap into at most 2^_ROUND_LEVELS pieces: at k = 2 a
# Newton run of 8 rows costs about as much as one of 1, but rows far from the
# fiber take more iterations, so with no cap funtf(8,64) and delta = 1e-3 ran
# 1.2-1.3x slower than bisection, against about 1.0x and 0.75x with this cap
_ROUND_LEVELS = 3
# the bridge gives up when gaps stay open after _EXTRA_DEPTH rounds beyond
# those a straight chord of the widest anchor gap needs
_EXTRA_DEPTH = 4
# bytes of kernel temporaries one stacked projection may hold; a round with
# more rows is projected in several runs
_STACK_BYTES = 1 << 24


def _positive(value, name: str) -> None:
    """ValueError unless value is a finite real number > 0."""
    if not isinstance(value, numbers.Real) or not 0 < value < np.inf:
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
    filter dropped.
    """

    projections: int = 0
    newton_iterations: int = 0
    kicks: int = 0
    levels: int = 0
    unwind: int = 0
    unwind_dropped: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)
class FramePath:
    """Discrete path on a fiber: times in [0, 1] with one frame per time.

    report holds the counts of the connect() run that traced the path.
    """

    times: np.ndarray
    frames: np.ndarray
    target: FiberTarget
    report: ConnectReport | None = None

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


def validate_path(path: FramePath, tol: float = 1e-8, delta: float = 0.05, endpoints=None):
    """Check that every sample sits on the fiber and steps stay small.

    tol is in norm units: a sample passes when its squared residual is at
    most tol^2. delta limits each consecutive step relative to the norm of
    the first sample. endpoints, when given as (F0, F1), must match the first
    and last sample to 1e-12 relative. ValueError unless tol and delta are
    finite and > 0, the rule of ConnectOptions.
    """
    _positive(tol, "tol")
    _positive(delta, "delta")
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


def _commutant_gauge(F0: np.ndarray, F1: np.ndarray, U: np.ndarray, clusters):
    """Unitary V minimizing ||F0 - V F1|| among those commuting with the spectral blocks (U, clusters).

    The identity when the spectrum cannot be clustered safely (clusters is None).
    """
    k = F0.shape[0]
    if clusters is None:
        return np.eye(k, dtype=complex)
    A = U.conj().T @ F0
    B = U.conj().T @ F1
    blocks = np.zeros((k, k), dtype=complex)
    for cl in clusters:
        M = A[cl] @ B[cl].conj().T
        blocks[np.ix_(cl, cl)] = polar_unitary(M)
    return U @ blocks @ U.conj().T


def gauge_align(F0, F1, operator) -> np.ndarray:
    """Best commutant-unitary alignment V F1 of F1 toward F0.

    V commutes with the clustered spectral projections of the operator, so it
    preserves both fiber constraints (operator and column norms) up to the
    cluster widths; blockwise it is the orthogonal-Procrustes optimum.
    """
    F0, F1 = _frame_pair(F0, F1)
    S = as_hermitian(operator, name="operator")
    _w, U, clusters = spectral_clusters(S)
    return _commutant_gauge(F0, F1, U, clusters) @ F1


def _column_angles(F0: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Angles phi minimizing ||F0 - G diag(exp(i phi))||: those of <g_j, f0_j>, 0 where one vanishes."""
    return np.angle(np.vecdot(G, F0, axis=0))


def _symmetry_gauge(F0: np.ndarray, F1: np.ndarray, operator: np.ndarray):
    """V in the commutant U(k)_S and column angles phi with V F1 diag(exp(i phi)) close to F0.

    Alternating exact block minimisation of ||F0 - V F1 diag(exp(i phi))||
    over V (the commutant Procrustes optimum for the current phases) and phi.
    It starts from the closer of the two one-group optima, V for phi = 0
    (gauge_align's) and phi for V = I, and then solves V and phi once more.
    No step lengthens the distance, so V F1 D is never farther from F0 than
    gauge_align's V F1. From V, the alternation would close a pure
    column-phase difference F1 = F0 D only linearly.
    """
    _w, U, clusters = spectral_clusters(operator)
    V = _commutant_gauge(F0, F1, U, clusters)
    phi = _column_angles(F0, F1)
    if np.linalg.norm(F0 - V @ F1) <= np.linalg.norm(F0 - F1 * np.exp(1j * phi)):
        phi = _column_angles(F0, V @ F1)
    V = _commutant_gauge(F0, F1 * np.exp(1j * phi), U, clusters)
    return V, _column_angles(F0, V @ F1)


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
    W = F @ G0.conj().T
    T = G0 - _normal_preimage(F, W + W.conj().T, 2.0 * np.real(np.sum(F.conj() * G0, axis=0)))
    nrm = np.linalg.norm(T)
    if nrm == 0.0:
        return np.zeros_like(F)
    return (size / nrm) * T


def connect(F0, F1, target: FiberTarget, options: ConnectOptions | None = None) -> FramePath:
    """Discrete on-fiber path from F0 to F1; both must lie on the target fiber.

    The anchors are F0, the on-fiber unwind samples and F1. The unwind runs
    over U(k)_S x T^N from the aligned endpoint V F1 D (V a unitary commuting
    with the operator's spectral clusters and D column phases, alternated to
    bring F1 close to F0) to F1, in ceil(||V F1 D - F1|| / (delta ||F0|| / 2))
    samples, of which those that pass the accept filter are kept; the report
    counts both. Near-duplicate anchors are pruned. The bridge pass then
    runs round by round over the ordered array of samples: each round cuts
    every gap of width w > delta into m = 2^min(_ROUND_LEVELS, ceil(log2(w /
    delta))) pieces, projects their chord points in one Newton solve (in
    several when its kernel temporaries would pass _STACK_BYTES), retries
    each rejected point (accepted within half of path_tol^2) with seeded
    tangent kicks in path order and merges the points in; every piece of a
    gap must be shorter than it. Every interior sample is a bridge point or
    an exact unwind sample; the path's report counts the work.

    Raises ValueError when an endpoint is off the fiber (beyond path_tol) and
    ConnectError when the bridge pass cannot close a gap between anchors: a
    point rejected after every kick (its chord parameter in .t), a piece no
    shorter than its gap, or a gap still open after _EXTRA_DEPTH rounds
    beyond the ceil(h / _ROUND_LEVELS) that the h halvings of the widest
    anchor gap need (the chord parameter of the gap's midpoint in .t). The
    result is validated before being returned and is deterministic for a
    fixed seed.
    """
    opts = options or ConnectOptions()
    F0, F1 = _target_frame(F0, target), _target_frame(F1, target)
    ptol2 = opts.path_tol**2
    for name, F in (("F0", F0), ("F1", F1)):
        phi = _residual(F, target)
        if phi > ptol2:
            raise ValueError(f"{name} is off the fiber: residual {phi:.3e} > {ptol2:.3e}")

    scale = float(np.linalg.norm(F0))
    delta_abs = opts.delta * scale
    rng = None
    k = target.k
    report = ConnectReport()

    if np.linalg.norm(F1 - F0) <= 1e-14 * max(1.0, scale):
        return FramePath(np.array([0.0, 1.0]), np.stack([F0, F1]), target, report)

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
    V, phi = _symmetry_gauge(F0, F1, target.operator)
    rotate = np.linalg.norm(V - np.eye(k)) > 1e-12 * np.sqrt(k)
    if rotate or np.linalg.norm(phi) > 1e-12 * np.sqrt(target.N):
        nsteps = max(1, int(np.ceil(np.linalg.norm(V @ F1 * np.exp(1j * phi) - F1) / (0.5 * delta_abs))))
        u = 1.0 - np.linspace(0.0, 1.0, nsteps + 1)[:-1]
        Fs = F1 * np.exp(1j * u[:, None, None] * phi)
        if rotate:
            Z, theta = unitary_log_factors(V)
            Fs = ((Z * np.exp(1j * u[:, None] * theta)[:, None, :]) @ Z.conj().T) @ Fs
        unwind = Fs[_phi(*_gaps(Fs, target)) <= accept_tol]
        report.unwind, report.unwind_dropped = len(unwind), nsteps - len(unwind)
    arr = np.concatenate((F0[None], unwind, F1[None]))
    t = np.minimum(np.arange(len(arr)), 1.0)

    # prune near-duplicate anchors; F0 and F1 stay, and the early return for
    # F1 == F0 keeps the step between them, so every time step is positive.
    # The loop runs only when some consecutive pair is that close. Bridge
    # points are not pruned: each starts w / m > delta / 2 from its neighbours,
    # and one projected onto the far end of its gap fails the progress check.
    thresh = 1e-13 * max(1.0, scale)
    seg = _frobenius(np.diff(arr, axis=0))
    if np.any(seg <= thresh):
        kept = [0]
        for i in range(1, len(arr) - 1):
            if np.linalg.norm(arr[i] - arr[kept[-1]]) > thresh:
                kept.append(i)
        while len(kept) > 1 and np.linalg.norm(F1 - arr[kept[-1]]) <= thresh:
            kept.pop()
        kept.append(len(arr) - 1)
        arr, t = arr[kept], t[kept]
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
    path = FramePath(times, arr, target, report)

    check = validate_path(path, tol=opts.path_tol, delta=opts.delta, endpoints=(F0, F1))
    if not check:
        raise ConnectError(f"traced path failed validation: {check.message}", t=None)
    return path
