"""Repair flows: drive a frame onto a prescribed fiber.

The distance to the fiber is measured by

    Phi(F) = ||F F* - S||_F^2 + sum_j (||f_j||^2 - r_j)^2.

Three routes share one damped loop and differ only in its direction: the
normal-space Gauss-Newton step D(F)^+ e (project_to_fiber), steepest descent
-grad Phi = 2 D(F)* e at its Cauchy step (flow_to_fiber), and the move to
the alternation of the two exact constraint projections, operator part then
column rescaling (alternate_projections); e = (S - F F*, r - |f_j|^2) are
the defects. The loop halves a step until Phi decreases, and a run stalls
when no damped step does. A Newton step costs the k x k Hermitian
eigendecomposition of F F* (a frame too ill-conditioned for it takes the
thin SVD of F), a real rank-k^2 update B^T B with B of shape k^2 x N
(O(k^2 N^2) real flops) and one or two N x N LU solves: project_to_fiber's
step adds a second solve with the same factors, which removes the exact
second-order defect a step leaves.
The loop runs on a stack of frames, each row on its own: a route is a stack
of one, and connect projects every bridge point of a round in one stacked
run, so the per-call cost of the small solves is paid once per stack. Public
functions validate their arguments once; their loops call private kernels.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from ._linalg import (
    EIGEN_RTOL,
    RANK_RTOL,
    _non_negative_int,
    _tolerance,
    frame_polar_isometry,
    hermitize,
)
from .core import _norms_squared, as_frame_matrix
from .fiber import FiberTarget
from .momentum import _adjoint, _derivative

__all__ = [
    "FlowOptions",
    "FlowReport",
    "fiber_residual",
    "fiber_residual_gradient",
    "flow_to_fiber",
    "alternate_projections",
    "project_to_fiber",
]


@dataclass(frozen=True)
class FlowOptions:
    """Knobs shared by the repair flows.

    max_iters caps the iterations of a run, whichever its direction (gradient,
    alternating or Newton); tol bounds the objective Phi at which a run counts
    as converged. ValueError unless max_iters is an integer >= 0 (not a bool)
    and tol a finite number >= 0.
    """

    max_iters: int = 2000
    tol: float = 1e-10

    def __post_init__(self):
        _non_negative_int(self.max_iters, "max_iters")
        _tolerance(self.tol)


@dataclass
class FlowReport:
    """Outcome of one flow run; residual_trace[i] is Phi after i accepted steps."""

    method: str
    status: str
    iterations: int
    final_residual: float
    residual_trace: np.ndarray
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_dict(self) -> dict:
        return {**asdict(self), "residual_trace": self.residual_trace.tolist()}


def _target_frame(F, target: FiberTarget) -> np.ndarray:
    F = as_frame_matrix(F)
    if F.shape != (target.k, target.N):
        raise ValueError(f"frame shape {F.shape} does not match target ({target.k}, {target.N})")
    return F


def fiber_residual(F, target: FiberTarget) -> float:
    """Squared momentum distance Phi(F) to the target fiber."""
    return _residual(_target_frame(F, target), target)


def _gaps(F: np.ndarray, target: FiberTarget):
    """Defects (S - F F*, r - |f_j|^2) of a frame, or of each frame in a stack (..., k, N).

    They are the right-hand side of the Newton step, D(F) dF = defects.
    """
    return target.operator - F @ F.conj().swapaxes(-1, -2), target.norms_sq - _norms_squared(F)


def _phi(delta: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Phi of each frame of a stack from its defects (n, k, k) and (n, N).

    Each sum is one BLAS dot per frame, as _residual sums one frame.
    """
    d = delta.reshape(len(delta), -1)
    return np.vecdot(d, d).real + np.vecdot(gap, gap)


def _residual(F: np.ndarray, target: FiberTarget) -> float:
    """Phi of one frame."""
    delta, gap = _gaps(F, target)
    return float(np.vdot(delta, delta).real + np.dot(gap, gap))


def fiber_residual_gradient(F, target: FiberTarget) -> np.ndarray:
    """Gradient of Phi for the real inner product Re trace(A* B).

    grad Phi = 4 (F F* - S) F + 4 F diag(||f_j||^2 - r_j) = -2 D(F)* e, e the defects.
    """
    F = _target_frame(F, target)
    return -2.0 * _adjoint(F, *_gaps(F, target))


@lru_cache(maxsize=None)
def _pairs(k: int):
    """Index pairs a <= b below k, diagonal first.

    Returns a, b, the flat index a k + b, and m = 1 on the diagonal, 2 off it.
    """
    d = np.arange(k)
    ia, ib = np.triu_indices(k, 1)
    ia, ib = np.concatenate((d, ia)), np.concatenate((d, ib))
    ab = ia * k + ib
    m = np.where(ia == ib, 1.0, 2.0)
    for a in (ia, ib, ab, m):
        a.setflags(write=False)
    return ia, ib, ab, m


def _normal_preimage(F: np.ndarray, R: np.ndarray, b: np.ndarray, tol=None):
    """Minimum-norm dF with F dF* + dF F* = R and 2 Re <f_j, df_j> = b_j.

    F may carry leading stack axes, (..., k, N) with R (..., k, k) and b
    (..., N); each frame of the stack is solved independently.

    The minimizer lies in the range of the derivative's adjoint, the normal
    space {W F + F diag(g) : W Hermitian, g real}. In the eigenbasis of the
    unitary momentum, F F* = U diag(s^2) U*, the operator equations are a
    diagonal Lyapunov equation, W~_ab (s_a^2 + s_b^2) = (R~ - 2 F~ diag(g)
    F~*)_ab with F~ = U* F, W~ = U* W U and R~ = U* R U, so W is eliminated
    entrywise and the norms equations leave T g = c, real symmetric N x N with
    the all-ones kernel (trace(S) = sum(r)). (T + 1 1^T / N) g = c - mean(c)
    gives its minimum-norm (mean-zero) g, one batched LU solve for the stack;
    when a frame's matrix is singular (k = N with F a scaled unitary, where T
    can round to exactly 0), that frame alone is solved by lstsq of T.

    With K_ab = 1 / (s_a^2 + s_b^2), T = diag(|f~_j|^2) - 2 Re sum_ab K_ab
    P_ab P_ab^*, P_ab,j = conj(F~_aj) F~_bj. Its (a, b) and (b, a) terms are
    conjugates, so the sum is B^T B, B real k^2 x N with rows w_ab Re P_ab
    (a <= b) and w_ab Im P_ab (a < b), w_ab^2 = m_ab K_ab (m = 1 on the
    diagonal, 2 off it): a symmetric rank-k^2 update, about 8x fewer flops
    than the complex product.

    eigh(F F*) resolves s^2 only to about eps s_max^2, and the step's error
    grows as eps (s_max / s_min)^2. A frame whose smallest eigenvalue is at
    most EIGEN_RTOL times its largest takes the thin SVD F = U diag(s) Vh
    instead, with F~ = diag(s) Vh; the frames of a stack that need it share
    one batched SVD.

    The same solve serves every rank. A pair of directions whose s_a^2 +
    s_b^2 is below (RANK_RTOL s_max)^2 has no first-order response, so its
    weight is 0 (a pseudo-inverse). A kernel direction a (s_a below RANK_RTOL
    s_max, so of an SVD frame) takes sqrt(R~_aa) Vh[a] in its row: that row is
    orthogonal to the rows of F, so the iterate regains rank with the missing
    energy. At full rank neither rule changes the step, and a stack with no
    SVD frame skips both.

    With tol given and (R, b) the defects e, the step is Newton's, and as the
    momentum is quadratic, D(F) dF = e leaves exactly the defect -Q(dF) =
    -(dF dF*, |df_j|^2), of Phi q. A frame with tol < q <= Phi / 4 (Phi =
    |e|^2), no kernel fill and no lstsq solve returns dF + dF2 with D(F) dF2 =
    -Q(dF), solved with the same factors: its defect is third order, and its
    slope -2 <e, e - Q(dF)> <= -Phi makes it a descent direction. Every other
    frame returns dF bit for bit.
    """
    shape = F.shape
    k, N = shape[-2:]
    F, R, b = F.reshape(-1, k, N), R.reshape(-1, k, k), b.reshape(-1, N)
    n = len(F)
    sq, U = np.linalg.eigh(F @ F.conj().swapaxes(1, 2))
    Uc = U.conj().swapaxes(1, 2)
    Ft = Uc @ F
    # frames eigh cannot resolve (and a zero frame) take the thin SVD
    # (descending, where eigh ascends)
    ill = sq[:, 0] <= EIGEN_RTOL * sq[:, -1]
    svd = np.count_nonzero(ill)
    if svd:
        Uw, s, Vh = np.linalg.svd(F[ill], full_matrices=False)
        U[ill], Uc[ill], sq[ill], Ft[ill] = Uw, Uw.conj().swapaxes(1, 2), s**2, s[:, :, None] * Vh
    Ftc = Ft.conj()
    s2 = sq[:, :, None] + sq[:, None, :]
    if svd:
        rank_floor = RANK_RTOL**2 * np.max(sq, axis=1, keepdims=True)
        # 1 / inf = 0: pairs below the rank threshold get weight 0
        K = 1.0 / np.where(s2 > rank_floor[:, :, None], s2, np.inf)
    else:
        # an eigh frame has sq > EIGEN_RTOL max(sq), far above the rank floor
        K = 1.0 / s2
    Rt = Uc @ R @ U
    # P[:, p, j] = w_ab conj(Ft[:, a, j]) Ft[:, b, j] for p = (a, b); W~ = K o (R~ - 2 Ft diag(g) Ft*)
    ia, ib, ab, m = _pairs(k)
    P = Ftc.take(ia, axis=1)
    P *= Ft.take(ib, axis=1)
    diag = np.add.reduce(P.real[:, :k], axis=1)
    # pair entries by flat index: K[:, ia, ib] would come out transposed in
    # memory, and the product for c would then round differently from the
    # BLAS dot it takes for one frame
    w = np.sqrt(m * K.reshape(n, -1).take(ab, axis=1))
    P *= w[:, :, None]
    c = 0.5 * b - ((w * Rt.reshape(n, -1).take(ab, axis=1))[:, None] @ P)[:, 0].real
    # B keeps what T needs of P. Freeing P before the N x N work lowers the
    # peak of temporaries: at (16, 128) the higher peak had the heap trimmed
    # and faulted back in on every call.
    B = np.concatenate((P.real, P.imag[:, k:]), axis=1)
    del P
    T = B.swapaxes(1, 2) @ B
    T *= -2.0
    T.reshape(-1, N * N)[:, :: N + 1] += diag
    T += 1.0 / N
    rhs = c - np.add.reduce(c, axis=1, keepdims=True) / N
    singular = []
    try:
        g = np.linalg.solve(T, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        g = np.empty_like(c)
        for i in range(n):
            try:
                g[i] = np.linalg.solve(T[i], rhs[i])
            except np.linalg.LinAlgError:
                g[i] = np.linalg.lstsq(T[i] - 1.0 / N, c[i], rcond=None)[0]
                singular.append(i)
    dFt = _lift(Ft, Ftc, K, Rt, g)
    # only an SVD frame can have kernel directions
    if svd:
        ker = sq < rank_floor
        if np.count_nonzero(ker):
            fill = np.sqrt(np.maximum(Rt.diagonal(axis1=1, axis2=2)[ker].real, 0.0))
            dFt[ker] += fill[:, None] * Vh[ker[ill]]
    if tol is not None:
        Qt, Qb = dFt @ dFt.conj().swapaxes(1, 2), _norms_squared(dFt)
        q = _phi(Qt, Qb)
        fix = (q > tol) & (4.0 * q <= _phi(R, b))
        fix[singular] = False
        if svd:
            fix &= ~np.any(sq < rank_floor, axis=1)
        m = np.count_nonzero(fix)
        if m:
            # a mask would copy T and B; a stack of one takes this branch
            if m == n:
                fix = slice(None)
            # right-hand side (-Q~, -Qb); P is freed, so its c is read off B
            Rt2 = -Qt[fix]
            v = w[fix] * Rt2.reshape(m, -1).take(ab, axis=1)
            v = np.concatenate((v.real, -v.imag[:, k:]), axis=1)
            c = -0.5 * Qb[fix] - (v[:, None] @ B[fix])[:, 0]
            rhs = c - np.add.reduce(c, axis=1, keepdims=True) / N
            g = np.linalg.solve(T[fix], rhs[:, :, None])[:, :, 0]
            dFt[fix] += _lift(Ft[fix], Ftc[fix], K[fix], Rt2, g)
    return (U @ dFt).reshape(shape)


def _lift(Ft, Ftc, K, Rt, g):
    """The eigenbasis step W~ Ft + Ft diag(g), W~ = K o (R~ - 2 Ft diag(g) Ft*), of each frame."""
    Ftg = Ft * g[:, None]
    Wt = K * (Rt - 2.0 * Ftg @ Ftc.swapaxes(1, 2))
    return Wt @ Ft + Ftg


def _project_norms(F: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Each column rescaled to its squared norm r_j; ValueError at a column of squared norm <= 1e-300."""
    n = _norms_squared(F)
    if (n <= 1e-300).any():
        raise ValueError("zero column cannot be rescaled to a positive norm")
    return F * np.sqrt(r / n)


def alternate_projections(F0, target: FiberTarget, options: FlowOptions | None = None):
    """Alternate the two exact projections until Phi <= tol; returns (frame, FlowReport).

    A round moves F toward P(F), the operator projection S^(1/2) polar(F)
    followed by the column rescaling, in the damped loop of project_to_fiber:
    a move that does not lower Phi is halved. Where P raises (F rank
    deficient, or a zero column) the direction is 0, so the run stalls there.
    """
    w, U, _clusters = target._spectral
    S_sqrt, r = hermitize((U * np.sqrt(w)) @ U.conj().T), target.norms_sq

    def toward_projection(X, _R, _b):
        dF = np.empty_like(X)
        for i, x in enumerate(X):
            try:
                np.subtract(_project_norms(S_sqrt @ frame_polar_isometry(x), r), x, out=dF[i])
            except ValueError:
                dF[i] = 0.0
        return dF

    return _repair("alternating", F0, target, options, toward_projection)


def flow_to_fiber(F0, target: FiberTarget, options: FlowOptions | None = None):
    """Gradient descent on Phi from F0; returns (frame, FlowReport).

    Each step is V = -grad Phi scaled by the Cauchy step ||V||^2 / (2 ||D(F)
    V||^2), which minimizes the linearized defect along V, in the damped loop
    of project_to_fiber. The step is 0 where V vanishes, so the run stalls at
    a critical point of Phi off the fiber.
    """
    return _repair("gradient", F0, target, options, _steepest_descent)


def _steepest_descent(F: np.ndarray, R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy step t V along V = -grad Phi for a stack F (n, k, N) with defects R, b.

    t = <(R, b), D(F) V> / ||D(F) V||^2 = ||V||^2 / (2 ||D(F) V||^2), with
    V = 2 D(F)* (R, b); t = 0 where V = 0.
    """
    V = 2.0 * _adjoint(F, R, b)
    dd = _phi(*_derivative(F, V))
    v = V.reshape(len(V), -1)
    vv = np.vecdot(v, v).real
    t = np.divide(vv, 2.0 * dd, out=np.zeros_like(vv), where=dd > 0)
    return V * t[:, None, None]


def _newton(F: np.ndarray, target: FiberTarget, opts: FlowOptions, direction=_normal_preimage):
    """The damped repair loop on a stack of frames F (n, k, N), each row on its own.

    Every iteration takes one step dF per live row from one stacked
    direction(X, R, b) call, with R, b the defects of the live frames X (by
    default the plain Newton step _normal_preimage), and tries X + dF on the
    whole live stack; after each try, every row whose Phi did not decrease
    halves its own dF, and the stack tries X + dF again, so try j of a row is
    X + 2^-j dF (25 tries, j = 0 .. 24). A row leaves the stack when Phi <=
    opts.tol (converged) or when no damped step decreases its Phi (stalled);
    at most opts.max_iters iterations run.

    Returns (frames, phi, iterations, trace, stalled): per row, its final Phi,
    its accepted steps and whether it stalled; trace[i, j] is Phi of row j
    after i accepted steps, held at its final value once the row leaves.
    """
    n = len(F)
    F = F.copy()
    delta, gap = _gaps(F, target)
    phi = _phi(delta, gap)
    trace = [phi]
    iters = np.zeros(n, dtype=int)
    stalled = np.zeros(n, dtype=bool)
    # the live rows with their frames, defects and Phi; while every row is
    # live no row is indexed out. A row leaving after `it` completed
    # iterations took `it` steps.
    rows, X, p, tol, it = np.arange(n), F, phi, opts.tol, 0
    while it < opts.max_iters:
        keep = p > tol
        live = np.count_nonzero(keep)
        if not live:
            break
        if live < len(rows):
            F[rows[~keep]], iters[rows[~keep]] = X[~keep], it
            rows, X, p, delta, gap = rows[keep], X[keep], p[keep], delta[keep], gap[keep]
        dF = direction(X, delta, gap)
        # halving is exact, so try j is X + 2^-j dF bit for bit (save where
        # an entry of dF is subnormal); a row that accepted keeps its dF, so
        # its trial frame and Phi recur unchanged
        for _ in range(25):
            Xn = X + dF
            dn, gn = _gaps(Xn, target)
            pn = _phi(dn, gn)
            ok = pn < p
            if np.count_nonzero(ok) == len(rows):
                break
            dF[~ok] *= 0.5
        else:
            # stalled rows leave with their last accepted frame
            F[rows[~ok]], iters[rows[~ok]], stalled[rows[~ok]] = X[~ok], it, True
            rows, Xn, pn, dn, gn = rows[ok], Xn[ok], pn[ok], dn[ok], gn[ok]
        X, p, delta, gap = Xn, pn, dn, gn
        if len(rows) == n:
            phi = p
        else:
            phi = phi.copy()
            phi[rows] = p
        trace.append(phi)
        it += 1
    F[rows], iters[rows] = X, it
    return F, phi, iters, np.array(trace), stalled


def _repair(method, F0, target, options, direction):
    """The damped loop of _newton on a stack of one frame; returns (frame, FlowReport).

    Steps are halved until Phi decreases; a step that cannot decrease Phi
    ends the run as "stalled".
    """
    opts = options or FlowOptions()
    Fs, phi, iters, trace, stalled = _newton(_target_frame(F0, target)[None], target, opts, direction)
    trace = trace[: iters[0] + 1, 0]
    if phi[0] <= opts.tol:
        status, message = "converged", ""
    elif stalled[0]:
        status, message = "stalled", "no damped step decreases the residual"
    else:
        status, message = "max_iters", ""
    return Fs[0], FlowReport(method, status, len(trace) - 1, float(trace[-1]), trace, message)


def project_to_fiber(F0, target: FiberTarget, options: FlowOptions | None = None):
    """Projection onto the fiber by damped Gauss-Newton; returns (frame, FlowReport).

    Each step (method "newton") is the minimum-norm Newton solve of the
    quadratic constraints (F F* - S, norms^2 - r) in the fiber's normal space
    {W F + F diag(g) : W Hermitian, g real}, in its k^2 + N coordinates,
    eliminated in the eigenbasis of F F*; a rank-deficient iterate fills its
    kernel rows with the missing operator energy, so it regains rank. A step
    dF leaves exactly the defect -(dF dF*, |df_j|^2); where that is above tol
    and at most a quarter of Phi, a second solve with the step's factors
    removes it (the second-order correction), and the run converges at third
    order (the two-step method of Traub). A converged frame is on the fiber,
    but it is the fiber point nearest F0 only to first order.
    """
    opts = options or FlowOptions()
    return _repair("newton", F0, target, opts, partial(_normal_preimage, tol=opts.tol))


# perfbench/tracing.py binds this name: wrapping it as well as
# project_to_fiber records a flows.newton_refine span nested in each
# flows.project_to_fiber span. The alias, not a wrapper, keeps one function;
# it goes when the tracer reads the reports instead (ROADMAP item 1B).
newton_refine = project_to_fiber
