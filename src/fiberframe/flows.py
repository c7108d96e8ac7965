"""Repair flows: drive a frame onto a prescribed fiber.

The distance to the fiber is measured by

    Phi(F) = ||F F* - S||_F^2 + sum_j (||f_j||^2 - r_j)^2.

Three routes are provided: Armijo-backtracking gradient descent on Phi in
the ambient matrix space, alternation of the two exact constraint
projections (operator part, then column rescaling), and damped normal-space
Gauss-Newton, which is project_to_fiber. A Newton step costs the k x k
Hermitian eigendecomposition of F F* (a frame too ill-conditioned for it
takes the thin SVD of F), a real rank-k^2 update B^T B with B of shape
k^2 x N (O(k^2 N^2) real flops) and an N x N LU solve. The Newton loop runs
on a stack of frames, each row on its own: newton_refine is a stack of one,
and connect projects every bridge point of a round in one stacked run, so
the per-call cost of the small solves is paid once per stack. Public
functions validate their arguments once; their loops call private kernels.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._linalg import EIGEN_RTOL, RANK_RTOL, as_hermitian, frame_polar_isometry, full_row_rank, psd_sqrt
from .core import _norms_squared, as_frame_matrix
from .fiber import FiberTarget

__all__ = [
    "FlowOptions",
    "FlowReport",
    "fiber_residual",
    "fiber_residual_gradient",
    "flow_to_fiber",
    "project_frame_operator",
    "project_norms",
    "alternate_projections",
    "newton_refine",
    "project_to_fiber",
]


# Armijo line search of flow_to_fiber: first step, sufficient-decrease constant, backtracking factor
_STEP_INIT = 0.1
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
# steps (gradient) or rounds (alternating) without meaningful progress that end a run as stalled
_STALL_ITERS = 50


def _non_negative_int(value, name: str) -> None:
    """ValueError unless value is an integer >= 0; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class FlowOptions:
    """Knobs shared by the repair flows.

    max_iters caps the iterations of a run, whichever its method (gradient
    steps, alternating rounds or Newton steps); tol bounds the objective Phi
    at which a run counts as converged. ValueError unless max_iters is an
    integer >= 0 (not a bool) and tol a finite number >= 0.
    """

    max_iters: int = 2000
    tol: float = 1e-10

    def __post_init__(self):
        _non_negative_int(self.max_iters, "max_iters")
        if not isinstance(self.tol, numbers.Real) or not 0 <= self.tol < np.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")


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
        return {
            "method": self.method,
            "status": self.status,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "residual_trace": [float(x) for x in self.residual_trace],
            "message": self.message,
        }


def _report(method, trace, status, message="", final_residual=None) -> FlowReport:
    """FlowReport for a residual trace; final_residual defaults to its last entry."""
    final = float(trace[-1]) if final_residual is None else final_residual
    return FlowReport(method, status, len(trace) - 1, final, np.asarray(trace), message)


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

    grad Phi = 4 (F F* - S) F + 4 F diag(||f_j||^2 - r_j).
    """
    return _residual_gradient(_target_frame(F, target), target)


def _residual_gradient(F: np.ndarray, target: FiberTarget) -> np.ndarray:
    delta, gap = _gaps(F, target)
    return -4.0 * (delta @ F) - 4.0 * (F * gap[None, :])


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


def _normal_preimage(F: np.ndarray, R: np.ndarray, b: np.ndarray):
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
    try:
        g = np.linalg.solve(T, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        g = np.empty_like(c)
        for i in range(n):
            try:
                g[i] = np.linalg.solve(T[i], rhs[i])
            except np.linalg.LinAlgError:
                g[i] = np.linalg.lstsq(T[i] - 1.0 / N, c[i], rcond=None)[0]
    Ftg = Ft * g[:, None]
    Wt = K * (Rt - 2.0 * Ftg @ Ftc.swapaxes(1, 2))
    dFt = Wt @ Ft + Ftg
    # only an SVD frame can have kernel directions
    if svd:
        ker = sq < rank_floor
        if np.count_nonzero(ker):
            fill = np.sqrt(np.maximum(Rt.diagonal(axis1=1, axis2=2)[ker].real, 0.0))
            dFt[ker] += fill[:, None] * Vh[ker[ill]]
    return (U @ dFt).reshape(shape)


def flow_to_fiber(F0, target: FiberTarget, options: FlowOptions | None = None):
    """Armijo gradient descent on Phi from F0; returns (frame, FlowReport).

    Statuses: "converged" (Phi <= tol), "stalled" (line search exhausted or no
    relative progress across 50 steps), "lost_rank" (an iterate came
    within a relative 1e-12 of dropping rank), "max_iters".
    """
    opts = options or FlowOptions()
    F = _target_frame(F0, target).copy()
    phi = _residual(F, target)
    trace = [phi]

    def report(status, message=""):
        return F, _report("gradient", trace, status, message)

    if phi <= opts.tol:
        return report("converged")

    step = _STEP_INIT
    for _ in range(opts.max_iters):
        if not full_row_rank(np.linalg.svd(F, compute_uv=False), F.shape[0]):
            return report("lost_rank", "iterate is numerically rank deficient")
        G = _residual_gradient(F, target)
        gnorm2 = float(np.vdot(G, G).real)
        if gnorm2 == 0.0:
            return report("stalled", "gradient vanished away from the fiber")
        s = step
        accepted = False
        for _ in range(80):
            Fn = F - s * G
            phin = _residual(Fn, target)
            if phin <= phi - _ARMIJO_C * s * gnorm2:
                accepted = True
                break
            s *= _BACKTRACK
        if not accepted:
            return report("stalled", "line search hit the floating-point floor")
        F, phi = Fn, phin
        trace.append(phi)
        step = min(s * 2.0, 1e8)
        if phi <= opts.tol:
            return report("converged")
        win = _STALL_ITERS
        if len(trace) > win and trace[-1 - win] - phi <= 1e-6 * trace[-1 - win]:
            return report("stalled", f"no relative progress over {win} steps")
    return report("max_iters")


def project_frame_operator(F, operator):
    """Closest-in-spirit move onto {G : G G* = S}: F -> S^(1/2) (F F*)^(-1/2) F.

    Computed through the polar isometry of F for stability. Raises ValueError
    when F is rank deficient (the move is undefined there).
    """
    F = as_frame_matrix(F)
    return psd_sqrt(as_hermitian(operator, name="operator")) @ frame_polar_isometry(F)


def project_norms(F, norms_sq) -> np.ndarray:
    """Rescale each column to the prescribed squared norm.

    Raises ValueError when a column is numerically zero (no direction to keep).
    """
    return _project_norms(as_frame_matrix(F), np.asarray(norms_sq, dtype=float))


def _project_norms(F: np.ndarray, r: np.ndarray) -> np.ndarray:
    n = _norms_squared(F)
    if np.any(n <= 1e-300):
        raise ValueError("zero column cannot be rescaled to a positive norm")
    return F * np.sqrt(r / n)[None, :]


def alternate_projections(F0, target: FiberTarget, options: FlowOptions | None = None):
    """Alternate the two exact projections until Phi <= tol; returns (frame, report).

    Keeps the best iterate seen; declares "stalled" when the best has not
    improved for 50 rounds.
    """
    opts = options or FlowOptions()
    F = _target_frame(F0, target).copy()
    S_sqrt = psd_sqrt(target.operator)
    phi = _residual(F, target)
    trace = [phi]
    best_F, best_phi, best_it = F, phi, 0

    def report(G, status, message=""):
        return G, _report("alternating", trace, status, message, _residual(G, target))

    if phi <= opts.tol:
        return report(F, "converged")

    for it in range(1, opts.max_iters + 1):
        try:
            F = S_sqrt @ frame_polar_isometry(F)
            F = _project_norms(F, target.norms_sq)
        except ValueError as exc:
            return report(best_F, "lost_rank", str(exc))
        phi = _residual(F, target)
        trace.append(phi)
        if phi < best_phi:
            best_F, best_phi, best_it = F, phi, it
        if phi <= opts.tol:
            return report(F, "converged")
        if it - best_it >= _STALL_ITERS:
            return report(best_F, "stalled", f"best residual stuck for {_STALL_ITERS} rounds")
    return report(best_F, "max_iters")


def _newton(F: np.ndarray, target: FiberTarget, opts: FlowOptions):
    """Damped Gauss-Newton on a stack of frames F (n, k, N), each row on its own.

    Every iteration takes one normal-space step per live row from one stacked
    _normal_preimage call and evaluates each trial on the whole live stack; a
    row whose Phi does not decrease halves its own step and tries again (25
    tries). A row leaves the stack when Phi <= opts.tol (converged) or when
    no damped step decreases its Phi (stalled); at most opts.max_iters
    iterations run.

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
        dF = _normal_preimage(X, delta, gap)
        Xn = X + dF
        dn, gn = _gaps(Xn, target)
        pn = _phi(dn, gn)
        ok = pn < p
        if np.count_nonzero(ok) < len(rows):
            step = np.ones(len(rows))
            for _ in range(24):
                step[~ok] *= 0.5
                Xt = X + step[:, None, None] * dF
                dt, gt = _gaps(Xt, target)
                pt = _phi(dt, gt)
                new = ~ok & (pt < p)
                Xn[new], dn[new], gn[new], pn[new] = Xt[new], dt[new], gt[new], pt[new]
                ok |= new
                if np.count_nonzero(ok) == len(rows):
                    break
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


def newton_refine(F0, target: FiberTarget, options: FlowOptions | None = None):
    """Damped Gauss-Newton on the constraint map; returns (frame, FlowReport).

    The constraints (F F* - S, norms^2 - r) are quadratic in F, so near the
    fiber the minimum-norm Newton step converges quadratically. That step lies
    in the normal space {W F + F diag(g)} of the fiber, so it is solved in its
    k^2 + N coordinates, eliminated in the eigenbasis of F F*. A
    rank-deficient iterate takes the same step, with its kernel rows filled
    by the missing operator energy, so it regains rank.
    Steps are halved until Phi decreases; a step that cannot decrease Phi ends
    the run as "stalled". The run is the Newton loop on a stack of one frame.
    """
    opts = options or FlowOptions()
    Fs, phi, iters, trace, stalled = _newton(_target_frame(F0, target)[None], target, opts)
    trace = trace[: iters[0] + 1, 0]
    if phi[0] <= opts.tol:
        return Fs[0], _report("newton", trace, "converged")
    if stalled[0]:
        return Fs[0], _report("newton", trace, "stalled", "no damped step decreases the residual")
    return Fs[0], _report("newton", trace, "max_iters")


def project_to_fiber(F0, target: FiberTarget, options: FlowOptions | None = None):
    """Projection onto the fiber; returns (frame, report).

    The Newton solve in the fiber's normal space {W F + F diag(g)}, the range
    of the momentum derivative's adjoint: newton_refine (method "newton").
    """
    return newton_refine(F0, target, options)
