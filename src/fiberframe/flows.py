"""Repair flows: drive a frame onto a prescribed fiber.

The distance to the fiber is measured by

    Phi(F) = ||F F* - S||_F^2 + w * sum_j (||f_j||^2 - r_j)^2

with weight w = 1 by default. Three routes are provided: Armijo-backtracking
gradient descent on Phi in the ambient matrix space, alternation of the two
exact constraint projections (operator part, then column rescaling), and a
damped Gauss-Newton polish. Public functions validate their arguments once;
their loops call private kernels on the checked arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import as_hermitian, frame_polar_isometry, full_row_rank, psd_sqrt
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


@dataclass(frozen=True)
class FlowOptions:
    """Knobs shared by the repair flows.

    tol bounds the objective Phi at which a run counts as converged.
    step_init, armijo_c and backtrack_factor control the line search;
    stall_iters is the window with no meaningful progress after which a run
    is declared stalled; rank_rtol is the relative singular-value threshold
    for declaring rank loss. norm_weight scales the norms term of Phi.
    """

    max_iters: int = 2000
    tol: float = 1e-10
    step_init: float = 0.1
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    stall_iters: int = 50
    norm_weight: float = 1.0
    rank_rtol: float = 1e-12


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
    final = trace[-1] if final_residual is None else final_residual
    return FlowReport(method, status, len(trace) - 1, final, np.asarray(trace), message)


def _target_frame(F, target: FiberTarget) -> np.ndarray:
    F = as_frame_matrix(F)
    if F.shape != (target.k, target.N):
        raise ValueError(f"frame shape {F.shape} does not match target ({target.k}, {target.N})")
    return F


def fiber_residual(F, target: FiberTarget, norm_weight: float = 1.0) -> float:
    """Squared momentum distance Phi(F) to the target fiber."""
    return _residual(_target_frame(F, target), target, norm_weight)


def _gaps(F: np.ndarray, target: FiberTarget):
    return F @ F.conj().T - target.operator, _norms_squared(F) - target.norms_sq


def _residual(F: np.ndarray, target: FiberTarget, w: float = 1.0) -> float:
    delta, gap = _gaps(F, target)
    return float(np.vdot(delta, delta).real + w * np.dot(gap, gap))


def fiber_residual_gradient(F, target: FiberTarget, norm_weight: float = 1.0) -> np.ndarray:
    """Gradient of Phi for the real inner product Re trace(A* B).

    grad Phi = 4 (F F* - S) F + 4 w F diag(||f_j||^2 - r_j).
    """
    return _residual_gradient(_target_frame(F, target), target, norm_weight)


def _residual_gradient(F: np.ndarray, target: FiberTarget, w: float) -> np.ndarray:
    delta, gap = _gaps(F, target)
    return 4.0 * (delta @ F) + (4.0 * w) * (F * gap[None, :])


def _realified_preimage(F: np.ndarray, R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares dF for D(F) dF = (R, b) on the realified Jacobian.

    The columns are exact directional derivatives, one per real coordinate of
    F; lstsq stays meaningful when F has lost rank.
    """
    k, N = F.shape
    iu = np.triu_indices(k, 1)

    def encode(W, g):
        return np.concatenate([np.diag(W).real, g, W[iu].real, W[iu].imag])

    cols = []
    for part in (1.0, 1.0j):
        for i in range(k):
            for j in range(N):
                E = np.zeros((k, N), dtype=complex)
                E[i, j] = part
                W = F @ E.conj().T + E @ F.conj().T
                g = 2.0 * np.real(np.sum(np.conj(F) * E, axis=0))
                cols.append(encode(W, g))
    J = np.stack(cols, axis=1)
    sol, *_ = np.linalg.lstsq(J, encode(R, b), rcond=None)
    half = k * N
    return sol[:half].reshape(k, N) + 1j * sol[half:].reshape(k, N)


def _normal_preimage(F: np.ndarray, R: np.ndarray, b: np.ndarray, rank_rtol: float = 1e-12):
    """Minimum-norm dF with F dF* + dF F* = R and 2 Re <f_j, df_j> = b_j.

    The minimizer lies in the range of the derivative's adjoint, the normal
    space {W F + F diag(g) : W Hermitian, g real}. In the singular basis
    F = U diag(s) Vh the operator equations are diagonal, so W is eliminated
    entrywise and the norms equations leave one real N x N system for g whose
    kernel is the all-ones vector (trace(S) = sum(r)). When the singular
    values fail the rank check, the realified least-squares step is used.
    """
    k, N = F.shape
    U, s, Vh = np.linalg.svd(F, full_matrices=False)
    if not full_row_rank(s, k, rank_rtol):
        return _realified_preimage(F, R, b)
    Ft = s[:, None] * Vh
    K = 1.0 / (s[:, None] ** 2 + s[None, :] ** 2)
    Rt = U.conj().T @ R @ U
    # P[(a, b), j] = conj(Ft[a, j]) Ft[b, j]; W~ = K o (R~ - 2 Ft diag(g) Ft*)
    P = (Ft.conj()[:, None, :] * Ft[None, :, :]).reshape(k * k, N)
    KP = K.reshape(-1, 1) * P
    T = np.diag(np.sum(np.abs(Ft) ** 2, axis=0)) - 2.0 * (KP.T @ P.conj()).real
    g, *_ = np.linalg.lstsq(T, 0.5 * b - (Rt.reshape(-1) @ KP).real, rcond=None)
    Wt = K * (Rt - 2.0 * (Ft * g) @ Ft.conj().T)
    return U @ (Wt @ Ft + Ft * g)


def flow_to_fiber(F0, target: FiberTarget, options: FlowOptions | None = None):
    """Armijo gradient descent on Phi from F0; returns (frame, FlowReport).

    Statuses: "converged" (Phi <= tol), "stalled" (line search exhausted or no
    relative progress across stall_iters steps), "lost_rank" (an iterate came
    within rank_rtol of dropping rank), "max_iters".
    """
    opts = options or FlowOptions()
    F = _target_frame(F0, target).copy()
    w = opts.norm_weight
    phi = _residual(F, target, w)
    trace = [phi]

    def report(status, message=""):
        return F, _report("gradient", trace, status, message)

    if phi <= opts.tol:
        return report("converged")

    step = opts.step_init
    for _ in range(opts.max_iters):
        if not full_row_rank(np.linalg.svd(F, compute_uv=False), F.shape[0], opts.rank_rtol):
            return report("lost_rank", "iterate is numerically rank deficient")
        G = _residual_gradient(F, target, w)
        gnorm2 = float(np.vdot(G, G).real)
        if gnorm2 == 0.0:
            return report("stalled", "gradient vanished away from the fiber")
        s = step
        accepted = False
        for _ in range(80):
            Fn = F - s * G
            phin = _residual(Fn, target, w)
            if phin <= phi - opts.armijo_c * s * gnorm2:
                accepted = True
                break
            s *= opts.backtrack_factor
        if not accepted:
            return report("stalled", "line search hit the floating-point floor")
        F, phi = Fn, phin
        trace.append(phi)
        step = min(s * 2.0, 1e8)
        if phi <= opts.tol:
            return report("converged")
        win = opts.stall_iters
        if len(trace) > win and trace[-1 - win] - phi <= 1e-6 * trace[-1 - win]:
            return report("stalled", f"no relative progress over {win} steps")
    return report("max_iters")


def project_frame_operator(F, operator, operator_sqrt=None, rank_rtol: float = 1e-12):
    """Closest-in-spirit move onto {G : G G* = S}: F -> S^(1/2) (F F*)^(-1/2) F.

    Computed through the polar isometry of F for stability. Raises ValueError
    when F is rank deficient (the move is undefined there).
    """
    F = as_frame_matrix(F)
    if operator_sqrt is None:
        operator_sqrt = psd_sqrt(as_hermitian(operator, name="operator"))
    return operator_sqrt @ frame_polar_isometry(F, rank_rtol)


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
    improved for stall_iters rounds.
    """
    opts = options or FlowOptions()
    F = _target_frame(F0, target).copy()
    w = opts.norm_weight
    S_sqrt = psd_sqrt(target.operator)
    phi = _residual(F, target, w)
    trace = [phi]
    best_F, best_phi, best_it = F, phi, 0

    def report(G, status, message=""):
        return G, _report("alternating", trace, status, message, _residual(G, target, w))

    if phi <= opts.tol:
        return report(F, "converged")

    for it in range(1, opts.max_iters + 1):
        try:
            F = S_sqrt @ frame_polar_isometry(F, opts.rank_rtol)
            F = _project_norms(F, target.norms_sq)
        except ValueError as exc:
            return report(best_F, "lost_rank", str(exc))
        phi = _residual(F, target, w)
        trace.append(phi)
        if phi < best_phi:
            best_F, best_phi, best_it = F, phi, it
        if phi <= opts.tol:
            return report(F, "converged")
        if it - best_it >= opts.stall_iters:
            return report(best_F, "stalled", f"best residual stuck for {opts.stall_iters} rounds")
    return report(best_F, "max_iters")


def newton_refine(F0, target: FiberTarget, options: FlowOptions | None = None):
    """Damped Gauss-Newton on the constraint map; returns (frame, FlowReport).

    The constraints (F F* - S, norms^2 - r) are quadratic in F, so near the
    fiber the minimum-norm Newton step converges quadratically. That step lies
    in the normal space {W F + F diag(g)} of the fiber, so it is solved in its
    k^2 + N coordinates, eliminated in the singular basis of F. An iterate
    that fails the rank_rtol full-rank check takes a least-squares step on the
    realified Jacobian instead, the only route off a rank-deficient start.
    Steps are halved until Phi decreases; a step that cannot decrease Phi ends
    the run as "stalled".
    """
    opts = options or FlowOptions()
    F = _target_frame(F0, target).copy()
    w = opts.norm_weight
    phi = _residual(F, target, w)
    trace = [phi]

    def report(status, message=""):
        return F, _report("newton", trace, status, message)

    if phi <= opts.tol:
        return report("converged")

    for _ in range(min(opts.max_iters, 60)):
        delta, gap = _gaps(F, target)
        dF = _normal_preimage(F, -delta, -gap, opts.rank_rtol)
        step = 1.0
        accepted = False
        for _ in range(25):
            Fn = F + step * dF
            phin = _residual(Fn, target, w)
            if phin < phi:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return report("stalled", "no damped step decreases the residual")
        F, phi = Fn, phin
        trace.append(phi)
        if phi <= opts.tol:
            return report("converged")
    return report("max_iters")


def project_to_fiber(F0, target: FiberTarget, options: FlowOptions | None = None):
    """Projection onto the fiber; returns (frame, report).

    A short alternating-projection phase contracts toward the fiber, and a
    Newton polish finishes quadratically when alternation alone has not
    converged.
    """
    opts = options or FlowOptions()
    F, rep = alternate_projections(F0, target, replace(opts, max_iters=min(200, opts.max_iters)))
    method, trace = "alternating", rep.residual_trace
    if not rep.converged:
        F, rep = newton_refine(F, target, opts)
        method, trace = "alternating+newton", np.concatenate([trace, rep.residual_trace[1:]])
    return F, _report(method, trace, rep.status, rep.message, rep.final_residual)
