"""Symplectic structure on frame space and the momentum maps of its symmetries.

Frame space C^{k x N} carries the constant symplectic form
omega(X1, X2) = -Im trace(X1* X2). Left multiplication by U(k) and right
multiplication by diagonal torus phases both act by symplectomorphisms; their
momentum maps are F F* and the vector of -||f_j||^2 / 2 respectively. The
defining property ties the derivative of the momentum map to the symplectic
pairing against infinitesimal fields, and everything here is organized around
checking that identity numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    RANK_RTOL,
    _non_negative_int,
    as_complex_matrix,
    as_hermitian,
    as_real_vector,
    full_row_rank,
    is_hermitian,
)
from .core import _frame_pair, as_frame_matrix, frame_operator, norms_squared
from .errors import NotAFrameError

__all__ = [
    "LieAlgebraElement",
    "MomentumValue",
    "RegularValueCheck",
    "symplectic_form",
    "infinitesimal_field",
    "momentum_torus",
    "momentum",
    "momentum_derivative_unitary",
    "momentum_derivative_torus",
    "defining_property_residual",
    "invert_momentum_derivative",
    "left_kernel_vector",
    "is_regular_value",
]


def symplectic_form(X1, X2) -> float:
    """omega(X1, X2) = -Im trace(X1* X2) on C^{k x N}."""
    return _omega(*_frame_pair(X1, X2, ("X1", "X2")))


def _omega(X1: np.ndarray, X2: np.ndarray) -> float:
    return float(-np.imag(np.vdot(X1, X2)))


@dataclass(frozen=True, eq=False)
class LieAlgebraElement:
    """Element (B, t) of u(k) x R^N: B anti-Hermitian, t real torus rates."""

    skew: np.ndarray
    torus: np.ndarray

    def __post_init__(self):
        B = as_complex_matrix(self.skew, "skew")
        if B.shape[0] != B.shape[1]:
            raise ValueError(f"skew part must be square, got {B.shape}")
        if not is_hermitian(1j * B):
            raise ValueError("skew part is not anti-Hermitian within tolerance")
        t = as_real_vector(self.torus, "torus")
        object.__setattr__(self, "skew", B)
        object.__setattr__(self, "torus", t)

    @classmethod
    def zero(cls, k: int, N: int) -> "LieAlgebraElement":
        """The zero of u(k) x R^N; ValueError unless k and N are integers >= 0 (not bools)."""
        _non_negative_int(k, "k")
        _non_negative_int(N, "N")
        return cls(np.zeros((k, k), dtype=complex), np.zeros(N))


def infinitesimal_field(F, xi: LieAlgebraElement) -> np.ndarray:
    """Tangent field of the action at F: B F + F i diag(t)."""
    return _field(as_frame_matrix(F), xi)


def _field(F: np.ndarray, xi: LieAlgebraElement) -> np.ndarray:
    k, N = F.shape
    if xi.skew.shape[0] != k or xi.torus.shape[0] != N:
        raise ValueError("algebra element does not match frame shape")
    return xi.skew @ F + F * (1j * xi.torus)[None, :]


def momentum_torus(F) -> np.ndarray:
    """Torus momentum (-||f_1||^2 / 2, ..., -||f_N||^2 / 2)."""
    return -0.5 * norms_squared(F)


@dataclass(frozen=True, eq=False)
class MomentumValue:
    """Joint momentum of a frame: the operator F F* and the torus vector."""

    operator: np.ndarray
    torus: np.ndarray

    def consistency_residual(self) -> float:
        """|trace(operator) + 2 sum(torus)|; zero because both count total energy."""
        return float(abs(np.trace(self.operator).real + 2.0 * np.sum(self.torus)))


def momentum(F) -> MomentumValue:
    """Joint momentum of F: the operator F F* and the torus vector -||f_j||^2 / 2."""
    F = as_frame_matrix(F)
    return MomentumValue(operator=frame_operator(F), torus=momentum_torus(F))


def momentum_derivative_unitary(F, X) -> np.ndarray:
    """Derivative of F -> F F* at F in direction X: F X* + X F* (Hermitian)."""
    return _derivative(*_frame_pair(F, X, ("F", "X")))[0]


def momentum_derivative_torus(F, X) -> np.ndarray:
    """Derivative of the torus momentum: -Re <f_j, x_j> per column."""
    return -0.5 * _derivative(*_frame_pair(F, X, ("F", "X")))[1]


def _derivative(F: np.ndarray, X: np.ndarray):
    """D(F) X = (F X* + X F*, 2 Re <f_j, x_j>) for frames (..., k, N); the first part is exactly Hermitian."""
    W = F @ X.conj().swapaxes(-1, -2)
    W += W.conj().swapaxes(-1, -2)
    return W, 2.0 * np.add.reduce((F.conj() * X).real, axis=-2)


def _adjoint(F: np.ndarray, R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D(F)* (R, b) = 2 (R F + F diag(b)), the adjoint of _derivative for Re trace(A* B)."""
    return 2.0 * (R @ F + F * b[..., None, :])


def defining_property_residual(F, X, xi: LieAlgebraElement) -> float:
    """| <D momentum(X), xi> - omega(X, field(xi)) | at the frame F.

    Zero (to rounding) for every direction X and algebra element xi; this is
    the statement that F F* and the half-squared-norm vector generate the two
    group actions Hamiltonianly.
    """
    F, X = _frame_pair(F, X, ("F", "X"))
    rhs = _omega(X, _field(F, xi))
    W, g = _derivative(F, X)
    # (i/2) trace(B W) is real for B anti-Hermitian and W Hermitian; the torus
    # factor pairs with the torus derivative -g / 2 by the ordinary dot product
    return abs(float((0.5j * np.trace(xi.skew @ W)).real + np.dot(xi.torus, -0.5 * g)) - rhs)


def invert_momentum_derivative(F, W) -> np.ndarray:
    """Direction X with F X* + X F* = W for Hermitian W, when F has full rank.

    Uses the explicit right inverse X = W (F F*)^{-1} F / 2, evaluated as
    W U diag(1/s) Vh / 2 from the thin SVD F = U diag(s) Vh, so its error
    grows with cond(F) rather than cond(F)^2. Raises NotAFrameError when F is
    rank deficient: then any v in the left kernel of F* gives
    v* (F X* + X F*) v = 0, so W with v* W v != 0 are unreachable.
    """
    F = as_frame_matrix(F)
    k = F.shape[0]
    W = as_hermitian(W, name="W", k=k)
    U, s, Vh = np.linalg.svd(F, full_matrices=False)
    if not full_row_rank(s, k):
        raise NotAFrameError("derivative is not surjective: frame is rank deficient")
    return 0.5 * (W @ (U / s)) @ Vh


def left_kernel_vector(F) -> np.ndarray:
    """Unit vector v with F* v = 0, certifying non-surjectivity of the derivative.

    Raises NotAFrameError when F has full row rank (no such vector exists).
    """
    F = as_frame_matrix(F)
    U, s, _ = np.linalg.svd(F, full_matrices=True)
    if full_row_rank(s, F.shape[0]):
        raise NotAFrameError("frame has full rank; left kernel is trivial")
    return U[:, -1]


@dataclass(frozen=True)
class RegularValueCheck:
    """Outcome of a regular-value test with a human-readable reason on failure."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_regular_value(S, torus) -> RegularValueCheck:
    """Whether (S, torus) is a regular value of the joint momentum map.

    Requires S non-empty, Hermitian and positive definite and every torus
    entry strictly negative (each equals -||f_j||^2 / 2 on the fiber, and
    zero columns are the critical degeneration), both relative to scale:
    the smallest eigenvalue of S above RANK_RTOL times the largest, and
    every torus entry below -RANK_RTOL times the largest |entry|. A failed
    check names its cause; the torus reason lists the failing columns, 1-based.
    A malformed part is a failed check too, not an exception: an operator that
    is not a finite non-empty square Hermitian matrix, or a torus that is not
    a finite non-empty 1-D vector, returns the reason naming that part.
    """
    try:
        S = as_hermitian(S, "operator part")
        t = as_real_vector(torus, "torus")
    except ValueError as exc:
        return RegularValueCheck(False, str(exc))
    if t.size == 0:
        return RegularValueCheck(False, "torus must be non-empty")
    return _regular_value(np.linalg.eigvalsh(S)[::-1], t)


def _regular_value(w: np.ndarray, t: np.ndarray) -> RegularValueCheck:
    """is_regular_value from the descending eigenvalues w of S and a real vector t."""
    if w[-1] <= RANK_RTOL * w[0]:
        return RegularValueCheck(False, "operator part is not positive definite")
    cols = ", ".join(map(str, np.flatnonzero(t >= -RANK_RTOL * np.max(np.abs(t), initial=0.0)) + 1))
    if cols:
        return RegularValueCheck(False, f"torus part has a non-negative entry in column(s) {cols} of {t.size}")
    return RegularValueCheck(True)
