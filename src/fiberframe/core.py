"""Basic operators for finite frames in C^k.

A frame is stored as a k x N complex matrix whose columns are the frame
vectors. The analysis operator maps a vector to its coefficient sequence,
synthesis is its adjoint, and the frame operator is their composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import _tolerance, as_complex_matrix, as_complex_vector, full_row_rank, hermitize
from .errors import NotAFrameError

__all__ = [
    "FrameBounds",
    "as_frame_matrix",
    "analysis",
    "synthesis",
    "frame_operator",
    "gram",
    "norms_squared",
    "frame_bounds",
    "is_frame",
    "is_tight",
    "is_funtf",
]


def as_frame_matrix(F, name="F") -> np.ndarray:
    """Coerce to a complex k x N matrix with finite entries."""
    F = as_complex_matrix(F, name)
    if F.shape[0] < 1 or F.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    return F


def _frame_pair(A, B, names=("F0", "F1")):
    """Two matrices of equal shape, each checked as a frame (a frame and a direction at it, say)."""
    A, B = as_frame_matrix(A, names[0]), as_frame_matrix(B, names[1])
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    return A, B


def analysis(F, v) -> np.ndarray:
    """Coefficient sequence (<v, f_1>, ..., <v, f_N>), i.e. F* v.

    The inner product is conjugate-linear in the first argument, so the j-th
    coefficient is conj(f_j) . v.
    """
    F = as_frame_matrix(F)
    v = as_complex_vector(v, "v")
    if v.shape[0] != F.shape[0]:
        raise ValueError(f"v has length {v.shape[0]}, expected {F.shape[0]}")
    return F.conj().T @ v


def synthesis(F, z) -> np.ndarray:
    """Linear combination F z of the frame vectors, adjoint of analysis."""
    F = as_frame_matrix(F)
    z = as_complex_vector(z, "z")
    if z.shape[0] != F.shape[1]:
        raise ValueError(f"z has length {z.shape[0]}, expected {F.shape[1]}")
    return F @ z


def frame_operator(F) -> np.ndarray:
    """Frame operator F F*, returned exactly Hermitian."""
    F = as_frame_matrix(F)
    return hermitize(F @ F.conj().T)


def gram(F) -> np.ndarray:
    """Gram matrix F* F of pairwise inner products, returned exactly Hermitian."""
    F = as_frame_matrix(F)
    return hermitize(F.conj().T @ F)


def norms_squared(F) -> np.ndarray:
    """Squared column norms (||f_1||^2, ..., ||f_N||^2)."""
    return _norms_squared(as_frame_matrix(F))


def _norms_squared(F: np.ndarray) -> np.ndarray:
    # squared column norms of a frame or of each frame in a stack (..., k, N)
    return np.add.reduce(np.abs(F) ** 2, axis=-2)


@dataclass(frozen=True)
class FrameBounds:
    """Optimal frame bounds: extreme eigenvalues of the frame operator."""

    lower: float
    upper: float

    def is_tight(self, tol: float = 1e-8) -> bool:
        """Whether upper - lower is at most tol (finite, >= 0) times their mean."""
        _tolerance(tol)
        mid = 0.5 * (self.lower + self.upper)
        return self.upper - self.lower <= tol * max(mid, np.finfo(float).tiny)


def frame_bounds(F) -> FrameBounds:
    """Optimal constants A, B with A ||v||^2 <= sum |<v, f_j>|^2 <= B ||v||^2.

    These are the squared extreme singular values of F. Raises NotAFrameError
    when the columns do not span C^k (the full-row-rank test of the package).
    """
    F = as_frame_matrix(F)
    s = np.linalg.svd(F, compute_uv=False)
    if not full_row_rank(s, F.shape[0]):
        raise NotAFrameError("columns do not span the ambient space")
    return FrameBounds(lower=float(s[-1] ** 2), upper=float(s[0] ** 2))


def is_frame(F) -> bool:
    """True when the columns span C^k."""
    return _bounds_or_none(F) is not None


def is_tight(F, tol: float = 1e-8) -> bool:
    """True when the frame bounds coincide up to relative tolerance tol (finite, >= 0)."""
    _tolerance(tol)
    b = _bounds_or_none(F)
    return b is not None and b.is_tight(tol)


def is_funtf(F, tol: float = 1e-8) -> bool:
    """True for a unit-norm tight frame: tight and every ||f_j||^2 = 1, up to tol (finite, >= 0)."""
    _tolerance(tol)
    return _funtf(F, _bounds_or_none(F), tol)


def _bounds_or_none(F) -> FrameBounds | None:
    """frame_bounds(F), or None when F is not a frame."""
    try:
        return frame_bounds(F)
    except NotAFrameError:
        return None


def _funtf(F, b: FrameBounds | None, tol: float) -> bool:
    """The is_funtf verdict for F with bounds b (None for a non-frame).

    A caller that already holds b reads the verdict without a second SVD.
    """
    return b is not None and b.is_tight(tol) and bool(np.max(np.abs(norms_squared(F) - 1.0)) <= tol)
