"""Small dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np

from .errors import ClusteringError


def as_complex_matrix(A, name="matrix") -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    A = A.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_real_vector(v, name="vector") -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_complex_vector(v, name="vector") -> np.ndarray:
    v = np.asarray(v).astype(np.complex128, copy=False)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def hermitize(A: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (A + A*) / 2."""
    return 0.5 * (A + A.conj().T)


def hermitian_deviation(A: np.ndarray) -> float:
    """Relative Frobenius distance from A to its Hermitian part."""
    return float(np.linalg.norm(A - A.conj().T) / max(1.0, np.linalg.norm(A)))


def as_hermitian(A, tol=1e-10, name="matrix") -> np.ndarray:
    A = as_complex_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if hermitian_deviation(A) > tol:
        raise ValueError(f"{name} is not Hermitian within tolerance {tol}")
    return hermitize(A)


def eigh_desc(A: np.ndarray):
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix."""
    w, V = np.linalg.eigh(A)
    return w[::-1].copy(), V[:, ::-1].copy()


def psd_sqrt(A: np.ndarray, rtol=1e-12) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix."""
    w, V = np.linalg.eigh(A)
    floor = -rtol * max(1.0, abs(w[-1]))
    if w[0] < floor:
        raise ValueError("matrix is not positive semidefinite")
    w = np.clip(w, 0.0, None)
    return hermitize((V * np.sqrt(w)) @ V.conj().T)


def polar_unitary(A: np.ndarray) -> np.ndarray:
    """Unitary polar factor U Vh from the SVD of a square matrix."""
    U, _, Vh = np.linalg.svd(A)
    return U @ Vh


def full_row_rank(s: np.ndarray, k: int, rtol: float) -> bool:
    """Whether the singular values s of a k x N matrix certify full row rank (needs N >= k)."""
    return bool(s.size == k and s[0] > 0.0 and s[-1] >= rtol * s[0])


def frame_polar_isometry(F: np.ndarray, rank_rtol=1e-12) -> np.ndarray:
    """Partial isometry Q (Q Q* = Id_k) closest to the k x N matrix F.

    Raises ValueError when F does not have full row rank relative to rank_rtol.
    """
    U, s, Vh = np.linalg.svd(F, full_matrices=False)
    if not full_row_rank(s, F.shape[0], rank_rtol):
        raise ValueError("rank-deficient matrix has no well-defined polar isometry")
    return U @ Vh


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR with phase normalization."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def unitary_log_factors(V: np.ndarray):
    """Factor a unitary V as Z diag(exp(i theta)) Z*, theta in (-pi, pi].

    W = exp(i phi) V puts the widest gap of the spectrum at -1, so the Cayley
    transform i (I - W)(I + W)^-1 is a well-conditioned Hermitian matrix
    whose eigenvalues mu give the angles 2 arctan(mu) of W.
    """
    ang = np.sort(np.angle(np.linalg.eigvals(V)))
    gaps = np.diff(np.append(ang, ang[0] + 2.0 * np.pi))
    i = int(np.argmax(gaps))
    phi = np.pi - ang[i] - 0.5 * gaps[i]
    W = np.exp(1j * phi) * V
    I = np.eye(V.shape[0])
    mu, Z = np.linalg.eigh(hermitize(1j * np.linalg.solve(I + W, I - W)))
    return Z, np.angle(np.exp(1j * (2.0 * np.arctan(mu) - phi)))


def cluster_by_gap(values_desc: np.ndarray, rel_tol: float, ambiguity_factor: float = 10.0):
    """Group a descending sequence into clusters split at large relative gaps.

    A gap below rel_tol * scale merges, a gap at or above ambiguity_factor times
    that splits, anything between raises ClusteringError because the grouping
    would depend on the tolerance choice.
    """
    values_desc = np.asarray(values_desc, dtype=np.float64)
    n = values_desc.size
    if n == 0:
        return []
    scale = max(1.0, float(np.abs(values_desc[0])))
    merge_below = rel_tol * scale
    split_at = ambiguity_factor * merge_below
    clusters = [[0]]
    for i in range(1, n):
        gap = float(values_desc[i - 1] - values_desc[i])
        if gap < merge_below:
            clusters[-1].append(i)
        elif gap >= split_at:
            clusters.append([i])
        else:
            raise ClusteringError(
                f"eigenvalue gap {gap:.3e} falls in the ambiguity band "
                f"[{merge_below:.3e}, {split_at:.3e}); adjust cluster_tol"
            )
    return clusters
