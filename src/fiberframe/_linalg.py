"""Small dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numbers

import numpy as np

# The package's fixed numerical decisions, each made in one place and each
# relative to the scale of its own input, so that scaling the input by any
# c > 0 leaves every verdict as it is:
# relative singular-value threshold of the full-row-rank test (s_min >= RANK_RTOL s_max);
# also the floor of positive definiteness: a regular value's operator
# eigenvalues and squared norms exceed RANK_RTOL times their largest, and
# psd_sqrt allows eigenvalues down to -RANK_RTOL times the largest magnitude
RANK_RTOL = 1e-12
# smallest eigenvalue of F F*, relative to the largest, above which eigh(F F*)
# gives the Newton step; at or below it (s_min <= 1e-2 s_max) the step takes
# the thin SVD of F. eigh resolves s^2 only to about eps s_max^2, so the
# step's error grows as eps (s_max / s_min)^2
EIGEN_RTOL = 1e-4
# relative Frobenius distance to the Hermitian part beyond which a matrix is not Hermitian
HERMITIAN_TOL = 1e-10
# eigenvalue gap, relative to the largest |eigenvalue|, up to which eigenvalues
# form one cluster; gaps from CLUSTER_AMBIGUITY times that on split, and gaps
# in between are ambiguous
CLUSTER_TOL = 1e-8
CLUSTER_AMBIGUITY = 10.0
# slack of the majorization test relative to the total magnitude sum(|lambda|)
# of the spectrum: sums equal and partial sums ordered up to this
MAJORIZATION_TOL = 1e-10
# two frames at most COINCIDE_RTOL ||F0|| apart are one sample of a path from F0
COINCIDE_RTOL = 1e-12


def _finite_array(a, dtype, ndim: int, name: str) -> np.ndarray:
    """a as an ndim-dimensional array of dtype with finite entries (no copy when it already is one).

    ValueError naming the argument when a is not an array of numbers.
    """
    try:
        a = np.asarray(a, dtype=dtype)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of numbers") from None
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _real_number(value) -> bool:
    """Whether value is a real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _tolerance(tol, name: str = "tol") -> None:
    """ValueError unless tol is a finite real number >= 0 (not a bool)."""
    if not _real_number(tol) or not 0 <= tol < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")


def _non_negative_int(value, name: str) -> None:
    """ValueError unless value is an integer >= 0; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _generator(rng, optional: bool = False) -> None:
    """ValueError unless rng is a numpy Generator, or None where optional."""
    if not (isinstance(rng, np.random.Generator) or (optional and rng is None)):
        allowed = "a numpy.random.Generator or None" if optional else "a numpy.random.Generator"
        raise ValueError(f"rng must be {allowed}, got {rng!r}")


def as_complex_matrix(A, name="matrix") -> np.ndarray:
    return _finite_array(A, np.complex128, 2, name)


def as_real_vector(v, name="vector") -> np.ndarray:
    return _finite_array(v, np.float64, 1, name)


def as_complex_vector(v, name="vector") -> np.ndarray:
    return _finite_array(v, np.complex128, 1, name)


def hermitize(A: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix, (A + A*) / 2."""
    return 0.5 * (A + A.conj().T)


def is_hermitian(A: np.ndarray) -> bool:
    """Whether a square A is within relative Frobenius distance HERMITIAN_TOL of Hermitian."""
    return bool(np.linalg.norm(A - A.conj().T) <= HERMITIAN_TOL * np.linalg.norm(A))


def as_hermitian(A, name="matrix", k=None) -> np.ndarray:
    """A as a non-empty Hermitian complex matrix, of shape (k, k) when k is given; ValueError otherwise."""
    A = as_complex_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not A.size:
        raise ValueError(f"{name} must be non-empty")
    if k is not None and A.shape != (k, k):
        raise ValueError(f"{name} has shape {A.shape}, expected {(k, k)}")
    if not is_hermitian(A):
        raise ValueError(f"{name} is not Hermitian within tolerance {HERMITIAN_TOL}")
    return hermitize(A)


def eigh_desc(A: np.ndarray):
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix."""
    w, V = np.linalg.eigh(A)
    return w[::-1].copy(), V[:, ::-1].copy()


# no caller in the package: perfbench/tracing.py binds this name, and it goes with ROADMAP item 1B
def psd_sqrt(A: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix."""
    w, V = np.linalg.eigh(A)
    floor = -RANK_RTOL * max(-w[0], w[-1])
    if w[0] < floor:
        raise ValueError("matrix is not positive semidefinite")
    w = np.clip(w, 0.0, None)
    return hermitize((V * np.sqrt(w)) @ V.conj().T)


def polar_unitary(A: np.ndarray) -> np.ndarray:
    """Unitary polar factor U Vh from the SVD of a square matrix."""
    U, _, Vh = np.linalg.svd(A)
    return U @ Vh


def full_row_rank(s: np.ndarray, k: int) -> bool:
    """Whether the singular values s of a k x N matrix certify full row rank (needs N >= k)."""
    return bool(s.size == k and s[0] > 0.0 and s[-1] >= RANK_RTOL * s[0])


def frame_polar_isometry(F: np.ndarray) -> np.ndarray:
    """Partial isometry Q (Q Q* = Id_k) closest to the k x N matrix F.

    Raises ValueError when F does not have full row rank.
    """
    U, s, Vh = np.linalg.svd(F, full_matrices=False)
    if not full_row_rank(s, F.shape[0]):
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


def cluster_by_gap(values_desc: np.ndarray):
    """Group a descending sequence into clusters split at large relative gaps.

    Returns the clusters as a tuple of contiguous index slices. A gap at most
    CLUSTER_TOL times the largest |value| merges, a gap at or above
    CLUSTER_AMBIGUITY times that splits; with any gap in between the grouping
    is ambiguous and the result is None. An all-zero sequence is one cluster.
    """
    merge = CLUSTER_TOL * float(np.max(np.abs(values_desc)))
    gaps = values_desc[:-1] - values_desc[1:]
    split = gaps > merge
    if np.any(split & (gaps < CLUSTER_AMBIGUITY * merge)):
        return None
    cuts = [0, *(np.flatnonzero(split) + 1).tolist(), len(values_desc)]
    return tuple(slice(a, b) for a, b in zip(cuts, cuts[1:]))


def spectral_clusters(A: np.ndarray):
    """Descending eigenvalues w, eigenvector columns U and cluster_by_gap(w) of a Hermitian A."""
    w, U = eigh_desc(A)
    return w, U, cluster_by_gap(w)
