"""Spectral invariants of the frame operator and unitary equivalence of frames.

Frames with the same Gram matrix differ by a unitary on the left, and the
frame operator and Gram matrix share their nonzero spectrum. The flag type
records eigenvalue multiplicities; it determines the dimension of the unitary
orbit of the operator and of the reduced space of frames with that operator
up to symmetry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._linalg import _non_negative_int, _real_number, _tolerance, as_hermitian, polar_unitary, spectral_clusters
from .core import _frame_pair, as_frame_matrix, gram
from .errors import ClusteringError

__all__ = [
    "FlagType",
    "flag_type",
    "orbit_dimension",
    "reduced_dimension",
    "unitary_equivalent",
    "spectrum_correspondence_residual",
]


@dataclass(frozen=True)
class FlagType:
    """Distinct eigenvalues (descending) with their multiplicities.

    ValueError unless the lengths agree, the eigenvalues are finite real
    numbers (not bools) that strictly descend and every multiplicity is an
    integer >= 1 (not a bool).
    """

    eigenvalues: tuple
    multiplicities: tuple

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.multiplicities):
            raise ValueError("eigenvalues and multiplicities must have equal length")
        if len(self.multiplicities) == 0 or any(
            isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1 for m in self.multiplicities
        ):
            raise ValueError(f"multiplicities must be positive integers, got {self.multiplicities!r}")
        if not all(_real_number(x) and math.isfinite(x) for x in self.eigenvalues):
            raise ValueError(f"eigenvalues must be finite real numbers, got {self.eigenvalues!r}")
        vals = tuple(float(x) for x in self.eigenvalues)
        if any(a <= b for a, b in zip(vals, vals[1:])):
            raise ValueError("eigenvalues must be distinct and strictly descending")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "multiplicities", tuple(int(m) for m in self.multiplicities))

    @property
    def dimension(self) -> int:
        return sum(self.multiplicities)


def flag_type(operator) -> FlagType:
    """Cluster the spectrum of a Hermitian operator into a flag type.

    Eigenvalues are grouped when their gap is at most 1e-8 times the largest
    |eigenvalue|, so c S has the flag type of S for every c > 0; a gap inside
    the ambiguity band from there to ten times that raises ClusteringError
    rather than silently picking a side.
    """
    S = as_hermitian(operator, name="operator")
    w, _U, clusters = spectral_clusters(S)
    if clusters is None:
        raise ClusteringError(f"a gap of the spectrum {w.tolist()} falls in the ambiguity band")
    reps = tuple(float(np.mean(w[cl])) for cl in clusters)
    mults = tuple(cl.stop - cl.start for cl in clusters)
    return FlagType(eigenvalues=reps, multiplicities=mults)


def orbit_dimension(ft: FlagType) -> int:
    """Real dimension of the unitary orbit of an operator with this flag type.

    Equals k^2 - sum(m_i^2): the stabilizer of the spectral decomposition is
    the product of the block unitary groups.
    """
    k = ft.dimension
    return k * k - sum(m * m for m in ft.multiplicities)


def reduced_dimension(ft: FlagType, N: int) -> int:
    """Real dimension of the space of frames with this operator, up to symmetry.

    2 k (N - k) for the fixed-operator slice plus the orbit dimension.
    ValueError unless N is an integer >= k (not a bool).
    """
    _non_negative_int(N, "N")
    k = ft.dimension
    if N < k:
        raise ValueError("need at least as many vectors as dimensions")
    return 2 * k * (N - k) + orbit_dimension(ft)


def unitary_equivalent(F1, F2, tol: float = 1e-8):
    """Unitary U with U F1 = F2 when one exists, else None.

    Equal Gram matrices force such a U; it is recovered as the unitary polar
    factor of F2 F1*, and the candidate is verified before being returned:
    ||U F1 - F2|| at most tol times ||F1||. ValueError unless tol is finite
    and >= 0.
    """
    _tolerance(tol)
    F1, F2 = _frame_pair(F1, F2, ("F1", "F2"))
    U = polar_unitary(F2 @ F1.conj().T)
    resid = np.linalg.norm(U @ F1 - F2)
    if resid <= tol * np.linalg.norm(F1):
        return U
    return None


def spectrum_correspondence_residual(F) -> float:
    """How far eig(F F*) is from the nonzero part of eig(F* F), relatively.

    Returns the largest deviation between the descending spectra, each
    padded with zeros to length max(k, N) (so the tail beyond rank min(k, N)
    must vanish), divided by the largest eigenvalue of F F* (by the smallest
    positive float for F = 0), so it does not change when F is scaled.
    """
    F = as_frame_matrix(F)
    k, N = F.shape
    w_op = np.linalg.eigvalsh(F @ F.conj().T)[::-1]
    w_gram = np.linalg.eigvalsh(gram(F))[::-1]
    n = max(k, N)
    dev = float(np.max(np.abs(np.pad(w_op, (0, n - k)) - np.pad(w_gram, (0, n - N)))))
    return dev / max(float(np.abs(w_op[0])), np.finfo(float).tiny)
