"""Targets for momentum-level constraints on frames.

A fiber target fixes the frame operator S and the squared column norms r.
The frames satisfying F F* = S and ||f_j||^2 = r_j form the fiber all repair
flows and path searches in this package aim at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import MAJORIZATION_TOL, _non_negative_int, as_hermitian, as_real_vector, spectral_clusters
from .momentum import _regular_value

__all__ = ["as_spectrum", "FiberTarget"]


def _positive_vector(values, name: str) -> np.ndarray:
    """Finite real 1-D array, non-empty and strictly positive: a spectrum or squared norms."""
    v = as_real_vector(values, name)
    if v.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(v <= 0.0):
        raise ValueError(f"{name} entries must be strictly positive")
    return v


def _sums_agree(values: np.ndarray, r: np.ndarray) -> bool:
    """The sums rule of a fiber: sum(r) = sum(values) up to MAJORIZATION_TOL times sum(|values|).

    values is a spectrum, or the diagonal of an operator, whose sum is its trace.
    """
    return abs(float(np.sum(r)) - float(np.sum(values))) <= MAJORIZATION_TOL * float(np.sum(np.abs(values)))


def _regular_target(w: np.ndarray, r: np.ndarray) -> None:
    """ValueError unless (S, -r / 2) is a regular value of the momentum map, w the descending spectrum of S."""
    check = _regular_value(w, -0.5 * r)
    if not check:
        raise ValueError(f"target is not a regular momentum value: {check.reason}")


def as_spectrum(values) -> np.ndarray:
    """Validated spectrum: real, strictly positive, sorted descending (copy)."""
    return np.sort(_positive_vector(values, "spectrum"))[::-1].copy()


@dataclass(frozen=True, eq=False)
class FiberTarget:
    """Prescribed frame operator and squared norms defining one fiber.

    operator : k x k Hermitian positive definite matrix
    norms_sq : length-N vector of strictly positive squared norms

    Construction validates Hermitianity, positive definiteness, positivity of
    the norms, N >= k and trace(S) = sum(r), without which the fiber is empty.
    Both arrays are read-only copies, so the fiber and the decomposition
    spectral_clusters(S) that construction computes once cannot drift apart;
    it is immutable, and the one decomposition of S that the package reads.
    """

    operator: np.ndarray
    norms_sq: np.ndarray

    def __post_init__(self):
        S = as_hermitian(self.operator, name="operator")
        r = _positive_vector(self.norms_sq, "norms_sq")
        if r.size < S.shape[0]:
            raise ValueError("need at least as many vectors as dimensions (N >= k); fiber is empty")
        spectral = spectral_clusters(S)
        _regular_target(spectral[0], r)
        if not _sums_agree(np.diagonal(S).real, r):
            raise ValueError("trace(operator) must equal sum(norms_sq); fiber is empty")
        r = r.copy()
        for a in (S, r, *spectral[:2]):
            a.setflags(write=False)
        object.__setattr__(self, "operator", S)
        object.__setattr__(self, "norms_sq", r)
        object.__setattr__(self, "_spectral", spectral)

    @property
    def k(self) -> int:
        return self.operator.shape[0]

    @property
    def N(self) -> int:
        return self.norms_sq.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the operator, descending (a copy of the target's decomposition)."""
        return self._spectral[0].copy()

    @classmethod
    def funtf(cls, k: int, N: int) -> "FiberTarget":
        """Unit-norm tight frame target: S = (N/k) Id, all norms 1.

        ValueError unless k and N are integers (not bools) with 1 <= k <= N.
        """
        _non_negative_int(k, "k")
        _non_negative_int(N, "N")
        if not (1 <= k <= N):
            raise ValueError("need 1 <= k <= N")
        return cls(operator=(N / k) * np.eye(k, dtype=complex), norms_sq=np.ones(N))

    @classmethod
    def from_spectrum(cls, spectrum, norms_sq) -> "FiberTarget":
        """Diagonal representative diag(spectrum) for targets given up to unitaries."""
        lam = as_spectrum(spectrum)
        return cls(operator=np.diag(lam).astype(complex), norms_sq=norms_sq)

    def __repr__(self) -> str:
        return f"FiberTarget(k={self.k}, N={self.N}, trace={float(np.trace(self.operator).real):g})"
