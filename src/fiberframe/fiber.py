"""Targets for momentum-level constraints on frames.

A fiber target fixes the frame operator S and the squared column norms r.
The frames satisfying F F* = S and ||f_j||^2 = r_j form the fiber all repair
flows and path searches in this package aim at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import MAJORIZATION_TOL, as_hermitian, as_real_vector
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
    """

    operator: np.ndarray
    norms_sq: np.ndarray

    def __post_init__(self):
        S = as_hermitian(self.operator, name="operator")
        r = _positive_vector(self.norms_sq, "norms_sq")
        if r.size < S.shape[0]:
            raise ValueError("need at least as many vectors as dimensions (N >= k); fiber is empty")
        check = _regular_value(S, -0.5 * r)
        if not check:
            raise ValueError(f"target is not a regular momentum value: {check.reason}")
        total = float(np.sum(r))
        if abs(float(np.trace(S).real) - total) > MAJORIZATION_TOL * max(1.0, total):
            raise ValueError("trace(operator) must equal sum(norms_sq); fiber is empty")
        object.__setattr__(self, "operator", S)
        object.__setattr__(self, "norms_sq", r)

    @property
    def k(self) -> int:
        return self.operator.shape[0]

    @property
    def N(self) -> int:
        return self.norms_sq.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the operator, descending."""
        return np.linalg.eigvalsh(self.operator)[::-1].copy()

    @classmethod
    def funtf(cls, k: int, N: int) -> "FiberTarget":
        """Unit-norm tight frame target: S = (N/k) Id, all norms 1."""
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
