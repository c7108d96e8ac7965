"""Targets for momentum-level constraints on frames.

A fiber target fixes the frame operator S and the squared column norms r.
The frames satisfying F F* = S and ||f_j||^2 = r_j form the fiber all repair
flows and path searches in this package aim at. The fiber is non-empty
exactly when the spectrum of S majorizes r (Schur-Horn); that test and its
certificate live here, next to the target that applies it and keeps its
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import MAJORIZATION_TOL, _non_negative_int, as_hermitian, as_real_vector, spectral_clusters
from .errors import InadmissibleError
from .momentum import _regular_value

__all__ = ["as_spectrum", "AdmissibilityCheck", "FiberTarget"]


def _positive_vector(values, name: str) -> np.ndarray:
    """Finite real 1-D array, non-empty and strictly positive: a spectrum or squared norms."""
    v = as_real_vector(values, name)
    if v.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(v <= 0.0):
        raise ValueError(f"{name} entries must be strictly positive")
    return v


def _regular_target(w: np.ndarray, r: np.ndarray) -> None:
    """ValueError unless (S, -r / 2) is a regular value of the momentum map, w the descending spectrum of S."""
    check = _regular_value(w, -0.5 * r)
    if not check:
        raise ValueError(f"target is not a regular momentum value: {check.reason}")


def as_spectrum(values) -> np.ndarray:
    """Validated spectrum: real, strictly positive, sorted descending (copy)."""
    return np.sort(_positive_vector(values, "spectrum"))[::-1].copy()


@dataclass(frozen=True)
class AdmissibilityCheck:
    """Outcome of the existence test, with the first violated condition.

    kind is "" when admissible, otherwise one of "shape" (fewer vectors than
    dimensions), "total" (sum(r) != sum(lambda)) or "partial_sum" (the top-ell
    partial sum of sorted r exceeds that of lambda; ell in ``index``, 1-based).
    lhs/rhs hold the two sides of the violated (in)equality.
    """

    ok: bool
    kind: str = ""
    index: int | None = None
    lhs: float = 0.0
    rhs: float = 0.0

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "admissible"
        if self.kind == "shape":
            return f"only {int(self.lhs)} vectors for dimension {int(self.rhs)}"
        if self.kind == "total":
            return f"sum of norms {self.lhs:.12g} != sum of spectrum {self.rhs:.12g}"
        return (
            f"partial sum violated at ell={self.index}: "
            f"top norms add to {self.lhs:.12g} > spectrum {self.rhs:.12g}"
        )


def _admissibility(lam: np.ndarray, r: np.ndarray) -> AdmissibilityCheck:
    """The majorization test of r by a descending lam, with slack MAJORIZATION_TOL * sum(|lam|)."""
    k, N = lam.size, r.size
    if N < k:
        return AdmissibilityCheck(False, kind="shape", lhs=float(N), rhs=float(k))
    slack = MAJORIZATION_TOL * float(np.sum(np.abs(lam)))
    if abs(float(np.sum(r)) - float(np.sum(lam))) > slack:
        return AdmissibilityCheck(False, kind="total", lhs=float(np.sum(r)), rhs=float(np.sum(lam)))
    rs = np.sort(r)[::-1]
    sums_r = np.cumsum(rs[:k])
    sums_lam = np.cumsum(lam)
    for ell in range(1, k + 1):
        if sums_r[ell - 1] > sums_lam[ell - 1] + slack:
            return AdmissibilityCheck(
                False,
                kind="partial_sum",
                index=ell,
                lhs=float(sums_r[ell - 1]),
                rhs=float(sums_lam[ell - 1]),
            )
    return AdmissibilityCheck(True)


@dataclass(frozen=True, eq=False)
class FiberTarget:
    """Prescribed frame operator and squared norms defining one fiber.

    operator : k x k Hermitian positive definite matrix
    norms_sq : length-N vector of strictly positive squared norms

    admissibility : the AdmissibilityCheck of the existence test, computed
                    once at construction; truthy exactly when the fiber is
                    non-empty, and otherwise carrying the violated partial sum

    Construction validates Hermitianity, positivity of the norms and the rule
    of is_regular_value (ValueError), then runs the existence test: fewer
    vectors than dimensions or trace(S) != sum(r) leave the fiber empty at
    any S, and raise InadmissibleError with the certificate. A fiber empty
    only through a partial sum stays a valid target: Phi, its gradient and
    the repair routes are defined there, and its admissibility holds the
    failed check. Both arrays are read-only copies, so the fiber, its
    certificate and the decomposition spectral_clusters(S) that construction
    computes once cannot drift apart; it is immutable, and the one
    decomposition of S that the package reads.
    """

    operator: np.ndarray
    norms_sq: np.ndarray

    def __post_init__(self):
        S = as_hermitian(self.operator, name="operator")
        r = _positive_vector(self.norms_sq, "norms_sq")
        spectral = spectral_clusters(S)
        _regular_target(spectral[0], r)
        check = _admissibility(spectral[0], r)
        if check.kind in ("shape", "total"):
            raise InadmissibleError(check.describe(), check)
        r = r.copy()
        for a in (S, r, *spectral[:2]):
            a.setflags(write=False)
        object.__setattr__(self, "operator", S)
        object.__setattr__(self, "norms_sq", r)
        object.__setattr__(self, "_spectral", spectral)
        object.__setattr__(self, "admissibility", check)

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
