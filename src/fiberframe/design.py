"""Existence test and construction of frames with prescribed spectrum and norms.

A frame with frame-operator spectrum lambda (k positive values) and squared
column norms r (N positive values) exists exactly when sum(r) = sum(lambda)
and, after sorting both descending, the partial sums of r never exceed those
of lambda. The constructive route builds an N x N Hermitian matrix with
spectrum (lambda, 0, ..., 0) and diagonal r by a chain of plane rotations,
then reads the frame off a truncated eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import MAJORIZATION_TOL, _non_negative_int, as_hermitian, as_real_vector, eigh_desc, haar_unitary
from .errors import InadmissibleError
from .fiber import FiberTarget, _positive_vector, _regular_target, _sums_agree, as_spectrum
from .flows import FlowOptions, _newton, _residual

__all__ = [
    "AdmissibilityCheck",
    "is_admissible",
    "hermitian_with_diagonal",
    "construct_frame",
    "construct_frame_with_operator",
    "random_admissible_norms",
    "random_frame_on_fiber",
]


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


def is_admissible(spectrum, norms_sq) -> AdmissibilityCheck:
    """Existence test for a frame with the given spectrum and squared norms.

    Checks sum(r) = sum(lambda) and the descending partial-sum inequalities
    sum of the ell largest r <= sum of the ell largest lambda for ell = 1..k,
    all with slack 1e-10 * sum(lambda), relative at every scale: scaling
    both by c > 0 leaves the verdict as it is.
    """
    return _admissibility(as_spectrum(spectrum), _positive_vector(norms_sq, "norms_sq"))


def _admissibility(lam: np.ndarray, r: np.ndarray) -> AdmissibilityCheck:
    """The majorization test of r by a descending lam, with slack MAJORIZATION_TOL * sum(|lam|)."""
    k, N = lam.size, r.size
    if N < k:
        return AdmissibilityCheck(False, kind="shape", lhs=float(N), rhs=float(k))
    if not _sums_agree(lam, r):
        return AdmissibilityCheck(False, kind="total", lhs=float(np.sum(r)), rhs=float(np.sum(lam)))
    slack = MAJORIZATION_TOL * float(np.sum(np.abs(lam)))
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


def _rotate_sym(W: np.ndarray, i: int, j: int, c: float, s: float) -> None:
    # W <- R W R^T for the rotation acting on coordinates (i, j):
    # new_i = c old_i - s old_j, new_j = s old_i + c old_j.
    ri, rj = W[i].copy(), W[j].copy()
    W[i] = c * ri - s * rj
    W[j] = s * ri + c * rj
    ci, cj = W[:, i].copy(), W[:, j].copy()
    W[:, i] = c * ci - s * cj
    W[:, j] = s * ci + c * cj


def hermitian_with_diagonal(values, diagonal) -> np.ndarray:
    """Real symmetric matrix with the given spectrum and the given diagonal.

    Requires the diagonal to be majorized by the spectrum (equal sums, sorted
    partial-sum inequalities, the test of is_admissible); raises ValueError
    otherwise. Targets are fixed largest first: one plane rotation of the two
    active values bracketing the target sets one diagonal entry exactly and
    leaves the remaining active block diagonal, so the recursion never strands.
    """
    vals = np.sort(as_real_vector(values, "values"))[::-1]
    d = as_real_vector(diagonal, "diagonal")
    if vals.size != d.size:
        raise ValueError(f"need {d.size} spectrum values, got {vals.size}")
    check = _admissibility(vals, d)
    if not check:
        raise ValueError(f"diagonal is not majorized by the spectrum: {check.describe()}")
    return _rotation_chain(vals, d)


def _rotation_chain(vals: np.ndarray, d: np.ndarray) -> np.ndarray:
    """hermitian_with_diagonal for descending vals that majorize d."""
    n = d.size
    order = np.argsort(-d, kind="stable")
    W = np.zeros((n, n))
    W[np.diag_indices(n)] = vals
    pos = list(range(n))
    val = vals.copy()
    dest = np.empty(n, dtype=int)

    for i, ui in enumerate(order):
        t = d[ui]
        m = len(pos)
        if m == 1:
            p = pos[0]
            W[p, p] = t
            dest[p] = ui
            break
        idx = int(np.searchsorted(-val, -t, side="left"))
        j = min(max(idx - 1, 0), m - 2)
        a, b = float(val[j]), float(val[j + 1])
        pj, pk = pos[j], pos[j + 1]
        denom = a - b
        vrest = a + b - t
        if denom <= 1e-14 * max(abs(a), abs(b)):
            c, s = 1.0, 0.0
        else:
            c2 = min(max((t - b) / denom, 0.0), 1.0)
            c, s = np.sqrt(c2), np.sqrt(1.0 - c2)
        if s != 0.0:
            _rotate_sym(W, pj, pk, c, s)
        W[pj, pj] = t
        W[pk, pk] = vrest
        dest[pj] = ui
        del pos[j]
        val = np.delete(val, j)
        val[j] = vrest

    G = np.zeros((n, n))
    G[np.ix_(dest, dest)] = W
    return G


def construct_frame(spectrum, norms_sq, rng: np.random.Generator | None = None) -> np.ndarray:
    """Frame whose frame operator is diag(sorted spectrum) and norms are norms_sq.

    Deterministic for rng=None; passing a Generator randomizes the Gram matrix
    by column phases, which moves the frame around the fiber without touching
    spectrum or norms. Raises ValueError when (diag(spectrum), norms_sq) is
    not a regular value, the rule of FiberTarget, and InadmissibleError when
    no such frame exists.
    """
    lam, r = as_spectrum(spectrum), _positive_vector(norms_sq, "norms_sq")
    _regular_target(lam, r)
    check = _admissibility(lam, r)
    if not check:
        raise InadmissibleError(check.describe(), check)
    k, N = lam.size, r.size
    G = _rotation_chain(np.concatenate([lam, np.zeros(N - k)]), r).astype(complex)
    if rng is not None:
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))
        G = G * np.outer(phase, phase.conj())
    w, V = eigh_desc(G)
    return np.sqrt(np.clip(w[:k], 0.0, None))[:, None] * V[:, :k].conj().T


def construct_frame_with_operator(operator, norms_sq, rng: np.random.Generator | None = None):
    """Frame with the given (positive definite) frame operator and squared norms.

    Raises ValueError when (operator, norms_sq) is not a regular value, the
    rule of FiberTarget, and InadmissibleError when no such frame exists.
    """
    w, U = eigh_desc(as_hermitian(operator, name="operator"))
    _regular_target(w, _positive_vector(norms_sq, "norms_sq"))
    return U @ construct_frame(w, norms_sq, rng=rng)


def random_admissible_norms(spectrum, N: int, rng: np.random.Generator) -> np.ndarray:
    """Random positive squared norms admissible for the spectrum, summing to it.

    Draws a Dirichlet split of the total energy and, when that violates the
    partial-sum conditions, blends toward the uniform split (always
    admissible); the admissible set is convex, so bisection along the blend
    finds the boundary and a small margin keeps the result strictly inside.
    ValueError unless N is an integer >= k (not a bool).
    """
    lam = as_spectrum(spectrum)
    _non_negative_int(N, "N")
    if N < lam.size:
        raise ValueError("need at least as many vectors as dimensions")
    total = float(np.sum(lam))
    uniform = np.full(N, total / N)
    q = rng.dirichlet(np.ones(N)) * total

    def blend(t):
        return t * uniform + (1.0 - t) * q

    if _admissibility(lam, blend(0.0)):
        tstar = 0.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _admissibility(lam, blend(mid)):
                hi = mid
            else:
                lo = mid
        tstar = hi
    t = max(0.02, tstar + 0.02 * (1.0 - tstar))
    r = blend(t)
    # exact total: rescale rounding drift so sum(r) == sum(lam) to 1 ulp
    r *= total / float(np.sum(r))
    return r


def random_frame_on_fiber(target: FiberTarget, seed: int) -> np.ndarray:
    """Seeded pseudo-random frame on the target fiber.

    Distinct seeds give well-separated frames; the same seed always returns
    the identical matrix. Randomness enters through Gram phases, column
    phases, commutant rotations of the operator eigenspaces, and one right
    unitary scramble Newton-projected back onto the fiber. The result has
    residual at most 1e-20 max(1, trace(S))^2, a bound that scales with the
    fiber as the residual does; RuntimeError is raised when the projection
    misses it. ValueError unless seed is an integer >= 0 (not a bool).
    """
    _non_negative_int(seed, "seed")
    rng = np.random.default_rng(seed)
    w, U, clusters = target._spectral
    F = U @ construct_frame(w, target.norms_sq, rng=rng)
    N = target.N
    F = F * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))[None, :]

    if clusters is not None:
        B = np.zeros((target.k, target.k), dtype=complex)
        for cl in clusters:
            m = cl.stop - cl.start
            B[cl, cl] = haar_unitary(m, rng) if m > 1 else np.exp(1j * rng.uniform(0, 2 * np.pi, (1, 1)))
        F = (U @ B @ U.conj().T) @ F

    # the loop's default, plain Newton step: project_to_fiber's would move every seeded output
    F = _newton((F @ haar_unitary(N, rng))[None], target, FlowOptions(tol=1e-26))[0][0]
    phi, bound = _residual(F, target), 1e-20 * max(1.0, float(np.sum(w))) ** 2
    if phi > bound:
        raise RuntimeError(f"projected frame missed the fiber: residual {phi:.3e} > {bound:.3e}")
    return F
