"""Existence test and construction of frames with prescribed spectrum and norms.

A frame with frame-operator spectrum lambda (k positive values) and squared
column norms r (N positive values) exists exactly when sum(r) = sum(lambda)
and, after sorting both descending, the partial sums of r never exceed those
of lambda. The constructive route builds an N x N Hermitian matrix with
spectrum (lambda, 0, ..., 0) and diagonal r by a chain of plane rotations,
then reads the frame off a truncated eigendecomposition. The test itself,
with its certificate, lives in fiber next to FiberTarget, which applies it.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from ._linalg import _generator, _instance, _non_negative_int, as_real_vector, eigh_desc, haar_unitary
from .errors import InadmissibleError
from .fiber import AdmissibilityCheck, FiberTarget, _admissibility, _positive_vector, _regular_target, as_spectrum
from .flows import FlowOptions, _newton, _residual

__all__ = [
    "is_admissible",
    "hermitian_with_diagonal",
    "construct_frame",
    "construct_frame_with_operator",
    "random_admissible_norms",
    "random_frame_on_fiber",
]


def is_admissible(spectrum, norms_sq) -> AdmissibilityCheck:
    """Existence test for a frame with the given spectrum and squared norms.

    Checks sum(r) = sum(lambda) and the descending partial-sum inequalities
    sum of the ell largest r <= sum of the ell largest lambda for ell = 1..k,
    all with slack 1e-10 * sum(lambda), relative at every scale: scaling
    both by c > 0 leaves the verdict as it is.
    """
    return _admissibility(as_spectrum(spectrum), _positive_vector(norms_sq, "norms_sq"))


def hermitian_with_diagonal(values, diagonal) -> np.ndarray:
    """Real symmetric matrix with the given spectrum and the given diagonal.

    Requires the diagonal to be majorized by the spectrum (equal sums, sorted
    partial-sum inequalities, the test of is_admissible); raises
    InadmissibleError, a ValueError carrying that test's certificate,
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
        raise InadmissibleError(f"diagonal is not majorized by the spectrum: {check.describe()}", check)
    return _rotation_chain(vals, d)


def _rotation_chain(vals: np.ndarray, d: np.ndarray) -> np.ndarray:
    """hermitian_with_diagonal for descending vals that majorize d."""
    n = d.size
    order = np.argsort(-d, kind="stable")
    W = np.zeros((n, n))
    W[np.diag_indices(n)] = vals
    pos = list(range(n))
    # the active values, negated so that they ascend for bisect
    neg = [-float(v) for v in vals]
    dest = np.empty(n, dtype=int)

    for ui in order:
        t = float(d[ui])
        if len(pos) == 1:
            p = pos[0]
            W[p, p] = t
            dest[p] = ui
            break
        j = min(max(bisect_left(neg, -t) - 1, 0), len(pos) - 2)
        a, b = -neg[j], -neg[j + 1]
        pj, pk = pos[j], pos[j + 1]
        # a pair equal to within 1e-14 of the larger is not rotated (c2 = 1, s = 0)
        denom = a - b
        c2 = min(max((t - b) / denom, 0.0), 1.0) if denom > 1e-14 * max(abs(a), abs(b)) else 1.0
        c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
        if s != 0.0:
            # W <- R W R^T for the rotation of coordinates (pj, pk): rows, then
            # columns through the view W.T; new_j = c old_j - s old_k, new_k =
            # s old_j + c old_k
            for M in (W, W.T):
                rj, rk = M[pj], M[pk]
                rj[:], rk[:] = c * rj - s * rk, s * rj + c * rk
        # the pair's other active value keeps the pair's trace
        neg[j + 1] = -(a + b - t)
        W[pj, pj], W[pk, pk] = t, -neg[j + 1]
        dest[pj] = ui
        del pos[j], neg[j]

    G = np.zeros((n, n))
    G[np.ix_(dest, dest)] = W
    return G


def construct_frame(spectrum, norms_sq, rng: np.random.Generator | None = None) -> np.ndarray:
    """Frame whose frame operator is diag(sorted spectrum) and norms are norms_sq.

    Deterministic for rng=None; passing a Generator randomizes the Gram matrix
    by column phases, which moves the frame around the fiber without touching
    spectrum or norms. Raises ValueError when (diag(spectrum), norms_sq) is
    not a regular value, the rule of FiberTarget, and InadmissibleError when
    no such frame exists. ValueError unless rng is a numpy Generator or None.
    """
    _generator(rng, optional=True)
    lam, r = as_spectrum(spectrum), _positive_vector(norms_sq, "norms_sq")
    _regular_target(lam, r)
    return _construct(lam, r, _admissibility(lam, r), rng)


def construct_frame_with_operator(operator, norms_sq, rng: np.random.Generator | None = None):
    """Frame with the given (positive definite) frame operator and squared norms.

    Validates (operator, norms_sq) as FiberTarget does: ValueError when it is
    not a regular value, and InadmissibleError when no such frame exists.
    ValueError unless rng is a numpy Generator or None.
    """
    _generator(rng, optional=True)
    target = FiberTarget(operator, norms_sq)
    w, U, _clusters = target._spectral
    return U @ _construct(w, target.norms_sq, target.admissibility, rng)


def _construct(lam: np.ndarray, r: np.ndarray, check: AdmissibilityCheck, rng: np.random.Generator | None):
    """construct_frame for a descending spectrum lam and positive norms r at a regular value.

    check is the existence test of (lam, r), which the caller holds:
    InadmissibleError with it when lam does not majorize r; otherwise the
    rotation chain's Gram matrix, read off by one eigh.
    """
    if not check:
        raise InadmissibleError(check.describe(), check)
    k, N = lam.size, r.size
    G = _rotation_chain(np.concatenate([lam, np.zeros(N - k)]), r).astype(complex)
    if rng is not None:
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))
        G = G * np.outer(phase, phase.conj())
    w, V = eigh_desc(G)
    return np.sqrt(np.clip(w[:k], 0.0, None))[:, None] * V[:, :k].conj().T


def random_admissible_norms(spectrum, N: int, rng: np.random.Generator) -> np.ndarray:
    """Random positive squared norms admissible for the spectrum, summing to it.

    Draws a Dirichlet split of the total energy and, when that violates the
    partial-sum conditions, blends toward the uniform split (always
    admissible); the admissible set is convex, so bisection along the blend
    finds the boundary and a small margin keeps the result strictly inside.
    ValueError unless N is an integer >= k (not a bool) and rng a numpy
    Generator.
    """
    _generator(rng)
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
    misses it. ValueError unless target is a FiberTarget and seed is an
    integer >= 0 (not a bool).
    """
    _instance(target, FiberTarget, "target")
    _non_negative_int(seed, "seed")
    rng = np.random.default_rng(seed)
    w, U, clusters = target._spectral
    F = U @ _construct(w, target.norms_sq, target.admissibility, rng)
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
