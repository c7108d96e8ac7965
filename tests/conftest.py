"""Shared generators for the test suite.

Everything is seeded through numpy Generators so runs are reproducible, and
the helpers here are intentionally independent of the package internals so
they can serve as oracles.
"""

import numpy as np


def rand_frame(rng, k, N):
    return rng.standard_normal((k, N)) + 1j * rng.standard_normal((k, N))


def rand_hermitian(rng, k):
    A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return 0.5 * (A + A.conj().T)


def rand_antihermitian(rng, k):
    A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return 0.5 * (A - A.conj().T)


def rand_unitary(rng, n):
    # QR-based Haar sample, kept separate from the package implementation
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def rand_rank_deficient(rng, k, N):
    # rank exactly k - 1
    A = rng.standard_normal((k, k - 1)) + 1j * rng.standard_normal((k, k - 1))
    B = rng.standard_normal((k - 1, N)) + 1j * rng.standard_normal((k - 1, N))
    return A @ B


def rand_pd_hermitian(rng, k, spread=2.0):
    U = rand_unitary(rng, k)
    w = np.exp(rng.uniform(-np.log(spread), np.log(spread), k)) + 0.2
    return (U * w) @ U.conj().T


def first_violation_bruteforce(lam, r, tol=1e-10):
    """Independent admissibility oracle: ('', None) if admissible, else (kind, ell)."""
    lam = np.sort(np.asarray(lam, float))[::-1]
    r = np.asarray(r, float)
    slack = tol * max(1.0, float(lam.sum()))
    if r.size < lam.size:
        return "shape", None
    if abs(float(r.sum()) - float(lam.sum())) > slack:
        return "total", None
    rs = np.sort(r)[::-1]
    for ell in range(1, lam.size + 1):
        if rs[:ell].sum() > lam[:ell].sum() + slack:
            return "partial_sum", ell
    return "", None


def fiber_residual_bruteforce(F, S, r):
    """Independent residual: entrywise sums, no reuse of package code."""
    D = F @ F.conj().T - S
    op = float(np.sum(np.abs(D) ** 2))
    gaps = np.sum(np.abs(F) ** 2, axis=0) - np.asarray(r, float)
    return op + float(np.sum(gaps**2))


def min_norm_step_bruteforce(F, R, b):
    """Independent minimum-norm dF with F dF* + dF F* = R and 2 Re <f_j, df_j> = b_j.

    The realified Jacobian is built one real coordinate of F at a time from the
    two derivative formulas and inverted with the pseudoinverse.
    """
    k, N = F.shape

    def derivative(X):
        W = F @ X.conj().T + X @ F.conj().T
        g = 2.0 * np.real(np.sum(np.conj(F) * X, axis=0))
        return np.concatenate([W.real.ravel(), W.imag.ravel(), g])

    cols = []
    for part in (1.0, 1.0j):
        for idx in range(k * N):
            E = np.zeros(k * N, dtype=complex)
            E[idx] = part
            cols.append(derivative(E.reshape(k, N)))
    J = np.stack(cols, axis=1)
    R = np.asarray(R, dtype=complex)
    x = np.linalg.pinv(J) @ np.concatenate([R.real.ravel(), R.imag.ravel(), np.asarray(b, float)])
    return (x[: k * N] + 1j * x[k * N :]).reshape(k, N)


def tangent_part_bruteforce(F, G):
    """G minus its least-squares fit by the spanning set {E F} + {F e_j e_j*}.

    E runs over a real basis of the Hermitian k x k matrices, so the fit is
    the orthogonal projection onto the normal space {A F + F diag(d)}.
    """
    k, N = F.shape
    cols = []
    for i in range(k):
        for j in range(i, k):
            for val in ((1.0,) if i == j else (1.0, 1.0j)):
                E = np.zeros((k, k), dtype=complex)
                E[i, j] = val
                E[j, i] = np.conj(val)
                cols.append(E @ F)
    for j in range(N):
        D = np.zeros((k, N), dtype=complex)
        D[:, j] = F[:, j]
        cols.append(D)

    def realify(M):
        return np.concatenate([M.real.ravel(), M.imag.ravel()])

    basis = np.stack([realify(c) for c in cols], axis=1)
    rhs = realify(G)
    coef, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    tang = rhs - basis @ coef
    return (tang[: k * N] + 1j * tang[k * N :]).reshape(k, N)
