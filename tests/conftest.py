"""Shared generators for the test suite.

Everything is seeded through numpy Generators so runs are reproducible, and
the helpers here are intentionally independent of the package internals so
they can serve as oracles.
"""

import numpy as np

# tolerances that the rule of _linalg._tolerance (finite and >= 0, not a bool) rejects
BAD_TOLERANCES = [np.nan, -1.0, np.inf, "1e-8", None, True]


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


def rand_rank_deficient(rng, k, N, rank=None):
    # rank exactly `rank`, k - 1 by default
    rank = k - 1 if rank is None else rank
    A = rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank))
    B = rng.standard_normal((rank, N)) + 1j * rng.standard_normal((rank, N))
    return A @ B


def rand_pd_hermitian(rng, k, spread=2.0):
    U = rand_unitary(rng, k)
    w = np.exp(rng.uniform(-np.log(spread), np.log(spread), k)) + 0.2
    return (U * w) @ U.conj().T


def first_violation_bruteforce(lam, r, tol=1e-10):
    """Independent admissibility oracle: ('', None) if admissible, else (kind, ell).

    The slack is tol times sum(|lam|), relative at every scale.
    """
    lam = np.sort(np.asarray(lam, float))[::-1]
    r = np.asarray(r, float)
    slack = tol * float(np.abs(lam).sum())
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


def realified_jacobian(F):
    """The derivative D(F) dF = (F dF* + dF F*, 2 Re <f_j, df_j>) as a real matrix.

    It is built one real coordinate of F at a time (real parts, then
    imaginary parts) from the two derivative formulas; a column is
    (Re W, Im W, g) flattened.
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
    return np.stack(cols, axis=1)


def min_norm_step_bruteforce(F, R, b):
    """Independent minimum-norm dF with F dF* + dF F* = R and 2 Re <f_j, df_j> = b_j.

    The realified Jacobian is inverted with the pseudoinverse.
    """
    k, N = F.shape
    R = np.asarray(R, dtype=complex)
    x = np.linalg.pinv(realified_jacobian(F)) @ np.concatenate([R.real.ravel(), R.imag.ravel(), np.asarray(b, float)])
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


def connect_depth_first(F0, F1, target, path_tol=1e-8, delta=0.05):
    """Reference samples of connect(F0, F1, target): the depth-first bridge.

    The anchors are built as connect builds them (F0, the on-fiber samples of
    the unwind from V F1 D to F1, then F1). V, the blockwise Procrustes
    unitary over the eigenvalue clusters of the operator, and D, the phases
    of the column inner products, are alternated from the closer of V alone
    and D alone, then each solved once more; the unwind multiplies numpy's
    eigendecomposition of V and the column phases, each raised to the power
    1 - s. Its column angles are shifted by the whole turn 2 pi m nearest to
    the one that minimizes the unwind's length L, and it takes ceil(L / delta)
    steps of equal arc length. Two frames within 1e-12 ||F0|| are one sample:
    no unwind runs when V F1 D is that close to F1, and an anchor that close
    to the one before it is dropped (F0 and F1 stay). Each gap wider than
    delta, of width w, is then bridged recursively: it is cut into
    m = 2^min(levels, ceil(log2(w / delta))) pieces at the chord points
    Fa + (j / m)(Fb - Fa), one run of the package's damped Newton loop
    flows._newton per point, a stack of one with the plain step connect
    takes, stopped at connect's acceptance bound of half of path_tol^2, from
    left to right, and each piece still wider than delta is
    bridged the same way, left before right. The cap `levels` is the
    package's homotopy._ROUND_LEVELS, so the reference follows its round
    geometry; otherwise only public package functions are used.
    """
    from fiberframe import FlowOptions, fiber_residual
    from fiberframe.flows import _newton
    from fiberframe.homotopy import _ROUND_LEVELS as levels

    k, N = F0.shape
    scale = np.linalg.norm(F0)
    step = delta * scale
    close = 1e-12 * scale
    accept = 0.5 * path_tol**2
    opts = FlowOptions(tol=accept)

    w, Q = np.linalg.eigh(target.operator)

    def procrustes(G):
        # blockwise polar factor over the eigenvalue clusters
        blocks = np.zeros((k, k), dtype=complex)
        start = 0
        for end in range(1, k + 1):
            if end == k or w[end] - w[end - 1] > 1e-8 * abs(w[-1]):
                cl = slice(start, end)
                X, _s, Yh = np.linalg.svd((Q[:, cl].conj().T @ F0) @ (Q[:, cl].conj().T @ G).conj().T)
                blocks[cl, cl] = X @ Yh
                start = end
        return Q @ blocks @ Q.conj().T

    def column_phases(G):
        c = np.array([np.vdot(G[:, j], F0[:, j]) for j in range(N)])
        return np.where(c == 0, 1.0, c / np.where(c == 0, 1.0, np.abs(c)))

    V, phases = procrustes(F1), column_phases(F1)
    if np.linalg.norm(F0 - V @ F1) <= np.linalg.norm(F0 - F1 * phases):
        phases = column_phases(V @ F1)
    V = procrustes(F1 * phases)
    phases = column_phases(V @ F1)
    angles = np.angle(phases)

    anchors = [F0]
    reach = np.linalg.norm(V @ F1 * phases - F1)
    if reach > close:
        lam, Z = np.linalg.eig(V)
        Zinv = np.linalg.inv(Z)
        velocity = (Z * np.angle(lam)) @ Zinv @ F1 + F1 * angles
        turns = np.round(np.real(np.vdot(F1, velocity)) / (2.0 * np.pi * np.linalg.norm(F1) ** 2))
        angles = angles - 2.0 * np.pi * turns
        nsteps = int(np.ceil(np.linalg.norm(velocity - 2.0 * np.pi * turns * F1) / step))
        for s in np.linspace(0.0, 1.0, nsteps + 1)[:-1]:
            Fs = (Z * np.exp(1j * (1.0 - s) * np.angle(lam))) @ Zinv @ (F1 * np.exp(1j * (1.0 - s) * angles))
            if fiber_residual(Fs, target) <= accept:
                anchors.append(Fs)
    anchors.append(F1)
    anchors = [F0] + [anchors[i] for i in range(1, len(anchors) - 1)
                      if np.linalg.norm(anchors[i] - anchors[i - 1]) > close] + [F1]

    def bridge(Fa, Fb):
        m = 2 ** min(levels, max(1, int(np.ceil(np.log2(np.linalg.norm(Fb - Fa) / step)))))
        points = [Fa]
        for j in range(1, m):
            M = _newton((Fa + (j / m) * (Fb - Fa))[None], target, opts)[0][0]
            assert fiber_residual(M, target) <= accept
            points.append(M)
        points.append(Fb)
        out = []
        for Ga, Gb in zip(points, points[1:]):
            if np.linalg.norm(Gb - Ga) > step:
                out += bridge(Ga, Gb)
            out.append(Gb)
        return out[:-1]

    samples = [F0]
    for Fa, Fb in zip(anchors, anchors[1:]):
        if np.linalg.norm(Fb - Fa) > step:
            samples += bridge(Fa, Fb)
        samples.append(Fb)
    return np.stack(samples)


def symmetry_gauge_two_basis(F0, F1, operator):
    """Reference (V, phi) of connect's symmetry gauge, worked in two bases.

    The alignment as it was computed in the original basis: each commutant
    Procrustes step maps F0 and F1 into the eigenbasis U of the operator,
    polar-factors A[cl] B[cl]* per cluster, scatters the blocks into a k x k
    matrix and returns U blocks U*; V is the identity when the spectrum has
    no safe clustering. The alternation is the package's: from the closer of
    V alone and the column angles alone, V and the angles are solved once
    more. Only the clustering decision is the package's spectral_clusters.
    """
    from fiberframe._linalg import spectral_clusters

    k = F0.shape[0]
    _w, U, clusters = spectral_clusters(operator)

    def commutant(G):
        if clusters is None:
            return np.eye(k, dtype=complex)
        A, B = U.conj().T @ F0, U.conj().T @ G
        blocks = np.zeros((k, k), dtype=complex)
        for cl in clusters:
            X, _s, Yh = np.linalg.svd(A[cl] @ B[cl].conj().T)
            blocks[cl, cl] = X @ Yh
        return U @ blocks @ U.conj().T

    def angles(G):
        return np.angle(np.sum(G.conj() * F0, axis=0))

    V, phi = commutant(F1), angles(F1)
    if np.linalg.norm(F0 - V @ F1) <= np.linalg.norm(F0 - F1 * np.exp(1j * phi)):
        phi = angles(V @ F1)
    V = commutant(F1 * np.exp(1j * phi))
    return V, angles(V @ F1)


def symmetry_gauge(F0, F1, target):
    """(V, phi) of connect's symmetry stage, V mapped back to the original basis.

    The package's own gauge, homotopy._eigen_gauge, run on the target's
    decomposition; V is U V_e U* (the identity itself when the spectrum has
    no safe clustering).
    """
    from fiberframe import homotopy

    _w, U, clusters = target._spectral
    Uh = U.conj().T
    V, phi = homotopy._eigen_gauge(Uh @ F0, Uh @ F1, clusters or ())
    return (V if clusters is None else U @ V @ Uh), phi
