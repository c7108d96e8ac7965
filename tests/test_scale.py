"""Every fixed numerical decision gives the same verdict on an input scaled by c > 0.

The momentum map is quadratic, so F -> sqrt(c) F takes the fiber of (S, r) onto
the fiber of (c S, c r): admissibility, flag types, Hermitian-ness and unitary
equivalence cannot depend on c, nor can the iterations of a repair run whose
tolerance scales as Phi does. Inputs are fixed or built from seeded normal
matrices, so each case below gives its c = 1 verdict at every c.
"""

import numpy as np
import pytest

from conftest import rand_frame, rand_unitary

from fiberframe import (
    ClusteringError,
    FiberTarget,
    FlowOptions,
    InadmissibleError,
    alternate_projections,
    construct_frame,
    flag_type,
    flow_to_fiber,
    hermitian_with_diagonal,
    is_admissible,
    project_to_fiber,
    random_frame_on_fiber,
    spectrum_correspondence_residual,
    unitary_equivalent,
)
from fiberframe._linalg import as_hermitian

LAM = np.array([2.0, 1.0])
R = np.ones(3)
# majorized by nothing: the largest norm 2.02 exceeds the largest eigenvalue 2
R_OVER = np.array([2.02, 0.49, 0.49])
# sums 3.03 against the trace 3
R_OFF_TRACE = np.array([1.0, 1.0, 1.03])


def _close(A, B, rtol):
    return np.linalg.norm(np.asarray(A) - np.asarray(B)) <= rtol * np.linalg.norm(B)


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1.0, 1e3, 1e6])
def test_decisions_do_not_depend_on_scale(c):
    # flag_type: split, merged, and ambiguous gaps
    ft = flag_type(c * np.diag([2.0, 1.0]))
    assert ft.multiplicities == (1, 1)
    assert _close(ft.eigenvalues, c * LAM, 1e-12)
    assert flag_type(c * np.diag([1.0, 1.0 + 1e-10, 0.5])).multiplicities == (2, 1)
    with pytest.raises(ClusteringError):
        flag_type(c * np.diag([1.0 + 3e-8, 1.0]))

    # is_admissible: accepted, and both kinds of violation
    assert is_admissible(c * LAM, c * R)
    chk = is_admissible(c * LAM, c * R_OVER)
    assert not chk and chk.kind == "partial_sum" and chk.index == 1
    chk = is_admissible(c * LAM, c * R_OFF_TRACE)
    assert not chk and chk.kind == "total"

    # construct_frame: a frame whose operator is diag(c lambda), or the certificate
    F = construct_frame(c * LAM, c * R)
    assert _close(F @ F.conj().T, np.diag(c * LAM), 1e-12)
    assert _close(np.sum(np.abs(F) ** 2, axis=0), c * R, 1e-12)
    with pytest.raises(InadmissibleError):
        construct_frame(c * LAM, c * R_OVER)

    # hermitian_with_diagonal: prescribed spectrum and diagonal, or ValueError;
    # the near-degenerate pair still needs its rotation at every scale
    for vals, diag in (([2.0, 1.0, 0.0], R), ([1.0 + 1e-6, 1.0 - 1e-6], [1.0, 1.0])):
        vals, diag = c * np.asarray(vals), c * np.asarray(diag)
        G = hermitian_with_diagonal(vals, diag)
        assert _close(np.diag(G), diag, 1e-12)
        assert _close(np.linalg.eigvalsh(G)[::-1], vals, 1e-12)
    with pytest.raises(ValueError, match="majorized"):
        hermitian_with_diagonal(c * np.array([2.0, 1.0, 0.0]), c * R_OVER)

    # FiberTarget: the sums rule, with its certificate
    assert FiberTarget(c * np.diag(LAM), c * R).N == 3
    with pytest.raises(InadmissibleError) as err:
        FiberTarget(c * np.diag(LAM), c * R_OFF_TRACE)
    assert err.value.check.kind == "total"

    # as_hermitian: a 1.6% non-Hermitian part is rejected
    A = np.array([[2.0, 1j], [-1j, 1.0]])
    assert _close(as_hermitian(c * A), c * A, 1e-15)
    with pytest.raises(ValueError, match="not Hermitian"):
        as_hermitian(c * (A + np.array([[0.0, 0.03], [0.0, 0.0]])))

    # unitary_equivalent: U F is equivalent to F, an independent frame is not
    rng = np.random.default_rng(7)
    F, G, U = c * rand_frame(rng, 3, 6), c * rand_frame(rng, 3, 6), rand_unitary(rng, 3)
    V = unitary_equivalent(F, U @ F)
    assert V is not None and _close(V, U, 1e-8)
    assert unitary_equivalent(F, G) is None

    # spectrum_correspondence_residual: relative, so the nearest power of two
    # (which scales every floating-point step exactly) leaves it unchanged
    H = rand_frame(rng, 3, 6)
    assert spectrum_correspondence_residual(2.0 ** np.round(np.log2(c)) * H) == spectrum_correspondence_residual(H)


@pytest.mark.parametrize("k,N", [(2, 4), (3, 7), (4, 9)])
@pytest.mark.parametrize(
    "route", [project_to_fiber, flow_to_fiber, alternate_projections], ids=["newton", "gradient", "alternating"]
)
def test_repair_iterations_do_not_depend_on_scale(route, k, N):
    # the criterion-05 start; F -> c F takes the fiber of (S, r) onto that of
    # (c^2 S, c^2 r) and Phi to c^4 Phi, so tol scales as c^4
    t = FiberTarget.funtf(k, N)
    F0 = random_frame_on_fiber(t, seed=10 * k + N)
    rng = np.random.default_rng(10 * k + N)
    E = rng.standard_normal((k, N)) + 1j * rng.standard_normal((k, N))
    start = F0 + 1e-2 * np.linalg.norm(F0) / np.linalg.norm(E) * E
    iterations = []
    for c in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12):
        tc = FiberTarget(c**2 * t.operator, c**2 * t.norms_sq)
        _F, rep = route(c * start, tc, FlowOptions(tol=1e-20 * c**4))
        assert rep.converged, f"c = {c:g}: {rep.status} after {rep.iterations}"
        iterations.append(rep.iterations)
    assert len(set(iterations)) == 1, iterations
