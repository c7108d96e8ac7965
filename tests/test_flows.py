from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    fiber_residual_bruteforce,
    min_norm_step_bruteforce,
    rand_frame,
    rand_hermitian,
    rand_pd_hermitian,
    rand_rank_deficient,
    rand_unitary,
    realified_jacobian,
)

from fiberframe import (
    FiberTarget,
    FlowOptions,
    alternate_projections,
    construct_frame,
    fiber_residual,
    fiber_residual_gradient,
    flow_to_fiber,
    frame_operator,
    is_admissible,
    is_frame,
    norms_squared,
    project_to_fiber,
    random_frame_on_fiber,
)
from fiberframe import flows
from fiberframe._linalg import EIGEN_RTOL, frame_polar_isometry
from fiberframe.flows import _gaps, _newton, _normal_preimage, _phi, _repair


def spy_linalg(monkeypatch, name):
    """Record the first argument of every np.linalg.<name> call from here on."""
    calls = []
    real = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        calls.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def perturbed_fiber_point(target, seed, rel=1e-2):
    rng = np.random.default_rng(seed)
    F = random_frame_on_fiber(target, seed)
    G = rand_frame(rng, target.k, target.N)
    return F + rel * np.linalg.norm(F) * G / np.linalg.norm(G)


# a critical point of Phi off its fiber (k = 1, N = 2)
CRITICAL_TARGET = FiberTarget(operator=[[1.5]], norms_sq=[0.5, 1.0])
CRITICAL_START = np.array([[1.0, 0.0]], dtype=complex)


class TestResidual:
    def test_zero_on_fiber(self):
        F = construct_frame([2.0, 1.0], [1.0, 1.0, 1.0])
        t = FiberTarget.from_spectrum([2.0, 1.0], [1.0, 1.0, 1.0])
        assert fiber_residual(F, t) <= 1e-25

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        t = FiberTarget.funtf(3, 6)
        for _ in range(20):
            F = rand_frame(rng, 3, 6)
            assert fiber_residual(F, t) == pytest.approx(
                fiber_residual_bruteforce(F, t.operator, t.norms_sq), rel=1e-12
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fiber_residual(np.eye(3), FiberTarget.funtf(2, 4))


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        t = FiberTarget.funtf(3, 7)
        for _ in range(25):
            F = rand_frame(rng, 3, 7)
            X = rand_frame(rng, 3, 7)
            X /= np.linalg.norm(X)
            h = 1e-6 * (1.0 + np.linalg.norm(F))
            fd = (fiber_residual(F + h * X, t) - fiber_residual(F - h * X, t)) / (2 * h)
            an = float(np.vdot(fiber_residual_gradient(F, t), X).real)
            assert abs(fd - an) <= 1e-5 * (1.0 + abs(an))

    def test_zero_gradient_on_fiber(self):
        t = FiberTarget.from_spectrum([2.0, 1.0], [1.0, 1.0, 1.0])
        F = construct_frame([2.0, 1.0], [1.0, 1.0, 1.0])
        assert np.linalg.norm(fiber_residual_gradient(F, t)) <= 1e-11


class TestGradientFlow:
    def test_converges_from_perturbation(self):
        t = FiberTarget.funtf(3, 7)
        F0 = perturbed_fiber_point(t, seed=5)
        F, rep = flow_to_fiber(F0, t)
        assert rep.converged
        assert rep.final_residual <= 1e-10
        assert rep.iterations <= 2000
        assert np.all(np.diff(rep.residual_trace) <= 0)
        assert fiber_residual(F, t) <= 1e-10

    def test_zero_iterations_on_fiber(self):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        _, rep = flow_to_fiber(F, t)
        assert rep.converged and rep.iterations == 0

    def test_lost_rank_detected(self):
        # the gradient moves a rank-deficient start off its rank: no iterate
        # needs a rank check, and the run reaches the fiber at full rank
        rng = np.random.default_rng(6)
        t = FiberTarget.funtf(3, 6)
        F0 = rand_rank_deficient(rng, 3, 6)
        F, rep = flow_to_fiber(F0, t)
        assert rep.converged
        assert is_frame(F) and fiber_residual(F, t) <= 1e-10

    def test_max_iters_status(self):
        t = FiberTarget.funtf(2, 4)
        F0 = perturbed_fiber_point(t, seed=7, rel=0.3)
        _, rep = flow_to_fiber(F0, t, FlowOptions(max_iters=2, tol=1e-30))
        assert rep.status in ("max_iters", "stalled")
        assert rep.iterations <= 2

    def test_gradient_vanishes_at_critical_point_off_the_fiber(self):
        # f = (1, 0) on S = 1.5, r = (0.5, 1): Phi = 0.25 + 0.25 + 1 = 1.5, and the
        # gradient 4 (F F* - S) F + 4 F diag(|f_j|^2 - r_j) is exactly 0, since
        # the first column's two defects cancel and the second column is 0
        t = CRITICAL_TARGET
        F, rep = flow_to_fiber(CRITICAL_START, t)
        assert np.array_equal(fiber_residual_gradient(CRITICAL_START, t), np.zeros((1, 2)))
        assert rep.status == "stalled" and rep.iterations == 0
        assert rep.message == "no damped step decreases the residual"
        assert rep.final_residual == 1.5
        assert np.array_equal(F, CRITICAL_START)

    def test_step_is_the_cauchy_step_along_the_gradient(self):
        # dF = t V with V = -grad Phi and t = <e, J v> / ||J v||^2, the least
        # linearized defect along V, for every frame of a stack; J is the
        # realified derivative and e = (R, b) the defects
        rng = np.random.default_rng(16)
        t = FiberTarget.funtf(3, 7)
        Fs = np.stack([rand_frame(rng, 3, 7) for _ in range(4)])
        R, b = _gaps(Fs, t)
        dF = flows._steepest_descent(Fs, R, b)
        for i, F in enumerate(Fs):
            V = -fiber_residual_gradient(F, t)
            Jv = realified_jacobian(F) @ np.concatenate([V.real.ravel(), V.imag.ravel()])
            e = np.concatenate([R[i].real.ravel(), R[i].imag.ravel(), b[i]])
            step = np.dot(e, Jv) / np.dot(Jv, Jv) * V
            assert np.linalg.norm(dF[i] - step) <= 1e-12 * np.linalg.norm(step)

    def test_projection_stalls_at_critical_point_off_the_fiber(self):
        # the normal space there moves the first column alone, along which
        # Phi is already least, so no damped Newton step lowers it
        F, rep = project_to_fiber(CRITICAL_START, CRITICAL_TARGET)
        assert rep.status == "stalled" and rep.iterations == 0
        assert rep.message == "no damped step decreases the residual"
        assert rep.final_residual == 1.5
        assert np.array_equal(F, CRITICAL_START)


class TestProjections:
    """The two halves of alternate_projections' move: S^(1/2) Q, then the column rescaling."""

    def test_operator_projection_exact(self):
        rng = np.random.default_rng(8)
        t = FiberTarget.from_spectrum([3.0, 1.0], np.array([2.0, 1.0, 1.0]))
        w, U, _clusters = t._spectral
        S_sqrt = (U * np.sqrt(w)) @ U.conj().T
        for _ in range(15):
            P = S_sqrt @ frame_polar_isometry(rand_frame(rng, 2, 3))
            assert np.linalg.norm(frame_operator(P) - t.operator) <= 1e-12 * np.linalg.norm(
                t.operator
            )

    def test_operator_projection_rank_deficient_raises(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="rank-deficient"):
            frame_polar_isometry(rand_rank_deficient(rng, 3, 5))

    def test_norm_projection_exact(self):
        rng = np.random.default_rng(10)
        r = np.array([2.0, 0.5, 1.0, 1.5])
        F = rand_frame(rng, 2, 4)
        P = flows._project_norms(F, r)
        assert_allclose(norms_squared(P), r, rtol=1e-13)

    def test_norm_projection_zero_column_raises(self):
        F = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero column"):
            flows._project_norms(F, np.array([1.0, 1.0]))


class TestAlternatingFlow:
    def test_converges_fast(self):
        t = FiberTarget.funtf(3, 7)
        F0 = perturbed_fiber_point(t, seed=11)
        F, rep = alternate_projections(F0, t)
        assert rep.converged
        assert fiber_residual(F, t) <= 1e-10
        assert rep.iterations < 200

    def test_rank_loss_reported(self):
        # the polar factor of a rank-deficient frame is undefined: the
        # direction is 0, and no round is taken
        rng = np.random.default_rng(12)
        t = FiberTarget.funtf(3, 6)
        F0 = rand_rank_deficient(rng, 3, 6)
        F, rep = alternate_projections(F0, t)
        assert rep.status == "stalled" and rep.iterations == 0
        assert rep.message == "no damped step decreases the residual"
        assert np.array_equal(F, F0)

    def test_zero_column_start_is_returned(self):
        # a zero column has no direction to rescale, so neither has the round
        t = FiberTarget.funtf(3, 6)
        F0 = rand_frame(np.random.default_rng(17), 3, 6)
        F0[:, 2] = 0.0
        F, rep = alternate_projections(F0, t)
        assert rep.status == "stalled" and rep.iterations == 0
        assert np.array_equal(F, F0)

    def test_on_fiber_start_returns_at_once(self):
        t = FiberTarget.funtf(3, 7)
        F0 = random_frame_on_fiber(t, seed=11)
        F, rep = alternate_projections(F0, t)
        assert rep.status == "converged" and rep.iterations == 0
        assert np.array_equal(F, F0)

    def test_round_cap_returns_best_iterate(self):
        t = FiberTarget.funtf(3, 7)
        F, rep = alternate_projections(perturbed_fiber_point(t, seed=11), t, FlowOptions(max_iters=1))
        assert rep.status == "max_iters" and rep.iterations == 1
        assert rep.final_residual == min(rep.residual_trace)
        assert fiber_residual(F, t) == rep.final_residual

    def test_report_dict_round_trip(self):
        t = FiberTarget.funtf(2, 4)
        _, rep = alternate_projections(perturbed_fiber_point(t, seed=13), t)
        d = rep.to_dict()
        assert d["status"] == rep.status
        assert d["final_residual"] == rep.final_residual
        assert len(d["residual_trace"]) == len(rep.residual_trace)


class TestNewtonRefine:
    def test_quadratic_finish(self):
        t = FiberTarget.funtf(3, 7)
        F0 = perturbed_fiber_point(t, seed=21, rel=1e-3)
        F, rep = project_to_fiber(F0, t, FlowOptions(tol=1e-24))
        assert rep.converged
        assert rep.iterations == 2
        assert fiber_residual(F, t) <= 1e-24
        assert np.all(np.diff(rep.residual_trace) < 0)

    def test_zero_iterations_on_fiber(self):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=3)
        _, rep = project_to_fiber(F, t, FlowOptions(tol=1e-18))
        assert rep.converged and rep.iterations == 0

    def test_converges_from_moderate_distance(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0 = perturbed_fiber_point(t, seed=22, rel=0.2)
        F, rep = project_to_fiber(F0, t, FlowOptions(tol=1e-24))
        assert rep.converged
        assert rep.iterations == 3
        assert fiber_residual(F, t) <= 1e-24

    @pytest.mark.parametrize(
        "k,N,rank",
        [(2, 4, 1), (3, 6, 2), (4, 16, 3), (5, 8, 3), (8, 20, 5)],
        ids=["2-4", "3-6", "4-16", "5-8-3", "8-20-5"],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_deficient_start_converges(self, k, N, rank, seed):
        # a kernel row of the start is filled by the Newton step's missing operator energy;
        # below rank k - 1 the step's weights K have a zero block
        t = FiberTarget.funtf(k, N)
        F0 = rand_rank_deficient(np.random.default_rng(seed), k, N, rank=rank)
        F, rep = project_to_fiber(F0, t, FlowOptions(tol=1e-20))
        assert rep.converged
        assert fiber_residual(F, t) <= 1e-20

    @pytest.mark.parametrize("k,N", [(3, 6), (4, 16)])
    @pytest.mark.parametrize("spread", [False, True], ids=["funtf", "spread"])
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_one_start_converges(self, k, N, spread, seed):
        # no first-order step raises the rank of these starts; the step's kernel rows must
        if spread:
            lam = np.arange(k, 0, -1.0)
            t = FiberTarget.from_spectrum(lam * N / lam.sum(), np.ones(N))
        else:
            t = FiberTarget.funtf(k, N)
        F0 = rand_rank_deficient(np.random.default_rng(seed), k, N, rank=1)
        F, rep = project_to_fiber(F0, t, FlowOptions(tol=1e-20))
        assert rep.converged
        assert fiber_residual(F, t) <= 1e-20

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("c", [2.0, 0.5, 0.25])
    def test_scaled_unitary_start_converges(self, k, c):
        # at a scaled unitary the step's norms matrix T is 0 up to rounding: where
        # it rounds to exactly 0 (at 0.25 I, and at the scaled unitaries later
        # iterates reach from 2 I and 0.5 I) only lstsq solves the step
        t = FiberTarget.funtf(k, k)
        F0 = c * np.eye(k, dtype=complex)
        F, rep = project_to_fiber(F0, t, FlowOptions(tol=1e-20))
        assert rep.converged
        assert fiber_residual(F, t) <= 1e-20

    # the scrambled (2,3) start that random_frame_on_fiber polishes in the cli
    # benchmark set-up at seed 27: Phi creeps from 3e-3 to 1e-3 over about 50
    # damped steps, and the default tol is reached at step 73
    SLOW_START = np.array(
        [
            [0.6605892731558686 + 0.08616652748098151j, 0.716957449087379 - 0.2582296858050071j,
             0.3357090726387501 + 0.10119256555228992j],
            [0.22877072480299068 + 0.33307933371224246j, 0.1313161649009006 - 0.25200105680889595j,
             -0.8929711999560147 - 0.3522923034947053j],
        ]
    )
    SLOW_S = np.array(
        [
            [1.1474539294745874, 0.0036181372668893934 - 0.0256462773449576j],
            [0.0036181372668893934 + 0.0256462773449576j, 1.1655337859226471],
        ]
    )
    SLOW_R = np.array([0.6601021209103599, 1.1756677614663713, 0.4772178330205029])

    def test_max_iters_is_the_only_iteration_limit(self):
        t = FiberTarget(self.SLOW_S, self.SLOW_R)
        F, rep = project_to_fiber(self.SLOW_START, t)
        assert rep.converged and rep.iterations > 60
        assert fiber_residual(F, t) <= FlowOptions().tol
        _, rep = project_to_fiber(self.SLOW_START, t, FlowOptions(max_iters=60))
        assert rep.status == "max_iters" and rep.iterations == 60


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iters": -1}, {"max_iters": 2.5}, {"max_iters": 10.0}, {"max_iters": "10"},
         {"tol": -1e-12}, {"tol": np.nan}, {"tol": np.inf}, {"tol": "1e-10"}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FlowOptions(**kwargs)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool_tol(self, value):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            FlowOptions(tol=value)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool_max_iters(self, value):
        with pytest.raises(ValueError, match="max_iters must be a non-negative integer"):
            FlowOptions(max_iters=value)

    def test_accepts_edge_values(self):
        assert FlowOptions(max_iters=0, tol=0.0).max_iters == 0
        assert FlowOptions(max_iters=np.int64(5), tol=np.float64(1e-20)).tol == 1e-20


class TestNormalStep:
    @pytest.mark.parametrize("k,N", [(1, 1), (1, 5), (2, 4), (4, 16), (8, 64), (5, 8), (6, 6), (16, 40)])
    def test_matches_realified_min_norm_step(self, k, N):
        rng = np.random.default_rng(k * N)
        t = FiberTarget.funtf(k, N)
        # a non-diagonal operator with unequal norms and the same total
        r = rng.uniform(0.5, 1.5, N)
        S = rand_pd_hermitian(rng, k)
        S *= r.sum() / np.trace(S).real
        for _ in range(3):
            F = rand_frame(rng, k, N)
            # the Newton residuals of both targets and a random consistent right-hand side
            cases = [
                (t.operator - F @ F.conj().T, t.norms_sq - norms_squared(F)),
                (S - F @ F.conj().T, r - norms_squared(F)),
            ]
            R = rand_hermitian(rng, k)
            b = rng.standard_normal(N)
            cases.append((R, b + (np.trace(R).real - b.sum()) / N))
            for R, b in cases:
                ref = min_norm_step_bruteforce(F, R, b)
                dF = _normal_preimage(F, R, b)
                assert np.linalg.norm(dF - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_scaled_unitary_matches_min_norm_step(self, k):
        # T is only nearly 0 at 2 I, so LU gives the step (at 0.25 I, in the next
        # test, it rounds to exactly 0). At k = N the norms equations repeat the
        # diagonal of the operator equations, so b = diag(R) for consistency
        F = 2.0 * np.eye(k, dtype=complex)
        R = rand_hermitian(np.random.default_rng(k), k)
        b = R.diagonal().real
        ref = min_norm_step_bruteforce(F, R, b)
        assert np.linalg.norm(_normal_preimage(F, R, b) - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_singular_norms_matrix_takes_lstsq(self, k, monkeypatch):
        # at 0.25 I the norms matrix T rounds to exactly 0: LU fails, and the
        # lstsq branch gives the minimum-norm step
        F = 0.25 * np.eye(k, dtype=complex)
        R = rand_hermitian(np.random.default_rng(k), k)
        b = R.diagonal().real
        ref = min_norm_step_bruteforce(F, R, b)
        calls = spy_linalg(monkeypatch, "lstsq")
        assert np.linalg.norm(_normal_preimage(F, R, b) - ref) <= 1e-10 * np.linalg.norm(ref)
        assert len(calls) == 1

    @pytest.mark.parametrize("k,N", [(4, 16), (8, 64)])
    @pytest.mark.parametrize("ratio", [1e-1, 1.5e-2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_matches_min_norm_step_across_eigen_floor(self, k, N, ratio, monkeypatch):
        # F = Q1 diag(s) Q2* with s_min / s_max = ratio: above the floor
        # (ratio^2 >= EIGEN_RTOL) the step comes from eigh(F F*), below it
        # from the thin SVD. The step's condition number grows as s_max /
        # s_min, so at 1e-6 neither this solve nor the brute force's pinv is
        # closer than about 1e-10 to the exact step (checked in 40 digits)
        rng = np.random.default_rng(k * N)
        F = (rand_unitary(rng, k) * np.geomspace(1.0, ratio, k)) @ rand_unitary(rng, N)[:k]
        R = rand_hermitian(rng, k)
        b = rng.standard_normal(N)
        b += (np.trace(R).real - b.sum()) / N
        ref = min_norm_step_bruteforce(F, R, b)
        calls = spy_linalg(monkeypatch, "svd")
        dF = _normal_preimage(F, R, b)
        assert np.linalg.norm(dF - ref) <= max(1e-10, 1e-15 / ratio) * np.linalg.norm(ref)
        # at the floor itself either side is right
        if not 0.5 <= ratio**2 / EIGEN_RTOL <= 2.0:
            assert len(calls) == (ratio**2 < EIGEN_RTOL)

    def test_well_conditioned_newton_takes_no_svd(self, monkeypatch):
        # frames above the eigen floor, as on every benchmark workload: the
        # kernel and the Newton loop around it never call the SVD
        t = FiberTarget.funtf(4, 16)
        Fs = np.stack([perturbed_fiber_point(t, seed=s, rel=0.1) for s in range(4)])
        R, b = _gaps(Fs, t)
        calls = spy_linalg(monkeypatch, "svd")
        stacked = _normal_preimage(Fs, R, b)
        _F, phi, _iters, _trace, _stalled = _newton(Fs, t, FlowOptions(tol=1e-24))
        assert not calls
        assert np.all(phi <= 1e-24)
        for i in range(len(Fs)):
            ref = min_norm_step_bruteforce(Fs[i], R[i], b[i])
            assert np.linalg.norm(stacked[i] - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("k,N", [(2, 4), (5, 8), (6, 6), (16, 40)])
    def test_unitary_torus_equivariance(self, k, N):
        # the step of U F D for U R U* is U dF D: the norms right-hand side is unchanged
        rng = np.random.default_rng(100 + k * N)
        F = rand_frame(rng, k, N)
        R = rand_hermitian(rng, k)
        b = rng.standard_normal(N)
        b += (np.trace(R).real - b.sum()) / N
        U = rand_unitary(rng, k)
        D = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))
        dF = _normal_preimage(F, R, b)
        dG = _normal_preimage((U @ F) * D, U @ R @ U.conj().T, b)
        assert np.linalg.norm(dG - (U @ dF) * D) <= 1e-10 * np.linalg.norm(dF)


def newton_directions(opts):
    """The loop's two Newton directions: the plain step (its default, which
    connect takes) and the corrected step project_to_fiber takes at opts.tol."""
    return [_normal_preimage, partial(_normal_preimage, tol=opts.tol)]


class TestStackedSolve:
    """The kernel and the Newton loop on a stack agree with their rows solved one at a time."""

    @staticmethod
    def _mixed_stack():
        # k = N: a generic row, a rank-deficient row (the kernel-row rule) and a
        # scaled unitary, with the Newton right-hand sides of funtf(3, 3). At
        # 0.25 I the norms matrix T rounds to exactly 0, so its system is
        # singular and only lstsq solves it (at 2 I, T is only nearly 0)
        rng = np.random.default_rng(31)
        t = FiberTarget.funtf(3, 3)
        Fs = np.stack([rand_frame(rng, 3, 3), rand_rank_deficient(rng, 3, 3), 0.25 * np.eye(3, dtype=complex)])
        R = t.operator - Fs @ Fs.conj().transpose(0, 2, 1)
        b = t.norms_sq - np.sum(np.abs(Fs) ** 2, axis=1)
        return Fs, R, b

    def test_kernel_rows_match_single_calls(self, monkeypatch):
        Fs, R, b = self._mixed_stack()
        calls = spy_linalg(monkeypatch, "lstsq")
        svd_calls = spy_linalg(monkeypatch, "svd")
        stacked = _normal_preimage(Fs, R, b)
        # only the scaled unitary's matrix is singular, so only it takes lstsq
        assert len(calls) == 1
        assert np.linalg.norm(calls[0]) <= 1e-12
        # only the rank-deficient frame is below the eigen floor: one batched SVD of one frame
        assert [len(a) for a in svd_calls] == [1]
        assert np.linalg.norm(svd_calls[0][0] - Fs[1]) == 0.0
        for i in range(len(Fs)):
            single = _normal_preimage(Fs[i], R[i], b[i])
            assert np.linalg.norm(stacked[i] - single) <= 1e-12 * np.linalg.norm(single)
        # without the singular row no frame falls back
        calls.clear()
        _normal_preimage(Fs[:2], R[:2], b[:2])
        assert not calls

    def test_loop_rows_match_newton_refine(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        rng = np.random.default_rng(5)
        # on the fiber (0 iterations), near it, farther out, rank deficient
        starts = [
            random_frame_on_fiber(t, seed=1),
            perturbed_fiber_point(t, seed=2, rel=1e-3),
            perturbed_fiber_point(t, seed=22, rel=0.2),
            rand_rank_deficient(rng, 2, 3, rank=1),
        ]
        opts = FlowOptions(tol=1e-24)
        for step in newton_directions(opts):
            Fs, phi, iters, trace, stalled = _newton(np.stack(starts), t, opts, step)
            reps = [_repair("newton", F0, t, opts, step) for F0 in starts]
            assert reps[0][1].iterations == 0
            assert len({rep.iterations for _F, rep in reps}) >= 3
            for i, (F, rep) in enumerate(reps):
                assert rep.converged and not stalled[i]
                assert iters[i] == rep.iterations
                assert np.linalg.norm(Fs[i] - F) <= 1e-12 * np.linalg.norm(F)
                assert_allclose(trace[: iters[i] + 1, i], rep.residual_trace, rtol=1e-9, atol=1e-30)
                # after a row leaves, its trace holds its final Phi
                assert np.all(trace[iters[i] :, i] == phi[i])

    def test_trial_loop_is_exact(self):
        # one row takes its full step, one needs halvings, one stalls at once
        # (the critical point), all in the same trial loop
        t = CRITICAL_TARGET
        starts = np.array([[[0.75, 1.0]], [[0.1, 0.05]], [[1.0, 0.0]]], dtype=complex)
        opts = FlowOptions(tol=1e-24)
        for step in newton_directions(opts):
            Fs, phi, iters, trace, stalled = _newton(starts, t, opts, step)
            statuses = []
            for i in range(3):
                F, rep = _repair("newton", starts[i], t, opts, step)
                statuses.append(rep.status)
                assert np.array_equal(Fs[i], F)
                assert iters[i] == rep.iterations
                assert np.array_equal(trace[: iters[i] + 1, i], rep.residual_trace)
                assert stalled[i] == (rep.status == "stalled")
            assert statuses == ["converged", "converged", "stalled"] and iters[2] == 0
            # the first accepted frame of each row is X + 2^-j dF, j its first
            # try that lowers Phi, bit for bit
            first, _phi1, _iters, _trace, _stalled = _newton(starts, t, FlowOptions(max_iters=1, tol=1e-24), step)
            tries = []
            for i in range(2):
                X = starts[i]
                p = _phi(*_gaps(X[None], t))[0]
                dF = step(X[None], *_gaps(X[None], t))[0]
                j = next(j for j in range(25) if _phi(*_gaps((X + 2.0**-j * dF)[None], t))[0] < p)
                assert np.array_equal(first[i], X + 2.0**-j * dF)
                tries.append(j)
            assert tries[0] == 0 and tries[1] >= 1
            assert np.array_equal(first[2], CRITICAL_START)

    def test_stacked_residual_sums_match_single_frames(self):
        # the loop's residuals are summed as fiber_residual sums one frame, so
        # a stack of one decides every step exactly as a single frame would
        t = FiberTarget.funtf(3, 7)
        Fs = np.stack([perturbed_fiber_point(t, seed=s, rel=10.0**-s) for s in range(1, 6)])
        phi = _phi(*_gaps(Fs, t))
        for i, F in enumerate(Fs):
            assert phi[i] == fiber_residual(F, t)
            assert _phi(*_gaps(F[None], t))[0] == phi[i]

    def test_stalled_rows_leave_with_last_accepted_frame(self):
        # at tol 0 no row converges: each runs until no damped step lowers
        # its Phi, at the rounding floor, and leaves the stack as stalled
        t = FiberTarget.funtf(3, 7)
        starts = np.stack([random_frame_on_fiber(t, seed=s) + 1e-3 * (s + 1) for s in range(3)])
        opts = FlowOptions(tol=0.0)
        # where each row stalls depends on rounding, and so on the BLAS kernel
        # (OpenBLAS 0.3.31 stalls them at [6, 7, 8] and [8, 6, 14] with its
        # SkylakeX kernel, at [5, 9, 5] and [7, 7, 5] with Haswell or Zen):
        # each row takes a step before it stalls
        for step in newton_directions(opts):
            Fs, phi, iters, _trace, stalled = _newton(starts, t, opts, step)
            assert iters.min() >= 1 and stalled.all()
            assert np.all(phi <= 1e-30)
            for i in range(3):
                F, rep = _repair("newton", starts[i], t, opts, step)
                assert rep.status == "stalled" and rep.iterations == iters[i]
                assert np.array_equal(Fs[i], F)

    def test_capped_rows_report_max_iters(self):
        t = FiberTarget.funtf(2, 4)
        starts = np.stack([perturbed_fiber_point(t, seed=s, rel=0.1) for s in (3, 4)])
        opts = FlowOptions(max_iters=1, tol=1e-24)
        for step in newton_directions(opts):
            Fs, phi, iters, _trace, stalled = _newton(starts, t, opts, step)
            assert list(iters) == [1, 1] and not stalled.any()
            for i in range(2):
                F, rep = _repair("newton", starts[i], t, opts, step)
                assert rep.status == "max_iters"
                assert np.linalg.norm(Fs[i] - F) <= 1e-12 * np.linalg.norm(F)


def second_order_defect(dF):
    """Q(dF) = (dF dF*, |df_j|^2), the defect a Newton step dF leaves with the sign flipped."""
    return dF @ dF.conj().T, norms_squared(dF)


class TestCorrectedStep:
    """project_to_fiber's step: a second solve for the defect -Q(dF) that the Newton step dF leaves."""

    def test_second_solve_is_the_min_norm_step_for_the_left_defect(self):
        t = FiberTarget.funtf(4, 16)
        F = perturbed_fiber_point(t, seed=40)
        R, b = _gaps(F[None], t)
        dF = _normal_preimage(F[None], R, b)[0]
        Q, q = second_order_defect(dF)
        # the prediction is exact: Phi after the plain step is |Q(dF)|^2
        assert_allclose(fiber_residual(F + dF, t), np.vdot(Q, Q).real + q @ q, rtol=1e-6)
        both = _normal_preimage(F[None], R, b, tol=1e-20)[0]
        ref = min_norm_step_bruteforce(F, -Q, -q)
        assert np.linalg.norm(both - dF - ref) <= 1e-10 * np.linalg.norm(ref)
        # third order: the corrected step lands far closer than the plain one
        assert fiber_residual(F + both, t) <= 1e-3 * fiber_residual(F + dF, t)

    def test_second_solve_reuses_the_step_factors(self, monkeypatch):
        # one eigh of F F* and one system T serve both solves of a corrected row
        t = FiberTarget.funtf(4, 16)
        F = perturbed_fiber_point(t, seed=40)
        R, b = _gaps(F[None], t)
        names = ("eigh", "svd", "solve")
        calls = [spy_linalg(monkeypatch, name) for name in names]
        plain = _normal_preimage(F[None], R, b)
        assert [len(c) for c in calls] == [1, 0, 1]
        for c in calls:
            c.clear()
        corrected = _normal_preimage(F[None], R, b, tol=1e-20)
        assert [len(c) for c in calls] == [1, 0, 2]
        solves = calls[2]
        assert np.array_equal(solves[0], solves[1])
        assert not np.array_equal(corrected, plain)

    def test_rows_outside_the_rule_take_the_plain_step(self):
        # a stack of four rows at tol = 1e-14: q <= tol (near the fiber),
        # q > Phi / 4 (a scaled fiber frame), a kernel fill (row 3 of a rank-2 frame
        # is 0, on a fiber with eigenvalues (3.5, 3.5, 1e-3)) and one
        # corrected row. Only the last row changes, and the others keep
        # their plain step bit for bit
        lam = np.array([3.5, 3.5, 1e-3])
        t = FiberTarget.from_spectrum(lam, np.full(7, lam.sum() / 7))
        F = construct_frame(lam, t.norms_sq, rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        fill = F.copy()
        fill[2] = 0.0
        fill[:2] += 1e-2 * np.linalg.norm(F) * rand_frame(rng, 2, 7) / np.sqrt(28.0)
        # at c F the step is radial, a F with a = (1 - c^2) / (2 c), and
        # q / Phi = a^4 / (1 - c^2)^2 = 9 / 16 at c = 1/2
        far = 0.5 * F
        Fs = np.stack([F + 1e-6 * rand_frame(rng, 3, 7), far, fill, F + 1e-3 * rand_frame(rng, 3, 7)])
        R, b = _gaps(Fs, t)
        plain = _normal_preimage(Fs, R, b)
        tol = 1e-14
        phi = _phi(R, b)
        q = np.array([_phi(*(x[None] for x in second_order_defect(dF)))[0] for dF in plain])
        assert q[0] <= tol and q[1] > phi[1] / 4
        assert tol < q[2] <= phi[2] / 4 and tol < q[3] <= phi[3] / 4
        assert np.linalg.svd(fill, compute_uv=False)[-1] == 0.0
        corrected = _normal_preimage(Fs, R, b, tol=tol)
        for i in range(3):
            assert np.array_equal(corrected[i], plain[i])
        assert not np.array_equal(corrected[3], plain[3])
        after = _phi(*_gaps(Fs + corrected, t))
        assert after[3] <= 1e-2 * _phi(*_gaps(Fs + plain, t))[3]

    def test_rows_that_take_lstsq_take_the_plain_step(self, monkeypatch):
        # three plain steps from 2 I (k = N) reach a scaled unitary whose
        # norms matrix rounds to exactly 0, so its step takes lstsq. Its q
        # is inside the rule, but the derivative is not onto there, and a
        # second LU solve of that matrix would raise
        t = FiberTarget.funtf(3, 3)
        F = _newton(2.0 * np.eye(3, dtype=complex)[None], t, FlowOptions(max_iters=3, tol=1e-20))[0]
        R, b = _gaps(F, t)
        calls = spy_linalg(monkeypatch, "lstsq")
        plain = _normal_preimage(F, R, b)
        assert len(calls) == 1
        q = _phi(*(x[None] for x in second_order_defect(plain[0])))[0]
        assert 1e-20 < q <= _phi(R, b)[0] / 4
        assert np.array_equal(_normal_preimage(F, R, b, tol=1e-20), plain)

    def test_newton_refine_takes_the_corrected_step(self):
        t = FiberTarget.funtf(3, 7)
        F0 = perturbed_fiber_point(t, seed=21)
        opts = FlowOptions(tol=1e-20)
        F, rep = project_to_fiber(F0, t, opts)
        G, ref = _repair("newton", F0, t, opts, partial(_normal_preimage, tol=opts.tol))
        assert np.array_equal(F, G) and np.array_equal(rep.residual_trace, ref.residual_trace)
        _G, plain = _repair("newton", F0, t, opts, _normal_preimage)
        assert (rep.iterations, plain.iterations) == (2, 3)

    @pytest.mark.parametrize(
        "target",
        [
            FiberTarget.funtf(2, 4),
            FiberTarget.funtf(3, 7),
            FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3)),
            FiberTarget.funtf(4, 16),
        ],
        ids=["funtf_2_4", "funtf_3_7", "diag_2_1_N3", "funtf_4_16"],
    )
    def test_never_slower_from_scrambled_starts(self, target, monkeypatch):
        # the Haar-scrambled frames random_frame_on_fiber polishes, seeds 0-59
        from fiberframe import design

        starts = []
        real = design._newton

        def spy(F, target, options):
            starts.append(F[0].copy())
            return real(F, target, options)

        monkeypatch.setattr(design, "_newton", spy)
        for seed in range(60):
            random_frame_on_fiber(target, seed)
        opts = FlowOptions(tol=1e-20)
        plain, corrected = [], []
        for X in starts:
            _F, rep = _repair("newton", X, target, opts, _normal_preimage)
            _G, fast = project_to_fiber(X, target, opts)
            assert rep.converged and fast.converged
            plain.append(rep.iterations)
            corrected.append(fast.iterations)
        assert all(c <= p for p, c in zip(plain, corrected))
        assert np.median(corrected) < np.median(plain)

    @pytest.mark.parametrize("k,N", [(2, 4), (2, 6), (3, 6), (4, 8), (3, 9)])
    def test_never_slower_near_critical_funtfs(self, k, N):
        # N / k copies of an orthonormal basis: an orthodecomposable FUNTF,
        # where the derivative is not onto
        t = FiberTarget.funtf(k, N)
        F = np.tile(np.eye(k, dtype=complex), N // k)
        opts = FlowOptions(tol=1e-20)
        plain, corrected = [], []
        for seed in range(20):
            E = rand_frame(np.random.default_rng(seed), k, N)
            X = F + 1e-2 * np.linalg.norm(F) * E / np.linalg.norm(E)
            _F, rep = _repair("newton", X, t, opts, _normal_preimage)
            _G, fast = project_to_fiber(X, t, opts)
            assert rep.converged and fast.converged
            plain.append(rep.iterations)
            corrected.append(fast.iterations)
        assert all(c <= p for p, c in zip(plain, corrected))
        assert sum(corrected) < sum(plain)


class TestCompositeProjection:
    def test_reaches_tight_tolerance(self):
        t = FiberTarget.funtf(2, 5)
        F0 = perturbed_fiber_point(t, seed=14, rel=0.05)
        F, rep = project_to_fiber(F0, t, FlowOptions(tol=1e-22, max_iters=4000))
        assert fiber_residual(F, t) <= 1e-20
        assert rep.status == "converged"

    def test_report_names_phases(self):
        t = FiberTarget.funtf(2, 5)
        F0 = perturbed_fiber_point(t, seed=15, rel=0.05)
        _, rep = project_to_fiber(F0, t, FlowOptions(tol=1e-22, max_iters=4000))
        assert rep.method == "newton"
        assert rep.iterations == len(rep.residual_trace) - 1


class TestEmptyFiber:
    # FiberTarget takes diag(1.5, 0.5) with r = (1.9, 0.05, 0.05), but no frame
    # has it: majorization fails at the first partial sum, 1.9 > 1.5
    target = FiberTarget(operator=np.diag([1.5, 0.5]).astype(complex), norms_sq=[1.9, 0.05, 0.05])

    @pytest.mark.parametrize(
        "route", [project_to_fiber, flow_to_fiber, alternate_projections], ids=["newton", "gradient", "alternating"]
    )
    def test_every_route_stalls_off_the_fiber(self, route):
        assert is_admissible([1.5, 0.5], [1.9, 0.05, 0.05]).kind == "partial_sum"
        rng = np.random.default_rng(0)
        F0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        F, rep = route(F0, self.target)
        assert rep.status == "stalled" and rep.message == "no damped step decreases the residual"
        assert rep.final_residual == fiber_residual(F, self.target)
        assert rep.final_residual >= 1e-2
