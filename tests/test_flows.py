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
    newton_refine,
    norms_squared,
    project_frame_operator,
    project_norms,
    project_to_fiber,
    random_frame_on_fiber,
)
from fiberframe._linalg import EIGEN_RTOL
from fiberframe.flows import _gaps, _newton, _normal_preimage, _phi


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
        rng = np.random.default_rng(6)
        t = FiberTarget.funtf(3, 6)
        F0 = rand_rank_deficient(rng, 3, 6)
        _, rep = flow_to_fiber(F0, t)
        assert rep.status == "lost_rank"
        assert not rep.converged

    def test_max_iters_status(self):
        t = FiberTarget.funtf(2, 4)
        F0 = perturbed_fiber_point(t, seed=7, rel=0.3)
        _, rep = flow_to_fiber(F0, t, FlowOptions(max_iters=2, tol=1e-30))
        assert rep.status in ("max_iters", "stalled")
        assert rep.iterations <= 2


class TestProjections:
    def test_operator_projection_exact(self):
        rng = np.random.default_rng(8)
        t = FiberTarget.from_spectrum([3.0, 1.0], np.array([2.0, 1.0, 1.0]))
        for _ in range(15):
            F = rand_frame(rng, 2, 3)
            P = project_frame_operator(F, t.operator)
            assert np.linalg.norm(frame_operator(P) - t.operator) <= 1e-12 * np.linalg.norm(
                t.operator
            )

    def test_operator_projection_rank_deficient_raises(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            project_frame_operator(rand_rank_deficient(rng, 3, 5), np.eye(3) * (5 / 3))

    @pytest.mark.parametrize("scale", [1e-13, 1.0])
    def test_operator_projection_indefinite_raises(self, scale):
        # the semidefinite floor is relative to the operator: diag(1, -1) is
        # rejected at every scale, diag(1, 0) accepted
        F = rand_frame(np.random.default_rng(11), 2, 4)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            project_frame_operator(F, scale * np.diag([1.0, -1.0]))
        S = scale * np.diag([1.0, 0.0])
        assert np.linalg.norm(frame_operator(project_frame_operator(F, S)) - S) <= 1e-12 * scale

    def test_norm_projection_exact(self):
        rng = np.random.default_rng(10)
        r = np.array([2.0, 0.5, 1.0, 1.5])
        F = rand_frame(rng, 2, 4)
        P = project_norms(F, r)
        assert_allclose(norms_squared(P), r, rtol=1e-13)

    def test_norm_projection_zero_column_raises(self):
        F = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            project_norms(F, np.array([1.0, 1.0]))


class TestAlternatingFlow:
    def test_converges_fast(self):
        t = FiberTarget.funtf(3, 7)
        F0 = perturbed_fiber_point(t, seed=11)
        F, rep = alternate_projections(F0, t)
        assert rep.converged
        assert fiber_residual(F, t) <= 1e-10
        assert rep.iterations < 200

    def test_rank_loss_reported(self):
        rng = np.random.default_rng(12)
        t = FiberTarget.funtf(3, 6)
        _, rep = alternate_projections(rand_rank_deficient(rng, 3, 6), t)
        assert rep.status == "lost_rank"

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
        F, rep = newton_refine(F0, t, FlowOptions(tol=1e-24))
        assert rep.converged
        assert rep.iterations == 2
        assert fiber_residual(F, t) <= 1e-24
        assert np.all(np.diff(rep.residual_trace) < 0)

    def test_zero_iterations_on_fiber(self):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=3)
        _, rep = newton_refine(F, t, FlowOptions(tol=1e-18))
        assert rep.converged and rep.iterations == 0

    def test_converges_from_moderate_distance(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0 = perturbed_fiber_point(t, seed=22, rel=0.2)
        F, rep = newton_refine(F0, t, FlowOptions(tol=1e-24))
        assert rep.converged
        assert rep.iterations == 4
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
        for solver in (newton_refine, project_to_fiber):
            F, rep = solver(F0, t, FlowOptions(tol=1e-20))
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
        for solver in (newton_refine, project_to_fiber):
            F, rep = solver(F0, t, FlowOptions(tol=1e-20))
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
        for solver in (newton_refine, project_to_fiber):
            F, rep = solver(F0, t, FlowOptions(tol=1e-20))
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
        F, rep = newton_refine(self.SLOW_START, t)
        assert rep.converged and rep.iterations > 60
        assert fiber_residual(F, t) <= FlowOptions().tol
        _, rep = newton_refine(self.SLOW_START, t, FlowOptions(max_iters=60))
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
    def test_rejects_bool_max_iters(self, value):
        with pytest.raises(ValueError, match="max_iters must be a non-negative integer"):
            FlowOptions(max_iters=value)

    def test_accepts_edge_values(self):
        assert FlowOptions(max_iters=0, tol=0.0).max_iters == 0
        assert FlowOptions(max_iters=np.int64(5), tol=np.float64(1e-20)).tol == 1e-20


class TestNormalStep:
    @pytest.mark.parametrize("k,N", [(2, 4), (4, 16), (8, 64), (5, 8), (6, 6), (16, 40)])
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
        Fs, phi, iters, trace, stalled = _newton(np.stack(starts), t, opts)
        reps = [newton_refine(F0, t, opts) for F0 in starts]
        assert reps[0][1].iterations == 0
        assert len({rep.iterations for _F, rep in reps}) >= 3
        for i, (F, rep) in enumerate(reps):
            assert rep.converged and not stalled[i]
            assert iters[i] == rep.iterations
            assert np.linalg.norm(Fs[i] - F) <= 1e-12 * np.linalg.norm(F)
            assert_allclose(trace[: iters[i] + 1, i], rep.residual_trace, rtol=1e-9, atol=1e-30)
            # after a row leaves, its trace holds its final Phi
            assert np.all(trace[iters[i] :, i] == phi[i])

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
        Fs, phi, iters, _trace, stalled = _newton(starts, t, opts)
        assert list(iters) == [6, 7, 8] and stalled.all()
        assert np.all(phi <= 1e-30)
        for i in range(3):
            F, rep = newton_refine(starts[i], t, opts)
            assert rep.status == "stalled" and rep.iterations == iters[i]
            assert np.array_equal(Fs[i], F)

    def test_capped_rows_report_max_iters(self):
        t = FiberTarget.funtf(2, 4)
        starts = np.stack([perturbed_fiber_point(t, seed=s, rel=0.1) for s in (3, 4)])
        Fs, phi, iters, _trace, stalled = _newton(starts, t, FlowOptions(max_iters=1, tol=1e-24))
        assert list(iters) == [1, 1] and not stalled.any()
        for i in range(2):
            F, rep = newton_refine(starts[i], t, FlowOptions(max_iters=1, tol=1e-24))
            assert rep.status == "max_iters"
            assert np.linalg.norm(Fs[i] - F) <= 1e-12 * np.linalg.norm(F)


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
