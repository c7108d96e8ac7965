import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    fiber_residual_bruteforce,
    min_norm_step_bruteforce,
    rand_frame,
    rand_hermitian,
    rand_rank_deficient,
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
from fiberframe.flows import _normal_preimage


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

    def test_norm_weight_scales_norm_term(self):
        rng = np.random.default_rng(2)
        t = FiberTarget.funtf(2, 5)
        F = rand_frame(rng, 2, 5)
        gap = norms_squared(F) - t.norms_sq
        base = fiber_residual(F, t, norm_weight=0.0)
        assert fiber_residual(F, t, norm_weight=2.0) == pytest.approx(
            base + 2.0 * float(gap @ gap), rel=1e-12
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

    @pytest.mark.parametrize("k,N", [(2, 4), (3, 6), (4, 16)])
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_deficient_start_converges(self, k, N, seed):
        # a kernel row of the start is filled by the Newton step's missing operator energy
        t = FiberTarget.funtf(k, N)
        F0 = rand_rank_deficient(np.random.default_rng(seed), k, N)
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


class TestNormalStep:
    @pytest.mark.parametrize("k,N", [(2, 4), (4, 16), (8, 64)])
    def test_matches_realified_min_norm_step(self, k, N):
        rng = np.random.default_rng(k * N)
        t = FiberTarget.funtf(k, N)
        for _ in range(3):
            F = rand_frame(rng, k, N)
            # the Newton residual and a random consistent right-hand side
            cases = [(t.operator - F @ F.conj().T, t.norms_sq - norms_squared(F))]
            R = rand_hermitian(rng, k)
            b = rng.standard_normal(N)
            cases.append((R, b + (np.trace(R).real - b.sum()) / N))
            for R, b in cases:
                ref = min_norm_step_bruteforce(F, R, b)
                dF = _normal_preimage(F, R, b)
                assert np.linalg.norm(dF - ref) <= 1e-10 * np.linalg.norm(ref)


class TestCompositeProjection:
    def test_reaches_tight_tolerance(self):
        t = FiberTarget.funtf(2, 5)
        F0 = perturbed_fiber_point(t, seed=14, rel=0.05)
        F, rep = project_to_fiber(F0, t, FlowOptions(tol=1e-22, max_iters=4000, stall_iters=200))
        assert fiber_residual(F, t) <= 1e-20
        assert rep.status == "converged"

    def test_report_names_phases(self):
        t = FiberTarget.funtf(2, 5)
        F0 = perturbed_fiber_point(t, seed=15, rel=0.05)
        _, rep = project_to_fiber(F0, t, FlowOptions(tol=1e-22, max_iters=4000, stall_iters=200))
        assert rep.method.startswith("alternating")
        assert rep.iterations == len(rep.residual_trace) - 1
