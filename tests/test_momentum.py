import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    rand_antihermitian,
    rand_frame,
    rand_hermitian,
    rand_rank_deficient,
    rand_unitary,
)

from fiberframe import (
    FiberTarget,
    LieAlgebraElement,
    NotAFrameError,
    defining_property_residual,
    infinitesimal_field,
    invert_momentum_derivative,
    is_frame,
    is_regular_value,
    left_kernel_vector,
    momentum,
    momentum_derivative_torus,
    momentum_derivative_unitary,
    momentum_torus,
    momentum_unitary,
    norms_squared,
    symplectic_form,
)


def frame_with_condition(rng, k, N, ratio):
    # singular values spaced geometrically from 1 down to ratio = s_min / s_max
    V = rand_unitary(rng, N)[:k]
    return (rand_unitary(rng, k) * np.geomspace(1.0, ratio, k)) @ V


def rand_algebra(rng, k, N):
    return LieAlgebraElement(rand_antihermitian(rng, k), rng.standard_normal(N))


class TestSymplecticForm:
    def test_frozen_value(self):
        # trace(X1* X2) = conj(1) * 1j = 1j, so the form is -1
        X1 = np.array([[1.0, 1.0j]])
        X2 = np.array([[1.0j, 0.0]])
        assert symplectic_form(X1, X2) == pytest.approx(-1.0)

    def test_rejects_mismatched_and_empty(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            symplectic_form(np.ones((2, 3)), np.ones((2, 4)))
        with pytest.raises(ValueError, match="at least one row and one column"):
            symplectic_form(np.ones((0, 3)), np.ones((0, 3)))

    def test_antisymmetric_and_real_bilinear(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            k, N = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            X = rand_frame(rng, k, N)
            Y = rand_frame(rng, k, N)
            Z = rand_frame(rng, k, N)
            a, b = rng.standard_normal(2)
            assert symplectic_form(X, Y) == pytest.approx(-symplectic_form(Y, X), abs=1e-12)
            lhs = symplectic_form(a * X + b * Z, Y)
            rhs = a * symplectic_form(X, Y) + b * symplectic_form(Z, Y)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_nondegenerate_pairing_with_i(self):
        # pairing any X with iX returns minus the squared Frobenius norm
        X = np.array([[2.0 + 1.0j]])
        assert symplectic_form(X, 1j * X) == pytest.approx(-5.0)


class TestMomentumValues:
    def test_torus_momentum_is_half_norms(self):
        rng = np.random.default_rng(2)
        F = rand_frame(rng, 3, 7)
        assert_allclose(momentum_torus(F), -0.5 * norms_squared(F))

    def test_unitary_momentum_is_frame_operator(self):
        F = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert_allclose(momentum_unitary(F), np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_energy_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            F = rand_frame(rng, int(rng.integers(1, 5)), int(rng.integers(1, 9)))
            assert momentum(F).consistency_residual() <= 1e-12 * max(1.0, np.linalg.norm(F) ** 2)

    def test_unitary_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k, N = int(rng.integers(1, 5)), int(rng.integers(2, 9))
            F = rand_frame(rng, k, N)
            U = rand_unitary(rng, k)
            lhs = momentum_unitary(U @ F)
            rhs = U @ momentum_unitary(F) @ U.conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_torus_invariance_under_phases(self):
        rng = np.random.default_rng(5)
        F = rand_frame(rng, 3, 8)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        lhs = momentum_torus(F * phases[None, :])
        rhs = momentum_torus(F)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(1.0, np.max(np.abs(rhs)))


class TestDefiningProperty:
    def test_hand_example_both_sides(self):
        # F = X = Id, B = i Id, t = 0: either side evaluates to -2
        F = np.eye(2)
        X = np.eye(2)
        xi = LieAlgebraElement(1j * np.eye(2), np.zeros(2))
        D = momentum_derivative_unitary(F, X)
        lhs = (0.5j * np.trace(xi.skew @ D)).real
        rhs = symplectic_form(X, infinitesimal_field(F, xi))
        assert lhs == pytest.approx(-2.0, abs=1e-14)
        assert rhs == pytest.approx(-2.0, abs=1e-14)
        assert defining_property_residual(F, X, xi) <= 1e-14

    def test_residual_vanishes_randomized(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            k, N = int(rng.integers(1, 5)), int(rng.integers(1, 10))
            F = rand_frame(rng, k, N)
            X = rand_frame(rng, k, N)
            xi = rand_algebra(rng, k, N)
            assert defining_property_residual(F, X, xi) <= 1e-10

    def test_field_shapes_and_zero_element(self):
        F = np.eye(2)
        xi = LieAlgebraElement.zero(2, 2)
        assert_allclose(infinitesimal_field(F, xi), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            infinitesimal_field(F, LieAlgebraElement.zero(3, 2))
        with pytest.raises(ValueError):
            LieAlgebraElement(np.eye(2), np.zeros(2))  # not anti-Hermitian


class TestDerivative:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k, N = int(rng.integers(1, 4)), int(rng.integers(2, 8))
            F = rand_frame(rng, k, N)
            X = rand_frame(rng, k, N)
            h = 1e-6
            num_op = ((F + h * X) @ (F + h * X).conj().T - (F - h * X) @ (F - h * X).conj().T) / (2 * h)
            assert np.linalg.norm(num_op - momentum_derivative_unitary(F, X)) <= 1e-6 * max(
                1.0, np.linalg.norm(num_op)
            )
            num_t = (
                -0.5 * np.sum(np.abs(F + h * X) ** 2, axis=0)
                + 0.5 * np.sum(np.abs(F - h * X) ** 2, axis=0)
            ) / (2 * h)
            assert np.max(np.abs(num_t - momentum_derivative_torus(F, X))) <= 1e-6

    @pytest.mark.parametrize("shape", [(2, 4), (3, 5)])
    def test_shape_mismatch_rejected(self, shape):
        rng = np.random.default_rng(9)
        F, X = rand_frame(rng, 2, 5), rand_frame(rng, *shape)
        for derivative in (momentum_derivative_unitary, momentum_derivative_torus):
            with pytest.raises(ValueError, match=r"shape mismatch \(2, 5\) vs"):
                derivative(F, X)

    def test_torus_derivative_formula(self):
        rng = np.random.default_rng(8)
        F = rand_frame(rng, 2, 5)
        X = rand_frame(rng, 2, 5)
        expected = -np.real(np.sum(np.conj(F) * X, axis=0))
        assert_allclose(momentum_derivative_torus(F, X), expected)


class TestSurjectivity:
    def test_witness_on_full_rank(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            k = int(rng.integers(1, 5))
            N = int(rng.integers(k + 1, k + 6))
            F = rand_frame(rng, k, N)
            W = rand_hermitian(rng, k)
            X = invert_momentum_derivative(F, W)
            resid = np.linalg.norm(momentum_derivative_unitary(F, X) - W)
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(W))

    def test_rank_deficient_obstruction(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            k = int(rng.integers(2, 5))
            N = int(rng.integers(k, k + 5))
            F = rand_rank_deficient(rng, k, N)
            with pytest.raises(NotAFrameError):
                invert_momentum_derivative(F, rand_hermitian(rng, k))
            v = left_kernel_vector(F)
            assert np.linalg.norm(F.conj().T @ v) <= 1e-10 * max(1.0, np.linalg.norm(F))
            X = rand_frame(rng, k, N)
            obstruction = abs(np.vdot(v, momentum_derivative_unitary(F, X) @ v))
            assert obstruction <= 1e-12 * max(1.0, np.linalg.norm(F) * np.linalg.norm(X))
            # W = v v* is Hermitian yet pairs to 1 against v: unreachable
            W = np.outer(v, v.conj())
            assert abs(np.vdot(v, W @ v)) == pytest.approx(1.0, rel=1e-12)

    def test_full_rank_has_no_kernel_vector(self):
        rng = np.random.default_rng(11)
        with pytest.raises(NotAFrameError):
            left_kernel_vector(rand_frame(rng, 3, 6))

    def test_right_inverse_accurate_when_ill_conditioned(self):
        # solving the normal equations with F F* squares cond(F) = 1e6 (relative residual 4e-5)
        rng = np.random.default_rng(12)
        for _ in range(20):
            F = frame_with_condition(rng, 3, 6, 1e-6)
            W = rand_hermitian(rng, 3)
            X = invert_momentum_derivative(F, W)
            assert np.linalg.norm(momentum_derivative_unitary(F, X) - W) <= 1e-9 * np.linalg.norm(W)

    @pytest.mark.parametrize("ratio", [1e-11, 1e-13])
    def test_exactly_one_of_inverse_and_kernel_vector(self, ratio):
        # on either side of the rank threshold 1e-12, the derivative is
        # surjective or certified not to be, never both, and is_frame agrees
        rng = np.random.default_rng(13)
        for _ in range(20):
            F = frame_with_condition(rng, 3, 6, ratio)
            try:
                invert_momentum_derivative(F, rand_hermitian(rng, 3))
                surjective = True
            except NotAFrameError:
                surjective = False
            try:
                left_kernel_vector(F)
                has_kernel_vector = True
            except NotAFrameError:
                has_kernel_vector = False
            assert surjective != has_kernel_vector
            assert surjective == (ratio > 1e-12)
            assert is_frame(F) == surjective


class TestRegularValues:
    def test_accepts_positive_definite_negative_torus(self):
        assert is_regular_value(np.diag([2.0, 1.0]), np.array([-0.5, -0.5, -0.5]))

    def test_rejects_singular_operator(self):
        chk = is_regular_value(np.diag([1.0, 0.0]), np.array([-0.5, -0.5]))
        assert not chk
        assert "positive definite" in chk.reason

    def test_rejects_zero_norm(self):
        chk = is_regular_value(np.eye(2), np.array([-0.5, 0.0]))
        assert not chk
        assert "torus" in chk.reason

    def test_rejects_non_hermitian(self):
        assert not is_regular_value(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([-1.0, -1.0]))

    @pytest.mark.parametrize("c", [1e-13, 1.0, 1e13])
    def test_scale_relative(self, c):
        # F -> sqrt(c) F maps the fiber of (S, r) onto that of (c S, c r), so
        # scaling a target keeps it regular, and a singular S or a zero norm
        # stays critical at every scale
        t = FiberTarget.funtf(2, 4)
        scaled = FiberTarget(c * t.operator, c * t.norms_sq)
        assert_allclose(scaled.operator, c * t.operator)
        assert is_regular_value(c * t.operator, -0.5 * c * t.norms_sq)
        chk = is_regular_value(c * np.diag([2.0, 1e-13]), -0.5 * c * np.ones(3))
        assert not chk and "positive definite" in chk.reason
        with pytest.raises(ValueError, match="positive definite"):
            FiberTarget(c * np.diag([2.0, 0.0]), c * np.ones(2))
        chk = is_regular_value(c * t.operator, -0.5 * c * np.array([2.0, 2.0, 0.0, 0.0]))
        assert not chk and "torus" in chk.reason
