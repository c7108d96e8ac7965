import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import BAD_TOLERANCES, rand_frame, rand_rank_deficient

from fiberframe import (
    NotAFrameError,
    analysis,
    frame_bounds,
    frame_operator,
    gram,
    is_frame,
    is_funtf,
    is_tight,
    norms_squared,
    synthesis,
)


def harmonic_frame_2x3():
    w = np.exp(2j * np.pi / 3)
    return np.array([[1, 1, 1], [1, w, w**2]]) / np.sqrt(2)


class TestAnalysisSynthesis:
    def test_identity_frame_conjugates_nothing(self):
        # analysis is F* v; for F = Id it returns v itself
        out = analysis(np.eye(2), np.array([1.0, 1.0j]))
        assert_allclose(out, np.array([1.0, 1.0j]), atol=1e-15)

    def test_known_coefficients(self):
        F = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert_allclose(analysis(F, np.array([1.0, 0.0])), np.array([1.0, 0.0, 1.0]))
        assert_allclose(synthesis(F, np.ones(3)), np.array([2.0, 1.0]))

    def test_adjoint_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            N = int(rng.integers(k, 10))
            F = rand_frame(rng, k, N)
            v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            # <analysis(v), z> = <v, synthesis(z)> with vdot's first-slot conjugation
            lhs = np.vdot(analysis(F, v), z)
            rhs = np.vdot(v, synthesis(F, z))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_shape_checks(self):
        F = np.eye(2)
        with pytest.raises(ValueError):
            analysis(F, np.ones(3))
        with pytest.raises(ValueError):
            synthesis(F, np.ones(3))
        with pytest.raises(ValueError):
            analysis(np.array([[np.nan, 0.0]]), np.ones(1))


class TestOperators:
    def test_frame_operator_known(self):
        F = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert_allclose(frame_operator(F), np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_gram_known(self):
        F = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        assert_allclose(gram(F), G)

    def test_outputs_hermitian(self):
        rng = np.random.default_rng(3)
        F = rand_frame(rng, 3, 6)
        S = frame_operator(F)
        G = gram(F)
        assert np.array_equal(S, S.conj().T)
        assert np.array_equal(G, G.conj().T)

    def test_norms_squared(self):
        F = np.array([[3.0, 0.0], [4.0, 1.0j]])
        assert_allclose(norms_squared(F), np.array([25.0, 1.0]))


class TestBounds:
    def test_known_bounds(self):
        F = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        b = frame_bounds(F)
        assert_allclose([b.lower, b.upper], [1.0, 2.0], rtol=1e-12)

    def test_bounds_bracket_coefficient_energy(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            k = int(rng.integers(1, 5))
            N = int(rng.integers(k, 10))
            F = rand_frame(rng, k, N)
            b = frame_bounds(F)
            v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            energy = float(np.sum(np.abs(analysis(F, v)) ** 2))
            nv = float(np.vdot(v, v).real)
            assert b.lower * nv <= energy * (1 + 1e-12) + 1e-12
            assert energy <= b.upper * nv * (1 + 1e-12) + 1e-12

    def test_not_a_frame(self):
        with pytest.raises(NotAFrameError):
            frame_bounds(np.ones((3, 2)))
        rng = np.random.default_rng(5)
        with pytest.raises(NotAFrameError):
            frame_bounds(rand_rank_deficient(rng, 3, 6))
        assert not is_frame(rand_rank_deficient(rng, 3, 6))
        assert is_frame(rand_frame(rng, 3, 6))


class TestTightness:
    def test_harmonic_frame_is_funtf(self):
        F = harmonic_frame_2x3()
        assert_allclose(frame_operator(F), 1.5 * np.eye(2), atol=1e-14)
        assert is_tight(F)
        assert is_funtf(F)

    def test_tight_but_not_unit_norm(self):
        F = 2.0 * harmonic_frame_2x3()
        assert is_tight(F)
        assert not is_funtf(F)

    def test_generic_frame_not_tight(self):
        F = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert not is_tight(F)

    def test_non_frame_is_neither(self):
        F = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        assert not is_tight(F)
        assert not is_funtf(F)

    # without the check nan and a negative tol judged every frame not tight,
    # and inf judged every frame tight
    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_is_tight_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            is_tight(harmonic_frame_2x3(), tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_is_funtf_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            is_funtf(harmonic_frame_2x3(), tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bounds_is_tight_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            frame_bounds(harmonic_frame_2x3()).is_tight(tol)
