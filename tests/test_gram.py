import numpy as np
import pytest

from conftest import BAD_TOLERANCES, rand_frame, rand_rank_deficient, rand_unitary

from fiberframe import (
    ClusteringError,
    FiberTarget,
    FlagType,
    flag_type,
    gram,
    orbit_dimension,
    random_frame_on_fiber,
    reduced_dimension,
    spectrum_correspondence_residual,
    unitary_equivalent,
)


class TestFlagType:
    def test_distinct_eigenvalues(self):
        ft = flag_type(np.diag([3.0, 2.0, 1.0]).astype(complex))
        assert ft.eigenvalues == pytest.approx((3.0, 2.0, 1.0))
        assert ft.multiplicities == (1, 1, 1)
        assert ft.dimension == 3

    def test_repeated_eigenvalues(self):
        ft = flag_type(np.diag([2.0, 2.0, 1.0]).astype(complex))
        assert ft.multiplicities == (2, 1)
        assert ft.eigenvalues[0] == pytest.approx(2.0)
        assert ft.dimension == 3

    def test_near_degenerate_merges(self):
        ft = flag_type(np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex))
        assert ft.multiplicities == (1, 2)

    def test_ambiguous_gap_raises(self):
        # relative gap of 5e-8 sits between the merge threshold 1e-8 and ten times it
        S = np.diag([1.0, 1.0 + 5e-8, 2.0]).astype(complex)
        with pytest.raises(ClusteringError):
            flag_type(S)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlagType(eigenvalues=(1.0, 2.0), multiplicities=(1, 1))
        with pytest.raises(ValueError):
            FlagType(eigenvalues=(2.0,), multiplicities=(0,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            FlagType(eigenvalues=(2.0, 1.0), multiplicities=(2,))

    @pytest.mark.parametrize("m", [1.5, 2.0, True, False, 0, -1, "2", None, np.bool_(True)])
    def test_multiplicity_must_be_a_positive_integer(self, m):
        # 1.5 was truncated to 1 and True counted as 1
        with pytest.raises(ValueError, match="multiplicities must be positive integers"):
            FlagType(eigenvalues=(1.0,), multiplicities=(m,))

    @pytest.mark.parametrize(
        "vals", [("2",), (True,), (np.nan,), (np.inf, 2.0), (None,)], ids=["str", "bool", "nan", "inf", "none"]
    )
    def test_eigenvalues_must_be_finite_real_numbers(self, vals):
        # "2" was read as 2.0, True as 1.0, and nan and inf were kept
        with pytest.raises(ValueError, match="eigenvalues must be finite real numbers"):
            FlagType(eigenvalues=vals, multiplicities=(1,) * len(vals))

    def test_numpy_real_eigenvalues(self):
        ft = FlagType(eigenvalues=(np.float32(2.0), np.int64(1)), multiplicities=(1, 1))
        assert ft.eigenvalues == (2.0, 1.0) and all(type(x) is float for x in ft.eigenvalues)

    def test_numpy_integer_multiplicity(self):
        ft = FlagType(eigenvalues=(2.0, 1.0), multiplicities=(np.int64(2), 1))
        assert ft.multiplicities == (2, 1) and type(ft.multiplicities[0]) is int

    def test_zero_operator_is_one_cluster(self):
        # every gap of an all-zero spectrum is 0, at most the merge threshold 0
        assert flag_type(np.zeros((3, 3))) == FlagType((0.0,), (3,))

    def test_empty_operator_rejected(self):
        with pytest.raises(ValueError, match="^operator must be non-empty$"):
            flag_type(np.zeros((0, 0)))


class TestDimensions:
    def test_funtf_two_four(self):
        t = FiberTarget.funtf(2, 4)
        ft = flag_type(t.operator)
        assert ft.multiplicities == (2,)
        assert orbit_dimension(ft) == 0
        assert reduced_dimension(ft, 4) == 8

    def test_distinct_spectrum(self):
        ft = flag_type(np.diag([3.0, 2.0, 1.0]).astype(complex))
        # k^2 - sum(m^2) = 9 - 3 = 6
        assert orbit_dimension(ft) == 6
        assert reduced_dimension(ft, 7) == 2 * 3 * (7 - 3) + 6

    def test_orbit_dimension_vs_offdiagonal_count(self):
        # the unitary orbit of a flag has one complex (2 real) dimension per
        # pair of eigenvectors in different eigenspaces
        for mults in [(1, 1), (2, 1), (3,), (2, 2), (1, 1, 2)]:
            vals = tuple(float(len(mults) - i) for i in range(len(mults)))
            ft = FlagType(eigenvalues=vals, multiplicities=mults)
            expected = 2 * sum(
                mults[i] * mults[j]
                for i in range(len(mults))
                for j in range(i + 1, len(mults))
            )
            assert orbit_dimension(ft) == expected

    @pytest.mark.parametrize("N", [4.5, True, "3"])
    def test_reduced_dimension_needs_an_integer_n(self, N):
        # 4.5 gave 10.0
        with pytest.raises(ValueError, match="N must be a non-negative integer"):
            reduced_dimension(FlagType(eigenvalues=(1.0,), multiplicities=(2,)), N)

    def test_reduced_dimension_needs_n_at_least_k(self):
        with pytest.raises(ValueError, match="at least as many vectors"):
            reduced_dimension(FlagType(eigenvalues=(1.0,), multiplicities=(3,)), 2)


class TestGramClass:
    """Equal Gram matrices are the relation unitary_equivalent decides."""

    def test_same_frame(self):
        F = rand_frame(np.random.default_rng(40), 3, 6)
        W = unitary_equivalent(F, F)
        assert W is not None and np.linalg.norm(W - np.eye(3)) <= 1e-12

    def test_different_frames(self):
        rng = np.random.default_rng(42)
        F1 = rand_frame(rng, 3, 6)
        F2 = rand_frame(rng, 3, 6)
        assert np.linalg.norm(gram(F1) - gram(F2)) > 1e-8 * np.linalg.norm(gram(F1))
        assert unitary_equivalent(F1, F2) is None

    # tol is checked before any factorization, on a rank-deficient pair too
    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_rejects_bad_tol(self, tol):
        F = rand_rank_deficient(np.random.default_rng(46), 3, 6)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            unitary_equivalent(F, F, tol=tol)


class TestUnitaryEquivalence:
    def test_recovers_planted_unitary(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            N = int(rng.integers(k, 9))
            F1 = rand_frame(rng, k, N)
            U = rand_unitary(rng, k)
            F2 = U @ F1
            W = unitary_equivalent(F1, F2)
            assert W is not None
            assert np.linalg.norm(W @ F1 - F2) <= 1e-10 * np.linalg.norm(F1)
            assert np.linalg.norm(W.conj().T @ W - np.eye(k)) <= 1e-12

    @pytest.mark.parametrize("k,N", [(3, 6), (4, 4), (2, 5)])
    def test_rank_deficient_left_unitary(self, k, N):
        # equal Grams are the relation: F* F = (U F)* (U F) with F F* singular,
        # so the unitary is not unique, but one maps F to U F
        rng = np.random.default_rng(41)
        F = rand_rank_deficient(rng, k, N)
        U = rand_unitary(rng, k)
        assert np.linalg.norm(gram(F) - gram(U @ F)) <= 1e-12 * np.linalg.norm(gram(F))
        W = unitary_equivalent(F, U @ F)
        assert W is not None
        assert np.linalg.norm(W @ F - U @ F) <= 1e-10 * np.linalg.norm(F)
        assert np.linalg.norm(W.conj().T @ W - np.eye(k)) <= 1e-12
        assert unitary_equivalent(F, rand_rank_deficient(rng, k, N)) is None

    def test_rejects_unrelated_frames(self):
        rng = np.random.default_rng(44)
        F1 = rand_frame(rng, 3, 6)
        F2 = rand_frame(rng, 3, 6)
        assert unitary_equivalent(F1, F2) is None

    def test_rejects_norm_mismatch(self):
        rng = np.random.default_rng(45)
        F = rand_frame(rng, 3, 6)
        assert unitary_equivalent(F, 2.0 * F) is None

    # without the check unitary_equivalent(F, F, tol=nan) was None
    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_rejects_bad_tol(self, tol):
        F = rand_frame(np.random.default_rng(47), 3, 6)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            unitary_equivalent(F, F, tol=tol)

    def test_fiber_points_same_gram_are_equivalent(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F = random_frame_on_fiber(t, seed=7)
        U = rand_unitary(np.random.default_rng(8), 2)
        # left action preserves the Gram matrix only if U commutes with the
        # operator; a generic U does not, but U @ F is still equivalent to F
        assert unitary_equivalent(F, U @ F) is not None


class TestSpectrumCorrespondence:
    def test_residual_small(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            N = int(rng.integers(k, 9))
            F = rand_frame(rng, k, N)
            assert spectrum_correspondence_residual(F) <= 1e-10

    @pytest.mark.parametrize("k,N", [(3, 2), (3, 1), (4, 2)])
    def test_more_rows_than_columns(self, k, N):
        # F F* then has k - N zero eigenvalues, the tail the Gram spectrum lacks
        F = rand_frame(np.random.default_rng(47), k, N)
        assert spectrum_correspondence_residual(F) <= 1e-10
