import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import first_violation_bruteforce, rand_pd_hermitian

from fiberframe import (
    FiberTarget,
    InadmissibleError,
    construct_frame,
    construct_frame_with_operator,
    fiber_residual,
    frame_operator,
    hermitian_with_diagonal,
    is_admissible,
    is_funtf,
    norms_squared,
    random_admissible_norms,
    random_frame_on_fiber,
)


class TestAdmissibility:
    def test_known_admissible(self):
        assert is_admissible([2.0, 1.0], [1.0, 1.0, 1.0])
        assert is_admissible([3.0, 1.0], [2.5, 1.0, 0.5])

    def test_describe_admissible(self):
        assert is_admissible([2.0, 1.0], [1.0, 1.0, 1.0]).describe() == "admissible"

    def test_partial_sum_violation(self):
        chk = is_admissible([1.0, 1.0], [1.5, 0.5])
        assert not chk
        assert chk.kind == "partial_sum" and chk.index == 1
        assert chk.lhs == pytest.approx(1.5) and chk.rhs == pytest.approx(1.0)

    def test_total_violation(self):
        chk = is_admissible([1.0, 1.0], [0.5, 0.5, 0.5])
        assert not chk and chk.kind == "total"

    def test_shape_violation(self):
        chk = is_admissible([1.0, 1.0, 1.0], [3.0, 0.0001])
        assert not chk and chk.kind == "shape"

    def test_unsorted_input_is_sorted(self):
        # same data as the partial-sum case, shuffled
        chk = is_admissible([1.0, 1.0], [0.5, 1.5])
        assert not chk and chk.index == 1

    def test_certificate_matches_bruteforce(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            k = int(rng.integers(1, 6))
            N = int(rng.integers(k, 10))
            lam = np.sort(rng.uniform(0.2, 3.0, k))[::-1]
            if rng.uniform() < 0.5:
                r = random_admissible_norms(lam, N, rng)
            else:
                r = rng.dirichlet(np.ones(N)) * float(lam.sum()) * rng.uniform(0.7, 1.3)
            chk = is_admissible(lam, r)
            kind, ell = first_violation_bruteforce(lam, r)
            assert chk.ok == (kind == "")
            if not chk.ok:
                assert chk.kind == kind
                if kind == "partial_sum":
                    assert chk.index == ell

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            is_admissible([1.0], [0.5, -0.5])
        with pytest.raises(ValueError):
            is_admissible([0.0], [1.0])


class TestHermitianWithDiagonal:
    def test_two_by_two(self):
        G = hermitian_with_diagonal([1.0, 0.0], [0.6, 0.4])
        assert_allclose(np.diag(G), [0.6, 0.4], atol=1e-15)
        assert abs(G[0, 1]) == pytest.approx(np.sqrt(0.24), rel=1e-12)
        assert_allclose(np.sort(np.linalg.eigvalsh(G)), [0.0, 1.0], atol=1e-14)

    def test_randomized_spectrum_and_diagonal(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            k = int(rng.integers(1, 6))
            N = int(rng.integers(k, 12))
            lam = np.sort(rng.uniform(0.2, 3.0, k))[::-1]
            r = random_admissible_norms(lam, N, rng)
            vals = np.concatenate([lam, np.zeros(N - k)])
            G = hermitian_with_diagonal(vals, r)
            assert np.max(np.abs(np.diag(G) - r)) <= 1e-10 * max(1.0, lam.sum())
            got = np.sort(np.linalg.eigvalsh(G))[::-1]
            assert np.max(np.abs(got - np.sort(vals)[::-1])) <= 1e-10 * max(1.0, lam.sum())

    def test_diagonal_is_set_exactly(self):
        # each rotation writes its target entry, and no later rotation touches
        # it: the diagonal is the requested one bit for bit, repeated spectrum
        # values and equal norms included
        rng = np.random.default_rng(35)
        for case in range(120):
            k = int(rng.integers(1, 7))
            N = int(rng.integers(k, 20))
            lam = np.sort(rng.uniform(0.2, 3.0, k))[::-1]
            if case % 3 == 1:
                lam = np.full(k, lam[0])
            r = np.full(N, lam.sum() / N) if case % 4 == 0 else random_admissible_norms(lam, N, rng)
            d = np.asarray(r, dtype=float)
            G = hermitian_with_diagonal(np.concatenate([lam, np.zeros(N - k)]), d)
            assert np.array_equal(np.diag(G), d)

    def test_rejects_non_majorized(self):
        with pytest.raises(ValueError):
            hermitian_with_diagonal([1.0, 0.0], [1.5, -0.5])
        with pytest.raises(ValueError):
            hermitian_with_diagonal([1.0, 0.0], [0.6, 0.6])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="need 3 spectrum values, got 2"):
            hermitian_with_diagonal([1.0, 0.0], [0.5, 0.25, 0.25])

    @pytest.mark.parametrize(
        "diagonal,kind,index,message",
        [
            ([1.5, -0.5], "partial_sum", 1, "partial sum violated at ell=1: top norms add to 1.5 > spectrum 1"),
            ([0.6, 0.6], "total", None, "sum of norms 1.2 != sum of spectrum 1"),
        ],
        ids=["partial_sum", "total"],
    )
    def test_raises_the_certificate(self, diagonal, kind, index, message):
        # the typed error of every empty fiber, a ValueError, with the same message as before
        with pytest.raises(InadmissibleError) as exc:
            hermitian_with_diagonal([1.0, 0.0], diagonal)
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == f"diagonal is not majorized by the spectrum: {message}"
        assert (exc.value.check.kind, exc.value.check.index) == (kind, index)


SINGULAR = "operator part is not positive definite"


class TestConstructFrame:
    def test_single_row_example(self):
        F = construct_frame([1.0], [0.6, 0.4])
        assert_allclose(np.abs(F), [[np.sqrt(0.6), np.sqrt(0.4)]], rtol=1e-12)
        assert_allclose(frame_operator(F), [[1.0]], atol=1e-14)

    def test_operator_is_diagonal_spectrum(self):
        F = construct_frame([2.0, 1.0], [1.0, 1.0, 1.0])
        assert_allclose(frame_operator(F), np.diag([2.0, 1.0]), atol=1e-13)
        assert_allclose(norms_squared(F), np.ones(3), atol=1e-13)

    def test_randomized_round_trip(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            k = int(rng.integers(1, 6))
            N = int(rng.integers(k, 12))
            lam = np.sort(rng.uniform(0.2, 3.0, k))[::-1]
            r = random_admissible_norms(lam, N, rng)
            F = construct_frame(lam, r, rng=rng)
            scale = max(1.0, lam.sum())
            assert np.linalg.norm(frame_operator(F) - np.diag(lam)) <= 1e-8 * scale
            assert np.max(np.abs(norms_squared(F) - r)) <= 1e-8 * scale

    def test_funtf_construction(self):
        for k, N in ((2, 5), (3, 7), (4, 9)):
            F = construct_frame(np.full(k, N / k), np.ones(N))
            assert is_funtf(F, tol=1e-10)

    def test_inadmissible_raises_with_certificate(self):
        with pytest.raises(InadmissibleError) as err:
            construct_frame([1.0, 1.0], [1.5, 0.5])
        assert err.value.check.kind == "partial_sum"
        assert err.value.check.index == 1

    @pytest.mark.parametrize(
        "build,operator,norms_sq,reason",
        [
            (construct_frame, [2.0, 1e-17], [1.0, 1.0], SINGULAR),
            (construct_frame_with_operator, np.diag([2.0, 1e-17]), [1.0, 1.0 + 1e-17], SINGULAR),
            (construct_frame_with_operator, np.diag([2.0, -1.0]), [0.5, 0.5], SINGULAR),
            (
                construct_frame,
                [2.0, 1.0],
                [1.5, 1.5 - 1e-13, 1e-13],
                r"torus part has a non-negative entry in column\(s\) 3 of 3",
            ),
        ],
        ids=["spectrum_below_floor", "operator_below_floor", "indefinite_operator", "norms_below_floor"],
    )
    def test_rejects_what_fiber_target_rejects(self, build, operator, norms_sq, reason):
        # the rule of FiberTarget, applied before the majorization test
        with pytest.raises(ValueError, match=f"^target is not a regular momentum value: {reason}$"):
            build(operator, norms_sq)
        S = np.diag(operator) if np.ndim(operator) == 1 else operator
        with pytest.raises(ValueError, match=reason):
            FiberTarget(S, norms_sq)

    def test_with_empty_operator_rejected(self):
        with pytest.raises(ValueError, match="^operator must be non-empty$"):
            construct_frame_with_operator(np.zeros((0, 0)), [1.0])

    @pytest.mark.parametrize("rng", [5, np.random.RandomState(0), "0"], ids=["int", "RandomState", "str"])
    def test_rng_must_be_a_generator_or_none(self, rng):
        # an int failed with AttributeError, after the whole rotation chain
        match = "^rng must be a numpy.random.Generator or None, got "
        with pytest.raises(ValueError, match=match):
            construct_frame([2.0, 2.0], np.ones(4), rng=rng)
        # checked before any other argument
        with pytest.raises(ValueError, match=match):
            construct_frame("bad", np.ones(4), rng=rng)

    @pytest.mark.parametrize("rng", [5, np.random.RandomState(0), "0"], ids=["int", "RandomState", "str"])
    def test_with_operator_rng_must_be_a_generator_or_none(self, rng):
        match = "^rng must be a numpy.random.Generator or None, got "
        with pytest.raises(ValueError, match=match):
            construct_frame_with_operator(np.diag([2.0, 2.0]), np.ones(4), rng=rng)
        with pytest.raises(ValueError, match=match):
            construct_frame_with_operator("bad", np.ones(4), rng=rng)

    def test_with_operator(self):
        rng = np.random.default_rng(34)
        S = rand_pd_hermitian(rng, 3)
        lam = np.linalg.eigvalsh(S)[::-1]
        r = random_admissible_norms(lam, 6, rng)
        F = construct_frame_with_operator(S, r)
        assert np.linalg.norm(frame_operator(F) - S) <= 1e-10 * np.linalg.norm(S)
        assert np.max(np.abs(norms_squared(F) - r)) <= 1e-10 * max(1.0, float(r.sum()))


class TestRandomAdmissibleNorms:
    def test_always_admissible_and_positive(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            N = int(rng.integers(k, 12))
            lam = np.sort(rng.uniform(0.2, 3.0, k))[::-1]
            r = random_admissible_norms(lam, N, rng)
            assert np.all(r > 0)
            assert is_admissible(lam, r)
            assert float(r.sum()) == pytest.approx(float(lam.sum()), rel=1e-12)

    def test_rejects_fewer_vectors_than_dimensions(self):
        with pytest.raises(ValueError, match="at least as many vectors"):
            random_admissible_norms([2.0, 1.0, 1.0], 2, np.random.default_rng(0))

    @pytest.mark.parametrize("N", [3.0, True, "3", -3])
    def test_rejects_non_integer_count(self, N):
        # a float N leaked numpy's TypeError
        with pytest.raises(ValueError, match="^N must be a non-negative integer"):
            random_admissible_norms([2.0, 1.0], N, np.random.default_rng(0))

    @pytest.mark.parametrize("rng", [None, 5, np.random.RandomState(0)], ids=["None", "int", "RandomState"])
    def test_rng_must_be_a_generator(self, rng):
        # an int failed with AttributeError; None has no default here
        match = "^rng must be a numpy.random.Generator, got "
        with pytest.raises(ValueError, match=match):
            random_admissible_norms([2.0, 1.0], 5, rng)
        # checked before any other argument
        with pytest.raises(ValueError, match=match):
            random_admissible_norms("bad", 5, rng)

    def test_numpy_integer_count(self):
        r1 = random_admissible_norms([2.0, 1.0], np.int64(5), np.random.default_rng(3))
        r2 = random_admissible_norms([2.0, 1.0], 5, np.random.default_rng(3))
        assert np.array_equal(r1, r2)


class TestRandomFrameOnFiber:
    def test_on_fiber_and_deterministic(self):
        t = FiberTarget.funtf(2, 4)
        F1 = random_frame_on_fiber(t, seed=42)
        F2 = random_frame_on_fiber(t, seed=42)
        assert np.array_equal(F1, F2)
        assert fiber_residual(F1, t) <= 1e-20

    def test_distinct_seeds_differ(self):
        t = FiberTarget.funtf(2, 4)
        F1 = random_frame_on_fiber(t, seed=1)
        F2 = random_frame_on_fiber(t, seed=2)
        assert np.linalg.norm(F1 - F2) > 1e-3

    @pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, -1, "1", None])
    def test_seed_is_a_non_negative_integer(self, seed):
        # True was taken as seed 1, 1.5 leaked numpy's TypeError
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            random_frame_on_fiber(FiberTarget.funtf(2, 4), seed=seed)

    def test_numpy_integer_seed(self):
        t = FiberTarget.funtf(2, 4)
        assert np.array_equal(random_frame_on_fiber(t, seed=np.int64(7)), random_frame_on_fiber(t, seed=7))

    def test_non_degenerate_operator(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        for seed in range(5):
            F = random_frame_on_fiber(t, seed)
            assert fiber_residual(F, t) <= 1e-20

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e7, 1e8])
    @pytest.mark.parametrize(
        "base",
        [
            FiberTarget.funtf(2, 4),
            FiberTarget.funtf(3, 7),
            FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3)),
            FiberTarget.from_spectrum([4.0, 1.0], np.full(4, 1.25)),
        ],
        ids=["funtf_2_4", "funtf_3_7", "diag_2_1_N3", "spread_N4"],
    )
    def test_residual_bound_scales_with_fiber(self, base, c):
        # F -> sqrt(c) F maps the fiber of (S, r) onto that of (c S, c r) and
        # multiplies Phi by c^2, as the bound 1e-20 max(1, trace)^2 does
        # (trace(S) = sum(r) on a non-empty fiber)
        t = FiberTarget(c * base.operator, c * base.norms_sq)
        bound = 1e-20 * max(1.0, float(np.sum(t.norms_sq))) ** 2
        for seed in range(4):
            F = random_frame_on_fiber(t, seed)
            assert fiber_residual(F, t) <= bound
            assert np.array_equal(F, random_frame_on_fiber(t, seed))

    def test_missed_bound_raises(self, monkeypatch):
        # a projection that leaves the scrambled frame off the fiber is an error, not a fallback
        from fiberframe import design

        monkeypatch.setattr(design, "_newton", lambda F, target, opts: (F, None, None, None, None))
        with pytest.raises(RuntimeError, match="missed the fiber"):
            random_frame_on_fiber(FiberTarget.funtf(2, 4), seed=0)
