import numpy as np
import pytest
from numpy.testing import assert_allclose

from fiberframe import (
    FiberTarget,
    FlowOptions,
    InadmissibleError,
    alternate_projections,
    as_spectrum,
    construct_frame,
    construct_frame_with_operator,
    fiber_residual,
    is_admissible,
    random_frame_on_fiber,
)
from fiberframe._linalg import spectral_clusters


class TestSpectrum:
    def test_sorts_descending(self):
        assert_allclose(as_spectrum([1.0, 3.0, 2.0]), [3.0, 2.0, 1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            as_spectrum([1.0, 0.0])
        with pytest.raises(ValueError):
            as_spectrum([1.0, -2.0])
        with pytest.raises(ValueError):
            as_spectrum([])


class TestFiberTarget:
    def test_valid_target(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        assert t.k == 2 and t.N == 3
        assert_allclose(t.spectrum(), [2.0, 1.0])

    def test_empty_operator_rejected(self):
        with pytest.raises(ValueError, match="^operator must be non-empty$"):
            FiberTarget(np.zeros((0, 0)), [1.0])

    def test_arrays_are_read_only_copies(self):
        # the caller's arrays stay theirs and writable; writing the target's raises
        S, r = 2.0 * np.eye(2), np.ones(4)
        t = FiberTarget(S, r)
        F = random_frame_on_fiber(t, seed=0)
        r[0], S[0, 0] = 5.0, 7.0
        assert r.flags.writeable and S.flags.writeable
        assert np.array_equal(t.norms_sq, np.ones(4)) and np.array_equal(t.operator, 2.0 * np.eye(2))
        assert fiber_residual(F, t) <= 1e-20
        for a in (t.operator, t.norms_sq, *t._spectral[:2]):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize(
        "target",
        [
            FiberTarget.funtf(2, 4),
            FiberTarget.from_spectrum([3.0, 3.0, 1.0], np.ones(7)),
            FiberTarget(
                np.array([[2.0, 0.5 - 0.25j, 0.0], [0.5 + 0.25j, 1.5, 0.1j], [0.0, -0.1j, 1.0]]),
                np.full(5, 0.9),
            ),
            # a gap in the ambiguity band: no safe clustering
            FiberTarget(np.diag([1.0 + 5e-8, 1.0]).astype(complex), np.full(4, (2.0 + 5e-8) / 4)),
        ],
        ids=["funtf_2_4", "diag_3_3_1_N7", "generic_3_5", "ambiguity_band"],
    )
    def test_cached_decomposition_is_a_fresh_one(self, target):
        # generator outputs and benchmark inputs read the cached decomposition
        w, U, clusters = target._spectral
        w_new, U_new, clusters_new = spectral_clusters(target.operator)
        assert np.array_equal(w, w_new) and np.array_equal(U, U_new)
        assert clusters == clusters_new

    def test_funtf_factory(self):
        t = FiberTarget.funtf(3, 7)
        assert_allclose(t.operator, (7 / 3) * np.eye(3))
        assert_allclose(t.norms_sq, np.ones(7))

    def test_from_spectrum(self):
        t = FiberTarget.from_spectrum([1.0, 2.0], [1.0, 1.0, 1.0])
        assert_allclose(t.operator, np.diag([2.0, 1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            FiberTarget(operator=np.array([[1.0, 1.0], [0.0, 2.0]]), norms_sq=np.ones(3))

    def test_rejects_indefinite_operator(self):
        with pytest.raises(ValueError):
            FiberTarget(operator=np.diag([1.0, -1.0]).astype(complex), norms_sq=np.ones(2))

    def test_rejects_nonpositive_norms(self):
        with pytest.raises(ValueError):
            FiberTarget(operator=np.eye(2, dtype=complex), norms_sq=np.array([2.0, 0.0]))

    def test_rejects_trace_mismatch(self):
        with pytest.raises(ValueError):
            FiberTarget(operator=np.eye(2, dtype=complex), norms_sq=np.ones(3))

    def test_rejects_fewer_vectors_than_dimensions(self):
        # trace(S) = sum(r), but rank F <= N < k leaves the fiber empty
        with pytest.raises(InadmissibleError, match="^only 2 vectors for dimension 3$") as err:
            FiberTarget(operator=np.eye(3, dtype=complex), norms_sq=np.array([1.5, 1.5]))
        assert err.value.check.kind == "shape"

    @pytest.mark.parametrize("k,N", [(0, 3), (3, 2)])
    def test_funtf_rejects_bad_shape(self, k, N):
        with pytest.raises(ValueError, match="1 <= k <= N"):
            FiberTarget.funtf(k, N)

    @pytest.mark.parametrize(
        "k,N,name", [(2.0, 4, "k"), (2, 4.0, "N"), (True, 4, "k"), (2, "4", "N"), (-1, 4, "k")]
    )
    def test_funtf_needs_integer_sizes(self, k, N, name):
        # a float size leaked numpy's TypeError
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer"):
            FiberTarget.funtf(k, N)

    def test_funtf_accepts_numpy_integers(self):
        t = FiberTarget.funtf(np.int64(2), np.int32(4))
        assert (t.k, t.N) == (2, 4)

    def test_decomposition_is_immutable(self):
        # the clusters are a tuple of slices, so no part of the decomposition can be changed
        t = FiberTarget.from_spectrum([3.0, 3.0, 1.0], np.ones(7))
        assert isinstance(t._spectral, tuple)
        assert t._spectral[2] == (slice(0, 2), slice(2, 3))
        assert all(type(cl) is slice for cl in t._spectral[2])

    def test_repr(self):
        assert repr(FiberTarget.funtf(2, 4)) == "FiberTarget(k=2, N=4, trace=4)"


class TestPositiveVectorRule:
    # one rule decides spectra and squared norms for every entry point, so each
    # reports a bad vector with the same message
    BAD = pytest.mark.parametrize(
        "bad,message",
        [([], "must be non-empty"), ([1.0, 0.0], "entries must be strictly positive"),
         ([3.0, -1.0], "entries must be strictly positive")],
        ids=["empty", "zero", "negative"],
    )

    @BAD
    def test_spectrum(self, bad, message):
        calls = [
            lambda: as_spectrum(bad),
            lambda: FiberTarget.from_spectrum(bad, np.ones(4)),
            lambda: is_admissible(bad, np.ones(4)),
            lambda: construct_frame(bad, np.ones(4)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^spectrum {message}$"):
                call()

    @BAD
    def test_norms(self, bad, message):
        calls = [
            lambda: FiberTarget(operator=np.eye(2, dtype=complex), norms_sq=bad),
            lambda: is_admissible([1.0, 1.0], bad),
            lambda: construct_frame([1.0, 1.0], bad),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^norms_sq {message}$"):
                call()


class TestOneDecomposition:
    """The target's decomposition is the only one of its operator: each entry
    point takes the eigh and eigvalsh calls listed, by name and shape."""

    S = np.array([[2.0, 0.5 - 0.25j, 0.0], [0.5 + 0.25j, 1.5, 0.1j], [0.0, -0.1j, 1.0]])
    r = np.full(5, 0.9)

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for name in ("eigh", "eigvalsh"):

            def spy(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                seen.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        return seen

    def test_target_decomposes_once(self, calls):
        t = FiberTarget(self.S, self.r)
        assert calls == [("eigh", (3, 3))]
        calls.clear()
        assert np.array_equal(t.spectrum(), t._spectral[0])
        assert calls == []

    def test_construct_frame_takes_the_gram_eigh_alone(self, calls):
        construct_frame([2.0, 1.5, 1.0], self.r)
        assert calls == [("eigh", (5, 5))]

    def test_construct_frame_with_operator_decomposes_once(self, calls):
        construct_frame_with_operator(self.S, self.r)
        assert calls == [("eigh", (3, 3)), ("eigh", (5, 5))]

    def test_alternate_projections_reads_the_target(self, calls):
        t = FiberTarget(self.S, self.r)
        F = random_frame_on_fiber(t, seed=0) + 0.05
        calls.clear()
        _G, rep = alternate_projections(F, t, FlowOptions(max_iters=3))
        assert rep.iterations == 3 and calls == []
