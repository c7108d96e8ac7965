import numpy as np
import pytest
from numpy.testing import assert_allclose

from fiberframe import FiberTarget, as_spectrum, construct_frame, is_admissible


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
        with pytest.raises(ValueError, match="N >= k"):
            FiberTarget(operator=np.eye(3, dtype=complex), norms_sq=np.array([1.5, 1.5]))


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
