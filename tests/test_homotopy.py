import numpy as np
import pytest

from conftest import rand_hermitian, rand_unitary, tangent_part_bruteforce

from fiberframe import (
    ConnectError,
    ConnectOptions,
    FiberTarget,
    FramePath,
    connect,
    fiber_residual,
    frame_operator,
    gauge_align,
    norms_squared,
    random_frame_on_fiber,
    validate_path,
)
from fiberframe import homotopy
from fiberframe.homotopy import _tangent_kick


def _pair(target, seed_a, seed_b):
    return (
        random_frame_on_fiber(target, seed=seed_a),
        random_frame_on_fiber(target, seed=seed_b),
    )


class TestFramePath:
    def test_basic_accessors(self):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        path = FramePath(np.array([0.0, 1.0]), np.stack([F, F]), t)
        assert len(path) == 2
        times = [s for s, _ in path]
        assert times == [0.0, 1.0]
        assert np.all(path.residuals() <= 1e-18)
        assert path.step_norms() == pytest.approx([0.0])

    def test_rejects_bad_times(self):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        stack = np.stack([F, F])
        with pytest.raises(ValueError):
            FramePath(np.array([0.1, 1.0]), stack, t)
        with pytest.raises(ValueError):
            FramePath(np.array([0.0, 0.5]), stack, t)
        with pytest.raises(ValueError):
            FramePath(np.array([0.0, 0.0, 1.0]), np.stack([F, F, F]), t)

    def test_rejects_shape_mismatch(self):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        with pytest.raises(ValueError):
            FramePath(np.array([0.0, 1.0]), np.stack([F, F, F]), t)


class TestValidatePath:
    def test_detects_off_fiber_sample(self):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        path = connect(F0, F1, t)
        frames = path.frames.copy()
        frames[len(frames) // 2] *= 1.01
        bad = FramePath(path.times, frames, t)
        chk = validate_path(bad, tol=1e-8, delta=0.05)
        assert not chk and "residual" in chk.message

    def test_detects_oversized_step(self):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        path = connect(F0, F1, t)
        chk = validate_path(path, tol=1e-8, delta=1e-4)
        assert not chk and "step" in chk.message

    def test_detects_endpoint_mismatch(self):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        path = connect(F0, F1, t)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(F1, F0))
        assert not chk and "endpoints" in chk.message


class TestGaugeAlign:
    def test_recovers_left_unitary_on_tight_fiber(self):
        t = FiberTarget.funtf(2, 5)
        F = random_frame_on_fiber(t, seed=3)
        U = rand_unitary(np.random.default_rng(4), 2)
        G = gauge_align(F, U @ F, t.operator)
        assert np.linalg.norm(G - F) <= 1e-10 * np.linalg.norm(F)

    def test_never_worse_than_identity(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0, F1 = _pair(t, 5, 6)
        G = gauge_align(F0, F1, t.operator)
        assert np.linalg.norm(F0 - G) <= np.linalg.norm(F0 - F1) + 1e-12

    def test_preserves_fiber(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0, F1 = _pair(t, 7, 8)
        G = gauge_align(F0, F1, t.operator)
        assert np.linalg.norm(frame_operator(G) - t.operator) <= 1e-12
        assert np.max(np.abs(norms_squared(G) - t.norms_sq)) <= 1e-12

    def test_rejects_non_hermitian_operator(self):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        with pytest.raises(ValueError, match="Hermitian"):
            gauge_align(F0, F1, np.array([[2.0, 5.0], [0.0, 2.0]]))


class TestTangentKick:
    @pytest.mark.parametrize("k,N,seed", [(2, 4, 0), (4, 9, 1)])
    def test_size_normal_orthogonality_and_reference(self, k, N, seed):
        F = random_frame_on_fiber(FiberTarget.funtf(k, N), seed=seed)
        size = 1e-3
        T = _tangent_kick(np.random.default_rng(seed), F, size)
        assert np.linalg.norm(T) == pytest.approx(size, rel=1e-12)
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            for X in (rand_hermitian(rng, k) @ F, F * rng.standard_normal(N)[None, :]):
                assert abs(np.vdot(X, T).real) <= 1e-12 * np.linalg.norm(X) * size
        # same rng draw through the basis least-squares projection
        draw = np.random.default_rng(seed)
        G0 = draw.standard_normal((k, N)) + 1j * draw.standard_normal((k, N))
        ref = tangent_part_bruteforce(F, G0)
        ref *= size / np.linalg.norm(ref)
        assert np.linalg.norm(T - ref) <= 1e-12 * size


class TestConnect:
    def test_funtf_pair_validates(self):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        path = connect(F0, F1, t)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))
        assert chk.ok, chk.message
        assert np.array_equal(path.frames[0], F0)
        assert np.array_equal(path.frames[-1], F1)

    def test_distinct_spectrum_pair_validates(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0, F1 = _pair(t, 2, 9)
        path = connect(F0, F1, t)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))
        assert chk.ok, chk.message

    def test_deterministic(self):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        p1 = connect(F0, F1, t, ConnectOptions(seed=11))
        p2 = connect(F0, F1, t, ConnectOptions(seed=11))
        assert np.array_equal(p1.times, p2.times)
        assert np.array_equal(p1.frames, p2.frames)

    def test_identical_endpoints_short_circuit(self):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        path = connect(F, F, t)
        assert len(path) == 2
        assert np.array_equal(path.frames[0], F)

    def test_column_phase_pair(self):
        t = FiberTarget.funtf(2, 5)
        F0 = random_frame_on_fiber(t, seed=12)
        F1 = F0 * np.exp(1j * np.array([0.3, -1.1, 2.0, 0.0, 0.7]))
        path = connect(F0, F1, t)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))
        assert chk.ok, chk.message

    def test_off_fiber_endpoint_rejected(self):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        with pytest.raises(ValueError, match="off the fiber"):
            connect(1.01 * F0, F1, t)

    def test_shape_mismatch_rejected(self):
        t = FiberTarget.funtf(2, 4)
        F0 = random_frame_on_fiber(t, seed=0)
        F1 = random_frame_on_fiber(FiberTarget.funtf(2, 5), seed=0)
        with pytest.raises(ValueError):
            connect(F0, F1, t)

    def test_tight_delta_increases_samples(self):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        loose = connect(F0, F1, t, ConnectOptions(delta=0.1))
        tight = connect(F0, F1, t, ConnectOptions(delta=0.02))
        assert len(tight) > len(loose)
        for path, delta in ((loose, 0.1), (tight, 0.02)):
            chk = validate_path(path, tol=1e-8, delta=delta, endpoints=(F0, F1))
            assert chk.ok, chk.message

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ConnectOptions(path_tol=0.0)
        with pytest.raises(ValueError):
            ConnectOptions(delta=-1.0)
        with pytest.raises(ValueError):
            ConnectOptions(max_refine_depth=-1)

    def test_connect_error_carries_parameter(self):
        err = ConnectError("boom", t=0.25)
        assert err.t == 0.25

    @pytest.mark.parametrize("k", [3, 4])
    def test_square_funtf_pair_validates(self, k):
        # k = N: the fiber is a torsor of the unitary group, the gauge takes F1
        # almost onto F0 and the near-duplicate chord sample is pruned
        t = FiberTarget.funtf(k, k)
        F0, F1 = _pair(t, 0, 1)
        path = connect(F0, F1, t)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))
        assert chk.ok, chk.message
        assert np.min(path.step_norms()) > 1e-13 * np.linalg.norm(F0)


class TestConnectRecovery:
    """A sample whose projection is rejected is dropped and the bridge pass closes its gap."""

    @staticmethod
    def _reject_calls(monkeypatch, rejected):
        # project_to_fiber as connect sees it, returning an off-fiber frame on the calls in `rejected`
        seen = []
        real = homotopy.project_to_fiber

        def patched(X, target, options=None):
            seen.append(X)
            G, rep = real(X, target, options)
            return (2.0 * G if rejected(len(seen)) else G), rep

        monkeypatch.setattr(homotopy, "project_to_fiber", patched)
        return seen

    def test_rejected_chord_sample_is_bridged(self, monkeypatch):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        # call 3 projects the third chord sample, calls 4-8 its five tangent kicks
        seen = self._reject_calls(monkeypatch, lambda n: 3 <= n <= 8)
        path = connect(F0, F1, t)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))
        assert chk.ok, chk.message
        assert len(seen) > 8
        kick = 1e-4 * np.linalg.norm(F0)
        for X in seen[3:8]:
            assert np.linalg.norm(X - seen[2]) == pytest.approx(kick, rel=1e-9)

    @pytest.mark.parametrize(
        "target",
        [
            FiberTarget.funtf(2, 4),
            FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3)),
        ],
        ids=["funtf", "distinct_spectrum"],
    )
    def test_every_projection_rejected_raises_with_t(self, monkeypatch, target):
        F0, F1 = _pair(target, 2, 9)
        self._reject_calls(monkeypatch, lambda n: True)
        with pytest.raises(ConnectError) as info:
            connect(F0, F1, target)
        assert isinstance(info.value.t, float)
        assert 0.0 <= info.value.t <= 1.0
