import numpy as np
import pytest

from conftest import (
    connect_depth_first,
    rand_hermitian,
    rand_unitary,
    symmetry_gauge,
    symmetry_gauge_two_basis,
    tangent_part_bruteforce,
)

from fiberframe import (
    ClusteringError,
    ConnectError,
    ConnectOptions,
    ConnectReport,
    FiberTarget,
    FramePath,
    InadmissibleError,
    OffFiberError,
    connect,
    construct_frame,
    fiber_residual,
    flag_type,
    frame_operator,
    norms_squared,
    project_to_fiber,
    random_frame_on_fiber,
    validate_path,
)
from fiberframe import flows, homotopy
from fiberframe._linalg import COINCIDE_RTOL, spectral_clusters
from fiberframe.homotopy import _tangent_kick


def _bridge_only(monkeypatch):
    """Send every pair to the symmetry stage and bridge: the eigenstep route rule says no."""
    monkeypatch.setattr(homotopy, "_eigenstep_segment", lambda *args: None)


def _pair(target, seed_a, seed_b):
    return (
        random_frame_on_fiber(target, seed=seed_a),
        random_frame_on_fiber(target, seed=seed_b),
    )


# clustered spectra, a spread operator and norms at the majorization boundary
hard_fibers = pytest.mark.parametrize(
    "target",
    [
        FiberTarget.funtf(3, 7),
        FiberTarget.from_spectrum([4.0, 1.0], np.full(4, 1.25)),
        FiberTarget.from_spectrum([2.0 + 1e-9, 2.0 - 1e-9], np.ones(4)),
        FiberTarget.from_spectrum([2.0, 1.0], [2.0 - 1e-9, 0.5 + 5e-10, 0.5 + 5e-10]),
    ],
    ids=["funtf_3_7", "spread_N4", "gap_2e-9", "norm_at_top_eigenvalue"],
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

    def test_rejects_fewer_than_two_samples(self):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        with pytest.raises(ValueError, match="need at least two samples"):
            FramePath(np.array([0.0]), F[None], t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_times(self, bad):
        # a NaN time fails no ordering comparison, and write_path would write a
        # file that read_path rejects
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        with pytest.raises(ValueError, match="times contains non-finite entries"):
            FramePath(np.array([0.0, bad, 1.0]), np.stack([F, F, F]), t)

    def test_residuals_match_per_sample_residual(self):
        # the stacked residuals agree with the single-frame residual of every sample
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        rng = np.random.default_rng(7)
        F0 = random_frame_on_fiber(t, seed=1)
        Fs = np.stack([F0 + eps * rng.standard_normal(F0.shape) for eps in (0.0, 1e-6, 1e-3, 0.1)])
        path = FramePath(np.linspace(0.0, 1.0, 4), Fs, t)
        ref = np.array([fiber_residual(F, t) for F in Fs])
        assert np.allclose(path.residuals(), ref, rtol=1e-12, atol=1e-30)

    def test_step_norms_match_frobenius_norm(self):
        # each step is summed as np.linalg.norm sums one frame (at 8 x 64 a
        # pairwise sum of the squares would round differently)
        t = FiberTarget.funtf(8, 64)
        rng = np.random.default_rng(8)
        F0 = random_frame_on_fiber(t, seed=2)
        Fs = np.stack([F0 + eps * rng.standard_normal(F0.shape) for eps in (0.0, 1e-9, 1e-3, 0.5)])
        path = FramePath(np.linspace(0.0, 1.0, 4), Fs, t)
        assert np.array_equal(path.step_norms(), [np.linalg.norm(D) for D in np.diff(Fs, axis=0)])

    def test_residuals_reject_non_finite_sample(self):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        G = F.copy()
        G[1, 2] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            FramePath(np.array([0.0, 0.5, 1.0]), np.stack([F, G, F]), t)

    def test_validation_fails_a_sample_made_non_finite_later(self):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        path = FramePath(np.array([0.0, 0.5, 1.0]), np.stack([F, F, F]), t)
        assert validate_path(path, delta=10.0)
        path.frames[1, 0, 0] = np.nan
        check = validate_path(path, delta=10.0)
        assert not check and "sample residual nan" in check.message

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

    @pytest.mark.parametrize(
        "kwargs", [{"tol": np.nan}, {"tol": -1.0}, {"tol": 0.0}, {"tol": np.inf}, {"delta": np.nan}, {"delta": -0.05}]
    )
    def test_rejects_bad_tolerances(self, kwargs):
        # the rule of ConnectOptions: a NaN or negative tol would pass any residual
        t = FiberTarget.funtf(2, 4)
        path = connect(*_pair(t, 0, 1), t)
        bad = FramePath(path.times, 3.0 * path.frames, t)
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be finite and > 0"):
            validate_path(bad, **kwargs)

    def test_detects_endpoint_mismatch(self):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        path = connect(F0, F1, t)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(F1, F0))
        assert not chk and "endpoints" in chk.message

    @pytest.mark.parametrize("shape", [(1, 4), (2, 1)])
    @pytest.mark.parametrize("end", [0, 1])
    def test_endpoint_shape_must_match_path(self, shape, end):
        # a (1, N) or (k, 1) endpoint would broadcast against the samples
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        path = connect(F0, F1, t)
        ends = [F0, F1]
        ends[end] = ends[end][: shape[0], : shape[1]]
        message = rf"frame shape \({shape[0]}, {shape[1]}\) does not match target \(2, 4\)"
        with pytest.raises(ValueError, match=message):
            validate_path(path, endpoints=tuple(ends))


def _commutant_alignment(F0, F1, target):
    """The block-Procrustes alignment of F1 to F0 over U(k)_S alone, in the eigenbasis."""
    _w, U, clusters = target._spectral
    Uh = U.conj().T
    return U @ homotopy._block_procrustes(Uh @ F0, Uh @ F1, clusters or ()) @ Uh @ F1


class TestGaugeAlign:
    """The commutant part of connect's gauge, U(k)_S without the column phases."""

    def test_recovers_left_unitary_on_tight_fiber(self):
        # S = c I commutes with every unitary, so U(k)_S is all of U(k)
        t = FiberTarget.funtf(2, 5)
        F = random_frame_on_fiber(t, seed=3)
        U = rand_unitary(np.random.default_rng(4), 2)
        G = _commutant_alignment(F, U @ F, t)
        assert np.linalg.norm(G - F) <= 1e-10 * np.linalg.norm(F)

    def test_never_worse_than_identity(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0, F1 = _pair(t, 5, 6)
        G = _commutant_alignment(F0, F1, t)
        assert np.linalg.norm(F0 - G) <= np.linalg.norm(F0 - F1) + 1e-12

    def test_preserves_fiber(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0, F1 = _pair(t, 7, 8)
        G = _commutant_alignment(F0, F1, t)
        assert np.linalg.norm(frame_operator(G) - t.operator) <= 1e-12
        assert np.max(np.abs(norms_squared(G) - t.norms_sq)) <= 1e-12


class TestSymmetryGauge:
    """connect aligns F1 over the commutant unitaries and the column phases."""

    def test_recovers_left_unitary_on_tight_fiber(self):
        t = FiberTarget.funtf(2, 5)
        F = random_frame_on_fiber(t, seed=3)
        U = rand_unitary(np.random.default_rng(4), 2)
        V, phi = symmetry_gauge(F, U @ F, t)
        assert np.linalg.norm(V @ U @ F * np.exp(1j * phi) - F) <= 1e-10 * np.linalg.norm(F)

    def test_never_worse_than_identity(self):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0, F1 = _pair(t, 5, 6)
        V, phi = symmetry_gauge(F0, F1, t)
        assert np.linalg.norm(F0 - V @ F1 * np.exp(1j * phi)) <= np.linalg.norm(F0 - F1) + 1e-12

    @hard_fibers
    @pytest.mark.parametrize("seed", range(3))
    def test_never_farther_than_commutant_alignment(self, target, seed):
        F0, F1 = _pair(target, 2 * seed, 2 * seed + 1)
        V, phi = symmetry_gauge(F0, F1, target)
        aligned = V @ F1 * np.exp(1j * phi)
        commutant_only = _commutant_alignment(F0, F1, target)
        assert np.linalg.norm(F0 - aligned) <= np.linalg.norm(F0 - commutant_only) * (1.0 + 1e-12)
        # V F1 D stays on the fiber up to the cluster widths
        assert fiber_residual(aligned, target) <= 1e-16


class TestAmbiguityBand:
    # the relative eigenvalue gap 5e-8 lies between the merge threshold 1e-8
    # and the split threshold 1e-7, so the spectrum has no safe clustering
    target = FiberTarget(np.diag([1.0 + 5e-8, 1.0]).astype(complex), np.full(4, (2.0 + 5e-8) / 4))

    def test_spectrum_has_no_clusters(self):
        assert spectral_clusters(self.target.operator)[2] is None

    def test_flag_type_raises(self):
        with pytest.raises(ClusteringError, match="ambiguity band") as exc:
            flag_type(self.target.operator)
        assert "cluster_tol" not in str(exc.value)

    def test_random_frame_on_fiber_stays_on_fiber(self):
        for seed in range(3):
            assert fiber_residual(random_frame_on_fiber(self.target, seed=seed), self.target) <= 1e-20

    def test_connect_falls_back_to_identity_gauge(self):
        F0, F1 = _pair(self.target, 0, 1)
        assert np.array_equal(symmetry_gauge(F0, F1, self.target)[0], np.eye(2))
        path = connect(F0, F1, self.target)
        assert validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))


class TestEigenbasisGauge:
    """connect aligns block by block in its target's eigenbasis, with the V and
    phi of the two-basis reference."""

    @pytest.mark.parametrize(
        "target",
        [
            FiberTarget.funtf(2, 4),
            FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3)),
            FiberTarget.from_spectrum([3.0, 3.0, 1.0], np.ones(7)),
            TestAmbiguityBand.target,
        ],
        ids=["funtf_2_4", "diag_2_1_N3", "diag_3_3_1_N7", "ambiguity_band"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_two_basis_reference(self, target, seed):
        F0, F1 = _pair(target, 2 * seed, 2 * seed + 1)
        V_ref, phi_ref = symmetry_gauge_two_basis(F0, F1, target.operator)
        _w, U, clusters = target._spectral
        Uh = U.conj().T
        V, phi = homotopy._eigen_gauge(Uh @ F0, Uh @ F1, clusters or ())
        assert np.linalg.norm(U @ V @ Uh - V_ref) <= 1e-13
        assert np.max(np.abs(phi - phi_ref)) <= 1e-13
        if clusters is None:
            # no safe clustering: V is the identity
            assert np.array_equal(V, np.eye(target.k))

    def test_one_by_one_block_is_a_phase(self):
        # row 0 of A is orthogonal to row 0 of B, so its block is 1
        A = np.array([[1.0, 0.0], [1j, 0.0]])
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        V = homotopy._block_procrustes(A, B, [slice(0, 1), slice(1, 2)])
        assert V[0, 0] == 1.0
        assert np.max(np.abs(V - np.diag([1.0, 1j]))) <= 1e-15

    def test_block_log_factors_each_block(self):
        rng = np.random.default_rng(3)
        V = np.zeros((3, 3), dtype=complex)
        V[:2, :2], V[2, 2] = rand_unitary(rng, 2), np.exp(2.5j)
        Z, theta = homotopy._block_log(V, [slice(0, 2), slice(2, 3)])
        assert np.array_equal(Z[2], [0, 0, 1]) and np.array_equal(Z[:, 2], [0, 0, 1])
        assert theta[2] == pytest.approx(2.5, rel=1e-15)
        assert np.linalg.norm((Z * np.exp(1j * theta)) @ Z.conj().T - V) <= 1e-14
        assert np.all(np.abs(theta) <= np.pi)


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

    def test_zero_draw_gives_zero_kick(self):
        # a draw with no tangent part has no direction to scale to `size`
        class Zeros:
            def standard_normal(self, shape):
                return np.zeros(shape)

        F = random_frame_on_fiber(FiberTarget.funtf(2, 4), seed=0)
        T = _tangent_kick(Zeros(), F, 1e-3)
        assert T.dtype == F.dtype and np.array_equal(T, np.zeros_like(F))


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
        # the exact torus unwind alone joins F0 to F1 = F0 D
        assert path.report.projections == 0

    def test_off_fiber_endpoint_rejected(self):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        with pytest.raises(ValueError, match="off the fiber"):
            connect(1.01 * F0, F1, t)

    @pytest.mark.parametrize("index", [0, 1])
    def test_off_fiber_endpoint_raises_typed_error(self, index):
        t = FiberTarget.funtf(2, 4)
        ends = list(_pair(t, 0, 1))
        ends[index] = 1.01 * ends[index]
        with pytest.raises(OffFiberError, match=f"^F{index} is off the fiber") as exc:
            connect(*ends, t)
        assert exc.value.index == index
        assert exc.value.residual == fiber_residual(ends[index], t)

    def test_empty_fiber_raises_its_certificate(self):
        # no frame lies on diag(1.5, 0.5) with r = (1.9, 0.05, 0.05), so an
        # endpoint off it is not the cause; the certificate is the one the
        # target computed, read only once an endpoint has failed
        t = FiberTarget(np.diag([1.5, 0.5]), [1.9, 0.05, 0.05])
        F = np.array([[1.0, 0.1, 0.0], [0.0, 0.2, 0.3]], dtype=complex)
        with pytest.raises(InadmissibleError, match="^partial sum violated at ell=1") as exc:
            connect(F, F, t)
        assert exc.value.check.kind == "partial_sum" and exc.value.check.index == 1
        assert exc.value.check is t.admissibility
        t = FiberTarget.funtf(2, 4)
        assert len(connect(*_pair(t, 0, 1), t)) > 2

    def test_off_fiber_first_endpoint_reported_before_second_shape(self):
        # F0 is checked in full before F1 is read
        t = FiberTarget.funtf(2, 4)
        F0 = 1.01 * random_frame_on_fiber(t, seed=0)
        F1 = random_frame_on_fiber(FiberTarget.funtf(2, 5), seed=0)
        with pytest.raises(OffFiberError) as exc:
            connect(F0, F1, t)
        assert exc.value.index == 0

    @pytest.mark.parametrize("same", [False, True], ids=["pair", "identical_endpoints"])
    def test_check_is_validate_path_of_the_run(self, same):
        # identical endpoints take the early return, which is validated too
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        F1 = F0 if same else F1
        opts = ConnectOptions(path_tol=1e-7, delta=0.08)
        path = connect(F0, F1, t, opts)
        assert path.check == validate_path(path, tol=1e-7, delta=0.08, endpoints=(F0, F1))
        assert path.check.ok

    def test_early_return_fails_validation_under_tiny_delta(self):
        # F1 is on the fiber 5.6e-13 ||F0|| from F0, within the coincidence
        # rule, but the one step [F0, F1] is wider than delta ||F0||
        t = FiberTarget.funtf(2, 4)
        F0 = random_frame_on_fiber(t, seed=0)
        F1 = F0 * np.exp(1j * 3e-13 * np.arange(4))
        assert np.linalg.norm(F1 - F0) <= COINCIDE_RTOL * np.linalg.norm(F0)
        with pytest.raises(ConnectError, match="traced path failed validation: step") as exc:
            connect(F0, F1, t, ConnectOptions(delta=1e-14))
        assert exc.value.t is None

    def test_shape_mismatch_rejected(self):
        t = FiberTarget.funtf(2, 4)
        F0 = random_frame_on_fiber(t, seed=0)
        F1 = random_frame_on_fiber(FiberTarget.funtf(2, 5), seed=0)
        with pytest.raises(ValueError):
            connect(F0, F1, t)

    @pytest.mark.parametrize("wrong", ["F0", "F1", "both"])
    def test_endpoint_shape_must_match_target(self, wrong):
        t = FiberTarget.funtf(2, 4)
        F = random_frame_on_fiber(t, seed=0)
        G = random_frame_on_fiber(FiberTarget.funtf(2, 5), seed=0)
        F0, F1 = (G if wrong in ("F0", "both") else F), (G if wrong in ("F1", "both") else F)
        with pytest.raises(ValueError, match=r"frame shape \(2, 5\) does not match target \(2, 4\)"):
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

    @pytest.mark.parametrize(
        "kwargs",
        [{"path_tol": np.nan}, {"path_tol": np.inf}, {"path_tol": -1e-8}, {"path_tol": "1e-8"},
         {"delta": np.nan}, {"delta": np.inf}, {"delta": 0.0},
         {"seed": 1.5}, {"seed": True}, {"seed": -1}, {"seed": "1"}],
    )
    def test_options_reject_bad_values(self, kwargs):
        # each field named in the error, before any work is done
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be"):
            ConnectOptions(**kwargs)

    @pytest.mark.parametrize("name", ["path_tol", "delta"])
    def test_options_reject_bool(self, name):
        # True passed as 1.0, while seed rejected a bool
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            ConnectOptions(**{name: True})

    @pytest.mark.parametrize("name", ["tol", "delta"])
    def test_validate_path_rejects_bool(self, name):
        t = FiberTarget.funtf(2, 4)
        path = FramePath(np.array([0.0, 1.0]), np.stack(_pair(t, 0, 0)), t)
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            validate_path(path, **{name: True})

    def test_options_accept_numpy_scalars(self):
        opts = ConnectOptions(path_tol=np.float64(1e-8), delta=np.float32(0.05), seed=np.int64(3))
        assert opts.seed == 3

    def test_report_counts(self, monkeypatch):
        # rounds, rows projected and their Newton iterations of one small fixed path
        _bridge_only(monkeypatch)
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        path = connect(F0, F1, t)
        assert len(path) == 62
        assert path.report == ConnectReport(
            projections=15, newton_iterations=45, kicks=0, levels=1, unwind=45, unwind_dropped=0
        )
        again = connect(F0, F1, t, ConnectOptions(seed=7))
        assert again.report == path.report
        assert connect(F0, F0, t).report == ConnectReport()

    @pytest.mark.parametrize("path_tol", [1e-8, 1e-6])
    def test_projections_stop_at_the_acceptance_bound(self, monkeypatch, path_tol):
        # a bridge projection runs to the bound connect accepts a sample at,
        # half of path_tol^2, and every returned sample meets it
        _bridge_only(monkeypatch)
        real, tols = homotopy._newton, []

        def spy(X, target, opts):
            tols.append(opts.tol)
            return real(X, target, opts)

        monkeypatch.setattr(homotopy, "_newton", spy)
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0, F1 = _pair(t, 2, 9)
        path = connect(F0, F1, t, ConnectOptions(path_tol=path_tol))
        assert tols and set(tols) == {0.5 * path_tol**2}
        assert np.max(path.residuals()) <= 0.5 * path_tol**2

    def test_off_fiber_unwind_samples_dropped(self):
        # the commutant of a merged eigenvalue cluster of width 1e-8 moves S by
        # up to that width, so some unwind samples miss the accept filter;
        # the path is bridged around them
        t = FiberTarget.from_spectrum([2.0 + 5e-9, 2.0 - 5e-9], np.ones(4))
        F0, F1 = _pair(t, 0, 1)
        path = connect(F0, F1, t)
        assert validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))
        assert path.report.unwind > 0 and path.report.unwind_dropped > 0

    def test_unwind_steps_by_arc_length(self, monkeypatch):
        # V = exp(0.9 pi i) I and D = exp(0.9 pi i) I wind the same way: the
        # aligned endpoint V F1 D = exp(-0.2 pi i) F1 is 0.62 ||F1|| from F1,
        # but the unwind over these angles is 1.8 pi ||F1|| long, L / reach
        # = 9.2. Shifting the column angles by a whole turn gives the same
        # ends and length 0.2 pi ||F1||, cut into steps of arc at most delta;
        # every unwind sample is exact and no gap between them is bridged
        _bridge_only(monkeypatch)
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        angle = 0.9 * np.pi
        V = np.exp(1j * angle) * np.eye(2)
        monkeypatch.setattr(homotopy, "_eigen_gauge", lambda *args: (V, np.full(4, angle)))
        path = connect(F0, F1, t)
        step = 0.05 * np.linalg.norm(F0)
        n = int(np.ceil(0.2 * np.pi * np.linalg.norm(F1) / step))
        assert path.report.unwind == n and path.report.unwind_dropped == 0
        u = 1.0 - np.arange(n) / n
        unwind = np.exp(-0.2j * np.pi * u)[:, None, None] * F1
        tail = path.frames[-n - 1 :]
        assert np.max(np.linalg.norm(tail[:-1] - unwind, axis=(1, 2))) <= 1e-14 * np.linalg.norm(F0)
        assert np.max(np.linalg.norm(np.diff(tail, axis=0), axis=(1, 2))) <= step
        assert validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))

    def test_report_unwind_length(self, monkeypatch):
        # the unwind of test_unwind_steps_by_arc_length after its whole-turn
        # shift: exp(-0.2 pi i s) F1 over s in [0, 1], of length 0.2 pi ||F1||
        _bridge_only(monkeypatch)
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        angle = 0.9 * np.pi
        V = np.exp(1j * angle) * np.eye(2)
        monkeypatch.setattr(homotopy, "_eigen_gauge", lambda *args: (V, np.full(4, angle)))
        length = connect(F0, F1, t).report.unwind_length
        assert length == pytest.approx(0.2 * np.pi * np.linalg.norm(F1) / np.linalg.norm(F0), rel=1e-13)
        # no unwind, no length
        monkeypatch.setattr(homotopy, "_eigen_gauge", lambda *args: (np.eye(2), np.zeros(4)))
        assert connect(F0, F1, t).report.unwind_length == 0.0

    def test_level_split_into_runs_gives_same_path(self, monkeypatch):
        # a level larger than the memory cap is projected in several runs,
        # here one row each, with the same samples and counts
        _bridge_only(monkeypatch)
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0, F1 = _pair(t, 2, 9)
        whole = connect(F0, F1, t)
        runs = []
        real = flows._normal_preimage

        def spy(F, R, b, tol=None):
            runs.append(len(F))
            return real(F, R, b, tol)

        # the kernel solves a stack over the cap in runs, each by a call of
        # its module name: one run of one row per Newton step
        monkeypatch.setattr(flows, "_STACK_BYTES", 1)
        monkeypatch.setattr(flows, "_normal_preimage", spy)
        split = connect(F0, F1, t)
        assert max(runs) == 1 and len(runs) == whole.report.newton_iterations
        assert len(split) == len(whole)
        assert np.max(np.linalg.norm(split.frames - whole.frames, axis=(1, 2))) <= 1e-12 * np.linalg.norm(F0)
        assert split.report == whole.report

    def test_round_cuts_gap_by_its_width(self, monkeypatch):
        # the chord F0 to V F1 D is 15.7 delta wide at delta = 0.05, so the
        # first round cuts it into 16 pieces; at 0.03 it is 26.2 delta wide and
        # the cap of four levels cuts it into 16 pieces too. The next round
        # leaves a piece of width at most delta whole, cuts one in
        # (delta, 2 delta] at its midpoint and one in (2 delta, 4 delta] into
        # quarters
        _bridge_only(monkeypatch)
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0, F1 = _pair(t, 2, 9)
        real = homotopy._newton
        V, phi = symmetry_gauge(F0, F1, t)
        E = V @ F1 * np.exp(1j * phi)
        tol = 1e-14 * np.linalg.norm(F0)
        for delta, cuts in ((0.05, {1, 2}), (0.03, {2, 4})):
            stacks = []

            def spy(X, target, opts):
                out = real(X, target, opts)
                stacks.append((X.copy(), out[0].copy()))
                return out

            monkeypatch.setattr(homotopy, "_newton", spy)
            connect(F0, F1, t, ConnectOptions(delta=delta))
            step = delta * np.linalg.norm(F0)
            first, projected = stacks[0]
            assert len(first) == 15
            chord = F0 + np.arange(1, 16)[:, None, None] / 16 * (E - F0)
            assert np.max(np.linalg.norm(first - chord, axis=(1, 2))) <= tol
            ends = [F0, *projected, E]
            widths = [np.linalg.norm(B - A) / step for A, B in zip(ends, ends[1:])]
            assert all(w <= 4.0 for w in widths)
            pieces = [1 if w <= 1.0 else 2 if w <= 2.0 else 4 for w in widths]
            assert set(pieces) == cuts
            expected = []
            for A, B, m in zip(ends, ends[1:], pieces):
                expected += [A + (j / m) * (B - A) for j in range(1, m)]
            second = stacks[1][0][: len(expected)]
            assert np.max(np.linalg.norm(second - np.array(expected), axis=(1, 2))) <= tol

    def test_connect_error_carries_parameter(self):
        err = ConnectError("boom", t=0.25)
        assert err.t == 0.25

    @pytest.mark.parametrize("k", [3, 4])
    def test_square_funtf_pair_validates(self, k):
        # k = N: the fiber is a torsor of the unitary group, the gauge takes F1
        # almost onto F0 and the near-duplicate aligned sample V F1 is pruned
        t = FiberTarget.funtf(k, k)
        F0, F1 = _pair(t, 0, 1)
        path = connect(F0, F1, t)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))
        assert chk.ok, chk.message
        assert np.min(path.step_norms()) > 1e-13 * np.linalg.norm(F0)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("symmetry", ["unitary", "phases"])
    def test_symmetry_image_of_near_duplicate(self, c, symmetry):
        # F1 is a symmetry image of F0', a fiber point about 4e-13 ||F0|| from
        # F0, so the aligned endpoint V F1 D coincides with F0 by the relative
        # rule at every scale and is dropped; no two samples are that close
        t = FiberTarget.funtf(3, 7)
        F0 = random_frame_on_fiber(t, seed=1)
        rng = np.random.default_rng(1)
        F0p, _rep = project_to_fiber(F0 + _tangent_kick(rng, F0, 5e-13 * np.linalg.norm(F0)), t)
        if symmetry == "unitary":
            F1 = rand_unitary(rng, 3) @ F0p
        else:
            F1 = F0p * np.exp(1j * rng.uniform(-np.pi, np.pi, 7))
        V, phi = symmetry_gauge(F0, F1, t)
        aligned = np.linalg.norm(V @ F1 * np.exp(1j * phi) - F0) / np.linalg.norm(F0)
        assert 1e-13 < aligned < COINCIDE_RTOL
        scaled = FiberTarget(c * c * t.operator, c * c * t.norms_sq)
        path = connect(c * F0, c * F1, scaled)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(c * F0, c * F1))
        assert chk.ok, chk.message
        assert np.min(path.step_norms()) > COINCIDE_RTOL * np.linalg.norm(c * F0)

    @hard_fibers
    @pytest.mark.parametrize("seed", range(3))
    def test_hard_fiber_pair_validates(self, target, seed):
        F0, F1 = _pair(target, 2 * seed, 2 * seed + 1)
        path = connect(F0, F1, target)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))
        assert chk.ok, chk.message

    # at 2e-4 the chord from F0 to the aligned endpoint needs more than 4,096
    # steps, so a bridge depth budget counted from the top instead of beyond
    # the gap's nominal halvings would fail here
    @pytest.mark.parametrize("delta", [1e-3, 2e-4])
    def test_small_delta_pair_validates(self, delta):
        t = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))
        F0, F1 = _pair(t, 2, 9)
        path = connect(F0, F1, t, ConnectOptions(delta=delta))
        chk = validate_path(path, tol=1e-8, delta=delta, endpoints=(F0, F1))
        assert chk.ok, chk.message


class TestConnectPathOrder:
    """The round-by-round bridge gives the samples of the depth-first recursive
    bridge, with one projection per chord point, in the same order."""

    @pytest.mark.parametrize(
        "target",
        [
            FiberTarget.funtf(2, 4),
            FiberTarget.funtf(2, 5),
            FiberTarget.funtf(2, 6),
            FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3)),
        ],
        ids=["funtf_2_4", "funtf_2_5", "funtf_2_6", "diag_2_1_N3"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_depth_first_bridge(self, monkeypatch, target, seed):
        _bridge_only(monkeypatch)
        F0, F1 = _pair(target, 2 * seed + 40, 2 * seed + 41)
        path = connect(F0, F1, target)
        ref = connect_depth_first(F0, F1, target)
        assert len(path) == len(ref)
        assert np.max(np.linalg.norm(path.frames - ref, axis=(1, 2))) <= 1e-12 * np.linalg.norm(F0)


class TestConnectEquivariance:
    """F -> U F D (U unitary commuting with S, D diagonal phases) maps the fiber
    onto itself, and connect maps the path with it."""

    @pytest.mark.parametrize(
        "target,haar",
        [
            (FiberTarget.funtf(2, 4), True),
            (FiberTarget.funtf(3, 7), True),
            (FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3)), False),
        ],
        ids=["funtf_2_4", "funtf_3_7", "diag_2_1_N3"],
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_symmetry_maps_path(self, target, haar, seed):
        F0, F1 = _pair(target, 2 * seed, 2 * seed + 1)
        rng = np.random.default_rng(50 + seed)
        k, N = target.k, target.N
        # a scaled-identity S commutes with every unitary; diag(2, 1) only with diagonal phases
        U = rand_unitary(rng, k) if haar else np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, k)))
        D = np.exp(1j * rng.uniform(-np.pi, np.pi, N))
        path = connect(F0, F1, target)
        moved = connect(U @ F0 * D, U @ F1 * D, target)
        assert len(moved) == len(path)
        expected = (U @ path.frames) * D
        assert np.max(np.linalg.norm(moved.frames - expected, axis=(1, 2))) <= 1e-10 * np.linalg.norm(F0)


# the four fibers of connectivity criterion 7 and of the connect-k2 benchmark
k2_fibers = pytest.mark.parametrize(
    "target",
    [
        FiberTarget.funtf(2, 4),
        FiberTarget.funtf(2, 5),
        FiberTarget.funtf(2, 6),
        FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3)),
    ],
    ids=["funtf_2_4", "funtf_2_5", "funtf_2_6", "diag_2_1_N3"],
)


class TestEigenstepRoute:
    """At k = 2 connect moves straight in eigenstep coordinates, projecting nothing."""

    @k2_fibers
    def test_coordinates_rebuild_each_endpoint(self, target):
        for seed in range(10):
            F0, F1 = _pair(target, seed, seed + 10)
            ends = homotopy._eigenstep_segment(F0, F1, target)(np.array([0.0, 1.0]))
            assert np.linalg.norm(ends[0] - F0) <= 1e-12 * np.linalg.norm(F0)
            assert np.linalg.norm(ends[1] - F1) <= 1e-12 * np.linalg.norm(F1)

    @k2_fibers
    @pytest.mark.parametrize("seed", range(3))
    def test_route_projects_nothing(self, target, seed):
        F0, F1 = _pair(target, 2 * seed, 2 * seed + 1)
        path = connect(F0, F1, target)
        assert path.report.route == "eigensteps" and path.report.levels > 0
        assert path.report == ConnectReport(route="eigensteps", levels=path.report.levels)
        assert np.max(path.residuals()) <= 0.5 * ConnectOptions.path_tol**2
        assert np.array_equal(path.frames[0], F0) and np.array_equal(path.frames[-1], F1)
        assert validate_path(path, endpoints=(F0, F1))

    @pytest.mark.parametrize(
        "target",
        [FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3)), FiberTarget.funtf(2, 4)],
        ids=["diag_2_1_N3", "funtf_2_4"],
    )
    def test_samples_exact_at_every_scale(self, target):
        # F -> sqrt(c) F maps the fiber of (S, r) onto that of (c S, c r). The
        # bridge's absolute path_tol loosens as c falls: on these pairs its
        # samples sat up to 2e-5 of the trace off the fiber at c = 1e-4 and
        # 0.1 at c = 1e-8, and route samples sit within 3e-15 at every c
        F0, F1 = _pair(target, 0, 1)
        lengths = set()
        for c in (1e-8, 1e-4, 1.0, 1e2):
            scaled = FiberTarget(c * target.operator, c * target.norms_sq)
            path = connect(np.sqrt(c) * F0, np.sqrt(c) * F1, scaled)
            assert path.report.route == "eigensteps"
            trace = c * float(np.sum(target.norms_sq))
            assert np.sqrt(np.max(path.residuals())) / trace <= 1e-13
            lengths.add(len(path))
        assert len(lengths) == 1

    @pytest.mark.parametrize("case", ["gapless_endpoint", "near_cluster", "N_above_crossover", "k_3"])
    def test_rule_sends_pair_to_the_bridge(self, case):
        # construct_frame's FUNTF(2, 4) is orthodecomposable: its first two
        # columns are parallel, so lam_2 = (2, 0) keeps the 0 of lam_1 = (1, 0),
        # a zero interlacing gap that the fiber does not force. Then a merged
        # cluster that is not exactly scalar (the near-cluster target of
        # test_off_fiber_unwind_samples_dropped), N above the crossover, k = 3
        if case == "gapless_endpoint":
            target = FiberTarget.funtf(2, 4)
            F0, F1 = construct_frame([2.0, 2.0], np.ones(4)), random_frame_on_fiber(target, seed=1)
        else:
            target = {
                "near_cluster": lambda: FiberTarget.from_spectrum([2.0 + 5e-9, 2.0 - 5e-9], np.ones(4)),
                "N_above_crossover": lambda: FiberTarget.funtf(2, homotopy._EIGENSTEP_MAX_N + 1),
                "k_3": lambda: FiberTarget.funtf(3, 7),
            }[case]()
            F0, F1 = _pair(target, 0, 1)
        assert homotopy._eigenstep_segment(F0, F1, target) is None
        path = connect(F0, F1, target)
        assert path.report.route == "bridge"
        assert validate_path(path, endpoints=(F0, F1))

    def test_route_out_of_rounds_takes_the_bridge(self, monkeypatch):
        # with no rounds beyond its first the route leaves steps wider than
        # delta on this pair, gives up, and the bridge (one round) joins it
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        monkeypatch.setattr(homotopy, "_EXTRA_DEPTH", 0)
        path = connect(F0, F1, t)
        assert path.report.route == "bridge" and path.report.levels == 1
        assert validate_path(path, endpoints=(F0, F1))

    def test_route_path_failing_validation_takes_the_bridge(self, monkeypatch):
        # a route whose samples leave the fiber is validated, refused, and the
        # pair is bridged as if the rule had said no
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        real = homotopy._eigenstep_segment
        monkeypatch.setattr(homotopy, "_eigenstep_segment", lambda *args: lambda s: 1.01 * real(*args)(s))
        path = connect(F0, F1, t)
        _bridge_only(monkeypatch)
        bridged = connect(F0, F1, t)
        assert path.report.route == "bridge" and path.report == bridged.report
        assert np.array_equal(path.frames, bridged.frames)


class TestConnectRecovery:
    """A bridge midpoint whose projection is rejected is retried with seeded tangent kicks."""

    @staticmethod
    def _reject_rows(monkeypatch, rejected):
        # the stacked Newton projection as connect sees it; rows are numbered
        # from 1 in projection order, calls from 1, and a row with
        # rejected(row, call) comes back doubled, off the fiber, with its residual
        _bridge_only(monkeypatch)
        calls = []
        real = homotopy._newton

        def patched(X, target, opts):
            G, phi, *rest = real(X, target, opts)
            first = sum(len(c) for c in calls) + 1
            calls.append(X.copy())
            for r in range(len(X)):
                if rejected(first + r, len(calls)):
                    G[r] *= 2.0
                    phi[r] = fiber_residual(G[r], target)
            return (G, phi, *rest)

        monkeypatch.setattr(homotopy, "_newton", patched)
        return calls

    def test_rejected_midpoint_recovered_by_kick(self, monkeypatch):
        t = FiberTarget.funtf(2, 4)
        F0, F1 = _pair(t, 0, 1)
        # row 3 is a chord point of the first round; it and the next four
        # calls, its first four tangent kicks (a stack of one each), are
        # rejected, and the fifth kick is accepted; that round closes the path
        hit = []

        def rejected(row, call):
            if row == 3:
                hit.append(call)
            return row == 3 or (bool(hit) and hit[0] < call <= hit[0] + 4)

        calls = self._reject_rows(monkeypatch, rejected)
        path = connect(F0, F1, t)
        chk = validate_path(path, tol=1e-8, delta=0.05, endpoints=(F0, F1))
        assert chk.ok, chk.message
        c = hit[0]
        assert len(calls) == c + 5
        assert path.report.kicks == 5
        point = np.concatenate(calls)[2]
        kick = 1e-4 * np.linalg.norm(F0)
        for X in calls[c : c + 5]:
            assert len(X) == 1
            assert np.linalg.norm(X[0] - point) == pytest.approx(kick, rel=1e-9)

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
        self._reject_rows(monkeypatch, lambda row, call: True)
        with pytest.raises(ConnectError) as info:
            connect(F0, F1, target)
        assert isinstance(info.value.t, float)
        assert 0.0 <= info.value.t <= 1.0


class TestConnectFailures:
    """connect's two bridge failures raise ConnectError with the chord parameter of the failing gap."""

    target = FiberTarget(operator=np.diag([2.0, 1.0]).astype(complex), norms_sq=np.ones(3))

    def test_depth_budget_exhausted_raises(self, monkeypatch):
        # the chord F0 to V F1 D needs four halvings, one round, and closes in
        # two; at _EXTRA_DEPTH = 0 one round runs, after which its fourth
        # sixteenth [3/16, 1/4] is the first piece still open
        _bridge_only(monkeypatch)
        F0, F1 = _pair(self.target, 2, 9)
        monkeypatch.setattr(homotopy, "_EXTRA_DEPTH", 0)
        with pytest.raises(ConnectError, match="exceeded depth") as info:
            connect(F0, F1, self.target)
        assert info.value.t == 0.21875

    def test_projection_onto_neighbour_raises_no_progress(self, monkeypatch):
        # every midpoint is "projected" onto F0, so the chord's first midpoint
        # leaves the gap F0 to V F1 D as wide as it was
        _bridge_only(monkeypatch)
        F0, F1 = _pair(self.target, 2, 9)

        def onto_F0(X, target, opts):
            # _newton's (frames, phi, iterations, trace, stalled), every row at F0 and accepted
            n = len(X)
            frames = np.broadcast_to(F0, X.shape).copy()
            return frames, np.zeros(n), np.zeros(n, dtype=int), np.zeros((1, n)), np.zeros(n, dtype=bool)

        monkeypatch.setattr(homotopy, "_newton", onto_F0)
        with pytest.raises(ConnectError, match="made no progress") as info:
            connect(F0, F1, self.target)
        assert info.value.t == 0.5

    def test_row_projected_onto_gap_end_raises_no_progress(self, monkeypatch):
        # the first round's last chord point, at 15/16, is "projected" onto F0,
        # so its piece up to V F1 D is as wide as the chord; the error carries
        # the chord's midpoint
        _bridge_only(monkeypatch)
        F0, F1 = _pair(self.target, 2, 9)
        real = homotopy._newton

        def last_onto_F0(X, target, opts):
            G, phi, *rest = real(X, target, opts)
            G[14], phi[14] = F0, 0.0
            return (G, phi, *rest)

        monkeypatch.setattr(homotopy, "_newton", last_onto_F0)
        with pytest.raises(ConnectError, match="made no progress") as info:
            connect(F0, F1, self.target)
        assert info.value.t == 0.5
