import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import rand_frame, rand_unitary

import fiberframe
from fiberframe._linalg import (
    RANK_RTOL,
    as_complex_matrix,
    as_hermitian,
    cluster_by_gap,
    frame_polar_isometry,
    full_row_rank,
    psd_sqrt,
    unitary_log_factors,
)


def _unitary(kind, k, rng):
    Q = rand_unitary(rng, k)
    if kind == "random":
        return Q
    if kind == "clustered":
        # two tight clusters of eigenangles, one of them straddling -1
        base = np.where(np.arange(k) % 2 == 0, 0.7, np.pi)
        theta = base + 1e-9 * rng.standard_normal(k)
        return (Q * np.exp(1j * theta)) @ Q.conj().T
    if kind == "minus_identity":
        return -np.eye(k, dtype=complex)
    if kind == "identity":
        return np.eye(k, dtype=complex)
    if kind == "one_at_minus_one":
        theta = np.concatenate([[np.pi], rng.uniform(-3.0, 3.0, k - 1)])
        return (Q * np.exp(1j * theta)) @ Q.conj().T
    raise ValueError(kind)


class TestUnitaryLogFactors:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("kind", ["random", "clustered", "minus_identity", "identity", "one_at_minus_one"])
    def test_factors_rebuild_the_unitary(self, k, kind):
        rng = np.random.default_rng(1000 * k + len(kind))
        for _ in range(5):
            V = _unitary(kind, k, rng)
            Z, theta = unitary_log_factors(V)
            assert np.linalg.norm(Z.conj().T @ Z - np.eye(k)) <= 1e-12
            assert np.linalg.norm((Z * np.exp(1j * theta)) @ Z.conj().T - V) <= 1e-12
            assert np.all(np.abs(theta) <= np.pi)

    def test_principal_angles(self):
        theta = np.array([2.5, -1.0, 0.25])
        _, got = unitary_log_factors(np.diag(np.exp(1j * theta)))
        assert np.sort(got) == pytest.approx(np.sort(theta), abs=1e-13)


class TestFullRowRank:
    def test_edge_of_tolerance_counts_as_full(self):
        assert full_row_rank(np.array([2.0, RANK_RTOL * 2.0]), 2)
        assert not full_row_rank(np.array([2.0, np.nextafter(RANK_RTOL * 2.0, 0.0)]), 2)

    def test_zero_matrix(self):
        s = np.linalg.svd(np.zeros((2, 4)), compute_uv=False)
        assert not full_row_rank(s, 2)

    def test_fewer_columns_than_rows(self):
        F = rand_frame(np.random.default_rng(0), 3, 2)
        assert not full_row_rank(np.linalg.svd(F, compute_uv=False), 3)

    def test_polar_isometry_needs_full_row_rank(self):
        with pytest.raises(ValueError):
            frame_polar_isometry(rand_frame(np.random.default_rng(1), 3, 2))
        Q = frame_polar_isometry(rand_frame(np.random.default_rng(2), 2, 3))
        assert np.linalg.norm(Q @ Q.conj().T - np.eye(2)) <= 1e-12


class TestPsdSqrt:
    @pytest.mark.parametrize("scale", [1e-13, 1.0])
    def test_indefinite_raises(self, scale):
        # the semidefinite floor is relative to the matrix: diag(1, -1) is
        # rejected at every scale, diag(1, 0) accepted
        with pytest.raises(ValueError, match="not positive semidefinite"):
            psd_sqrt(scale * np.diag([1.0, -1.0]))
        S = scale * np.diag([1.0, 0.0])
        R = psd_sqrt(S)
        assert np.linalg.norm(R @ R - S) <= 1e-12 * scale


class TestInputRules:
    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError, match="F must be 2-dimensional, got shape \\(3,\\)"):
            as_complex_matrix(np.ones(3), "F")

    def test_non_square_not_hermitian(self):
        with pytest.raises(ValueError, match="S must be square, got shape \\(2, 3\\)"):
            as_hermitian(np.ones((2, 3)), "S")

    def test_empty_not_hermitian(self):
        with pytest.raises(ValueError, match="^S must be non-empty$"):
            as_hermitian(np.zeros((0, 0)), "S")

    def test_non_numeric_input_names_its_argument(self):
        # numpy's own conversion message does not say which argument was bad
        chk = fiberframe.is_regular_value(np.eye(2), "ab")
        assert not chk and chk.reason == "torus must be an array of numbers"
        with pytest.raises(ValueError, match="^norms_sq must be an array of numbers$"):
            fiberframe.FiberTarget(np.eye(2), "xy")
        with pytest.raises(ValueError, match="^F must be an array of numbers$"):
            fiberframe.norms_squared([["a", "b"]])


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fiberframe.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, fiberframe; sys.exit(int('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestClusterByGap:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ([3.0], (slice(0, 1),)),
            ([3.0, 2.0, 1.0], (slice(0, 1), slice(1, 2), slice(2, 3))),
            ([2.0, 2.0, 1.0], (slice(0, 2), slice(2, 3))),
            ([5.0, 1.0 + 1e-12, 1.0, 1.0 - 1e-12], (slice(0, 1), slice(1, 4))),
            ([0.0, 0.0, 0.0], (slice(0, 3),)),
            ([1e-300, 1e-300, 0.5e-300], (slice(0, 2), slice(2, 3))),
        ],
        ids=["one", "distinct", "pair", "merged_chain", "all_zero", "tiny_scale"],
    )
    def test_contiguous_slices(self, values, expected):
        clusters = cluster_by_gap(np.array(values))
        assert isinstance(clusters, tuple) and clusters == expected

    def test_ambiguous_gap_is_none(self):
        # a relative gap of 5e-8 lies between CLUSTER_TOL and ten times it
        assert cluster_by_gap(np.array([2.0, 2.0 - 1e-7, 1.0])) is None
