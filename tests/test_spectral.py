import math

import numpy as np
import pytest

from kernelbench import (
    laplacian,
    solve_linear,
    sym_eigen,
)
from kernelbench.acceptance import taylor_exp
from kernelbench.errors import Disconnected, NotConverged, Singular
from kernelbench.spectral import pinv_from_eigen, spectral_apply

from conftest import random_connected_graph


def _exp(m):
    # exp(M) through the eigensystem path the exponential families take
    eigen = sym_eigen(m)
    return spectral_apply(eigen, np.exp(eigen.values))


def _pinv(lap):
    return pinv_from_eigen(sym_eigen(lap))


class TestSymEigen:
    def test_identity(self):
        eig = sym_eigen(np.eye(3))
        assert np.allclose(eig.values, 1.0)

    def test_known_two_by_two(self):
        eig = sym_eigen(np.array([[0, 1], [1, 0.0]]))
        assert np.allclose(eig.values, [-1.0, 1.0])

    def test_path_laplacian_spectrum(self, p3):
        # characteristic polynomial of the P3 Laplacian factors as x(x-1)(x-3)
        eig = sym_eigen(laplacian(p3))
        assert np.allclose(eig.values, [0.0, 1.0, 3.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self, rng):
        m = rng.normal(size=(12, 12))
        m = (m + m.T) / 2.0
        eig = sym_eigen(m)
        q = eig.vectors
        assert np.abs(q.T @ q - np.eye(12)).max() <= 1e-8
        assert np.abs((q * eig.values) @ q.T - m).max() <= 1e-8 * np.abs(m).max()

    def test_asymmetric_rejected(self):
        with pytest.raises(NotConverged):
            sym_eigen(np.array([[0, 1], [0.5, 0.0]]))

    @pytest.mark.parametrize("m, match", [
        (np.zeros((2, 3)), r"must be square, got \(2, 3\)"),
        (np.full((3, 3), np.nan), "eigendecomposition failed"),
    ], ids=["non-square", "nan"])
    def test_bad_input_raises(self, m, match):
        with pytest.raises(NotConverged, match=match):
            sym_eigen(m)


class TestMatrixExp:
    def test_zero_matrix(self):
        assert np.allclose(_exp(np.zeros((4, 4))), np.eye(4))

    def test_k2_closed_form(self, k2):
        expected = np.array([
            [math.cosh(1.0), math.sinh(1.0)],
            [math.sinh(1.0), math.cosh(1.0)],
        ])
        assert np.abs(_exp(k2.adjacency) - expected).max() <= 1e-10

    def test_heat_semigroup_row_sums(self, connected_graph_factory):
        g = connected_graph_factory(10)
        for t in (0.2, 1.0, 3.0):
            rows = _exp(-t * laplacian(g)).sum(axis=1)
            assert np.abs(rows - 1.0).max() <= 1e-8

    def test_matches_taylor_oracle(self, rng):
        for _ in range(5):
            m = rng.normal(size=(8, 8))
            m = (m + m.T) / 2.0
            m *= 2.0 / max(1.0, np.linalg.norm(m, 2))
            assert np.abs(_exp(m) - taylor_exp(m)).max() <= 1e-8


class TestSolveLinear:
    def test_identity(self, rng):
        b = rng.normal(size=(5, 3))
        assert np.allclose(solve_linear(np.eye(5), b), b)

    def test_scaled_identity(self):
        assert np.allclose(solve_linear(2.0 * np.eye(4), np.eye(4)), np.eye(4) / 2.0)

    def test_regularized_laplacian_matches_eigen_route(self, p3):
        lap = laplacian(p3)
        x = solve_linear(np.eye(3) + lap, np.eye(3))
        eig = sym_eigen(lap)
        via_eigen = (eig.vectors / (1.0 + eig.values)) @ eig.vectors.T
        assert np.abs(x - via_eigen).max() <= 1e-10

    def test_residual_contract(self, rng, connected_graph_factory):
        g = connected_graph_factory(15)
        m = np.eye(15) + laplacian(g)
        b = rng.normal(size=(15, 15))
        x = solve_linear(m, b)
        assert np.abs(m @ x - b).max() <= 1e-8 * np.abs(b).max()

    def test_singular_raises(self):
        with pytest.raises(Singular):
            solve_linear(np.zeros((3, 3)), np.eye(3))

    def test_ill_conditioned_residual_raises(self):
        # the 12x12 Hilbert matrix factors, but its solve misses B by far more
        # than 1e-8 * ||B||_max
        i = np.arange(12)
        hilbert = 1.0 / (i[:, None] + i[None, :] + 1.0)
        with pytest.raises(Singular, match=r"residual .* exceeds 1e-8 \* 1$"):
            solve_linear(hilbert, np.eye(12))

    def test_numerically_singular_raises(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-17]])
        with pytest.raises(Singular):
            solve_linear(m, np.eye(2))


class TestPinvLaplacian:
    def test_k2_value(self, k2):
        # rank-1 spectral form: eigenvalue 2 with eigenvector (1,-1)/sqrt(2)
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.abs(_pinv(laplacian(k2)) - expected).max() <= 1e-12

    def test_null_space(self, connected_graph_factory):
        g = connected_graph_factory(12)
        lp = _pinv(laplacian(g))
        assert np.abs(lp @ np.ones(12)).max() <= 1e-8

    def test_penrose_conditions(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(4, 21)))
            lap = laplacian(g)
            lp = _pinv(lap)
            assert np.abs(lap @ lp @ lap - lap).max() <= 1e-8
            assert np.abs(lp @ lap @ lp - lp).max() <= 1e-8
            assert np.abs((lap @ lp).T - lap @ lp).max() <= 1e-8
            assert np.abs((lp @ lap).T - lp @ lap).max() <= 1e-8

    def test_output_psd(self, connected_graph_factory):
        g = connected_graph_factory(14)
        values = sym_eigen(_pinv(laplacian(g))).values
        assert values[0] >= -1e-10

    def test_disconnected_raises(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        # built directly: build_graph refuses a disconnected graph
        with pytest.raises(Disconnected, match="2 near-zero eigenvalues"):
            _pinv(np.diag(a.sum(axis=1)) - a)
