import itertools
import warnings

import numpy as np
import pytest

from kernelbench import build_graph, is_connected, laplacian, shortest_path_matrix, sym_eigen
from kernelbench.errors import (
    AsymmetricInput,
    Disconnected,
    LabelOutOfRange,
    NegativeWeight,
    NonzeroDiagonal,
)

from conftest import random_connected_graph


class TestBuildGraph:
    def test_smallest_edge(self):
        g = build_graph(np.array([[0, 1], [1, 0.0]]))
        assert g.n == 2
        assert g.labels is None

    def test_disconnected_rejected(self):
        # every measure family is defined on a connected graph only
        with pytest.raises(Disconnected, match="graph is not connected"):
            build_graph(np.zeros((3, 3)))

    def test_negative_weight_rejected(self):
        a = np.array([[0, -1.0], [-1.0, 0]])
        with pytest.raises(NegativeWeight):
            build_graph(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        a = np.array([[0, 1.0, bad], [1.0, 0, 1.0], [bad, 1.0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NegativeWeight, match="non-finite"):
                build_graph(a)

    def test_asymmetric_rejected(self):
        a = np.array([[0, 1.0], [0.5, 0]])
        with pytest.raises(AsymmetricInput):
            build_graph(a)

    def test_nonsquare_rejected(self):
        with pytest.raises(AsymmetricInput):
            build_graph(np.zeros((2, 3)))

    def test_fewer_than_two_nodes_refused(self):
        # every measure, Ward cut and reject curve is about pairs of nodes, so
        # no graph reaches FamilyEvaluator with a node of degree 0
        for a in (np.zeros((0, 0)), np.zeros((1, 1))):
            with pytest.raises(AsymmetricInput, match="at least two nodes"):
                build_graph(a)

    def test_self_loop_rejected(self):
        a = np.array([[1.0, 1], [1, 0]])
        with pytest.raises(NonzeroDiagonal):
            build_graph(a)

    def test_tiny_float_asymmetry_symmetrized(self):
        a = np.array([[0, 1.0], [1.0 + 1e-14, 0]])
        g = build_graph(a)
        assert g.adjacency[0, 1] == g.adjacency[1, 0]

    def test_label_gap_rejected(self):
        a = np.array([[0, 1], [1, 0.0]])
        with pytest.raises(LabelOutOfRange):
            build_graph(a, [0, 2])

    def test_label_length_mismatch(self):
        with pytest.raises(LabelOutOfRange):
            build_graph(np.zeros((3, 3)), [0, 1])

    def test_non_integer_labels_rejected(self):
        with pytest.raises(LabelOutOfRange):
            build_graph(np.zeros((2, 2)), [0.5, 1.0])

    def test_num_classes_needs_labels(self, p3):
        with pytest.raises(LabelOutOfRange, match="no class labels"):
            p3.num_classes

    def test_adjacency_read_only(self, p3):
        with pytest.raises(ValueError):
            p3.adjacency[0, 1] = 5.0


class TestConnectivity:
    def test_path_graph_connected(self, p3):
        assert is_connected(p3.adjacency)

    def test_isolated_nodes(self):
        assert not is_connected(np.zeros((2, 2)))

    def test_complete_graph(self, k5):
        assert is_connected(k5.adjacency)

    def test_two_components(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        assert not is_connected(a)
        with pytest.raises(Disconnected):
            build_graph(a)

    def test_matches_fiedler_value(self, rng):
        # connectivity iff the second-smallest Laplacian eigenvalue is positive
        for _ in range(20):
            n = int(rng.integers(3, 51))
            a = np.zeros((n, n))
            iu, ju = np.triu_indices(n, 1)
            edges = rng.random(iu.shape[0]) < rng.uniform(0.03, 0.3)
            a[iu[edges], ju[edges]] = 1.0
            a[ju[edges], iu[edges]] = 1.0
            fiedler = sym_eigen(np.diag(a.sum(axis=1)) - a).values[1]
            assert is_connected(a) == (fiedler > 1e-10)


class TestLaplacian:
    def test_zero_row_sums_and_psd(self, connected_graph_factory):
        for n in (5, 12, 25):
            g = connected_graph_factory(n)
            lap = laplacian(g)
            assert np.abs(lap.sum(axis=1)).max() <= 1e-12
            assert sym_eigen(lap).values[0] >= -1e-10


def _brute_force_paths(adjacency, costs, source, target, n):
    """Shortest path by enumerating all simple paths."""
    best = np.inf
    for length in range(1, n):
        for middle in itertools.permutations(
            [v for v in range(n) if v not in (source, target)], length - 1
        ):
            path = (source, *middle, target)
            total = 0.0
            for u, v in zip(path, path[1:]):
                if adjacency[u, v] == 0:
                    break
                total += costs[u, v]
            else:
                best = min(best, total)
    return best


class TestShortestPaths:
    def test_path_graph(self, p3):
        d = shortest_path_matrix(p3).matrix
        assert d[0, 2] == 2.0
        assert d[0, 1] == 1.0

    def test_complete_graph(self, k3):
        d = shortest_path_matrix(k3).matrix
        assert np.array_equal(d, 1.0 - np.eye(3))

    def test_four_cycle_opposite_nodes(self, c4):
        d = shortest_path_matrix(c4).matrix
        costs = np.where(c4.adjacency > 0, 1.0, np.inf)
        for i in range(4):
            for j in range(i + 1, 4):
                assert d[i, j] == _brute_force_paths(c4.adjacency, costs, i, j, 4)
        assert d[0, 2] == 2.0
        assert d[1, 3] == 2.0

    def test_disconnected_raises(self):
        with pytest.raises(Disconnected):
            shortest_path_matrix(build_graph(np.zeros((3, 3))))

    def test_weighted_uses_reciprocal_costs(self):
        # strong edges are short: 0-1 (w=2) then 1-2 (w=4) beats the direct w=1 edge
        a = np.array([
            [0, 2.0, 1.0],
            [2.0, 0, 4.0],
            [1.0, 4.0, 0],
        ])
        d = shortest_path_matrix(build_graph(a)).matrix
        assert d[0, 2] == pytest.approx(0.5 + 0.25)
        assert d[0, 1] == pytest.approx(0.5)

    def test_triangle_inequality_exhaustive(self, rng):
        for trial in range(6):
            weighted = trial % 2 == 1
            g = random_connected_graph(rng, int(rng.integers(5, 31)), weighted=weighted)
            d = shortest_path_matrix(g).matrix
            n = g.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert d[i, k] <= d[i, j] + d[j, k] + 1e-12

    def test_weighted_matches_brute_force(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, 6, p=0.5, weighted=True)
            d = shortest_path_matrix(g).matrix
            assert np.array_equal(d, d.T)
            costs = np.where(g.adjacency > 0, 1.0 / np.where(g.adjacency > 0, g.adjacency, 1), np.inf)
            for i in range(6):
                for j in range(i + 1, 6):
                    assert d[i, j] == pytest.approx(
                        _brute_force_paths(g.adjacency, costs, i, j, 6), abs=1e-12
                    )
        # a larger sparse input, against networkx's Dijkstra
        nx = pytest.importorskip("networkx")
        g = random_connected_graph(rng, 80, p=0.06, weighted=True)
        d = shortest_path_matrix(g).matrix
        assert np.array_equal(d, d.T)
        iu, ju = np.nonzero(np.triu(g.adjacency))
        graph = nx.Graph()
        graph.add_weighted_edges_from(
            (int(i), int(j), 1.0 / g.adjacency[i, j]) for i, j in zip(iu, ju))
        expected = np.empty_like(d)
        for i, lengths in nx.all_pairs_dijkstra_path_length(graph):
            for j, length in lengths.items():
                expected[i, j] = length
        assert np.all(np.abs(d - expected) <= 1e-12 * expected)
