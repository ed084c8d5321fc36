import numpy as np
import pytest

from kernelbench import (
    build_graph,
    clustering_sqdist,
    distance_to_kernel,
    proximity_to_distance,
    reject_distance,
)
from kernelbench.errors import MalformedDistance, NegativeDistance
from kernelbench.families import DistanceMatrix, ProximityMatrix, distance_matrix
from kernelbench.measures import FamilyEvaluator

from conftest import random_connected_graph


class TestProximityToDistance:
    def test_identity_kernel(self):
        d = proximity_to_distance(ProximityMatrix(np.eye(3), "For")).matrix
        assert np.array_equal(d, 2.0 * (1.0 - np.eye(3)))

    def test_commute_time_kernel_of_k2(self, k2):
        ct = ProximityMatrix(FamilyEvaluator(k2).lap_pinv, "CT")
        d = proximity_to_distance(ct).matrix
        assert d[0, 1] == pytest.approx(1.0)  # 0.25 + 0.25 - 2 * (-0.25)

    def test_constant_kernel_collapses(self):
        k = ProximityMatrix(np.full((4, 4), 3.7), "Comm")
        assert np.abs(proximity_to_distance(k).matrix).max() == 0.0

    def test_negative_distance_raises(self):
        # off-diagonal larger than the diagonal entries
        k = ProximityMatrix(np.array([[0.1, 1.0], [1.0, 0.1]]), "SCT")
        with pytest.raises(NegativeDistance):
            proximity_to_distance(k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_raises(self, bad):
        m = np.eye(3)
        m[0, 2] = m[2, 0] = bad
        with pytest.raises(NegativeDistance, match="not finite"):
            proximity_to_distance(ProximityMatrix(m, "Comm"))

    def test_tiny_negative_clamped(self):
        m = np.array([[1.0, 1.0 + 2e-11], [1.0 + 2e-11, 1.0]])
        d = proximity_to_distance(ProximityMatrix(m, "SCT")).matrix
        assert d[0, 1] == 0.0

    def test_sqrt_of_induced_distance_is_metric(self, rng):
        # for PSD kernels the induced value is a squared Euclidean distance
        for _ in range(4):
            n = int(rng.integers(3, 16))
            points = rng.normal(size=(n, 3))
            gram = points @ points.T
            d = np.sqrt(proximity_to_distance(ProximityMatrix(gram, "K")).matrix)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert d[i, k] <= d[i, j] + d[j, k] + 1e-8

    def test_proximity_triangle_inequality_implication(self, rng):
        # kernels obeying p(x,y)+p(x,z)-p(y,z) <= p(x,x) on all triples induce
        # a distance obeying the ordinary triangle inequality
        for _ in range(6):
            g = random_connected_graph(rng, int(rng.integers(4, 12)))
            t = float(rng.uniform(0.1, 3.0))
            kernel = FamilyEvaluator(g).matrix("For", t / (1.0 + t))
            m = kernel.matrix
            n = m.shape[0]
            holds = all(
                m[x, y] + m[x, z] - m[y, z] <= m[x, x] + 1e-12
                for x in range(n) for y in range(n) for z in range(n)
            )
            if not holds:
                continue
            d = proximity_to_distance(kernel).matrix
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        assert d[x, z] <= d[x, y] + d[y, z] + 1e-10


class TestDistanceToKernel:
    def test_zero_distance(self):
        k = distance_to_kernel(distance_matrix(np.zeros((3, 3)), "SP"))
        assert np.abs(k.matrix).max() == 0.0

    def test_two_point_value(self):
        d = distance_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "SP")
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.abs(distance_to_kernel(d).matrix - expected).max() <= 1e-12

    def test_rows_sum_to_zero(self, rng):
        m = np.abs(rng.normal(size=(7, 7)))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        k = distance_to_kernel(distance_matrix(m, "SP")).matrix
        assert np.abs(k.sum(axis=1)).max() <= 1e-8

    def test_roundtrip_recovers_squared_distances(self, rng):
        # resistance distances of random trees are Euclidean-embeddable
        for _ in range(5):
            n = int(rng.integers(3, 11))
            a = np.zeros((n, n))
            for v in range(1, n):
                u = int(rng.integers(0, v))
                a[u, v] = a[v, u] = 1.0
            # SP-CT at p = 1 is the resistance distance
            delta = FamilyEvaluator(build_graph(a)).matrix("SP-CT", 1.0)
            back = proximity_to_distance(distance_to_kernel(delta)).matrix
            assert np.abs(back - delta.matrix ** 2).max() <= 1e-8


class TestRejectDistanceAndPipeline:
    def test_distance_passthrough(self, sbm_graph):
        d = FamilyEvaluator(sbm_graph).matrix("SP-CT", 1.0)
        assert reject_distance(d) is d

    def test_proximity_dispatch(self, k2):
        kernel = FamilyEvaluator(k2).matrix("For", 0.5)
        d = reject_distance(kernel)
        assert isinstance(d, DistanceMatrix)
        assert np.abs(d.matrix - proximity_to_distance(kernel).matrix).max() == 0.0

    def test_negative_distance_propagates(self):
        k = ProximityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "SCT")
        with pytest.raises(NegativeDistance):
            reject_distance(k)

    def test_pipeline_for_distance_families_is_squared(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        for name in ("RSP", "FE", "SP-CT"):
            delta = ev.matrix(name, 0.5)
            assert np.array_equal(clustering_sqdist(delta), delta.matrix * delta.matrix)

    def test_squared_distance_overflow_raises(self):
        # D∘D of a finite distance overflows: Ward must never see the inf
        d = distance_matrix(np.array([[0.0, 1e200], [1e200, 0.0]]), "SP-CT", 0.5)
        with pytest.raises(MalformedDistance):
            clustering_sqdist(d)

    def test_pipeline_for_kernels_is_induced_distance(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        kernel = ev.matrix("Heat", 0.5)
        sq = clustering_sqdist(kernel)
        assert np.abs(sq - proximity_to_distance(kernel).matrix).max() == 0.0
