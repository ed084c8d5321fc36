from collections import Counter

import numpy as np
import pytest

from kernelbench import (
    Dendrogram,
    adjusted_rand_index,
    cut_dendrogram,
    ward_cluster,
    ward_linkage,
)
from kernelbench.acceptance import ari_pair_oracle, ward_merge_oracle
from kernelbench.clustering import adjusted_rand_indices
from kernelbench.errors import InvalidK, LengthMismatch, MalformedDistance


def _sqdist_from_points(points):
    return ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)


def _two_blocks(n1, n2, near=0.01, far=100.0):
    n = n1 + n2
    m = np.full((n, n), near)
    m[:n1, n1:] = far
    m[n1:, :n1] = far
    np.fill_diagonal(m, 0.0)
    return m


class TestWardCluster:
    def test_separated_blocks_recovered(self):
        part = ward_cluster(_two_blocks(4, 6), 2)
        assert np.array_equal(part.labels, [0] * 4 + [1] * 6)

    def test_k_equals_n_gives_singletons(self):
        sq = _sqdist_from_points(np.arange(5.0)[:, None])
        part = ward_cluster(sq, 5)
        assert np.array_equal(part.labels, np.arange(5))

    def test_k_one_single_cluster(self):
        sq = _sqdist_from_points(np.arange(4.0)[:, None])
        assert np.array_equal(ward_cluster(sq, 1).labels, np.zeros(4))

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            sq = _sqdist_from_points(rng.normal(size=(n, int(rng.integers(1, 4)))))
            costs, partitions = ward_merge_oracle(sq)
            dendrogram = ward_linkage(sq)
            assert np.abs(dendrogram.merges[:, 2] - np.asarray(costs)).max() <= 1e-9
            for k in range(1, n + 1):
                mine = cut_dendrogram(dendrogram, k).labels
                oracle = np.empty(n, dtype=int)
                for idx, members in enumerate(partitions[k]):
                    oracle[members] = idx
                assert adjusted_rand_index(mine, oracle) == 1.0

    def test_scaling_invariance(self, rng):
        for _ in range(5):
            n = int(rng.integers(4, 31))
            sq = _sqdist_from_points(rng.normal(size=(n, 3)))
            base = ward_cluster(sq, 3).labels
            scaled = ward_cluster(sq * 37.5, 3).labels
            assert np.array_equal(base, scaled)

    def test_cuts_refine(self, rng):
        # every cluster at k is contained in one cluster at k-1
        sq = _sqdist_from_points(rng.normal(size=(20, 2)))
        dendrogram = ward_linkage(sq)
        for k in range(2, 21):
            fine = cut_dendrogram(dendrogram, k).labels
            coarse = cut_dendrogram(dendrogram, k - 1).labels
            for cluster in range(k):
                members = np.nonzero(fine == cluster)[0]
                assert len(set(coarse[members])) == 1

    def test_monotone_costs_on_euclidean_input(self, rng):
        sq = _sqdist_from_points(rng.normal(size=(25, 4)))
        dendrogram = ward_linkage(sq)
        assert np.all(np.diff(dendrogram.merges[:, 2]) >= -1e-9)

    def test_cut_of_rows_listing_the_larger_id_first(self):
        # (2, 0): node 2 joins node 0's cluster, which keeps label 0
        tree = Dendrogram(np.array([[2, 0, 1.0, 2]]), 3)
        assert np.array_equal(cut_dendrogram(tree, 2).labels, [0, 1, 0])

    def test_partition_labels_canonical(self, rng):
        sq = _sqdist_from_points(rng.normal(size=(12, 2)))
        part = ward_cluster(sq, 4)
        assert part.k == 4
        assert set(part.labels) == {0, 1, 2, 3}
        # labels appear in first-occurrence order
        firsts = [int(np.argmax(part.labels == c)) for c in range(4)]
        assert firsts == sorted(firsts)

    def test_invalid_k(self):
        sq = _two_blocks(2, 2)
        with pytest.raises(InvalidK):
            ward_cluster(sq, 0)
        with pytest.raises(InvalidK):
            ward_cluster(sq, 5)
        for k in (0, 5):
            with pytest.raises(InvalidK, match=f"need 1 <= k <= 4, got {k}"):
                cut_dendrogram(ward_linkage(sq), k)

    def test_malformed_inputs(self):
        with pytest.raises(MalformedDistance):
            ward_cluster(np.full((3, 3), np.nan), 2)
        with pytest.raises(MalformedDistance):
            ward_cluster(np.array([[0, 1.0], [2.0, 0]]), 1)
        bad = _two_blocks(2, 2)
        bad[0, 1] = bad[1, 0] = -0.5
        with pytest.raises(MalformedDistance):
            ward_cluster(bad, 2)
        with pytest.raises(MalformedDistance):
            ward_cluster(np.zeros((2, 3)), 1)
        with pytest.raises(MalformedDistance, match="need a zero diagonal"):
            ward_cluster(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)

    def test_tiny_negative_clamped(self):
        sq = _two_blocks(2, 2)
        sq[0, 1] = sq[1, 0] = -5e-11
        part = ward_cluster(sq, 2)
        assert np.array_equal(part.labels, [0, 0, 1, 1])


class TestRandIndices:
    def test_identical_partitions(self):
        labels = np.array([0, 1, 1, 2, 0])
        assert adjusted_rand_index(labels, labels) == 1.0

    def test_frozen_crossed_pairs_value(self):
        # pair-counting by hand: ARI([0,0,1,1], [0,1,0,1]) = -1/2
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    def test_one_cluster_vs_singletons(self):
        a = np.zeros(6, dtype=int)
        b = np.arange(6)
        assert adjusted_rand_index(a, b) == pytest.approx(0.0)

    def test_identical_trivial_partitions(self):
        assert adjusted_rand_index(np.zeros(5, int), np.zeros(5, int)) == 1.0
        assert adjusted_rand_index(np.arange(5), np.arange(5)) == 1.0

    def test_matches_pair_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 13))
            a = rng.integers(0, rng.integers(1, 5), size=n)
            b = rng.integers(0, rng.integers(1, 5), size=n)
            assert adjusted_rand_index(a, b) == pytest.approx(ari_pair_oracle(a, b), abs=1e-12)

    def test_symmetry_and_relabel_invariance(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 51))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 3, size=n)
            ab = adjusted_rand_index(a, b)
            assert ab == pytest.approx(adjusted_rand_index(b, a), abs=1e-14)
            shuffled = (a * 7 + 3) % 11  # injective relabeling of 0..3
            assert ab == pytest.approx(adjusted_rand_index(shuffled, b), abs=1e-14)

    def test_rand_index_range(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, 3, size=n)
            b = rng.integers(0, 4, size=n)
            assert adjusted_rand_index(a, b) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            adjusted_rand_index([0, 1], [0, 1, 1])

    def test_accepts_partition_objects(self):
        part = ward_cluster(_two_blocks(2, 2), 2)
        assert adjusted_rand_index(part, [0, 0, 1, 1]) == 1.0


def _counted_ari(a, b):
    """Pair-counting ARI in Python ints, with adjusted_rand_index's rounding."""
    def pairs(counter):
        return sum(c * (c - 1) // 2 for c in counter.values())

    a, b = [int(v) for v in a], [int(v) for v in b]
    cells, sum_a, sum_b = pairs(Counter(zip(a, b))), pairs(Counter(a)), pairs(Counter(b))
    total = len(a) * (len(a) - 1) // 2
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0
    return (cells - expected) / (maximum - expected)


class TestStackedRandIndices:
    @staticmethod
    def _check(cuts, truth):
        # bit for bit, row by row, against the one-row call and the counts
        got = adjusted_rand_indices(np.asarray(cuts), truth).tobytes()
        assert got == np.array([adjusted_rand_index(row, truth) for row in cuts]).tobytes()
        assert got == np.array([_counted_ari(row, truth) for row in cuts]).tobytes()

    def test_random_stacks(self, rng):
        for n in (3, 17, 60):
            truth = rng.integers(0, 4, size=n) * 3 + 5  # sparse label values
            cuts = [rng.integers(0, k, size=n) for k in (1, 2, 3, 5, n)]
            self._check(cuts, truth)

    def test_trivial_partitions(self):
        # maximum == expected: singletons against singletons, one cluster
        # against one class; k = n against one class scores 0
        n = 9
        singletons, one = np.arange(n), np.zeros(n, dtype=int)
        self._check([singletons, one, one + 4], singletons)
        self._check([singletons, one, np.arange(n) % 2], one)

    def test_two_nodes(self):
        for truth in ([0, 1], [0, 0], [3, 3]):
            self._check([[0, 0], [0, 1], [1, 0]], np.array(truth))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            adjusted_rand_indices(np.zeros((2, 3), dtype=int), [0, 1])
