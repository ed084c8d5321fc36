"""Ward agglomerative clustering and partition agreement indices.

Ward linkage runs on a squared-distance matrix via the Lance-Williams
recurrence (merge cost = within-cluster variance increase).  Ties within
1e-12 of the minimal cost are broken toward the lexicographically smallest
slot pair, where a cluster's slot is the smallest original node index it
contains; this makes the merge sequence fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._accel import ward_batch, ward_merges
from .errors import InvalidK, LengthMismatch, MalformedDistance
from .families import NEG_TOL


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Merge sequence: rows of (id_a, id_b, cost, new_size).

    Ids follow the linkage convention (originals 0..n-1, step s creates id
    n+s).  On a nonnegative input the costs never drop by more than the
    tie tolerance.
    """

    merges: np.ndarray
    n: int


@dataclass(frozen=True, eq=False)
class Partition:
    """Class index per node, indices exactly 0..k-1, all nonempty."""

    labels: np.ndarray
    k: int


def _checked_sqdist(sqdist: np.ndarray) -> np.ndarray:
    m = np.asarray(sqdist, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MalformedDistance(f"squared distances must be square, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise MalformedDistance("squared distances contain nan or inf")
    if m.size and np.abs(m - m.T).max() > 1e-8:
        raise MalformedDistance("squared distances asymmetric beyond 1e-8")
    if m.size and np.abs(np.diagonal(m)).max() > 1e-8:
        raise MalformedDistance("squared distances need a zero diagonal")
    low = m.min() if m.size else 0.0
    if low < NEG_TOL:
        raise MalformedDistance(f"squared distance {low:g} below {NEG_TOL:g}")
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return np.clip(m, 0.0, None)


def ward_linkage(sqdist: np.ndarray) -> Dendrogram:
    """Full Ward merge sequence for a squared-distance matrix."""
    m = _checked_sqdist(sqdist)
    return Dendrogram(ward_merges(m), m.shape[0])


def cut_dendrogram(dendrogram: Dendrogram, k: int) -> Partition:
    """Partition with k clusters: replay the first n-k merges."""
    n = dendrogram.n
    if not (1 <= k <= n):
        raise InvalidK(f"need 1 <= k <= {n}, got {k}")
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    representative = {i: i for i in range(n)}
    for step in range(n - k):
        a = int(dendrogram.merges[step, 0])
        b = int(dendrogram.merges[step, 1])
        ra = find(representative[a])
        rb = find(representative[b])
        parent[rb] = ra
        representative[n + step] = ra
    roots = np.fromiter((find(i) for i in range(n)), dtype=np.int64, count=n)
    _, labels = np.unique(roots, return_inverse=True)
    first_seen: dict[int, int] = {}
    remap = np.empty(labels.max() + 1, dtype=np.int64)
    next_id = 0
    for lab in labels:
        if int(lab) not in first_seen:
            first_seen[int(lab)] = next_id
            remap[lab] = next_id
            next_id += 1
    return Partition(remap[labels], k)


def ward_cuts(stack: np.ndarray, k: int) -> np.ndarray:
    """Labels of the Ward k-cut of each matrix in a (B, n, n) stack.

    Each matrix must already have passed ``_checked_sqdist``; the stack is
    overwritten.  Labels match ``cut_dendrogram(ward_linkage(m), k)``.
    """
    n = stack.shape[1]
    if not (1 <= k <= n):
        raise InvalidK(f"need 1 <= k <= {n}, got {k}")
    return ward_batch(stack, n - k)


def ward_cluster(sqdist: np.ndarray, k: int) -> Partition:
    """Ward clustering of a squared-distance matrix, cut at k clusters."""
    return Partition(ward_cuts(_checked_sqdist(sqdist)[None], k)[0], k)


def _labels_of(partition) -> np.ndarray:
    labels = getattr(partition, "labels", partition)
    return np.asarray(labels).astype(np.int64, copy=False).ravel()


def _pair_counts(a, b):
    x = _labels_of(a)
    y = _labels_of(b)
    if x.shape[0] != y.shape[0]:
        raise LengthMismatch(f"partitions cover {x.shape[0]} vs {y.shape[0]} nodes")
    n = x.shape[0]
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    ka = int(xi.max()) + 1 if n else 0
    kb = int(yi.max()) + 1 if n else 0
    contingency = np.bincount(xi * kb + yi, minlength=ka * kb).reshape(ka, kb)

    def comb2(v):
        v = v.astype(np.int64)
        return v * (v - 1) // 2

    sum_cells = int(comb2(contingency).sum())
    sum_a = int(comb2(contingency.sum(axis=1)).sum())
    sum_b = int(comb2(contingency.sum(axis=0)).sum())
    total = n * (n - 1) // 2
    return sum_cells, sum_a, sum_b, total


def rand_index(a, b) -> float:
    """Share of node pairs on which two partitions agree."""
    sum_cells, sum_a, sum_b, total = _pair_counts(a, b)
    if total == 0:
        return 1.0
    agreements = total + 2 * sum_cells - sum_a - sum_b
    return agreements / total


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected Rand index (1 iff the partitions are identical)."""
    sum_cells, sum_a, sum_b, total = _pair_counts(a, b)
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        # both trivial partitions (all singletons or one cluster): identical
        return 1.0
    return (sum_cells - expected) / (maximum - expected)
