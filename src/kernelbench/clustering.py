"""Ward agglomerative clustering and the adjusted Rand index.

Ward linkage runs on a squared-distance matrix via the Lance-Williams
recurrence (merge cost = within-cluster variance increase).  Ties within
TIE_TOL of the minimal cost are broken toward the lexicographically smallest
slot pair, where a cluster's slot is the smallest original node index it
contains; this makes the merge sequence fully deterministic.

``ward_cuts`` is the one Ward body and runs a stack of matrices at once.
The public ``ward_linkage`` and ``ward_cluster`` take matrices from outside
the program, so they check them with ``_checked_sqdist`` and run a stack of
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidK, LengthMismatch, MalformedDistance
from .families import NEG_TOL

# Merge costs closer than this are considered tied; the lexicographically
# smallest (i, j) slot pair wins.
TIE_TOL = 1e-12


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
    n = m.shape[0]
    merges = np.empty((1, max(n - 1, 0), 4))
    if n >= 2:
        ward_cuts(m[None], 1, merges)
    return Dendrogram(merges[0], n)


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


def ward_cuts(stack: np.ndarray, k: int, merges: np.ndarray | None = None) -> np.ndarray:
    """Labels of the Ward k-cut of each matrix in a (B, n, n) stack.

    ``stack`` is a C-contiguous float64 stack of squared distances, each
    finite, nonnegative and exactly symmetric with a zero diagonal (what
    ``transforms.clustering_sqdist`` returns and ``_checked_sqdist``
    enforces); it is overwritten.  Returns the (B, n) labels of the
    partition left after n - k merges, clusters numbered by their smallest
    node, as ``cut_dendrogram(ward_linkage(m), k)`` numbers them.  If
    ``merges`` is a (B, n - k, 4) array, it receives each matrix's
    (id_a, id_b, merge_cost, new_size) rows, ids in the usual linkage
    convention: originals 0..n-1, the cluster made at step s gets id n+s.
    Costs are within-cluster variance increases (singleton pairs start at
    sqdist/2).

    A cluster lives in the slot of its smallest node; a dead slot's column
    holds inf.  Each step merges the first slot pair (a, b), a < b, in
    row-major order whose cost is within TIE_TOL of the least, and updates
    row and column a by the Lance-Williams formula, elementwise.  Every row
    caches its least cost over the upper triangle and the column that holds
    it (Muellner, arXiv:1109.2378, the generic algorithm), so a step
    rescans only row a, the rows whose least sat in column b, and the rows
    whose least sat in column a and grew.
    """
    count, n, _ = stack.shape
    if not (1 <= k <= n):
        raise InvalidK(f"need 1 <= k <= {n}, got {k}")
    if stack.dtype != np.float64 or not stack.flags.c_contiguous:
        raise ValueError("ward_cuts needs a C-contiguous float64 stack")
    w = stack
    np.divide(w, 2.0, out=w)
    nodes = np.arange(n)
    w[:, nodes, nodes] = np.inf
    rows = w.reshape(count * n, n)
    upper = nodes[None, :] > nodes[:, None]
    batch = np.arange(count)
    base = batch * n
    row_min = np.where(upper, w, np.inf)
    row_at = row_min.argmin(axis=2)
    row_min = np.take_along_axis(row_min, row_at[:, :, None], axis=2)[:, :, 0]
    # Cluster sizes as floats: exact, and the Lance-Williams products then
    # need no integer-to-float casts.
    sizes = np.ones((count, n))
    parent = np.tile(nodes, (count, 1))
    ids = parent.copy()
    for step in range(n - k):
        bound = row_min.min(axis=1) + TIE_TOL
        a = np.argmax(row_min <= bound[:, None], axis=1)
        wa = rows[base + a]
        b = np.argmax((wa <= bound[:, None]) & upper[a], axis=1)
        wb = rows[base + b]
        cost = wa[batch, b]
        na = sizes[batch, a][:, None]
        nb = sizes[batch, b][:, None]
        ns = na + nb
        # inf wherever wa or wb is: at a, at b and in dead columns
        upd = ((na + sizes) * wa + (nb + sizes) * wb - sizes * cost[:, None]) / (ns + sizes)
        # Rows i < a hold column a in their upper triangle: their least
        # cost moves to a if the new entry is smaller, or must be found
        # again if it sat at a and grew.
        take = (nodes < a[:, None]) & ((row_at == a[:, None]) | (upd < row_min))
        rescan = (row_at == b[:, None]) | take & (upd > row_min)
        rescan[batch, a] = True
        np.copyto(row_min, upd, where=take)
        np.copyto(row_at, a[:, None], where=take)
        rows[base + a] = upd
        w[batch, :, a] = upd
        w[batch, :, b] = np.inf
        bi, ri = np.nonzero(rescan)
        fresh = np.where(upper[ri], rows[bi * n + ri], np.inf)
        col = fresh.argmin(axis=1)
        row_at[bi, ri] = col
        row_min[bi, ri] = fresh[np.arange(ri.shape[0]), col]
        row_min[batch, b] = np.inf
        row_at[batch, b] = b  # no later column b can name a dead row
        sizes[batch, a] = ns[:, 0]
        parent[batch, b] = a
        if merges is not None:
            merges[:, step, 0] = ids[batch, a]
            merges[:, step, 1] = ids[batch, b]
            merges[:, step, 2] = cost
            merges[:, step, 3] = ns[:, 0]
            ids[batch, a] = n + step
    while True:
        hop = np.take_along_axis(parent, parent, axis=1)
        if np.array_equal(hop, parent):
            break
        parent = hop
    rank = np.cumsum(parent == nodes, axis=1) - 1
    return np.take_along_axis(rank, parent, axis=1)


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
