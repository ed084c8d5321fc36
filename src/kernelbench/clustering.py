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
    """Partition with k clusters: replay the first n-k merges.

    Each merge links the larger of its two clusters' smallest nodes under
    the smaller, so the labels are numbered as ``ward_cuts`` numbers them.
    """
    n = dendrogram.n
    if not (1 <= k <= n):
        raise InvalidK(f"need 1 <= k <= {n}, got {k}")
    parent = np.arange(n)
    smallest = list(range(n))  # by id
    for a, b in dendrogram.merges[:n - k, :2].astype(np.int64).tolist():
        lo, hi = sorted((smallest[a], smallest[b]))
        parent[hi] = lo
        smallest.append(lo)
    return Partition(_cut_labels(parent[None])[0], k)


def _cut_labels(parent: np.ndarray) -> np.ndarray:
    """Labels from a (B, n) forest in which each node's parent is a smaller
    node or itself: clusters are numbered by their smallest node."""
    while True:
        hop = np.take_along_axis(parent, parent, axis=1)
        if np.array_equal(hop, parent):
            break
        parent = hop
    rank = np.cumsum(parent == np.arange(parent.shape[1]), axis=1) - 1
    return np.take_along_axis(rank, parent, axis=1)


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
    caches its least cost over the whole row (Muellner, arXiv:1109.2378,
    the generic algorithm), and only the value, not its column.  A step
    takes row a's least from its new entries and rescans each row whose
    least equalled its old entry at a or b while its new entry at a is
    larger; every other row keeps the lesser of its least and its new entry
    at a.  The first row whose least is within the bound is a: a pair
    (i, j) within it, i < j, puts both rows i and j at or after a.  For the
    same reason no entry of row a left of the diagonal is within the bound,
    so b is the first column of row a that is.  When the live slots fall
    to half the width, the stack is compacted to them, in order, so the tie
    rule still reads row-major order; ``node`` maps each slot back to its
    cluster's smallest node.
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
    batch = np.arange(count)
    row_min = w.min(axis=2)
    # Cluster sizes as floats: exact, and the Lance-Williams products then
    # need no integer-to-float casts.
    sizes = np.ones((count, n))
    node = np.tile(nodes, (count, 1))
    ids = node.copy()
    parent = node.copy()  # by node, not by slot
    width = n
    rows = w.reshape(count * width, width)
    base = batch * width
    upd, term = np.empty((count, width)), np.empty((count, width))
    for step in range(n - k):
        bound = row_min.min(axis=1) + TIE_TOL
        a = np.argmax(row_min <= bound[:, None], axis=1)
        wa = rows[base + a]
        b = np.argmax(wa <= bound[:, None], axis=1)
        wb = rows[base + b]
        cost = wa[batch, b]
        na = sizes[batch, a][:, None]
        nb = sizes[batch, b][:, None]
        ns = na + nb
        # ((na + sizes) * wa + (nb + sizes) * wb - sizes * cost) / (ns + sizes),
        # in that order; inf wherever wa or wb is: at a, at b and in dead columns
        np.multiply(np.add(na, sizes, out=upd), wa, out=upd)
        upd += np.multiply(np.add(nb, sizes, out=term), wb, out=term)
        upd -= np.multiply(sizes, cost[:, None], out=term)
        upd /= np.add(ns, sizes, out=term)
        # A row's least must be found again only if it sat at a or b (it is
        # at most both, so it sat there iff it equals their lesser) and the
        # merge raised it; otherwise it is the lesser of it and upd.  Row a
        # becomes upd; row b dies below.
        rescan = (np.minimum(wa, wb, out=term) == row_min) & (upd > row_min)
        rescan[batch, a] = rescan[batch, b] = False
        np.minimum(row_min, upd, out=row_min)
        row_min[batch, a] = upd.min(axis=1)
        rows[base + a] = upd
        w[batch, :, a] = upd
        w[batch, :, b] = np.inf
        stale = np.flatnonzero(rescan)
        row_min.reshape(-1)[stale] = rows[stale].min(axis=1)
        row_min[batch, b] = np.inf
        sizes[batch, a] = ns[:, 0]
        parent[batch, node[batch, b]] = node[batch, a]
        if merges is not None:
            merges[:, step, 0] = ids[batch, a]
            merges[:, step, 1] = ids[batch, b]
            merges[:, step, 2] = cost
            merges[:, step, 3] = ns[:, 0]
            ids[batch, a] = n + step
        live = n - 1 - step
        if 2 * live <= width and step + 1 < n - k:
            alive = np.take_along_axis(parent, node, axis=1) == node
            keep = np.nonzero(alive)[1].reshape(count, live)
            w = w[batch[:, None, None], keep[:, :, None], keep[:, None, :]]
            row_min, sizes, node, ids = (np.take_along_axis(x, keep, axis=1)
                                         for x in (row_min, sizes, node, ids))
            width = live
            rows = w.reshape(count * width, width)
            base = batch * width
            upd, term = np.empty((count, width)), np.empty((count, width))
    return _cut_labels(parent)


def ward_cluster(sqdist: np.ndarray, k: int) -> Partition:
    """Ward clustering of a squared-distance matrix, cut at k clusters."""
    return Partition(ward_cuts(_checked_sqdist(sqdist)[None], k)[0], k)


def _labels_of(partition) -> np.ndarray:
    labels = getattr(partition, "labels", partition)
    return np.asarray(labels).astype(np.int64, copy=False).ravel()


def _comb2(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64)
    return v * (v - 1) // 2


def _ari(sum_cells: int, sum_a: int, sum_b: int, total: int) -> float:
    # Python ints, so sum_a * sum_b / total is rounded once, at any n
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        # both trivial partitions (all singletons or one cluster): identical
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected Rand index (1 iff the partitions are identical)."""
    return float(adjusted_rand_indices(_labels_of(a)[None], b)[0])


def adjusted_rand_indices(cuts, truth) -> np.ndarray:
    """``adjusted_rand_index(row, truth)`` for each row of a (B, n) stack of
    labels, bit for bit, with the B contingency tables from one bincount."""
    x = np.asarray(cuts).astype(np.int64, copy=False)
    y = _labels_of(truth)
    count, n = x.shape
    if n != y.shape[0]:
        raise LengthMismatch(f"partitions cover {n} vs {y.shape[0]} nodes")
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    ka = int(xi.max()) + 1 if xi.size else 0
    kb = int(yi.max()) + 1 if n else 0
    cells = (np.arange(count)[:, None] * ka + xi.reshape(count, n)) * kb + yi
    contingency = np.bincount(cells.ravel(), minlength=count * ka * kb).reshape(count, ka, kb)
    sum_cells = _comb2(contingency).sum(axis=(1, 2)).tolist()
    sum_a = _comb2(contingency.sum(axis=2)).sum(axis=1).tolist()
    sum_b = int(_comb2(np.bincount(yi, minlength=kb)).sum())
    total = n * (n - 1) // 2
    return np.array([_ari(c, s, sum_b, total) for c, s in zip(sum_cells, sum_a)])
