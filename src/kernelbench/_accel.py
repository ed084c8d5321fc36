"""Hot inner loops: Ward merge sequence, BFS and Dijkstra all-pairs distances.

Each is a numpy kernel whose floating-point operation order is fixed, so
identical inputs give bit-identical outputs on every run and worker.
"""

from __future__ import annotations

import numpy as np

# Merge costs closer than this are considered tied; the lexicographically
# smallest (i, j) slot pair wins.
TIE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Ward linkage merge sequence
# ---------------------------------------------------------------------------

def ward_batch(sqdist: np.ndarray, stop: int, merges: np.ndarray | None = None) -> np.ndarray:
    """Run the first ``stop`` Ward merges on each matrix of a stack at once.

    ``sqdist`` is a C-contiguous float64 (B, n, n) stack of squared
    distances; it is overwritten.  Returns the (B, n) labels of the
    partition left after ``stop`` merges, clusters numbered by their
    smallest node.  If ``merges`` is a (B, stop, 4) array, it receives each
    matrix's (id_a, id_b, merge_cost, new_size) rows, ids in the usual
    linkage convention: originals 0..n-1, the cluster made at step s gets
    id n+s.  Costs are within-cluster variance increases (singleton pairs
    start at sqdist/2).

    A cluster lives in the slot of its smallest node; a dead slot's column
    holds inf.  Each step merges the first slot pair (a, b), a < b, in
    row-major order whose cost is within TIE_TOL of the least, and updates
    row and column a by the Lance-Williams formula, elementwise.  Every row
    caches its least cost over the upper triangle and the column that holds
    it (Muellner, arXiv:1109.2378, the generic algorithm), so a step
    rescans only row a, the rows whose least sat in column b, and the rows
    whose least sat in column a and grew.
    """
    if sqdist.dtype != np.float64 or not sqdist.flags.c_contiguous:
        raise ValueError("ward_batch needs a C-contiguous float64 stack")
    count, n, _ = sqdist.shape
    w = sqdist
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
    for step in range(stop):
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


def ward_merges(sqdist: np.ndarray) -> np.ndarray:
    """Ward merge sequence from a squared-distance matrix.

    Returns an (n-1, 4) array of (id_a, id_b, merge_cost, new_size) rows,
    as :func:`ward_batch` writes them for a stack of one.
    """
    d = np.array(sqdist, dtype=np.float64, order="C")
    n = d.shape[0]
    if n < 2:
        return np.empty((0, 4), dtype=np.float64)
    out = np.empty((1, n - 1, 4), dtype=np.float64)
    ward_batch(d[None], n - 1, out)
    return out[0]


# ---------------------------------------------------------------------------
# Unweighted all-pairs shortest paths (BFS)
# ---------------------------------------------------------------------------

def hop_matrix(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs hop counts; -1 marks unreachable pairs.

    Level-synchronous BFS from all sources at once via boolean matmul.
    """
    n = adjacency.shape[0]
    a = (adjacency > 0).astype(np.float32)
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    level = 0
    while frontier.any():
        level += 1
        grown = (frontier.astype(np.float32) @ a) > 0
        fresh = grown & ~reached
        dist[fresh] = level
        reached |= fresh
        frontier = fresh
    return dist


# ---------------------------------------------------------------------------
# Weighted all-pairs shortest paths (Dijkstra per source)
# ---------------------------------------------------------------------------

def cost_path_matrix(edge_costs: np.ndarray) -> np.ndarray:
    """All-pairs shortest path lengths on a dense edge-cost matrix.

    ``edge_costs`` holds np.inf for absent edges (and on the diagonal);
    unreachable pairs stay np.inf in the result.  O(n^2)-selection Dijkstra
    per source.
    """
    n = edge_costs.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        done = np.zeros(n, dtype=bool)
        for _ in range(n):
            pending = np.where(done, np.inf, dist)
            u = int(np.argmin(pending))
            if not np.isfinite(pending[u]):
                break
            done[u] = True
            dist = np.minimum(dist, dist[u] + edge_costs[u])
        out[s] = dist
    return out
