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

def ward_merges(sqdist: np.ndarray) -> np.ndarray:
    """Ward merge sequence from a squared-distance matrix.

    Returns an (n-1, 4) array of (id_a, id_b, merge_cost, new_size) rows,
    ids in the usual linkage convention: originals 0..n-1, the cluster made
    at step s gets id n+s.  Costs are within-cluster variance increases
    (singleton pairs start at sqdist/2).
    """
    d = np.ascontiguousarray(sqdist, dtype=np.float64)
    n = d.shape[0]
    if n < 2:
        return np.empty((0, 4), dtype=np.float64)
    w = d / 2.0
    np.fill_diagonal(w, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    iu, ju = np.triu_indices(n, 1)
    out = np.empty((n - 1, 4), dtype=np.float64)
    for step in range(n - 1):
        vals = w[iu, ju]
        best = vals.min()
        pick = int(np.argmax(vals <= best + TIE_TOL))
        a = int(iu[pick])
        b = int(ju[pick])
        cost = w[a, b]
        na = sizes[a]
        nb = sizes[b]
        ns = na + nb
        mask = alive.copy()
        mask[a] = False
        mask[b] = False
        nk = sizes[mask]
        upd = ((na + nk) * w[a, mask] + (nb + nk) * w[b, mask] - nk * cost) / (ns + nk)
        w[a, mask] = upd
        w[mask, a] = upd
        w[b, :] = np.inf
        w[:, b] = np.inf
        alive[b] = False
        sizes[a] = ns
        out[step, 0] = ids[a]
        out[step, 1] = ids[b]
        out[step, 2] = cost
        out[step, 3] = ns
        ids[a] = n + step
    return out


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
