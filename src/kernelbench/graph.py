"""Undirected weighted graphs and their derived matrices.

A :class:`Graph` stores a validated symmetric nonnegative adjacency matrix
with zero diagonal, connected and of two nodes or more, plus optional
ground-truth class labels.  Unweighted graphs use 0/1 entries.  Everything
here is immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricInput,
    Disconnected,
    LabelOutOfRange,
    NegativeWeight,
    NonzeroDiagonal,
)
from .families import DistanceMatrix, distance_matrix

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Graph:
    adjacency: np.ndarray
    labels: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise LabelOutOfRange("graph carries no class labels")
        return int(self.labels.max()) + 1

    @property
    def is_unweighted(self) -> bool:
        a = self.adjacency
        return bool(np.all((a == 0.0) | (a == 1.0)))


def build_graph(adjacency: np.ndarray, labels=None) -> Graph:
    """Validate and construct a graph.

    The matrix must be square with at least two nodes, finite, symmetric
    within 1e-12, nonnegative, and have an exactly zero diagonal (simple
    graphs only).  It is symmetrized as (A + A^T)/2 after validation to
    remove float asymmetry.
    Labels, when given, must cover exactly the classes 0..m-1.  Last, the
    graph must be connected, as every measure family assumes, or
    :class:`Disconnected` is raised.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise AsymmetricInput(f"adjacency must be square with at least two nodes, "
                              f"got shape {a.shape}")
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise NegativeWeight(f"non-finite weight {a[i, j]:g} at ({i},{j})")
    if np.abs(a - a.T).max() > SYMMETRY_TOL:
        raise AsymmetricInput(f"adjacency asymmetric beyond {SYMMETRY_TOL:g}")
    if a.min() < 0.0:
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        raise NegativeWeight(f"negative weight {a[i, j]:g} at ({i},{j})")
    if np.any(np.diagonal(a) != 0.0):
        raise NonzeroDiagonal("self-loops are not allowed")
    a = (a + a.T) / 2.0
    a.setflags(write=False)

    lab = None
    if labels is not None:
        lab = np.asarray(labels)
        if lab.ndim != 1 or lab.shape[0] != a.shape[0]:
            raise LabelOutOfRange(f"expected {a.shape[0]} labels, got shape {lab.shape}")
        if not np.issubdtype(lab.dtype, np.integer):
            if not np.all(lab == np.floor(lab)):
                raise LabelOutOfRange("labels must be integers")
        lab = lab.astype(np.int64)
        present = np.unique(lab)
        if present[0] < 0 or not np.array_equal(present, np.arange(present[-1] + 1)):
            raise LabelOutOfRange(f"labels must cover exactly 0..m-1, got {present}")
        lab.setflags(write=False)
    if not is_connected(a):
        raise Disconnected("graph is not connected")
    return Graph(a, lab)


def laplacian(g: Graph) -> np.ndarray:
    """L = D - A; symmetric positive semidefinite with zero row sums."""
    d = g.adjacency.sum(axis=1)
    lap = np.diag(d) - g.adjacency
    return lap


def is_connected(adjacency: np.ndarray) -> bool:
    """True iff the adjacency's graph has a single connected component."""
    n = adjacency.shape[0]
    a = adjacency > 0
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        grown = a[frontier].any(axis=0) & ~reached
        reached |= grown
        frontier = grown
    return bool(reached.all())


def edge_cost_matrix(g: Graph) -> np.ndarray:
    """Per-edge traversal costs: 1 for unit weights, 1/w for similarity weights.

    Non-edges (and the diagonal) hold np.inf.
    """
    a = g.adjacency
    costs = np.full_like(a, np.inf)
    edges = a > 0
    costs[edges] = 1.0 / a[edges]
    return costs


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


def shortest_path_matrix(g: Graph) -> DistanceMatrix:
    """All-pairs shortest path distances.

    Hop counts (BFS) for unweighted graphs; weighted graphs use in-place
    Floyd-Warshall on reciprocal-weight edge costs, treating weights as
    similarities.  Each of its steps adds the same two entries for (i, j)
    and (j, i), so a symmetric input gives an exactly symmetric result.
    """
    if g.is_unweighted:
        dist = hop_matrix(g.adjacency).astype(np.float64)
    else:
        dist = edge_cost_matrix(g)
        np.fill_diagonal(dist, 0.0)
        for k in range(g.n):
            np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    return distance_matrix(dist, "SP")
