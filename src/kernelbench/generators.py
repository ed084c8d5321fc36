"""Stochastic block model graph generation.

Graphs are sampled from a class-size vector and a symmetric class-pair edge
probability matrix.  The uniform model (m equal classes, p_in on the
diagonal, p_out off it) is the common benchmark case; a printed six-class
heterogeneous structure and two-class unequal splits are provided as named
builders.

Sampling is counter-based: graph ``index`` (and each connectivity resample)
gets its own PCG64 stream seeded through a splitmix64 finalizer, so any
graph is reproducible in isolation and generation parallelizes freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CannotConnect, ConfigInvalid
from .graph import Graph, build_graph, is_connected

MAX_RESAMPLES = 100

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(seed: int, counter: int) -> int:
    """splitmix64 finalizer of (seed advanced by counter+1 golden steps)."""
    z = (seed + (counter + 1) * _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


@dataclass(frozen=True, eq=False)
class BlockModelSpec:
    """Class sizes, class-pair edge probabilities, and a base RNG seed."""

    sizes: tuple[int, ...]
    probabilities: np.ndarray
    seed: int
    name: str = ""

    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.sizes)), self.sizes)


def block_model_spec(sizes, probabilities, seed: int, name: str = "") -> BlockModelSpec:
    """Validate and build a block model specification."""
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ConfigInvalid(f"class sizes must all be >= 1, got {sizes}")
    p = np.asarray(probabilities, dtype=np.float64)
    m = len(sizes)
    if p.shape != (m, m):
        raise ConfigInvalid(f"probability matrix must be {m}x{m}, got {p.shape}")
    # before the symmetry check, so that a NaN is reported as out of range
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ConfigInvalid("edge probabilities must lie in [0, 1]")
    if not np.allclose(p, p.T, rtol=0.0, atol=0.0):
        raise ConfigInvalid("probability matrix must be symmetric")
    seed = int(seed)
    if seed < 0 or seed > _M64:
        raise ConfigInvalid("seed must be an unsigned 64-bit integer")
    p = p.copy()
    p.setflags(write=False)
    if not name:
        name = f"blocks{'x'.join(str(s) for s in sizes)}"
    return BlockModelSpec(sizes, p, seed, name)


def uniform_spec(n: int, m: int, p_in: float, p_out: float, seed: int) -> BlockModelSpec:
    """The equal-class model: m classes of n/m nodes, p_in within, p_out across."""
    if n % m != 0:
        raise ConfigInvalid(f"node count {n} not divisible into {m} equal classes")
    p = np.full((m, m), float(p_out))
    np.fill_diagonal(p, float(p_in))
    name = f"G({n},({m}){p_in:g},{p_out:g})"
    return block_model_spec((n // m,) * m, p, seed, name)


def two_class_unequal_spec(n1: int, n: int, p_in: float, p_out: float,
                           seed: int) -> BlockModelSpec:
    """Two classes of sizes (n1, n - n1) with uniform probabilities."""
    if not (1 <= n1 < n):
        raise ConfigInvalid(f"need 1 <= n1 < n, got n1={n1}, n={n}")
    p = np.array([[p_in, p_out], [p_out, p_in]], dtype=np.float64)
    return block_model_spec((n1, n - n1), p, seed, name=f"unequal({n1},{n - n1})")


# Six heterogeneous classes on 150 nodes; sizes descend and the class-pair
# probabilities are deliberately non-uniform.
_SIX_CLASS_SIZES = (65, 35, 25, 13, 8, 4)
_SIX_CLASS_P = (
    (0.30, 0.20, 0.10, 0.15, 0.07, 0.25),
    (0.20, 0.24, 0.08, 0.13, 0.05, 0.17),
    (0.10, 0.08, 0.16, 0.09, 0.04, 0.12),
    (0.15, 0.13, 0.09, 0.20, 0.02, 0.14),
    (0.07, 0.05, 0.04, 0.02, 0.12, 0.04),
    (0.25, 0.17, 0.12, 0.14, 0.04, 0.40),
)


def six_class_spec(seed: int = 0) -> BlockModelSpec:
    """The fixed 150-node six-class heterogeneous structure."""
    return block_model_spec(_SIX_CLASS_SIZES, np.array(_SIX_CLASS_P), seed,
                            name="sixclass150")


def generate(spec: BlockModelSpec, index: int) -> Graph:
    """Sample graph ``index`` from the model, resampling until connected.

    Each unordered pair (i, j) is an edge independently with probability
    P[class(i), class(j)].  Deterministic given (spec.seed, index); after
    ``MAX_RESAMPLES`` disconnected draws raises :class:`CannotConnect`.
    """
    labels = spec.labels()
    n = labels.shape[0]
    iu, ju = np.triu_indices(n, 1)
    pair_probs = np.asarray(spec.probabilities)[labels[iu], labels[ju]]
    for attempt in range(MAX_RESAMPLES):
        stream = _splitmix64(spec.seed, index * 128 + attempt)
        rng = np.random.Generator(np.random.PCG64(stream))
        draws = rng.random(iu.shape[0])
        adjacency = np.zeros((n, n), dtype=np.float64)
        edges = draws < pair_probs
        adjacency[iu[edges], ju[edges]] = 1.0
        adjacency[ju[edges], iu[edges]] = 1.0
        g = build_graph(adjacency, labels)
        if is_connected(g):
            return g
    raise CannotConnect(
        f"no connected sample for {spec.name or spec.sizes} after {MAX_RESAMPLES} draws"
    )
