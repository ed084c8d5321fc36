"""Stochastic block model graph generation.

Graphs are sampled from a class-size vector and a symmetric class-pair edge
probability matrix (``block_model_spec``).  The uniform model (m equal
classes, p_in on the diagonal, p_out off it) is the common benchmark case
and has its own builder, ``uniform_spec``; unequal classes and
heterogeneous structures are general block models (see
``configs/complicated.cfg``).

Sampling is counter-based: graph ``index`` (and each connectivity resample)
gets its own PCG64 stream seeded through a splitmix64 finalizer, so any
graph is reproducible in isolation and generation parallelizes freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import CannotConnect, ConfigInvalid, ParameterOutOfRange
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


def is_integer(value) -> bool:
    """Whether ``value`` is an integer: an Integral, numpy's included, that
    is not a bool (an int subclass, so true would pass as 1).  Every count
    and seed the library takes is one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _positive_int(key: str, value) -> int:
    if not (is_integer(value) and value >= 1):
        raise ConfigInvalid(f"'{key}' must be an integer >= 1")
    return int(value)


def _real(key: str, value) -> float:
    # a quoted "0.3" stays a string, and true is no number
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigInvalid(f"'{key}' must be a real number, got {value!r}")
    return float(value)


def _is_sequence(value) -> bool:
    return isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim > 0)


def block_model_spec(sizes, probabilities, seed: int, name: str = "") -> BlockModelSpec:
    """Validate and build a block model specification."""
    if not _is_sequence(sizes):
        raise ConfigInvalid("'sizes' must be a list")
    sizes = tuple(_positive_int("sizes", s) for s in sizes)
    if sum(sizes) < 2:
        raise ConfigInvalid(f"a block model needs at least two nodes, got sizes {list(sizes)}")
    m = len(sizes)
    if not (_is_sequence(probabilities) and len(probabilities) == m
            and all(_is_sequence(row) and len(row) == m for row in probabilities)):
        raise ConfigInvalid(f"'probabilities' must be {m} rows of {m} numbers")
    p = np.array([[_real("probabilities", x) for x in row] for row in probabilities])
    if not isinstance(name, str):
        raise ConfigInvalid("'name' must be a string")
    # before the symmetry check, so that a NaN is reported as out of range
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ConfigInvalid("edge probabilities must lie in [0, 1]")
    if not np.array_equal(p, p.T):
        raise ConfigInvalid("probability matrix must be symmetric")
    if not (is_integer(seed) and 0 <= seed <= _M64):
        raise ConfigInvalid("seed must be an unsigned 64-bit integer")
    p.setflags(write=False)
    if not name:
        name = f"blocks{'x'.join(str(s) for s in sizes)}"
    return BlockModelSpec(sizes, p, int(seed), name)


def uniform_spec(n: int, m: int, p_in: float, p_out: float, seed: int) -> BlockModelSpec:
    """The equal-class model: m classes of n/m nodes, p_in within, p_out across."""
    n, m = _positive_int("nodes", n), _positive_int("classes", m)
    p_in, p_out = _real("p_in", p_in), _real("p_out", p_out)
    if n % m != 0:
        raise ConfigInvalid(f"node count {n} not divisible into {m} equal classes")
    p = np.full((m, m), p_out)
    np.fill_diagonal(p, p_in)
    name = f"G({n},({m}){p_in:g},{p_out:g})"
    return block_model_spec((n // m,) * m, p, seed, name)


def generate(spec: BlockModelSpec, index: int) -> Graph:
    """Sample graph ``index`` from the model, resampling until connected.

    Each unordered pair (i, j) is an edge independently with probability
    P[class(i), class(j)].  Deterministic given (spec.seed, index); after
    ``MAX_RESAMPLES`` disconnected draws raises :class:`CannotConnect`.
    The index is an integer (``is_integer``) of at least 0, else
    :class:`ParameterOutOfRange`.
    """
    if not (is_integer(index) and index >= 0):
        raise ParameterOutOfRange(f"graph index must be an integer >= 0, got {index!r}")
    index = int(index)
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
        # tested first, so a disconnected draw skips build_graph's checks
        if is_connected(adjacency):
            return build_graph(adjacency, labels)
    raise CannotConnect(
        f"no connected sample for {spec.name or spec.sizes} after {MAX_RESAMPLES} draws"
    )
