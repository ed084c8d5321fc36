"""Ward agglomerative clustering and the adjusted Rand index.

Ward linkage runs on a squared-distance matrix via the Lance-Williams
recurrence (merge cost = within-cluster variance increase).  Ties within
TIE_TOL of the minimal cost are broken toward the lexicographically smallest
slot pair, where a cluster's slot is the smallest original node index it
contains; this makes the merge sequence fully deterministic.

``ward_cuts`` is the one Ward body and runs a stack of matrices at once;
its step loop is the C function in ``_ward.c``, which importing this module
builds once per source version into the package's ``__pycache__`` and loads
with ``ctypes``.  The public ``ward_linkage`` and ``ward_cluster`` take
matrices from outside the program, so they check them with
``_checked_sqdist`` and run a stack of one.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidK, LengthMismatch, MalformedDistance
from .families import NEG_TOL
from .generators import is_integer

# Merge costs closer than this are considered tied; the lexicographically
# smallest (i, j) slot pair wins.
TIE_TOL = 1e-12

_SOURCE = Path(__file__).with_name("_ward.c")
# No contraction into FMA and no fast-math: every operation rounds as numpy's.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _built_library() -> Path:
    """``_ward.c`` compiled into the package's ``__pycache__``, under a name
    taken from the SHA-256 of the source and the flags; built by ``cc`` only
    if it is not there yet.  A failed build raises ImportError with the
    compiler command and its stderr."""
    digest = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_FLAGS).encode()).hexdigest()
    library = _SOURCE.with_name("__pycache__") / f"_ward-{digest[:16]}.so"
    if library.exists():
        return library
    # a name of this process's own, so concurrent builds do not collide
    partial = library.with_name(f"{library.name}.{os.getpid()}.tmp")
    command = ["cc", *_FLAGS, "-o", str(partial), str(_SOURCE)]
    try:
        library.parent.mkdir(exist_ok=True)
        built = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        raise ImportError(f"cannot build Ward's step loop: {' '.join(command)}\n{exc}") from exc
    if built.returncode != 0:
        partial.unlink(missing_ok=True)
        raise ImportError(f"cannot build Ward's step loop: {' '.join(command)}\n{built.stderr}")
    os.replace(partial, library)
    return library


_ward_body = ctypes.CDLL(str(_built_library())).ward_cuts
_ward_body.argtypes = ([ctypes.c_void_p] + [ctypes.c_int64] * 3 + [ctypes.c_double]
                       + [ctypes.c_void_p] * 4)
_ward_body.restype = None


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
    k = _checked_k(k, n)
    parent = np.arange(n)
    smallest = list(range(n))  # by id
    for a, b in dendrogram.merges[:n - k, :2].astype(np.int64).tolist():
        lo, hi = sorted((smallest[a], smallest[b]))
        parent[hi] = lo
        smallest.append(lo)
    return Partition(_cut_labels(parent[None])[0], k)


def _checked_k(k, n: int) -> int:
    """``k`` as an int if it is an integer (``is_integer``) in [1, n]; else InvalidK."""
    if not is_integer(k):
        raise InvalidK(f"k must be an integer, got {k!r}")
    if not (1 <= k <= n):
        raise InvalidK(f"need 1 <= k <= {n}, got {k}")
    return int(k)


def _writable_c(array: np.ndarray) -> bool:
    return array.flags.c_contiguous and array.flags.writeable


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
    ``merges`` is a C-contiguous float64 (B, n - k, 4) array, it receives
    each matrix's (id_a, id_b, merge_cost, new_size) rows, ids in the usual
    linkage convention: originals 0..n-1, the cluster made at step s gets id
    n+s.  Costs are within-cluster variance increases (singleton pairs
    start at sqdist/2).

    The steps run in ``_ward.c``, one matrix at a time.  A cluster lives in
    the slot of its smallest node; a dead slot's column holds inf.  Each
    step merges the first slot pair (a, b), a < b, in row-major order whose
    cost is within TIE_TOL of the least, and updates row and column a by the
    Lance-Williams formula, elementwise and left to right:
    ((na + s) * wa + (nb + s) * wb - s * cost) / (ns + s).  Every row caches
    its least cost over the whole row (Muellner, arXiv:1109.2378, the
    generic algorithm), and only the value, not its column.  A step takes
    row a's least from its new entries and rescans each row whose least
    equalled its old entry at a or b while its new entry at a is larger;
    every other row keeps the lesser of its least and its new entry at a.
    The first row whose least is within the bound is a: a pair (i, j) within
    it, i < j, puts both rows i and j at or after a.  For the same reason no
    entry of row a left of the diagonal is within the bound, so b is the
    first column of row a that is.  Every least follows ``np.minimum`` (a
    NaN wins), and a search that finds nothing within the bound takes slot
    0, as ``np.argmax`` does.
    """
    if stack.dtype != np.float64 or stack.ndim != 3 or not _writable_c(stack):
        raise ValueError("ward_cuts needs a writable C-contiguous float64 stack")
    count, n, width = stack.shape
    if width != n:
        raise ValueError(f"ward_cuts needs square matrices, got {stack.shape}")
    k = _checked_k(k, n)
    if merges is not None and (merges.dtype != np.float64 or not _writable_c(merges)
                               or merges.shape != (count, n - k, 4)):
        raise ValueError(f"merges must be a writable C-contiguous float64 "
                         f"{(count, n - k, 4)} array")
    parent = np.empty((count, n), dtype=np.int64)
    scratch = np.empty(3 * n)
    ids = np.empty(n, dtype=np.int64)
    _ward_body(stack.ctypes.data, count, n, n - k, TIE_TOL,
               None if merges is None else merges.ctypes.data, parent.ctypes.data,
               scratch.ctypes.data, ids.ctypes.data)
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
