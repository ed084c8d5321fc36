"""The three benchmark protocols: grid sweeps, Copeland tournaments, reject curves.

A sweep clusters one graph with one family across a normalized parameter
grid and scores each cut against the ground truth with the adjusted Rand
index.  Families that fail on a cell (log of a nonpositive entry, singular
solve, overflow) contribute ARI = -1 with a recorded error marker; a family
that cannot produce a clustering must lose.

Tournaments reduce each family's grid to one statistic per graph (max or a
percentile), then award +1/-1 per pairwise win/loss.  Reject curves compare
inter-class vs intra-class distances directly, independent of clustering.

A protocol call checks its families, grid, graph count and worker count,
then makes its graphs once, in the calling process; all of its stages read
them.  One per-graph job evaluates every (family, parameter) cell of a
graph; the jobs are embarrassingly parallel, every cell runs on one BLAS
thread, and results are aggregated in graph order, so outputs are
identical for any worker count.  Pooled calls of one size reuse one kept process pool, so
its workers are forked once per process, not once per call.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import active_children, parent_process
from numbers import Real

import numpy as np

from .clustering import adjusted_rand_indices, ward_cuts
from .errors import (
    DegenerateLabels,
    KernelBenchError,
    LengthMismatch,
    MalformedDistance,
    ParameterOutOfRange,
)
from .families import DistanceMatrix, family
from .generators import BlockModelSpec, generate, is_integer
from .measures import FamilyEvaluator
from .transforms import clustering_sqdist, reject_distance

GRID_MARGIN = 0.02

# Float64 entries in one graph's stack of Ward inputs (8 MB): cells are
# clustered together in stacks of max(1, STACK_ENTRIES // n**2).
STACK_ENTRIES = 1 << 20

# Reject curves are averaged on these evenly spaced x in [0, 1].
REJECT_XS = np.linspace(0.0, 1.0, 1001)
REJECT_XS.setflags(write=False)


# The least value of each count a protocol call or a config takes.
_COUNT_LEAST = {"seed": 0, "workers": 0, "grid": 1, "graphs": 1}


def checked_count(key: str, value) -> int:
    """``value`` as an int if it is an integer (``is_integer``) of at least
    ``_COUNT_LEAST[key]``; else ParameterOutOfRange."""
    if not (is_integer(value) and value >= _COUNT_LEAST[key]):
        raise ParameterOutOfRange(f"'{key}' must be an integer >= {_COUNT_LEAST[key]}")
    return int(value)


def parameter_grid(size: int) -> np.ndarray:
    """Evenly spaced normalized parameters on [GRID_MARGIN, 1 - GRID_MARGIN]."""
    size = checked_count("grid", size)
    lo, hi = GRID_MARGIN, 1.0 - GRID_MARGIN
    if size == 1:
        return np.array([(lo + hi) / 2.0])
    return np.linspace(lo, hi, size)


@dataclass(frozen=True)
class Statistic:
    """Per-graph summary of a family's grid ARIs: percentile ``q``; max is q = 100."""

    q: float

    @classmethod
    def parse(cls, text: str) -> "Statistic":
        text = text.strip()
        if text == "max":
            return cls(100.0)
        if text.startswith("percentile:"):
            try:
                q = float(text.split(":", 1)[1])
            except ValueError:
                raise ParameterOutOfRange(f"percentile must be a number, got {text!r}") from None
            if not (0.0 <= q <= 100.0):
                raise ParameterOutOfRange(f"percentile must be in [0, 100], got {q}")
            return cls(q)
        raise ParameterOutOfRange(f"unknown statistic {text!r} (use max or percentile:q)")

    def of(self, values: np.ndarray) -> np.ndarray:
        """The statistic of ``values`` along its last axis."""
        return np.percentile(values, self.q, axis=-1)

    def __str__(self) -> str:
        # repr is the shortest text that parses back to q; 80.0 prints as 80
        return "max" if self.q == 100 else f"percentile:{self.q!r}".removesuffix(".0")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-graph, per-parameter ARI table for one family on one task."""

    family: str
    grid: np.ndarray
    ari: np.ndarray  # (n_graphs, len(grid))
    errors: tuple[tuple[int, int, str], ...]  # (graph_index, grid_index, marker)


@dataclass(frozen=True, eq=False)
class RejectCurve:
    """Cumulative inter-class share (x) vs intra-class share (y), plus AUC."""

    x: np.ndarray
    y: np.ndarray
    auc: float


def _graph_cells(args):
    """Every (family, parameter) cell of one graph.

    Returns the (n_families, len(grid)) ARI table and the error cells as
    (family_index, grid_index, marker) in grid order; error cells hold
    -1.0.  Cells run parameter-major, so RSP and FE at one parameter share
    one fundamental matrix.  The Ward inputs are clustered in stacks of up
    to STACK_ENTRIES entries; ``clustering_sqdist`` is their one check.
    """
    g, families, grid = args
    evaluator = FamilyEvaluator(g)
    k = g.num_classes
    table = np.empty((len(families), grid.shape[0]))
    errors = []
    stack = np.empty((max(1, STACK_ENTRIES // g.n ** 2), g.n, g.n))
    pending = []

    def cluster_pending():
        labels = ward_cuts(stack[:len(pending)], k)
        for (fi, j), score in zip(pending, adjusted_rand_indices(labels, g.labels)):
            table[fi, j] = score
        pending.clear()

    for j, p in enumerate(grid):
        for fi, name in enumerate(families):
            try:
                measure = evaluator.matrix(name, p)
                stack[len(pending)] = clustering_sqdist(measure)
                pending.append((fi, j))
            except KernelBenchError as exc:
                table[fi, j] = -1.0
                errors.append((fi, j, type(exc).__name__))
            if len(pending) == stack.shape[0]:
                cluster_pending()
    if pending:
        cluster_pending()
    return table, errors


def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count; get returns None
    and set does nothing when no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(handle, symbol.format("get")):
                get = getattr(handle, symbol.format("get"))
                get.restype = ctypes.c_int
                return get, getattr(handle, symbol.format("set"))
    return (lambda: None), (lambda count: None)


@dataclass(eq=False)
class _KeptPool:
    """A process pool kept for later protocol calls of its size.  ``others``
    are the process's children from before the pool started; ``workers``
    are the pool's own, learned when the first call on it returns."""

    size: int
    executor: ProcessPoolExecutor
    others: frozenset
    workers: frozenset = frozenset()

    def serves(self, size: int) -> bool:
        """Whether a call that needs ``size`` processes may reuse the pool: it
        must be of that size, and none of its workers may have died since
        (the pool would be broken)."""
        return self.size == size and all(worker.is_alive() for worker in self.workers)


_kept: _KeptPool | None = None
_lock = threading.RLock()


def _forget_pool():
    """In a forked child: the kept pool and the lock are the parent's."""
    global _kept, _lock
    _kept, _lock = None, threading.RLock()


os.register_at_fork(after_in_child=_forget_pool)


def shutdown_pool():
    """Join the workers of the kept process pool, if there is one; the next
    pooled protocol call starts a new pool.  A call running in another thread
    finishes first."""
    global _kept
    with _lock:
        kept, _kept = _kept, None
        if kept is not None:
            kept.executor.shutdown()


@contextmanager
def _pool(workers: int, jobs: int):
    """A process pool of ``min(workers, jobs)`` processes, ``jobs`` being the
    graphs per stage, or None (run serially) for fewer than 2; one protocol
    call runs all of its stages on it.

    The pool outlives the call: later calls of its size in this process get
    it again, and its workers stay warm until the size changes,
    ``shutdown_pool`` is called or the process exits.  A call of another
    size, or one that finds a worker dead, shuts it down and starts a new
    one, and a call that raises shuts it down.  A forked child starts with
    no pool.  A process that multiprocessing started shuts its pool down
    after each call, since multiprocessing joins such a process's children
    before it exits.  Calls hold a lock while they run, so calls from
    several threads of one process run one at a time.

    While it is open the loaded OpenBLAS runs one thread, serial or pooled,
    and the old count comes back when it closes.  The thread count moves
    the last bits of products, solves and eigensystems, so one count keeps
    the bytes the same for any worker count; workers forked from this
    process also start with one thread instead of oversubscribing the CPUs.
    """
    global _kept
    size = min(workers, jobs)
    with _lock:
        get, set_threads = _openblas_threads()
        threads = get()
        set_threads(1)
        try:
            if size < 2:
                yield None
                return
            if _kept is None or not _kept.serves(size):
                shutdown_pool()
                _kept = _KeptPool(size, ProcessPoolExecutor(max_workers=size),
                                  frozenset(active_children()))
            kept = _kept
            try:
                yield kept.executor
            except BaseException:
                shutdown_pool()
                raise
            if parent_process() is not None:
                shutdown_pool()
            elif not kept.workers:
                kept.workers = frozenset(active_children()) - kept.others
        finally:
            set_threads(threads)


def _run_jobs(fn, jobs, pool):
    return list(map(fn, jobs) if pool is None else pool.map(fn, jobs))


def _checked_inputs(families, grid, n_graphs, workers) -> tuple[list, np.ndarray]:
    """A protocol call's families as a list and its grid as float64.  An
    unknown family raises NotFound, and a graph or worker count that
    ``checked_count`` refuses, or a grid that is not a nonempty 1-D array of
    real points in [0, 1], ParameterOutOfRange, before any graph is made or
    any job runs.  A bool or a string is not a real point."""
    families = list(families)
    for name in families:
        family(name)
    checked_count("graphs", n_graphs)
    checked_count("workers", workers)
    points = np.asarray(grid, dtype=object)
    for point in points.flat:
        if not isinstance(point, Real) or isinstance(point, bool):
            raise ParameterOutOfRange(f"grid points must be real numbers, got {point!r}")
    grid = points.astype(np.float64)
    if grid.ndim != 1:
        raise ParameterOutOfRange(f"a protocol grid must be one-dimensional, got shape {grid.shape}")
    if grid.size == 0:
        raise ParameterOutOfRange("a protocol call needs a grid point, got none")
    # NaN fails both comparisons
    outside = ~((grid >= 0.0) & (grid <= 1.0))
    if outside.any():
        raise ParameterOutOfRange(f"grid points must lie in [0, 1], got {grid[outside][0]:g}")
    return families, grid


def _sweep_sources(graphs, families, grid, pool) -> dict[str, SweepResult]:
    """Run the per-graph job on each graph; reduce to one SweepResult per
    family, graphs in list order."""
    jobs = [(g, families, grid) for g in graphs]
    tables = np.empty((len(families), len(jobs), grid.shape[0]))
    # jobs list their error cells in grid order, so each family's list is in
    # (graph, grid index) order
    errors = [[] for _ in families]
    for gi, (table, errs) in enumerate(_run_jobs(_graph_cells, jobs, pool)):
        tables[:, gi] = table
        for fi, j, marker in errs:
            errors[fi].append((gi, j, marker))
    return {name: SweepResult(name, grid, tables[fi], tuple(errors[fi]))
            for fi, name in enumerate(families)}


def sweep_task(spec: BlockModelSpec, families, grid, n_graphs: int,
               workers: int = 1) -> dict[str, SweepResult]:
    """Sweep every family over ``n_graphs`` samples of one block model task."""
    families, grid = _checked_inputs(families, grid, n_graphs, workers)
    graphs = [generate(spec, i) for i in range(n_graphs)]
    with _pool(workers, n_graphs) as pool:
        return _sweep_sources(graphs, families, grid, pool)


def sweep_graphs(graphs, families, grid) -> dict[str, SweepResult]:
    """Sweep every family over an explicit list of labeled graphs, serially."""
    families, grid = _checked_inputs(families, grid, len(graphs), 1)
    with _pool(1, 1) as pool:
        return _sweep_sources(graphs, families, grid, pool)


def best_of_grid(result: SweepResult) -> tuple[float, float]:
    """(parameter, ARI) maximizing the graph-averaged ARI; ties take the
    earlier grid point (the smaller one on an increasing grid)."""
    mean = result.ari.mean(axis=0)
    j = int(np.argmax(mean))
    return float(result.grid[j]), float(mean[j])


def copeland_scores(stats: np.ndarray) -> np.ndarray:
    """Copeland scores from a (n_graphs, n_families) statistic table.

    For each graph and unordered family pair, the strictly greater statistic
    earns +1 and the other -1; exact ties score 0 for both.
    """
    diffs = np.sign(stats[:, :, None] - stats[:, None, :])
    return diffs.sum(axis=(0, 2)).astype(np.int64)


def family_statistics(sweeps: dict[str, SweepResult], families,
                      statistic: Statistic) -> np.ndarray:
    """(n_graphs, n_families) per-graph grid statistics."""
    return np.stack([statistic.of(sweeps[name].ari) for name in families], axis=1)


def reject_curve(dist: DistanceMatrix | np.ndarray, labels) -> RejectCurve:
    """Reject curve of a distance matrix against ground-truth classes.

    Walks all unordered node pairs by increasing distance; each distinct
    threshold contributes one point (ties grouped).  AUC is the trapezoid
    area, equal to P(intra < inter) + P(intra = inter)/2.
    """
    m = dist.matrix if isinstance(dist, DistanceMatrix) else np.asarray(dist, float)
    labels = np.asarray(labels)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MalformedDistance(f"distances must be square, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise MalformedDistance("distances contain nan or inf")
    n = m.shape[0]
    if labels.shape != (n,):
        raise LengthMismatch(f"labels of shape {labels.shape} for {n} nodes")
    iu, ju = np.triu_indices(n, 1)
    values = m[iu, ju]
    intra = labels[iu] == labels[ju]
    n_intra = int(np.count_nonzero(intra))
    n_inter = values.size - n_intra
    if n_intra == 0 or n_inter == 0:
        raise DegenerateLabels("need at least one intra-class and one inter-class pair")
    order = np.argsort(values)
    ordered = values[order]
    # pairs up to the last of each group of tied distances
    last = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))
    below = np.cumsum(intra[order])[last]
    x = np.concatenate(([0.0], (last + 1 - below) / n_inter))
    y = np.concatenate(([0.0], below / n_intra))
    auc = float(np.trapezoid(y, x))
    return RejectCurve(x, y, auc)


def _curve_on_grid(curve: RejectCurve) -> np.ndarray:
    """The curve's y at each x of ``REJECT_XS``; a vertical segment reads its top."""
    cx, cy = curve.x, curve.y
    keep = np.ones(cx.shape[0], dtype=bool)
    keep[:-1] = cx[1:] != cx[:-1]
    return np.interp(REJECT_XS, cx[keep], cy[keep])


def _mean_curve(ys: list) -> RejectCurve:
    """The vertical average of curves sampled on ``REJECT_XS``, summed in
    list order."""
    total = np.zeros_like(REJECT_XS)
    for y in ys:
        total += y
    total /= len(ys)
    return RejectCurve(REJECT_XS, total, float(np.trapezoid(total, REJECT_XS)))


def _ys_on_grid(inter: np.ndarray, intra: np.ndarray) -> np.ndarray:
    """The reject curve of sorted inter-class and intra-class distances on
    ``REJECT_XS``, bit for bit as ``_curve_on_grid(reject_curve(...))``.

    The curve's last point at x = j/n_inter has as y the share of intra-class
    distances strictly below ``inter[j]``.  That x is a point for j = 0 and
    wherever ``inter[j-1] < inter[j]``, and (1, 1) ends the curve.
    """
    j = np.flatnonzero(np.append(True, inter[1:] != inter[:-1]))
    x = np.append(j / inter.shape[0], 1.0)
    y = np.append(np.searchsorted(intra, inter[j]) / intra.shape[0], 1.0)
    return np.interp(REJECT_XS, x, y)


def _graph_reject_job(args):
    """Reject curves of one graph at fixed per-family parameters, each
    sampled on the averaging grid, or None where the family errors or the
    graph lacks intra-class or inter-class pairs."""
    g, family_params = args
    iu, ju = np.triu_indices(g.n, 1)
    intra = g.labels[iu] == g.labels[ju]
    if intra.all() or not intra.any():
        return [None] * len(family_params)
    evaluator = FamilyEvaluator(g)
    curves = []
    for name, p in family_params:
        try:
            values = reject_distance(evaluator.matrix(name, p)).matrix[iu, ju]
            curves.append(_ys_on_grid(np.sort(values[~intra]), np.sort(values[intra])))
        except KernelBenchError:
            curves.append(None)
    return curves


def reject_experiment(spec: BlockModelSpec, families, grid, n_graphs: int,
                      workers: int = 1):
    """Average reject curves at each family's ARI-optimal grid parameter.

    Returns {family: (best_parameter, averaged RejectCurve)}, averaged as
    ``average_reject_curves`` does.  Graphs where a family errors are
    dropped from that family's average; a family that errors on every graph
    gets None in place of its curve.
    """
    families, grid = _checked_inputs(families, grid, n_graphs, workers)
    graphs = [generate(spec, i) for i in range(n_graphs)]
    with _pool(workers, n_graphs) as pool:
        sweeps = _sweep_sources(graphs, families, grid, pool)
        family_params = [(name, best_of_grid(sweeps[name])[0]) for name in families]
        jobs = [(g, family_params) for g in graphs]
        results = _run_jobs(_graph_reject_job, jobs, pool)
    out = {}
    for fi, (name, p) in enumerate(family_params):
        kept = [curves[fi] for curves in results if curves[fi] is not None]
        out[name] = (p, _mean_curve(kept) if kept else None)
    return out


def average_reject_curves(curves) -> RejectCurve | None:
    """Vertical average of reject curves on ``REJECT_XS``, or None for none
    (as ``reject_experiment`` gives a family that errors on every graph)."""
    curves = [_curve_on_grid(curve) for curve in curves]
    return _mean_curve(curves) if curves else None
