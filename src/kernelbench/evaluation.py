"""The three benchmark protocols: grid sweeps, Copeland tournaments, reject curves.

A sweep clusters one graph with one family across a normalized parameter
grid and scores each cut against the ground truth with the adjusted Rand
index.  Families that fail on a cell (log of a nonpositive entry, singular
solve, overflow) contribute ARI = -1 with a recorded error marker; a family
that cannot produce a clustering must lose.

Tournaments reduce each family's grid to one statistic per graph (max or a
percentile), then award +1/-1 per pairwise win/loss.  Reject curves compare
inter-class vs intra-class distances directly, independent of clustering.

One per-graph job evaluates every (family, parameter) cell of a graph; the
jobs are embarrassingly parallel, and results are aggregated in a fixed
sort order so outputs are identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .clustering import adjusted_rand_indices, ward_cuts
from .errors import DegenerateLabels, KernelBenchError, ParameterOutOfRange
from .families import DistanceMatrix
from .generators import BlockModelSpec, generate
from .graph import Graph
from .measures import FamilyEvaluator
from .transforms import clustering_sqdist, reject_distance

GRID_MARGIN = 0.02

# Float64 entries in one graph's stack of Ward inputs (4 MB): cells are
# clustered together in stacks of max(1, STACK_ENTRIES // n**2).
STACK_ENTRIES = 1 << 19

# Reject curves are averaged on this many evenly spaced x in [0, 1].
REJECT_GRID_POINTS = 1001


def parameter_grid(size: int) -> np.ndarray:
    """Evenly spaced normalized parameters on [GRID_MARGIN, 1 - GRID_MARGIN]."""
    if size < 1:
        raise ParameterOutOfRange(f"grid size must be >= 1, got {size}")
    lo, hi = GRID_MARGIN, 1.0 - GRID_MARGIN
    if size == 1:
        return np.array([(lo + hi) / 2.0])
    return np.linspace(lo, hi, size)


@dataclass(frozen=True)
class Statistic:
    """Per-graph summary of a family's grid ARIs: the max or a percentile."""

    kind: str  # "max" | "percentile"
    q: float = 100.0

    @classmethod
    def parse(cls, text: str) -> "Statistic":
        text = text.strip()
        if text == "max":
            return cls("max")
        if text.startswith("percentile:"):
            q = float(text.split(":", 1)[1])
            if not (0.0 <= q <= 100.0):
                raise ParameterOutOfRange(f"percentile must be in [0, 100], got {q}")
            return cls("percentile", q)
        raise ParameterOutOfRange(f"unknown statistic {text!r} (use max or percentile:q)")

    def of(self, values: np.ndarray) -> np.ndarray:
        """The statistic of ``values`` along its last axis."""
        if self.kind == "max":
            return np.max(values, axis=-1)
        return np.percentile(values, self.q, axis=-1)

    def __str__(self) -> str:
        # repr is the shortest text that parses back to q; 80.0 prints as 80
        return "max" if self.kind == "max" else f"percentile:{self.q!r}".removesuffix(".0")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-graph, per-parameter ARI table for one family on one task."""

    family: str
    grid: np.ndarray
    ari: np.ndarray  # (n_graphs, len(grid))
    errors: tuple[tuple[int, int, str], ...]  # (graph_index, grid_index, marker)


@dataclass(frozen=True, eq=False)
class TournamentResult:
    families: tuple[str, ...]
    tasks: tuple[str, ...]
    scores: np.ndarray  # (n_families, n_tasks) integer Copeland scores
    totals: np.ndarray  # (n_families,)


@dataclass(frozen=True, eq=False)
class RejectCurve:
    """Cumulative inter-class share (x) vs intra-class share (y), plus AUC."""

    x: np.ndarray
    y: np.ndarray
    auc: float


def _samples(spec: BlockModelSpec, n_graphs: int) -> list:
    return [(spec, i) for i in range(n_graphs)]


def _source_graph(source) -> Graph:
    """A graph source is a Graph, or a (spec, index) sample; generating it
    inside the job lets pool workers, not the parent, pay for it."""
    if isinstance(source, Graph):
        return source
    spec, index = source
    return generate(spec, index)


def _graph_cells(args):
    """Every (family, parameter) cell of one graph.

    Returns the (n_families, len(grid)) ARI table and the error cells as
    (family_index, grid_index, marker); error cells hold -1.0.  Cells run
    parameter-major, so RSP and FE at one parameter share one fundamental
    matrix.  The Ward inputs are clustered in stacks of up to STACK_ENTRIES
    entries; ``clustering_sqdist`` is their one check.
    """
    source, families, grid = args
    g = _source_graph(source)
    evaluator = FamilyEvaluator(g)
    k = g.num_classes
    table = np.empty((len(families), grid.shape[0]))
    errors = []
    stack = np.empty((max(1, STACK_ENTRIES // g.n ** 2), g.n, g.n))
    pending = []

    def cluster_pending():
        try:
            labels = ward_cuts(stack[:len(pending)], k)
            for (fi, j), score in zip(pending, adjusted_rand_indices(labels, g.labels)):
                table[fi, j] = score
        except KernelBenchError as exc:
            for fi, j in pending:
                table[fi, j] = -1.0
                errors.append((fi, j, type(exc).__name__))
        pending.clear()

    for j, p in enumerate(grid):
        for fi, name in enumerate(families):
            try:
                measure = evaluator.matrix(name, float(p))
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


def _pool(workers: int):
    """A process pool of ``workers`` processes, or None (run serially) for
    fewer than 2; one protocol call runs all of its stages on it."""
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def _run_jobs(fn, jobs, pool):
    return list(map(fn, jobs) if pool is None else pool.map(fn, jobs))


def _sweep_sources(sources, families, grid, pool) -> dict[str, SweepResult]:
    """Run the per-graph job on each graph source; reduce to one SweepResult
    per family, graphs in source order."""
    grid = np.asarray(grid, dtype=np.float64)
    families = list(families)
    jobs = [(source, families, grid) for source in sources]
    tables = np.empty((len(families), len(jobs), grid.shape[0]))
    errors = []
    for gi, (table, errs) in enumerate(_run_jobs(_graph_cells, jobs, pool)):
        tables[:, gi] = table
        errors.extend((fi, gi, j, marker) for fi, j, marker in errs)
    errors.sort()
    return {
        name: SweepResult(name, grid, tables[fi],
                          tuple((gi, j, marker) for efi, gi, j, marker in errors if efi == fi))
        for fi, name in enumerate(families)
    }


def sweep_task(spec: BlockModelSpec, families, grid, n_graphs: int,
               workers: int = 1) -> dict[str, SweepResult]:
    """Sweep every family over ``n_graphs`` samples of one block model task."""
    with _pool(workers) as pool:
        return _sweep_sources(_samples(spec, n_graphs), families, grid, pool)


def sweep_graphs(graphs, families, grid) -> dict[str, SweepResult]:
    """Sweep every family over an explicit list of labeled graphs."""
    return _sweep_sources(graphs, families, grid, None)


def best_of_grid(result: SweepResult) -> tuple[float, float]:
    """(parameter, ARI) maximizing the graph-averaged ARI; ties take the
    smaller parameter."""
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


def copeland_tournament(tasks, families, graphs_per_task: int, grid,
                        statistic: Statistic, workers: int = 1) -> TournamentResult:
    """Run the pairwise-comparison tournament over block model tasks."""
    families = tuple(families)
    if len(families) < 2:
        raise ParameterOutOfRange("a tournament needs at least 2 families")
    scores = np.zeros((len(families), len(tasks)), dtype=np.int64)
    with _pool(workers) as pool:
        for ti, spec in enumerate(tasks):
            sweeps = _sweep_sources(_samples(spec, graphs_per_task), families, grid, pool)
            stats = family_statistics(sweeps, families, statistic)
            scores[:, ti] = copeland_scores(stats)
    return TournamentResult(
        families, tuple(spec.name for spec in tasks), scores, scores.sum(axis=1)
    )


def reject_curve(dist: DistanceMatrix | np.ndarray, labels) -> RejectCurve:
    """Reject curve of a distance matrix against ground-truth classes.

    Walks all unordered node pairs by increasing distance; each distinct
    threshold contributes one point (ties grouped).  AUC is the trapezoid
    area, equal to P(intra < inter) + P(intra = inter)/2.
    """
    m = dist.matrix if isinstance(dist, DistanceMatrix) else np.asarray(dist, float)
    labels = np.asarray(labels)
    n = m.shape[0]
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


def _curve_on_grid(curve: RejectCurve, xs: np.ndarray) -> np.ndarray:
    """The curve's y at each x of ``xs``; a vertical segment reads its top."""
    cx, cy = curve.x, curve.y
    keep = np.ones(cx.shape[0], dtype=bool)
    keep[:-1] = cx[1:] != cx[:-1]
    return np.interp(xs, cx[keep], cy[keep])


def _mean_curve(ys: list, xs: np.ndarray) -> RejectCurve:
    """The vertical average of curves sampled on ``xs``, summed in list order."""
    total = np.zeros_like(xs)
    for y in ys:
        total += y
    total /= len(ys)
    return RejectCurve(xs, total, float(np.trapezoid(total, xs)))


def _graph_reject_job(args):
    """Reject curves of one graph source at fixed per-family parameters, each
    sampled on the averaging grid, or None where the family errors."""
    source, family_params = args
    g = _source_graph(source)
    evaluator = FamilyEvaluator(g)
    xs = np.linspace(0.0, 1.0, REJECT_GRID_POINTS)
    curves = []
    for name, p in family_params:
        try:
            dist = reject_distance(evaluator.matrix(name, p))
            curves.append(_curve_on_grid(reject_curve(dist, g.labels), xs))
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
    sources = _samples(spec, n_graphs)
    with _pool(workers) as pool:
        sweeps = _sweep_sources(sources, families, grid, pool)
        family_params = [(name, best_of_grid(sweeps[name])[0]) for name in families]
        jobs = [(source, family_params) for source in sources]
        results = _run_jobs(_graph_reject_job, jobs, pool)
    xs = np.linspace(0.0, 1.0, REJECT_GRID_POINTS)
    out = {}
    for fi, (name, p) in enumerate(family_params):
        kept = [curves[fi] for curves in results if curves[fi] is not None]
        out[name] = (p, _mean_curve(kept, xs) if kept else None)
    return out


def average_reject_curves(curves, grid_points: int = REJECT_GRID_POINTS) -> RejectCurve:
    """Vertical average of reject curves on a fixed x grid."""
    curves = list(curves)
    if not curves:
        raise DegenerateLabels("cannot average zero reject curves")
    xs = np.linspace(0.0, 1.0, grid_points)
    return _mean_curve([_curve_on_grid(curve, xs) for curve in curves], xs)
