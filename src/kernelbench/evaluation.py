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
from dataclasses import dataclass

import numpy as np

from .clustering import _checked_sqdist, adjusted_rand_index, ward_cuts
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


def parameter_grid(size: int, lo: float = GRID_MARGIN, hi: float = 1.0 - GRID_MARGIN) -> np.ndarray:
    """Evenly spaced normalized parameters, avoiding the open endpoints 0 and 1."""
    if size < 1:
        raise ParameterOutOfRange(f"grid size must be >= 1, got {size}")
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

    def of(self, values: np.ndarray) -> float:
        if self.kind == "max":
            return float(np.max(values))
        return float(np.percentile(values, self.q))

    def __str__(self) -> str:
        return "max" if self.kind == "max" else f"percentile:{self.q:g}"


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
    (family_index, grid_index, marker); error cells hold -1.0.  The checked
    Ward inputs are clustered in stacks of up to STACK_ENTRIES entries.
    """
    source, families, grid, constants = args
    g = _source_graph(source)
    evaluator = FamilyEvaluator(g, constants)
    k = g.num_classes
    table = np.empty((len(families), grid.shape[0]))
    errors = []
    stack = np.empty((max(1, STACK_ENTRIES // g.n ** 2), g.n, g.n))
    pending = []

    def cluster_pending():
        try:
            labels = ward_cuts(stack[:len(pending)], k)
            for (fi, j), cut in zip(pending, labels):
                table[fi, j] = adjusted_rand_index(cut, g.labels)
        except KernelBenchError as exc:
            for fi, j in pending:
                table[fi, j] = -1.0
                errors.append((fi, j, type(exc).__name__))
        pending.clear()

    for fi, name in enumerate(families):
        for j, p in enumerate(grid):
            try:
                measure = evaluator.matrix(name, float(p))
                stack[len(pending)] = _checked_sqdist(clustering_sqdist(measure))
                pending.append((fi, j))
            except KernelBenchError as exc:
                table[fi, j] = -1.0
                errors.append((fi, j, type(exc).__name__))
            if len(pending) == stack.shape[0]:
                cluster_pending()
    if pending:
        cluster_pending()
    return table, errors


def _run_jobs(fn, jobs, workers: int):
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _sweep_sources(sources, families, grid, constants, workers) -> dict[str, SweepResult]:
    """Run the per-graph job on each graph source; reduce to one SweepResult
    per family, graphs in source order."""
    grid = np.asarray(grid, dtype=np.float64)
    families = list(families)
    jobs = [(source, families, grid, constants) for source in sources]
    tables = np.empty((len(families), len(jobs), grid.shape[0]))
    errors = []
    for gi, (table, errs) in enumerate(_run_jobs(_graph_cells, jobs, workers)):
        tables[:, gi] = table
        errors.extend((fi, gi, j, marker) for fi, j, marker in errs)
    errors.sort()
    return {
        name: SweepResult(name, grid, tables[fi],
                          tuple((gi, j, marker) for efi, gi, j, marker in errors if efi == fi))
        for fi, name in enumerate(families)
    }


def sweep(g: Graph, family_name: str, grid,
          constants: dict[str, float] | None = None):
    """ARI per grid parameter for one family on one labeled graph.

    Returns (ari_vector, errors); error cells hold -1.0 and a marker of the
    raising error type.
    """
    result = _sweep_sources([g], [family_name], grid, constants, 1)[family_name]
    return result.ari[0], [(j, marker) for _, j, marker in result.errors]


def sweep_task(spec: BlockModelSpec, families, grid, n_graphs: int,
               constants: dict[str, float] | None = None,
               workers: int = 1) -> dict[str, SweepResult]:
    """Sweep every family over ``n_graphs`` samples of one block model task."""
    return _sweep_sources([(spec, i) for i in range(n_graphs)], families, grid,
                          constants, workers)


def sweep_graphs(graphs, families, grid,
                 constants: dict[str, float] | None = None) -> dict[str, SweepResult]:
    """Sweep every family over an explicit list of labeled graphs."""
    return _sweep_sources(graphs, families, grid, constants, 1)


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
    columns = [
        np.apply_along_axis(statistic.of, 1, sweeps[name].ari) for name in families
    ]
    return np.stack(columns, axis=1)


def copeland_tournament(tasks, families, graphs_per_task: int, grid,
                        statistic: Statistic,
                        constants: dict[str, float] | None = None,
                        workers: int = 1) -> TournamentResult:
    """Run the pairwise-comparison tournament over block model tasks."""
    families = tuple(families)
    if len(families) < 2:
        raise ParameterOutOfRange("a tournament needs at least 2 families")
    scores = np.zeros((len(families), len(tasks)), dtype=np.int64)
    for ti, spec in enumerate(tasks):
        sweeps = sweep_task(spec, families, grid, graphs_per_task, constants, workers)
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
    intra_mask = labels[iu] == labels[ju]
    intra = np.sort(values[intra_mask])
    inter = np.sort(values[~intra_mask])
    if intra.size == 0 or inter.size == 0:
        raise DegenerateLabels("need at least one intra-class and one inter-class pair")
    thresholds = np.unique(values)
    x = np.searchsorted(inter, thresholds, side="right") / inter.size
    y = np.searchsorted(intra, thresholds, side="right") / intra.size
    x = np.concatenate(([0.0], x))
    y = np.concatenate(([0.0], y))
    auc = float(np.trapezoid(y, x))
    return RejectCurve(x, y, auc)


def _graph_reject_job(args):
    """Reject curves for one graph source at fixed per-family parameters."""
    source, family_params, constants = args
    g = _source_graph(source)
    evaluator = FamilyEvaluator(g, constants)
    curves = []
    for name, p in family_params:
        try:
            dist = reject_distance(evaluator.matrix(name, p))
            curves.append(reject_curve(dist, g.labels))
        except KernelBenchError:
            curves.append(None)
    return curves


def reject_experiment(spec: BlockModelSpec, families, grid, n_graphs: int,
                      constants: dict[str, float] | None = None,
                      workers: int = 1):
    """Average reject curves at each family's ARI-optimal grid parameter.

    Returns {family: (best_parameter, averaged RejectCurve)}.  Graphs where
    a family errors are dropped from that family's average.
    """
    sweeps = sweep_task(spec, families, grid, n_graphs, constants, workers)
    family_params = [(name, best_of_grid(sweeps[name])[0]) for name in families]
    jobs = [((spec, i), family_params, constants) for i in range(n_graphs)]
    results = _run_jobs(_graph_reject_job, jobs, workers)
    out = {}
    for fi, (name, p) in enumerate(family_params):
        curves = [cs[fi] for cs in results if cs[fi] is not None]
        out[name] = (p, average_reject_curves(curves))
    return out


def average_reject_curves(curves, grid_points: int = 1001) -> RejectCurve:
    """Vertical average of reject curves on a fixed x grid."""
    curves = list(curves)
    if not curves:
        raise DegenerateLabels("cannot average zero reject curves")
    xs = np.linspace(0.0, 1.0, grid_points)
    ys = np.zeros_like(xs)
    for curve in curves:
        # collapse duplicate x (vertical segments) onto their upper envelope
        cx, cy = curve.x, curve.y
        keep = np.ones(cx.shape[0], dtype=bool)
        keep[:-1] = cx[1:] != cx[:-1]
        ys += np.interp(xs, cx[keep], cy[keep])
    ys /= len(curves)
    return RejectCurve(xs, ys, float(np.trapezoid(ys, xs)))
