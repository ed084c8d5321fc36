"""Replaying a round through kernelbench's public layer functions.

The replay calls every layer the protocols call, from these files, in the
order the protocols call them: graph generation, eigensystems, shortest
paths, the per-graph precompute, then for each cell the family matrix, the
Ward input, Ward, the cut and the ARI, and per task the reduction and the
reject stage.  Run serially, it reproduces the protocols' outputs exactly;
run.py compares them.  With a :class:`Tracer` it records one span per call.
It also counts F1 (a Ward cut that changes when its input is rescaled by a
power of two) on every replayed cell, and checks each reject curve's AUC.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from kernelbench import (
    FamilyEvaluator,
    adjusted_rand_index,
    average_reject_curves,
    clustering_sqdist,
    cut_dendrogram,
    reject_curve,
    reject_distance,
    ward_cluster,
    ward_linkage,
)
from kernelbench.errors import KernelBenchError
from kernelbench.evaluation import SweepResult, best_of_grid, copeland_scores, family_statistics

import reference as ref
from workloads import FAMILIES, MAX


class NullTracer:
    def span(self, name):
        return nullcontext()

    def unit(self, name):
        pass


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.units: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def unit(self, name):
        """Count one unit of work for a layer whose spans are not one per unit."""
        self.units[name] += 1

    def totals(self):
        """{name: (seconds, units)}, a unit being one span unless counted."""
        out: dict[str, list] = {}
        for name, start, end, _ in self.spans:
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += end - start
            entry[1] += 1
        for name, count in self.units.items():
            out.setdefault(name, [0.0, 0])[1] = count
        return out


@dataclass
class Checks:
    """Outcome of every output check; any failure makes the run incorrect."""

    failures: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def expect(self, ok, kind, what=""):
        self.counts[kind] += 1
        if not ok:
            self.failures.append(f"{kind}: {what}")


@dataclass
class TaskReplay:
    sweeps: dict
    errors: list  # (graph index, family index, grid index, marker)
    f1: list  # (graph index, family index, grid index)
    evaluators: list
    curves: list = None  # per graph, per family: RejectCurve or None
    averaged: dict = None  # reject protocol: {family: (parameter, averaged curve)}


def precompute(ev, tracer):
    with tracer.span("spectral.eigen"):
        ev.adjacency_eigen
        ev.laplacian_eigen
    with tracer.span("graph.shortest_path"):
        ev.sp_matrix
    with tracer.span("measures.precompute"):
        ev.lap_pinv
        ev.cct_base
        ev.resistance_matrix


def replay_graph(g, grid, tracer, families=None):
    """Replay one graph's cells; only the given family indices when asked."""
    ev = FamilyEvaluator(g)
    precompute(ev, tracer)
    k = g.num_classes
    table = np.full((len(FAMILIES), grid.shape[0]), np.nan)
    errors, f1 = [], []
    for fi in range(len(FAMILIES)) if families is None else families:
        name = FAMILIES[fi]
        for j, p in enumerate(grid):
            try:
                with tracer.span(f"measures.matrix.{name}"):
                    measure = ev.matrix(name, float(p))
                with tracer.span("transforms.sqdist"):
                    sq = clustering_sqdist(measure)
                with tracer.span("clustering.ward"):
                    dendrogram = ward_linkage(sq)
                with tracer.span("clustering.cut"):
                    partition = cut_dendrogram(dendrogram, k)
                with tracer.span("clustering.ari"):
                    table[fi, j] = adjusted_rand_index(partition, g.labels)
            except KernelBenchError as exc:
                table[fi, j] = -1.0
                errors.append((fi, j, type(exc).__name__))
                continue
            if scale_variant(sq, k, partition.labels):
                f1.append((fi, j))
    return ev, table, errors, f1


def replay_families(args):
    """Process-pool entry: untraced replay of some families of one graph."""
    g, grid, families = args
    _, table, errors, f1 = replay_graph(g, grid, NullTracer(), families)
    return table, errors, f1


def _replay_split(g, grid, pool):
    """Untraced replay of one graph, its families split across the pool's workers."""
    parts = list(pool.map(replay_families, [(g, grid, list(range(len(FAMILIES)))[i::2])
                                            for i in range(2)]))
    table = np.where(np.isnan(parts[0][0]), parts[1][0], parts[0][0])
    return FamilyEvaluator(g), table, parts[0][1] + parts[1][1], parts[0][2] + parts[1][2]


def scale_variant(sq, k, labels):
    """F1: Ward's k-cut changes when its input is rescaled by a power of two."""
    s = ref.rescale_exponent(sq)
    return bool(s) and not np.array_equal(ward_cluster(np.ldexp(sq, s), k).labels, labels)


def replay_task(graphs, grid, tracer, checks, runner_kind=None, pool=None):
    """Sweep, best parameters and reject stage of one task's graphs.

    ``runner_kind`` is the config kind when runner.run is what is replayed:
    then the best parameters are part of the protocol's reduction, and for
    "reject" so is averaging the curves.  Otherwise they only feed the AUC
    check, and go untraced.  With a process ``pool`` the cells are replayed
    untraced, half the families in each of two workers.
    """
    grid = np.asarray(grid, dtype=np.float64)
    evaluators, tables, errors, f1 = [], [], [], []
    for gi, g in enumerate(graphs):
        if pool is None:
            ev, table, errs, cells = replay_graph(g, grid, tracer)
        else:
            ev, table, errs, cells = _replay_split(g, grid, pool)
        evaluators.append(ev)
        tables.append(table)
        errors += [(gi, fi, j, m) for fi, j, m in errs]
        f1 += [(gi, fi, j) for fi, j in cells]
    stacked = np.stack(tables, axis=1)
    by_family = sorted(errors, key=lambda e: (e[1], e[0], e[2], e[3]))
    sweeps = {
        name: SweepResult(name, grid, stacked[fi],
                          tuple((gi, j, m) for gi, efi, j, m in by_family if efi == fi))
        for fi, name in enumerate(FAMILIES)
    }
    with (tracer.span("evaluation.reduce") if runner_kind else nullcontext()):
        params = [(name, best_of_grid(sweeps[name])[0]) for name in FAMILIES]
    if runner_kind:
        tracer.unit("evaluation.reduce")
    result = TaskReplay(sweeps, errors, f1, evaluators, [])
    for ev in evaluators:
        kept = []
        with tracer.span("evaluation.reject"):
            for name, p in params:
                try:
                    dist = reject_distance(ev.matrix(name, p))
                    kept.append((dist, reject_curve(dist, ev.graph.labels)))
                except KernelBenchError:
                    kept.append((None, None))
        for (dist, curve), (name, p) in zip(kept, params):
            if curve is not None:
                want = ref.auc_mann_whitney(dist.matrix, ev.graph.labels)
                checks.expect(abs(curve.auc - want) <= 1e-12, "reject_auc",
                              f"{name} p={p:g}: AUC {curve.auc!r} vs Mann-Whitney {want!r}")
        result.curves.append([curve for _, curve in kept])
    if runner_kind == "reject":
        with tracer.span("evaluation.reduce"):
            result.averaged = {
                name: (p, average_reject_curves([c[fi] for c in result.curves if c[fi] is not None]))
                for fi, (name, p) in enumerate(params)
            }
    return result


def tournament(sweeps, tracer):
    """The reduction kind: datasets makes per graph: statistics, then Copeland."""
    with tracer.span("evaluation.reduce"):
        scores = copeland_scores(family_statistics(sweeps, FAMILIES, MAX))
    tracer.unit("evaluation.reduce")
    return scores


def check_cell(ev, gref, fi, j, p, expected, ward, checks):
    """Check one cell layer by layer against the references.

    ``expected`` is the (ARI as text, marker, formatter) the measured run
    reported for the cell, or None; ``ward`` asks for the Ward check, the
    costliest one.
    """
    name = FAMILIES[fi]
    g = ev.graph
    where = f"{name} p={p:.6g}"
    try:
        measure = ev.matrix(name, p)
        sq = clustering_sqdist(measure)
    except KernelBenchError as exc:
        marker = type(exc).__name__
        kind = ref.classify(name, marker)
        checks.expect(kind != "unexplained", "error_marker", f"{where}: {marker}")
        if marker == "NumericalOverflow":
            checks.expect(gref.overflows(name, p), "error_marker", f"{where}: overflow below exp range")
        if expected is not None:
            checks.expect(expected[1] == marker, "reported_cell", f"{where}: {expected} vs {marker}")
        return
    err = ref.kernel_error(name, measure.matrix, gref.kernel(name, p))
    checks.expect(err <= ref.KERNEL_RTOL, "kernel", f"{where}: normwise error {err:.3g}")
    err = ref.sqdist_error(name, measure.matrix, sq)
    checks.expect(err <= ref.SQDIST_RTOL, "ward_input", f"{where}: error {err:.3g}")
    k = g.num_classes
    partition = ward_cluster(sq, k)
    score = adjusted_rand_index(partition, g.labels)
    want = ref.ari(partition.labels, g.labels)
    checks.expect(abs(score - want) <= 1e-12, "ari", f"{where}: {score!r} vs contingency {want!r}")
    if expected is not None:
        checks.expect(expected[1] == "" and expected[0] == expected[2](score), "reported_cell",
                      f"{where}: reported {expected}, replayed {score!r}")
    if ward:
        scaled = np.ldexp(sq, ref.rescale_exponent(sq))
        labels, is_tied = ref.ward_cut(scaled, k)
        if is_tied:
            checks.counts["ward_tied"] += 1
        else:
            got = ref.canonical(ward_cluster(scaled, k).labels)
            checks.expect(np.array_equal(got, labels), "ward_cut", f"{where}: cut differs from Lance-Williams reference")
