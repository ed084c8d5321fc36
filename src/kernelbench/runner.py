"""Run orchestration and persistence.

Each run writes its outputs into the configured directory: a manifest with
the keys its kind reads, fixed-schema CSV tables, and standalone SVG plots
for curve-shaped results.  Re-running an identical configuration reproduces
every CSV byte-for-byte (only the manifest timestamp differs), regardless
of worker count.
"""

from __future__ import annotations

import csv
import datetime
import json
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_to_dict
from .datasets import load_dataset
from .errors import ConfigInvalid
from .evaluation import (
    REJECT_XS,
    SweepResult,
    best_of_grid,
    copeland_scores,
    family_statistics,
    parameter_grid,
    reject_experiment,
    sweep_graphs,
    sweep_task,
)
from .plots import write_curves_svg


def _fnum(v: float) -> str:
    return f"{float(v):.10g}"


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _sweep_rows(task_name: str, families, sweeps: dict[str, SweepResult]):
    rows = []
    for name in families:
        result = sweeps[name]
        markers = {(gi, j): marker for gi, j, marker in result.errors}
        n_graphs = result.ari.shape[0]
        for j, p in enumerate(result.grid):
            for gi in range(n_graphs):
                rows.append((
                    task_name, name, _fnum(p), gi,
                    _fnum(result.ari[gi, j]), markers.get((gi, j), ""),
                ))
    return rows


def _write_tournament(path: Path, families, tasks, scores: np.ndarray) -> None:
    """tournament.csv: a (family, task, score) row per cell of the
    (n_families, n_tasks) score table, then each family's total."""
    rows = [(fam, task, int(scores[fi, ti]))
            for fi, fam in enumerate(families) for ti, task in enumerate(tasks)]
    rows += [(fam, "total", int(scores[fi].sum())) for fi, fam in enumerate(families)]
    _write_csv(path, ("family", "task", "score"), rows)


def _mean_curves(families, sweeps):
    return [(name, sweeps[name].ari.mean(axis=0)) for name in families]


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in name)


def _task_names(cfg: ExperimentConfig) -> list[str]:
    return list(cfg.tasks) if cfg.kind == "datasets" else [spec.name for spec in cfg.tasks]


def run(cfg: ExperimentConfig) -> Path:
    """Execute a configuration and return its output directory."""
    # tasks name their rows and plot files, so two that write the same name
    # stop the run before its output directory exists
    names = _task_names(cfg)
    safe = [_safe(name) for name in names]
    clash = sorted({name for name, s in zip(names, safe) if safe.count(s) > 1})
    if clash:
        raise ConfigInvalid(f"tasks {clash} share a name in the run's files")
    # every dataset is loaded before anything is written, so an unknown or
    # missing one stops the run with no output directory
    graphs = [load_dataset(name) for name in cfg.tasks] if cfg.kind == "datasets" else []
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot make output directory {out}: {exc.strerror}") from None
    grid = parameter_grid(cfg.grid_size)

    if cfg.kind == "sweep":
        _run_sweep(cfg, grid, out)
    elif cfg.kind == "reject":
        _run_reject(cfg, grid, out)
    else:
        _run_tournament(cfg, graphs, grid, out)

    manifest = {
        "config": config_to_dict(cfg),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def _run_sweep(cfg, grid, out):
    sweep_rows = []
    best_rows = []
    for spec in cfg.tasks:
        sweeps = sweep_task(spec, cfg.families, grid, cfg.graphs_per_task, cfg.workers)
        sweep_rows.extend(_sweep_rows(spec.name, cfg.families, sweeps))
        for name in cfg.families:
            p, ari = best_of_grid(sweeps[name])
            best_rows.append((spec.name, name, _fnum(p), _fnum(ari)))
        write_curves_svg(
            out / f"sweep_{_safe(spec.name)}.svg", grid,
            _mean_curves(cfg.families, sweeps),
            title=f"mean ARI vs parameter: {spec.name}",
            xlabel="normalized parameter", ylabel="mean ARI",
            y_range=(-1.0, 1.0),
        )
    _write_csv(out / "sweep.csv",
               ("task", "family", "param", "graph_index", "ari", "error"), sweep_rows)
    _write_csv(out / "best_params.csv", ("task", "family", "param", "ari"), best_rows)


def _run_reject(cfg, grid, out):
    reject_rows = ["family,x,y_mean\r\n"]
    best_rows = []
    # a curve's reject.csv rows, as csv.writer writes them from _fnum values,
    # in one % call; family names come from the registry and need no quoting
    template = "".join(f"{{family}},{_fnum(x)},%.10g\r\n" for x in REJECT_XS.tolist())
    for spec in cfg.tasks:
        averaged = reject_experiment(spec, cfg.families, grid, cfg.graphs_per_task, cfg.workers)
        curves = []
        for name in cfg.families:
            p, curve = averaged[name]
            # a family that errored on every graph has no curve
            auc = np.nan if curve is None else curve.auc
            best_rows.append((spec.name, name, _fnum(p), _fnum(auc)))
            curves.append((name, None if curve is None else curve.y))
            if curve is not None:
                reject_rows.append(template.replace("{family}", name) % tuple(curve.y.tolist()))
        write_curves_svg(
            out / f"reject_{_safe(spec.name)}.svg", REJECT_XS, curves,
            title=f"average reject curves: {spec.name}",
            xlabel="inter-class share", ylabel="intra-class share", y_range=(0.0, 1.0),
        )
    (out / "reject.csv").write_text("".join(reject_rows), newline="")
    _write_csv(out / "best_params.csv", ("task", "family", "param", "auc"), best_rows)


def _run_tournament(cfg, graphs, grid, out):
    """Copeland scores per task: each task's sweeps reduced to one statistic
    per graph and family.  A generated task samples ``graphs_per_task``
    graphs; a dataset is its one graph, and its sweep rows are kept too."""
    sweep_rows = []
    scores = np.zeros((len(cfg.families), len(cfg.tasks)), dtype=np.int64)
    for ti, task in enumerate(cfg.tasks):
        if cfg.kind == "datasets":
            sweeps = sweep_graphs([graphs[ti]], cfg.families, grid)
            sweep_rows.extend(_sweep_rows(task, cfg.families, sweeps))
        else:
            sweeps = sweep_task(task, cfg.families, grid, cfg.graphs_per_task, cfg.workers)
        scores[:, ti] = copeland_scores(family_statistics(sweeps, cfg.families, cfg.statistic))
    _write_tournament(out / "tournament.csv", cfg.families, _task_names(cfg), scores)
    if cfg.kind == "datasets":
        _write_csv(out / "sweep.csv",
                   ("task", "family", "param", "graph_index", "ari", "error"), sweep_rows)
