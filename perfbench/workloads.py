"""The benchmark's workloads: their inputs, made from a seed, and one round.

A round is the same list of cells every time.  Each workload mixes fixed
inputs, which do not depend on the seed, with seeded ones.  Failed cells
(F1–F3, see README.md) are counted on the fixed inputs only, so the share of
failed cells is the same in every run whatever the seed.

This module is imported by the measured process, so it imports nothing but
kernelbench and numpy at module level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kernelbench import FAMILY_NAMES, Statistic, parameter_grid, sweep_graphs
from kernelbench.evaluation import copeland_scores, family_statistics

FAMILIES = tuple(FAMILY_NAMES)
FIXED_SEED = 20240501  # the repository's default seed
MAX = Statistic.parse("max")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # a config kind run with runner.run, or "datasets": the calls that kind makes
    workers: int
    grid: int
    kernel_samples: int  # checked cells per family and graph
    ward_samples: int  # of those, cells whose Ward cut is checked, per graph
    graphs: int = 1
    task: str = ""

    @property
    def protocol(self) -> str:
        return "datasets" if self.kind == "datasets" else "runner"

    def config(self) -> str:
        return (f"kind: {self.kind}\nseed: {FIXED_SEED}\ngrid: {self.grid}\ngraphs: {self.graphs}\n"
                f"workers: {self.workers}\nfamilies: [{', '.join(FAMILIES)}]\ntasks:\n  - {self.task}\n")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sbm100-sweep", "sweep", 1, 50, 2, 12,
                 task="{nodes: 100, classes: 2, p_in: 0.3, p_out: 0.1}"),
        Workload("sbm200-reject-2w", "reject", 2, 4, 1, 4, graphs=2,
                 task="{nodes: 200, classes: 4, p_in: 0.3, p_out: 0.1}"),
        Workload("sparse-datasets", "datasets", 1, 55, 2, 8),
    )
}


# -- input files ---------------------------------------------------------------

def write_gml(path: Path, adjacency: np.ndarray, labels) -> None:
    lines = ["graph [", "  directed 0"]
    for i, c in enumerate(labels):
        lines += ["  node [", f"    id {i}", f'    label "{i}"', f"    value {int(c)}", "  ]"]
    iu, ju = np.nonzero(np.triu(adjacency, 1))
    for u, v in zip(iu, ju):
        lines += ["  edge [", f"    source {u}", f"    target {v}", "  ]"]
    lines.append("]")
    path.write_text("\n".join(lines) + "\n")


def write_edgelist(path: Path, adjacency: np.ndarray, labels) -> np.ndarray:
    """Write ``u v w`` lines and the ``.labels`` sidecar.

    The loader numbers nodes in order of first appearance, so the sidecar
    lists labels in that order.  Returns that order (old node per new node).
    """
    iu, ju = np.nonzero(np.triu(adjacency, 1))
    path.write_text("".join(f"{u} {v} {float(adjacency[u, v])!r}\n" for u, v in zip(iu, ju)))
    order = list(dict.fromkeys(int(x) for pair in zip(iu, ju) for x in pair))
    order = np.array(order)
    path.with_suffix(".labels").write_text("".join(f"{int(labels[i])}\n" for i in order))
    return order


def zachary():
    """Karate club with the faction labels scripts/fetch_datasets.py writes."""
    import networkx as nx

    g = nx.karate_club_graph()
    labels = np.array([0 if g.nodes[i]["club"] == "Mr. Hi" else 1 for i in sorted(g.nodes)])
    labels[8] = 1  # actor 9 sides with the officers in the faction model
    return nx.to_numpy_array(g, nodelist=sorted(g.nodes), weight=None), labels


def ring_of_cliques():
    import networkx as nx

    g = nx.ring_of_cliques(12, 10)
    return nx.to_numpy_array(g, nodelist=sorted(g.nodes)), np.arange(120) // 10


def sparse_spec(seed: int):
    from kernelbench import block_model_spec

    p = np.full((12, 12), 0.004)
    np.fill_diagonal(p, 0.8)
    return block_model_spec((10,) * 12, p, seed, name="sbm12x10")


def weighted_sparse_graph(seed: int):
    """The seeded 12x10 block model with similarity weights drawn from [0.5, 1)."""
    from kernelbench import generate

    g = generate(sparse_spec(seed), 0)
    a = g.adjacency.copy()
    iu, ju = np.nonzero(np.triu(a, 1))
    w = np.random.default_rng(seed).uniform(0.5, 1.0, iu.shape[0])
    a[iu, ju] = w
    a[ju, iu] = w
    return a, np.asarray(g.labels)


def prepare(workload: Workload, seed: int, out: Path) -> dict:
    """Write the workload's input files under ``out`` and return its plan."""
    out.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload.name, "kind": workload.kind, "protocol": workload.protocol,
            "workers": workload.workers, "grid": workload.grid, "seed": seed}
    if workload.protocol == "runner":
        config = out / "workload.cfg"
        config.write_text(workload.config())
        plan["config"] = str(config)
        plan["runs"] = [
            {"tag": "fixed", "seed": None, "out": str(out / "run-fixed")},
            {"tag": "seeded", "seed": seed, "out": str(out / "run-seeded")},
        ]
        return plan
    files = []
    for name, (a, lab) in (("zachary", zachary()), ("ring12x10", ring_of_cliques())):
        path = out / f"{name}.gml"
        write_gml(path, a, lab)
        files.append({"name": name, "fixed": True, "path": str(path), "adjacency": a,
                      "labels": lab, "order": list(range(len(lab)))})
    a, lab = weighted_sparse_graph(seed)
    path = out / f"sbm12x10w-s{seed}.edges"
    order = write_edgelist(path, a, lab)
    files.append({"name": path.stem, "fixed": False, "path": str(path), "adjacency": a,
                  "labels": lab, "order": order.tolist()})
    plan["files"] = [{k: v for k, v in f.items() if k in ("name", "fixed", "path")} for f in files]
    plan["_written"] = files  # kept in memory by the parent for the load check
    return plan


def save_plan(plan: dict, path: Path) -> None:
    path.write_text(json.dumps({k: v for k, v in plan.items() if not k.startswith("_")}))


def cells_per_round(plan: dict) -> int:
    if plan["protocol"] == "datasets":
        return len(plan["files"]) * len(FAMILIES) * plan["grid"]
    cfg = load_runner_config(plan)
    return len(plan["runs"]) * len(cfg.tasks) * cfg.graphs_per_task * len(cfg.families) * cfg.grid_size


# -- set-up and one round, as the measured process runs them ----------------------

def load_runner_config(plan: dict):
    from kernelbench.config import load_config

    return load_config(plan["config"])


def run_configs(plan: dict, cfg):
    """(tag, config) of each runner.run call in a round: fixed seed first."""
    from kernelbench.config import apply_overrides

    return [(r["tag"], apply_overrides(cfg, seed=r["seed"], out=r["out"])) for r in plan["runs"]]


def setup(plan: dict):
    """What a user pays before the first cell: parse the config or load the files."""
    if plan["protocol"] == "runner":
        return run_configs(plan, load_runner_config(plan))
    from kernelbench import load_graph

    return [load_graph(f["path"]) for f in plan["files"]]


def run_round(plan: dict, state):
    """One round of the workload; returns what the checks compare."""
    if plan["protocol"] == "runner":
        from kernelbench.runner import run

        for _, cfg in state:
            run(cfg)
        return None
    grid = parameter_grid(plan["grid"])
    outputs = []
    for g in state:
        sweeps = sweep_graphs([g], FAMILIES, grid)
        scores = copeland_scores(family_statistics(sweeps, FAMILIES, MAX))
        outputs.append({
            "ari": [sweeps[name].ari[0].tolist() for name in FAMILIES],
            "errors": [[fi, j, marker] for fi, name in enumerate(FAMILIES)
                       for _, j, marker in sweeps[name].errors],
            "scores": scores.tolist(),
        })
    return outputs
