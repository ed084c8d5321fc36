"""Declarative experiment configurations.

Config files are YAML-syntax key/value documents (committed examples live
in ``configs/``).  Every key is validated before any computation starts and
unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigInvalid, ParameterOutOfRange
from .evaluation import Statistic
from .families import FAMILIES, check_constants
from .generators import BlockModelSpec, block_model_spec, six_class_spec, two_class_unequal_spec, uniform_spec

KINDS = ("sweep", "tournament", "reject", "datasets")

_TOP_KEYS = {
    "kind", "families", "tasks", "grid", "graphs", "statistic", "seed",
    "workers", "out", "constants", "data_root",
}
_UNIFORM_TASK_KEYS = {"nodes", "classes", "p_in", "p_out"}
_UNEQUAL_TASK_KEYS = {"nodes", "n1", "p_in", "p_out"}
_GENERAL_TASK_KEYS = {"sizes", "probabilities"}

# Integer settings and their least values, alike in a config file and in
# the CLI overrides.
_LEAST = {"seed": 0, "workers": 0, "grid": 1, "graphs": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    families: tuple[str, ...]
    tasks: tuple  # BlockModelSpec... for generated kinds, dataset names for "datasets"
    grid_size: int
    graphs_per_task: int
    statistic: Statistic
    seed: int
    workers: int
    out: str
    constants: dict[str, float]
    data_root: str | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigInvalid(message)


def _count(key: str, value) -> int:
    # bool is an int subclass, so YAML's true/false would pass as 1/0
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= _LEAST[key],
             f"'{key}' must be an integer >= {_LEAST[key]}")
    return value


def _task_spec(entry, index: int, seed: int) -> BlockModelSpec:
    task_seed = seed + index
    if isinstance(entry, str):
        _require(entry == "sixclass150", f"unknown task shorthand {entry!r}")
        return six_class_spec(seed=task_seed)
    _require(isinstance(entry, dict), f"task #{index} must be a mapping or shorthand")
    keys = set(entry)
    if keys == _UNIFORM_TASK_KEYS:
        return uniform_spec(int(entry["nodes"]), int(entry["classes"]),
                            float(entry["p_in"]), float(entry["p_out"]), task_seed)
    if keys == _UNEQUAL_TASK_KEYS:
        return two_class_unequal_spec(int(entry["n1"]), int(entry["nodes"]),
                                      float(entry["p_in"]), float(entry["p_out"]), task_seed)
    if keys == _GENERAL_TASK_KEYS:
        return block_model_spec(entry["sizes"], entry["probabilities"], task_seed)
    raise ConfigInvalid(
        f"task #{index}: keys {sorted(keys)} match no task shape "
        f"(uniform {sorted(_UNIFORM_TASK_KEYS)}, unequal {sorted(_UNEQUAL_TASK_KEYS)}, "
        f"general {sorted(_GENERAL_TASK_KEYS)})"
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config root must be a mapping")
    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("kind" in raw, "config needs a 'kind'")
    kind = str(raw["kind"])
    _require(kind in KINDS, f"kind must be one of {KINDS}, got {kind!r}")

    families = tuple(str(f) for f in raw.get("families", ()))
    _require(len(families) > 0, "config needs a nonempty 'families' list")
    bad = [f for f in families if f not in FAMILIES]
    _require(not bad, f"unknown families: {bad}")
    _require(len(set(families)) == len(families), "duplicate family names")

    seed = _count("seed", raw.get("seed", 1))
    grid_size = _count("grid", raw.get("grid", 55 if kind == "datasets" else 50))
    graphs = _count("graphs", raw.get("graphs", 1 if kind == "datasets" else 50))

    try:
        statistic = Statistic.parse(str(raw.get("statistic", "max")))
    except Exception as exc:
        raise ConfigInvalid(f"bad 'statistic': {exc}") from None

    workers = _count("workers", raw.get("workers", 1))
    try:
        constants = check_constants(raw.get("constants", {}))
    except ParameterOutOfRange as exc:
        raise ConfigInvalid(str(exc)) from None

    tasks_raw = raw.get("tasks", ())
    _require(isinstance(tasks_raw, (list, tuple)) and len(tasks_raw) > 0,
             "config needs a nonempty 'tasks' list")
    if kind == "datasets":
        _require(all(isinstance(t, str) for t in tasks_raw),
                 "'datasets' tasks must be dataset names")
        tasks = tuple(str(t) for t in tasks_raw)
    else:
        tasks = tuple(_task_spec(t, i, seed) for i, t in enumerate(tasks_raw))

    out = str(raw.get("out", f"runs/{kind}"))
    data_root = raw.get("data_root")
    if data_root is not None:
        data_root = str(data_root)

    return ExperimentConfig(kind, families, tasks, grid_size, graphs, statistic,
                            seed, workers, out, constants, data_root)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid(f"no such config file: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"{path.name}: {exc}") from None
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Round-trippable dict for the run manifest."""
    if cfg.kind == "datasets":
        tasks = list(cfg.tasks)
    else:
        tasks = [spec.to_dict() for spec in cfg.tasks]
    return {
        "kind": cfg.kind,
        "families": list(cfg.families),
        "tasks": tasks,
        "grid": cfg.grid_size,
        "graphs": cfg.graphs_per_task,
        "statistic": str(cfg.statistic),
        "seed": cfg.seed,
        "workers": cfg.workers,
        "out": cfg.out,
        "constants": dict(cfg.constants),
        "data_root": cfg.data_root,
    }


def apply_overrides(cfg: ExperimentConfig, seed=None, workers=None, out=None,
                    grid=None, graphs=None) -> ExperimentConfig:
    """CLI flag overrides, checked as in a config file; a new seed
    re-derives the per-task spec seeds."""
    for key, value in (("seed", seed), ("workers", workers), ("grid", grid), ("graphs", graphs)):
        if value is not None:
            _count(key, value)
    if seed is not None and seed != cfg.seed and cfg.kind != "datasets":
        tasks = tuple(
            dataclasses.replace(spec, seed=seed + i) for i, spec in enumerate(cfg.tasks)
        )
        cfg = dataclasses.replace(cfg, tasks=tasks)
    updates = {}
    if seed is not None:
        updates["seed"] = seed
    if workers is not None:
        updates["workers"] = workers
    if out is not None:
        updates["out"] = out
    if grid is not None:
        updates["grid_size"] = grid
    if graphs is not None:
        updates["graphs_per_task"] = graphs
    return dataclasses.replace(cfg, **updates) if updates else cfg
