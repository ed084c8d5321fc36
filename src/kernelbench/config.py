"""Declarative experiment configurations.

Config files are YAML-syntax key/value documents (committed examples live
in ``configs/``).  Every key is checked before any computation starts, and
a key its kind does not read is refused.  ``config_from_dict`` is the one
parser; CLI overrides and the manifest (``config_to_dict``) go through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigInvalid
from .evaluation import Statistic
from .families import FAMILIES
from .generators import BlockModelSpec, block_model_spec, uniform_spec

# The keys each kind reads; a config field its kind does not read is None.
_GENERATED = ("kind", "families", "tasks", "grid", "graphs", "seed", "workers", "out")
KIND_KEYS = {
    "sweep": _GENERATED,
    "tournament": _GENERATED + ("statistic",),
    "reject": _GENERATED,
    "datasets": ("kind", "families", "tasks", "grid", "statistic", "out"),
}
KINDS = tuple(KIND_KEYS)
_UNIFORM_TASK_KEYS = {"nodes", "classes", "p_in", "p_out"}
_GENERAL_TASK_KEYS = {"sizes", "probabilities"}  # and an optional "name"

# Integer settings and their least values.
_LEAST = {"seed": 0, "workers": 0, "grid": 1, "graphs": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    families: tuple[str, ...]
    tasks: tuple  # BlockModelSpec... for generated kinds, dataset names for "datasets"
    grid_size: int
    graphs_per_task: int | None
    statistic: Statistic | None
    seed: int | None
    workers: int | None
    out: str


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigInvalid(message)


def check_count(key: str, value) -> int:
    """``value`` if it is an integer of at least the least value of the
    setting ``key`` (seed, workers, grid or graphs); else ConfigInvalid."""
    # bool is an int subclass, so YAML's true/false would pass as 1/0
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= _LEAST[key],
             f"'{key}' must be an integer >= {_LEAST[key]}")
    return value


def _statistic(key: str, value) -> Statistic:
    try:
        return Statistic.parse(str(value))
    except Exception as exc:
        raise ConfigInvalid(f"bad '{key}': {exc}") from None


def _task_spec(entry, index: int, seed: int) -> BlockModelSpec:
    """The task's shape picks its builder, which checks the fields."""
    keys = set(entry) if isinstance(entry, dict) else set()
    try:
        if keys == _UNIFORM_TASK_KEYS:
            return uniform_spec(entry["nodes"], entry["classes"], entry["p_in"], entry["p_out"],
                                seed + index)
        if keys - {"name"} == _GENERAL_TASK_KEYS:
            return block_model_spec(entry["sizes"], entry["probabilities"], seed + index,
                                    entry.get("name", ""))
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"task #{index}: {exc}") from None
    found = f"keys {sorted(map(str, keys))}" if isinstance(entry, dict) else repr(entry)
    raise ConfigInvalid(
        f"task #{index} matches no task shape (uniform {sorted(_UNIFORM_TASK_KEYS)}, "
        f"general {sorted(_GENERAL_TASK_KEYS)} and an optional 'name'); got {found}"
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config root must be a mapping")
    unknown = set(raw).difference(*KIND_KEYS.values())
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("kind" in raw, "config needs a 'kind'")
    kind = str(raw["kind"])
    _require(kind in KINDS, f"kind must be one of {KINDS}, got {kind!r}")
    ignored = sorted(set(raw).difference(KIND_KEYS[kind]))
    if ignored:
        raise ConfigInvalid(f"'{ignored[0]}' does not apply to kind '{kind}'")

    families = raw.get("families", ())
    _require(isinstance(families, (list, tuple)) and len(families) > 0,
             "config needs a nonempty 'families' list")
    families = tuple(str(f) for f in families)
    bad = [f for f in families if f not in FAMILIES]
    _require(not bad, f"unknown families: {bad}")
    _require(len(set(families)) == len(families), "duplicate family names")
    _require(kind in ("sweep", "reject") or len(families) >= 2,
             f"kind {kind!r} ranks families against each other and needs at least 2")

    def setting(key, default, parse):
        # a field its kind does not read is None, so code that reads one
        # fails instead of getting a value no config set
        return parse(key, raw.get(key, default)) if key in KIND_KEYS[kind] else None

    seed = setting("seed", 1, check_count)
    grid_size = setting("grid", 55 if kind == "datasets" else 50, check_count)
    graphs = setting("graphs", 50, check_count)
    statistic = setting("statistic", "max", _statistic)
    workers = setting("workers", 1, check_count)

    tasks_raw = raw.get("tasks", ())
    _require(isinstance(tasks_raw, (list, tuple)) and len(tasks_raw) > 0,
             "config needs a nonempty 'tasks' list")
    if kind == "datasets":
        _require(all(isinstance(t, str) for t in tasks_raw),
                 "'datasets' tasks must be dataset names")
        tasks = tuple(str(t) for t in tasks_raw)
    else:
        tasks = tuple(_task_spec(t, i, seed) for i, t in enumerate(tasks_raw))

    out = raw.get("out", f"runs/{kind}")
    # an empty path would write the run's files into the working directory
    _require(isinstance(out, str) and out != "", f"'out' must be a nonempty string, got {out!r}")

    return ExperimentConfig(kind, families, tasks, grid_size, graphs, statistic,
                            seed, workers, out)


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, whose YAML 1.1 floats need a dot and a signed
    exponent, plus YAML 1.2's float form, so that 1e9 and 1.0e9 are numbers.
    The form is tried after every other implicit type, so it only turns
    what was a string into a float."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid(f"no such config file: {path}")
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"{path.name}: {exc}") from None
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config file {path} is not UTF-8: {exc.reason} "
                            f"at byte {exc.start}") from None
    return config_from_dict(raw)


def _task_entry(spec: BlockModelSpec, index: int, seed: int) -> dict:
    """A generated task in the general shape; its seed is left out, as
    ``_task_spec`` derives it from the config seed and the task's index."""
    entry = {"sizes": list(spec.sizes), "probabilities": spec.probabilities.tolist(),
             "name": spec.name}
    _require(_task_spec(entry, index, seed).seed == spec.seed,
             f"task #{index} ({spec.name}) has seed {spec.seed}, not the one config seed "
             f"{seed} gives it")
    return entry


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The keys its kind reads, for the run manifest: ``config_from_dict``
    parses them back to the same config."""
    values = {
        "kind": cfg.kind, "families": list(cfg.families), "grid": cfg.grid_size,
        "graphs": cfg.graphs_per_task, "statistic": str(cfg.statistic), "seed": cfg.seed,
        "workers": cfg.workers, "out": cfg.out,
        "tasks": (list(cfg.tasks) if cfg.kind == "datasets"
                  else [_task_entry(spec, i, cfg.seed) for i, spec in enumerate(cfg.tasks)]),
    }
    return {key: values[key] for key in KIND_KEYS[cfg.kind]}


def apply_overrides(cfg: ExperimentConfig, seed=None, workers=None, out=None,
                    grid=None, graphs=None) -> ExperimentConfig:
    """CLI flag overrides: each flag given is set as the file key of its
    name and the result is parsed as a config file is."""
    raw = config_to_dict(cfg)
    flags = {"seed": seed, "workers": workers, "out": out, "grid": grid, "graphs": graphs}
    raw.update({key: value for key, value in flags.items() if value is not None})
    return config_from_dict(raw)
