import csv
import dataclasses
import io
import json
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from kernelbench import acceptance, cli, runner
from kernelbench.cli import main
from kernelbench.config import apply_overrides, config_from_dict, config_to_dict, load_config
from kernelbench.errors import ConfigInvalid
from kernelbench.evaluation import REJECT_XS, RejectCurve
from kernelbench.plots import PALETTE
from kernelbench.runner import run

CONFIGS = Path(__file__).parents[1] / "configs"
MINI_SWEEP = """
kind: sweep
seed: 11
grid: 4
graphs: 2
families: [Heat, SP-CT]
out: "{out}"
tasks:
  - {{nodes: 16, classes: 2, p_in: 0.9, p_out: 0.1}}
"""


def _write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _task_specs(cfg):
    return [(t.sizes, t.probabilities.tolist(), t.seed, t.name) for t in cfg.tasks]


# The keys each kind reads, written out here as a second record of the map.
GENERATED_KEYS = {"kind", "families", "tasks", "grid", "graphs", "seed", "workers", "out"}
KEYS_BY_KIND = {
    "sweep": GENERATED_KEYS,
    "tournament": GENERATED_KEYS | {"statistic"},
    "reject": GENERATED_KEYS,
    "datasets": {"kind", "families", "tasks", "grid", "statistic", "out"},
}
# (kind, key, value): every setting a kind was once given and never read
DROPPED_KEYS = [
    ("sweep", "statistic", "max"), ("reject", "statistic", "max"),
    ("datasets", "seed", 5), ("datasets", "workers", 2),
]


def _minimal(kind):
    """A small valid config of the kind."""
    task = {"nodes": 12, "classes": 2, "p_in": 0.9, "p_out": 0.1}
    raw = {"kind": kind, "families": ["Heat", "SP-CT"], "grid": 2,
           "tasks": ["zachary"] if kind == "datasets" else [task]}
    if kind != "datasets":
        raw["graphs"] = 1
    return raw


def _assert_round_trips(cfg):
    """The config's file keys parse back to the same keys and task specs.
    Specs compare by identity, so configs are compared through their keys."""
    keys = config_to_dict(cfg)
    back = config_from_dict(keys)
    assert config_to_dict(back) == keys
    if cfg.kind != "datasets":
        assert _task_specs(back) == _task_specs(cfg)


def _assert_manifest_round_trips(out, cfg):
    keys = json.loads((out / "manifest.json").read_text())["config"]
    assert keys == config_to_dict(cfg)
    assert set(keys) == KEYS_BY_KIND[cfg.kind]
    assert config_to_dict(config_from_dict(keys)) == keys
    if cfg.kind != "datasets":
        assert _task_specs(config_from_dict(keys)) == _task_specs(cfg)


class TestConfig:
    def test_minimal_sweep_config(self, tmp_path):
        cfg = load_config(_write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "r")))
        assert cfg.kind == "sweep"
        assert cfg.families == ("Heat", "SP-CT")
        assert cfg.grid_size == 4
        assert cfg.tasks[0].sizes == (8, 8)
        assert cfg.tasks[0].seed == 11

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid, match="unknown config keys"):
            config_from_dict({"kind": "sweep", "families": ["Heat"],
                              "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}],
                              "bogus": 1})

    def test_empty_families_rejected(self):
        with pytest.raises(ConfigInvalid, match="families"):
            config_from_dict({"kind": "sweep", "families": [],
                              "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigInvalid, match="unknown families"):
            config_from_dict({"kind": "sweep", "families": ["Warp"],
                              "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})

    @pytest.mark.parametrize("constants, match", [
        ({"Comm": "fast"}, "finite number > 0"),
        ({"Comm": [1.0, 2.0]}, "finite number > 0"),
        ({"Comm": True}, "finite number > 0"),
        ({"Comm": -2.0}, "finite number > 0"),
        ({"Comm": 0}, "finite number > 0"),
        ({"Comm": float("inf")}, "finite number > 0"),
        ({"Comm": float("nan")}, "finite number > 0"),
        ({"pWalk": 2.0}, "only scale"),
        ({"Walk": 2.0}, "only scale"),
        ({"SP-CT": 2.0}, "only scale"),
        ({"Warp": 2.0}, "unknown families"),
    ])
    def test_bad_constants_rejected(self, constants, match):
        # ratio families take t = p/(1-p): a 'constants' key of any value is
        # an unknown key, not a value check the old rule ('match') made
        with pytest.raises(ConfigInvalid, match=r"unknown config keys: \['constants'\]") as info:
            config_from_dict({"kind": "sweep", "families": ["Comm"], "constants": constants,
                              "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})
        assert match not in str(info.value)

    @pytest.mark.parametrize("text", ["1e9", "1.0e9"])
    def test_unsigned_exponent_is_a_number(self, tmp_path, text):
        # YAML 1.1 wants a signed exponent; the loader reads YAML 1.2 floats,
        # so 1e9 fails the probability range check, not the number check
        path = _write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "r")
                          .replace("p_in: 0.9", f"p_in: {text}"))
        with pytest.raises(ConfigInvalid, match=r"edge probabilities must lie in \[0, 1\]"):
            load_config(path)

    def test_unsigned_negative_exponent_is_a_number(self, tmp_path):
        path = _write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "r")
                          .replace("p_out: 0.1", "p_out: 5e-2"))
        assert load_config(path).tasks[0].probabilities[0, 1] == 0.05

    def test_quoted_number_is_still_a_string(self, tmp_path):
        path = _write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "r")
                          .replace("p_in: 0.9", 'p_in: "0.3"'))
        with pytest.raises(ConfigInvalid, match="'p_in' must be a real number"):
            load_config(path)

    @pytest.mark.parametrize("task", [
        {"nodes": 10, "classes": 2, "p_in": float("nan"), "p_out": 0.1},
        {"sizes": [3, 4], "probabilities": [[0.9, float("nan")], [float("nan"), 0.9]]},
    ], ids=["uniform", "general"])
    def test_nan_probability_is_out_of_range(self, task):
        # NaN also fails the symmetry check, whose message would mislead
        with pytest.raises(ConfigInvalid, match=r"edge probabilities must lie in \[0, 1\]"):
            config_from_dict({"kind": "sweep", "families": ["Heat"], "tasks": [task]})

    def test_bad_task_shape_rejected(self):
        # YAML keys need not be strings, nor of one type
        for task, keys in [({"nodes": 10}, "['nodes']"), ({1: 2, "nodes": 10}, "['1', 'nodes']")]:
            with pytest.raises(ConfigInvalid, match="^task #0 matches no task shape") as info:
                config_from_dict({"kind": "sweep", "families": ["Heat"], "tasks": [task]})
            assert str(info.value).endswith(f"; got keys {keys}")

    def test_bad_statistic_rejected(self):
        with pytest.raises(ConfigInvalid, match="statistic"):
            config_from_dict({"kind": "tournament", "families": ["Heat", "For"],
                              "statistic": "median",
                              "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})

    def test_dataset_kind_wants_names(self):
        with pytest.raises(ConfigInvalid, match="dataset names"):
            config_from_dict({"kind": "datasets", "families": ["Heat", "For"],
                              "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})

    def test_dataset_kind_rejects_graphs(self):
        # a datasets run evaluates each dataset's one graph
        with pytest.raises(ConfigInvalid, match="'graphs' does not apply"):
            config_from_dict({"kind": "datasets", "families": ["Heat", "For"], "graphs": 1,
                              "tasks": ["zachary"]})

    def test_dataset_kind_rejects_graphs_override(self):
        cfg = config_from_dict({"kind": "datasets", "families": ["Heat", "For"],
                                "tasks": ["zachary"]})
        with pytest.raises(ConfigInvalid, match="'graphs' does not apply"):
            apply_overrides(cfg, graphs=3)
        with pytest.raises(ConfigInvalid, match="'workers' does not apply to kind 'datasets'"):
            apply_overrides(cfg, workers=2)

    @pytest.mark.parametrize("kind, key, value", DROPPED_KEYS)
    def test_key_its_kind_does_not_read_is_refused(self, tmp_path, capsys, kind, key, value):
        raw = {**_minimal(kind), key: value, "out": str(tmp_path / "o")}
        path = _write_cfg(tmp_path, json.dumps(raw))
        with pytest.raises(ConfigInvalid, match=f"^'{key}' does not apply to kind '{kind}'$"):
            load_config(path)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: '{key}' does not apply to kind '{kind}'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["sweep", "tournament", "reject", "datasets"])
    def test_field_its_kind_does_not_read_is_none(self, kind):
        # code that reads such a field fails instead of getting a default
        cfg = config_from_dict(_minimal(kind))
        fields = {"grid": cfg.grid_size, "graphs": cfg.graphs_per_task,
                  "statistic": cfg.statistic, "seed": cfg.seed, "workers": cfg.workers}
        assert {key for key, value in fields.items() if value is None} == (
            set(fields) - KEYS_BY_KIND[kind])

    @pytest.mark.parametrize("kind", ["sweep", "tournament", "reject", "datasets"])
    def test_data_root_is_unknown_to_every_kind(self, tmp_path, capsys, kind):
        # the data directory has one name, $KERNELBENCH_DATA
        raw = {**_minimal(kind), "data_root": str(tmp_path), "out": str(tmp_path / "o")}
        path = _write_cfg(tmp_path, json.dumps(raw))
        with pytest.raises(ConfigInvalid, match=r"^unknown config keys: \['data_root'\]$"):
            load_config(path)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['data_root']\n"
        assert not (tmp_path / "o").exists()

    def test_key_no_kind_reads_is_unknown(self):
        # 'bogus' is reported as unknown, before 'seed', which datasets ignores
        with pytest.raises(ConfigInvalid, match=r"^unknown config keys: \['bogus'\]$"):
            config_from_dict({**_minimal("datasets"), "seed": 1, "bogus": 1})

    def test_grid_default_by_kind(self):
        base = {"families": ["Heat", "For"], "tasks": ["zachary"]}
        assert config_from_dict({"kind": "datasets", **base}).grid_size == 55
        gen = {"families": ["Heat"], "tasks": [{"nodes": 10, "classes": 2,
                                                "p_in": 0.5, "p_out": 0.1}]}
        assert config_from_dict({"kind": "sweep", **gen}).grid_size == 50

    def test_task_shorthands(self, tmp_path, capsys):
        # a task is the uniform or the general shape; the six-class and
        # unequal-class tasks are general ones (configs/complicated.cfg)
        for task, found in [("sixclass150", "'sixclass150'"),
                            ({"nodes": 30, "n1": 5, "p_in": 0.5, "p_out": 0.1},
                             "keys ['n1', 'nodes', 'p_in', 'p_out']")]:
            raw = {"kind": "sweep", "families": ["Heat"], "grid": 2, "graphs": 1,
                   "out": str(tmp_path / "o"), "tasks": [task]}
            assert main(["run", str(_write_cfg(tmp_path, json.dumps(raw)))]) == 2
            assert capsys.readouterr().err == (
                "error: task #0 matches no task shape (uniform ['classes', 'nodes', 'p_in', "
                "'p_out'], general ['probabilities', 'sizes'] and an optional 'name'); "
                f"got {found}\n")
            assert not (tmp_path / "o").exists()

    def test_general_task_takes_a_name(self):
        cfg = config_from_dict({
            "kind": "sweep", "families": ["Heat"], "seed": 5,
            "tasks": [{"sizes": [3, 4], "probabilities": [[0.9, 0.2], [0.2, 0.9]],
                       "name": "G(7,(2)0.9,0.2)"}],
        })
        assert cfg.tasks[0].name == "G(7,(2)0.9,0.2)"
        _assert_round_trips(cfg)

    def test_task_seed_off_its_index_is_not_written(self):
        cfg = config_from_dict({"kind": "sweep", "families": ["Heat"], "seed": 5,
                                "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})
        cfg = dataclasses.replace(cfg, tasks=(dataclasses.replace(cfg.tasks[0], seed=9),))
        with pytest.raises(ConfigInvalid, match="task #0"):
            config_to_dict(cfg)

    @pytest.mark.parametrize("families, task, match", [
        (["Heat"], {"nodes": "abc", "classes": 2, "p_in": 0.3, "p_out": 0.1},
         "task #0: 'nodes' must be an integer >= 1"),
        (["Heat"], {"nodes": 100.7, "classes": 2, "p_in": 0.3, "p_out": 0.1},
         "task #0: 'nodes' must be an integer >= 1"),
        (["Heat"], {"nodes": 10, "classes": 0, "p_in": 0.3, "p_out": 0.1},
         "task #0: 'classes' must be an integer >= 1"),
        (["Heat"], {"nodes": 10, "n1": 0, "p_in": 0.3, "p_out": 0.1},
         "task #0 matches no task shape"),
        (["Heat"], {"sizes": [3, "x"], "probabilities": [[0.9, 0.2], [0.2, 0.9]]},
         "task #0: 'sizes' must be an integer >= 1"),
        (["Heat"], {"sizes": [3, 0], "probabilities": [[0.9, 0.2], [0.2, 0.9]]},
         "task #0: 'sizes' must be an integer >= 1"),
        (["Heat"], {"sizes": 7, "probabilities": [[0.9]]}, "task #0: 'sizes' must be a list"),
        (["Heat"], {"nodes": 10, "classes": 2, "p_in": "0.3", "p_out": 0.1},
         "task #0: 'p_in' must be a real number"),
        (["Heat"], {"nodes": 10, "classes": 2, "p_in": 0.3, "p_out": True},
         "task #0: 'p_out' must be a real number"),
        (["Heat"], {"sizes": [3, 4], "probabilities": [[0.9, "0.2"], [0.2, 0.9]]},
         "task #0: 'probabilities' must be a real number"),
        (["Heat"], {"sizes": [3, 4], "probabilities": [[0.9, 0.2], [0.2]]},
         "task #0: 'probabilities' must be 2 rows of 2 numbers"),
        (["Heat"], {"sizes": [3, 4], "probabilities": [[0.9, 0.2], [0.2, 0.9]], "name": 5},
         "task #0: 'name' must be a string"),
        ("Heat", {"nodes": 10, "classes": 2, "p_in": 0.3, "p_out": 0.1},
         "nonempty 'families' list"),
        ({"Heat": 1}, {"nodes": 10, "classes": 2, "p_in": 0.3, "p_out": 0.1},
         "nonempty 'families' list"),
        (["Heat"], {"sizes": [1], "probabilities": [[0.9]]},
         "task #0: a block model needs at least two nodes"),
        (["Heat"], {"nodes": 1, "classes": 1, "p_in": 0.3, "p_out": 0.1},
         "task #0: a block model needs at least two nodes"),
    ])
    def test_bad_task_field_is_an_error(self, tmp_path, capsys, families, task, match):
        # JSON is YAML: "0.3" stays a string and true a boolean
        raw = {"kind": "sweep", "families": families, "grid": 2, "graphs": 1,
               "out": str(tmp_path / "o"), "tasks": [task]}
        assert main(["run", str(_write_cfg(tmp_path, json.dumps(raw)))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err
        assert not (tmp_path / "o").exists()

    def test_overrides_rederive_task_seeds(self):
        cfg = config_from_dict({
            "kind": "sweep", "families": ["Heat"], "seed": 5,
            "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1},
                      {"nodes": 12, "classes": 2, "p_in": 0.5, "p_out": 0.1}],
        })
        updated = apply_overrides(cfg, seed=100, grid=7)
        assert updated.seed == 100
        assert [t.seed for t in updated.tasks] == [100, 101]
        assert updated.grid_size == 7

    @pytest.mark.parametrize("key, value", [("seed", True), ("grid", True), ("workers", False)])
    def test_boolean_counts_rejected(self, key, value):
        with pytest.raises(ConfigInvalid, match=f"'{key}' must be an integer"):
            config_from_dict({"kind": "sweep", "families": ["Heat"], key: value,
                              "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})

    @pytest.mark.parametrize("key", ["seed", "grid", "graphs", "workers"])
    @pytest.mark.parametrize("value, accepted", [
        (np.int64(3), True), (np.uint8(3), True), (3.0, False), (np.float64(3), False),
        ("3", False), (np.bool_(True), False),
    ], ids=["int64", "uint8", "float", "float64", "string", "numpy-bool"])
    def test_counts_follow_one_rule(self, key, value, accepted):
        # an integer is an Integral, numpy's included, that is not a bool
        cfg = config_from_dict({"kind": "sweep", "families": ["Heat"],
                                "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5,
                                           "p_out": 0.1}]})
        if not accepted:
            with pytest.raises(ConfigInvalid, match=f"^'{key}' must be an integer >= "):
                apply_overrides(cfg, **{key: value})
            return
        # the manifest holds a plain int
        assert type(config_to_dict(apply_overrides(cfg, **{key: value}))[key]) is int

    def test_boolean_override_rejected(self):
        cfg = config_from_dict({"kind": "sweep", "families": ["Heat"],
                                "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})
        with pytest.raises(ConfigInvalid, match="'seed' must be an integer"):
            apply_overrides(cfg, seed=True)

    def test_readme_config_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg = load_config(_write_cfg(tmp_path, block))
        assert cfg.kind == "tournament"
        assert [t.name for t in cfg.tasks] == [
            "G(100,(2)0.3,0.1)", "unequal(10,90)", "blocks3x4"]

    def test_readme_quickstart_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```python\n", 1)[1].split("```", 1)[0]
        names = {}
        exec(block, names)
        assert names["ari"].shape == (1, 50)
        assert 0.0 <= names["curve"].auc <= 1.0

    def test_committed_configs_parse(self):
        paths = sorted(CONFIGS.glob("*.cfg"))
        assert {"table1.cfg", "complicated.cfg"} <= {path.name for path in paths}
        for path in paths:
            cfg = load_config(path)
            assert len(cfg.families) == 13
            _assert_round_trips(cfg)

    @pytest.mark.parametrize("key, flag, value", [
        ("seed", "--seed", 100), ("workers", "--workers", 2), ("out", "--out", "elsewhere"),
        ("grid", "--grid", 7), ("graphs", "--graphs", 3),
    ])
    def test_flag_parses_as_file_key(self, tmp_path, monkeypatch, key, flag, value):
        seen = []
        monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or tmp_path)
        raw = {"kind": "sweep", "seed": 11, "grid": 4, "graphs": 2, "families": ["Heat"],
               "out": str(tmp_path / "o"),
               "tasks": [{"nodes": 16, "classes": 2, "p_in": 0.9, "p_out": 0.1},
                         {"sizes": [4, 8], "probabilities": [[0.9, 0.1], [0.1, 0.6]],
                          "name": "b4x8"}]}
        path = _write_cfg(tmp_path, json.dumps(raw))
        assert main(["run", str(path), flag, str(value)]) == 0
        edited = load_config(_write_cfg(tmp_path, json.dumps({**raw, key: value}), "edited.cfg"))
        assert config_to_dict(seen[0]) == config_to_dict(edited)
        assert _task_specs(seen[0]) == _task_specs(edited)


class TestRunner:
    def test_sweep_run_outputs(self, tmp_path):
        cfg = load_config(_write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "r")))
        out = run(cfg)
        assert (out / "sweep.csv").exists()
        assert (out / "best_params.csv").exists()
        assert (out / "manifest.json").exists()
        svgs = list(out.glob("sweep_*.svg"))
        assert len(svgs) == 1
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header == "task,family,param,graph_index,ari,error"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["kind"] == "sweep"
        assert set(manifest) == {"config", "version", "timestamp"}
        _assert_manifest_round_trips(out, cfg)
        # polyline data is embedded in the SVG
        assert "<!-- data" in svgs[0].read_text()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = load_config(_write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "r")))
        out = run(cfg)
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix != ".json"}
        manifest_a = json.loads((out / "manifest.json").read_text())
        out = run(cfg)
        second = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix != ".json"}
        manifest_b = json.loads((out / "manifest.json").read_text())
        assert first == second
        manifest_a.pop("timestamp")
        manifest_b.pop("timestamp")
        assert manifest_a == manifest_b

    def test_tournament_run(self, tmp_path):
        cfg = config_from_dict({
            "kind": "tournament", "seed": 3, "grid": 3, "graphs": 2,
            "families": ["Heat", "logHeat", "SP-CT"],
            "out": str(tmp_path / "t"),
            "tasks": [{"nodes": 14, "classes": 2, "p_in": 0.9, "p_out": 0.1}],
        })
        out = run(cfg)
        lines = (out / "tournament.csv").read_text().splitlines()
        assert lines[0] == "family,task,score"
        totals = [line for line in lines[1:] if ",total," in line]
        assert len(totals) == 3
        scores = [int(line.rsplit(",", 1)[1]) for line in totals]
        assert sum(scores) == 0
        _assert_manifest_round_trips(out, cfg)

    def test_reject_run(self, tmp_path):
        cfg = config_from_dict({
            "kind": "reject", "seed": 3, "grid": 3, "graphs": 2,
            "families": ["Heat", "SP-CT"],
            "out": str(tmp_path / "rj"),
            "tasks": [{"nodes": 14, "classes": 2, "p_in": 0.9, "p_out": 0.1}],
        })
        out = run(cfg)
        lines = (out / "reject.csv").read_text().splitlines()
        assert lines[0] == "family,x,y_mean"
        assert len(list(out.glob("reject_*.svg"))) == 1
        _assert_manifest_round_trips(out, cfg)

    def test_reject_run_keeps_family_that_fails_everywhere(self, tmp_path, comm_fails):
        # Comm fails on every graph and grid point: its best_params row
        # keeps its parameter with AUC nan, and it has no curve; Heat is
        # written as in a run without Comm.
        def reject_run(families, name):
            return run(config_from_dict({
                "kind": "reject", "seed": 3, "grid": 3, "graphs": 2, "workers": 1,
                "families": families,
                "out": str(tmp_path / name),
                "tasks": [{"nodes": 30, "classes": 2, "p_in": 0.5, "p_out": 0.1}],
            }))

        both = reject_run(["Comm", "Heat"], "both")
        alone = reject_run(["Heat"], "alone")
        best = (both / "best_params.csv").read_text().splitlines()
        assert best[1] == '"G(30,(2)0.5,0.1)",Comm,0.02,nan'
        assert best[2] == (alone / "best_params.csv").read_text().splitlines()[1]
        rows = (both / "reject.csv").read_text()
        assert rows == (alone / "reject.csv").read_text()
        assert "Comm" not in rows
        svg = next(both.glob("reject_*.svg")).read_text()
        assert svg.count("<polyline") == 1 and "data Comm" not in svg
        # each family keeps the colour of its place in 'families'
        assert f'stroke="{PALETTE[1]}"' in svg and PALETTE[0] not in svg
        assert PALETTE[0] in next(alone.glob("reject_*.svg")).read_text()

    def test_reject_rows_as_csv_writer_writes_them(self, tmp_path, monkeypatch):
        # reject.csv is written a curve at a time; it must hold what
        # csv.writer writes from _fnum values, extreme floats included
        special = [5e-324, 1e-300, 0.1 + 0.2, 1 - 2 ** -53, 0.0, 1.0]
        ys = [np.resize(special, REJECT_XS.shape), np.random.default_rng(3).random(REJECT_XS.shape)]
        curves = {"Heat": ys[0], "Comm": None, "SP-CT": ys[1]}
        monkeypatch.setattr(runner, "reject_experiment", lambda *args: {
            name: (0.5, y if y is None else RejectCurve(REJECT_XS, y, 0.5))
            for name, y in curves.items()})
        out = run(config_from_dict({
            "kind": "reject", "grid": 2, "graphs": 1, "families": list(curves),
            "out": str(tmp_path / "rj"),
            "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.9, "p_out": 0.1}],
        }))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(("family", "x", "y_mean"))
        for name in ("Heat", "SP-CT"):
            writer.writerows((name, runner._fnum(x), runner._fnum(y))
                             for x, y in zip(REJECT_XS, curves[name]))
        assert (out / "reject.csv").read_bytes() == expected.getvalue().encode()

    def test_datasets_run(self, tmp_path, monkeypatch, zachary_root):
        monkeypatch.setenv("KERNELBENCH_DATA", str(zachary_root))
        cfg = config_from_dict({
            "kind": "datasets", "grid": 6,
            "families": ["Heat", "logHeat", "SP-CT"],
            "out": str(tmp_path / "d"),
            "tasks": ["zachary"],
        })
        out = run(cfg)
        assert (out / "tournament.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert config_from_dict(manifest["config"]) == cfg
        _assert_manifest_round_trips(out, cfg)
        rows = (out / "sweep.csv").read_text().splitlines()
        # header + 3 families x 6 grid points x 1 graph
        assert len(rows) == 1 + 18

    def test_svg_text_is_escaped(self, tmp_path):
        out = run(config_from_dict({
            "kind": "sweep", "grid": 2, "graphs": 1, "families": ["Heat"],
            "out": str(tmp_path / "s"),
            "tasks": [{"sizes": [5, 5], "probabilities": [[0.9, 0.1], [0.1, 0.9]],
                       "name": "a&b<c"}],
        }))
        svg = minidom.parse(str(out / "sweep_a_b_c.svg"))
        title = svg.getElementsByTagName("text")[0].firstChild.data
        assert title == "mean ARI vs parameter: a&b<c"

    @pytest.mark.parametrize("kind", ["sweep", "tournament", "reject", "datasets"])
    def test_task_name_clash_stops_before_the_run(self, tmp_path, kind):
        # 'x/y' and 'x_y' write one sweep_x_y.svg; two like uniform tasks
        # share their name and rows
        def named(name):
            return {"sizes": [5, 5], "probabilities": [[0.9, 0.1], [0.1, 0.9]], "name": name}

        uniform = {"nodes": 10, "classes": 2, "p_in": 0.9, "p_out": 0.1}
        clashes = ([["zachary", "zachary"]] if kind == "datasets"
                   else [[named("x/y"), named("x_y")], [uniform, uniform]])
        for tasks in clashes:
            cfg = config_from_dict({"kind": kind, "families": ["Heat", "SP-CT"], "grid": 2,
                                    "out": str(tmp_path / "o"), "tasks": tasks})
            with pytest.raises(ConfigInvalid, match="share a name"):
                run(cfg)
            assert not (tmp_path / "o").exists()


class TestCliMain:
    def test_run_subcommand(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "o"))
        assert main(["run", str(path), "--grid", "3"]) == 0
        assert (tmp_path / "o" / "sweep.csv").exists()

    def test_run_missing_config(self, capsys):
        assert main(["run", "nope.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_config_that_is_a_directory(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config file {tmp_path}: Is a directory\n")

    def test_run_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(MINI_SWEEP.format(out=tmp_path / "o").encode() + b"# caf\xe9\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path} is not UTF-8: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_run_config_with_a_yaml_syntax_error(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, "kind: sweep\nfamilies: [Heat, SP-CT\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: exp.cfg: while parsing a flow sequence")
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.endswith(" (line 3, column 1)\n")

    @pytest.mark.parametrize("text, want", [
        ("a: b: c\n", "error: exp.cfg: mapping values are not allowed here (line 1, column 5)\n"),
        ("kind: sw\x07eep\n",
         "error: exp.cfg: special characters are not allowed: #x0007 (position 8)\n"),
    ], ids=["scanner", "control-character"])
    def test_run_config_yaml_error_on_one_line(self, tmp_path, capsys, text, want):
        assert main(["run", str(_write_cfg(tmp_path, text))]) == 2
        assert capsys.readouterr().err == want

    def test_run_out_that_is_a_file(self, tmp_path, capsys, monkeypatch):
        # the output directory is made before any cell runs
        evaluated = []
        monkeypatch.setattr(runner, "sweep_task", lambda *a: evaluated.append(a))
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        path = _write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "o"))
        assert main(["run", str(path), "--out", str(taken)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot make output directory {taken}: File exists\n")
        assert not evaluated and taken.read_text() == "kept\n"

    @pytest.mark.parametrize("kind, key, value, want", [
        ("sweep", "out", None, "a nonempty string"),
        ("sweep", "out", ["a", "b"], "a nonempty string"),
        ("sweep", "out", True, "a nonempty string"),
        ("sweep", "out", "", "a nonempty string"),
    ], ids=["out-null", "out-list", "out-true", "out-empty"])
    def test_path_key_keeps_its_type(self, tmp_path, capsys, monkeypatch, kind, key, value, want):
        # str() of these would run into ./None, ./['a', 'b'] or ./True, and
        # an empty path would write the run's files into the working directory
        monkeypatch.chdir(tmp_path)
        path = _write_cfg(tmp_path, json.dumps({**_minimal(kind), "out": "o", key: value}))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: '{key}' must be {want}, got {value!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_run_bad_constant_is_an_error_not_a_traceback(self, tmp_path, capsys):
        text = MINI_SWEEP.format(out=tmp_path / "o") + "constants: {Heat: fast}\n"
        assert main(["run", str(_write_cfg(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown config keys: ['constants']\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_dataset_stops_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                  zachary_root):
        # every dataset loads before the first cell and the output directory
        evaluated = []
        monkeypatch.setattr(runner, "sweep_graphs", lambda *a: evaluated.append(a))
        monkeypatch.setenv("KERNELBENCH_DATA", str(zachary_root))
        raw = {"kind": "datasets", "grid": 3, "families": ["Heat", "SP-CT"],
               "tasks": ["zachary", "nosuch"], "out": str(tmp_path / "o")}
        assert main(["run", str(_write_cfg(tmp_path, json.dumps(raw)))]) == 2
        assert capsys.readouterr().err == "error: unknown dataset 'nosuch'\n"
        assert not evaluated and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("make, want", [
        (lambda path: path.mkdir(), "error: cannot read GML file {path}: Is a directory\n"),
        (lambda path: path.write_bytes(b"graph [ node [ id 0 value \xff ] ]"),
         "error: GML file {path} is not UTF-8: invalid start byte at byte 26\n"),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_data_file_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                    make, want):
        # a data file fails the way a config file does, before the output directory
        path = tmp_path / "data" / "zachary.gml"
        path.parent.mkdir()
        make(path)
        monkeypatch.setenv("KERNELBENCH_DATA", str(path.parent))
        raw = {**_minimal("datasets"), "out": str(tmp_path / "o")}
        assert main(["run", str(_write_cfg(tmp_path, json.dumps(raw)))]) == 2
        assert capsys.readouterr().err == want.format(path=path)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, rows", [
        ("table1", {"tournament.csv": 1 + 13 * 8 + 13}),
        ("table2", {"sweep.csv": 1 + 3 * 13 * 2, "best_params.csv": 1 + 3 * 13}),
        ("fig5", {"best_params.csv": 1 + 13, "reject.csv": 1 + 13 * 1001}),
        ("complicated", {"sweep.csv": 1 + 2 * 13 * 2, "best_params.csv": 1 + 2 * 13}),
    ], ids=["table1", "table2", "fig5", "complicated"])
    def test_committed_config_runs(self, tmp_path, name, rows):
        # a change to the config surface fails here, not in a user's run;
        # table4's datasets are not in the repository (it is parse-checked)
        out = tmp_path / name
        argv = ["run", f"configs/{name}.cfg", "--graphs", "1", "--grid", "2", "--out", str(out)]
        assert main(argv) == 0
        for csv_name, count in rows.items():
            assert len((out / csv_name).read_text().splitlines()) == count
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--graphs", "0"), ("--seed", "-3"), ("--workers", "-2"), ("--grid", "0"),
    ])
    def test_bad_override_rejected_before_run(self, tmp_path, capsys, flag, value):
        # the config file's rules hold for the flags too, and nothing is written
        path = _write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "o"))
        assert main(["run", str(path), flag, value]) == 2
        assert f"'{flag[2:]}' must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--workers", "2")])
    def test_datasets_refuses_generated_flag(self, tmp_path, capsys, flag, value):
        # a datasets run loads its graphs and runs them one after another
        raw = {**_minimal("datasets"), "out": str(tmp_path / "o")}
        path = _write_cfg(tmp_path, json.dumps(raw))
        assert main(["run", str(path), flag, value]) == 2
        assert capsys.readouterr().err == f"error: '{flag[2:]}' does not apply to kind 'datasets'\n"
        assert not (tmp_path / "o").exists()

    def test_verify_only_unknown(self, capsys):
        assert main(["verify", "--only", "A9"]) == 2

    def test_verify_only_one_criterion(self, capsys):
        # --only takes a criterion's name as well as a suite's
        assert main(["verify", "--only", "A5"]) == 0
        assert capsys.readouterr().out == "[PASS] A5: all oracles agree\n"

    def test_verify_criterion_that_raises_fails(self, capsys, monkeypatch):
        # a library error inside a criterion is that criterion's FAIL, not a crash
        def criterion(seed, workers):
            raise ConfigInvalid("no such task")
        monkeypatch.setitem(acceptance.CRITERIA, "A5", criterion)
        assert main(["verify", "--only", "A5"]) == 1
        assert capsys.readouterr().out == "[FAIL] A5: aborted: no such task\n"

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--workers", "-2")])
    def test_verify_bad_flag_rejected_before_any_criterion(self, capsys, flag, value):
        # verify's flags follow the config file's rules, as run's do
        assert main(["verify", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: '{flag[2:]}' must be an integer >= 0\n"
        assert captured.out == ""

    def test_verify_skips_missing_dataset(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KERNELBENCH_DATA", str(tmp_path))
        assert main(["verify", "--only", "datasets"]) == 0
        out = capsys.readouterr().out
        assert "[SKIP] A4" in out

    def test_verify_has_no_data_root_flag(self, tmp_path, capsys):
        # the data directory is named by $KERNELBENCH_DATA alone
        with pytest.raises(SystemExit) as info:
            main(["verify", "--only", "datasets", "--data-root", str(tmp_path)])
        assert info.value.code == 2
        assert "unrecognized arguments: --data-root" in capsys.readouterr().err
