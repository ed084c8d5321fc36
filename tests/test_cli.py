import json

import pytest

from kernelbench.cli import main
from kernelbench.config import apply_overrides, config_from_dict, load_config
from kernelbench.errors import ConfigInvalid
from kernelbench.runner import run

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
        with pytest.raises(ConfigInvalid, match=match):
            config_from_dict({"kind": "sweep", "families": ["Comm"], "constants": constants,
                              "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})

    def test_constants_accepted(self):
        cfg = config_from_dict({"kind": "sweep", "families": ["Comm"],
                                "constants": {"Comm": 2, "RSP": 1e9},
                                "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})
        assert cfg.constants == {"Comm": 2.0, "RSP": 1e9}

    def test_bad_task_shape_rejected(self):
        with pytest.raises(ConfigInvalid, match="task #0"):
            config_from_dict({"kind": "sweep", "families": ["Heat"],
                              "tasks": [{"nodes": 10}]})

    def test_bad_statistic_rejected(self):
        with pytest.raises(ConfigInvalid, match="statistic"):
            config_from_dict({"kind": "tournament", "families": ["Heat", "For"],
                              "statistic": "median",
                              "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})

    def test_dataset_kind_wants_names(self):
        with pytest.raises(ConfigInvalid, match="dataset names"):
            config_from_dict({"kind": "datasets", "families": ["Heat", "For"],
                              "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})

    def test_grid_default_by_kind(self):
        base = {"families": ["Heat", "For"], "tasks": ["zachary"]}
        assert config_from_dict({"kind": "datasets", **base}).grid_size == 55
        gen = {"families": ["Heat"], "tasks": [{"nodes": 10, "classes": 2,
                                                "p_in": 0.5, "p_out": 0.1}]}
        assert config_from_dict({"kind": "sweep", **gen}).grid_size == 50

    def test_task_shorthands(self):
        cfg = config_from_dict({
            "kind": "sweep", "families": ["Heat"], "seed": 5,
            "tasks": ["sixclass150",
                      {"nodes": 30, "n1": 5, "p_in": 0.5, "p_out": 0.1},
                      {"sizes": [3, 4], "probabilities": [[0.9, 0.2], [0.2, 0.9]]}],
        })
        assert cfg.tasks[0].sizes == (65, 35, 25, 13, 8, 4)
        assert cfg.tasks[1].sizes == (5, 25)
        assert cfg.tasks[2].sizes == (3, 4)
        assert [t.seed for t in cfg.tasks] == [5, 6, 7]

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

    def test_boolean_override_rejected(self):
        cfg = config_from_dict({"kind": "sweep", "families": ["Heat"],
                                "tasks": [{"nodes": 10, "classes": 2, "p_in": 0.5, "p_out": 0.1}]})
        with pytest.raises(ConfigInvalid, match="'seed' must be an integer"):
            apply_overrides(cfg, seed=True)

    def test_committed_configs_parse(self):
        for name in ("table1", "table2", "fig5", "table4"):
            cfg = load_config(f"configs/{name}.cfg")
            assert len(cfg.families) == 13


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

    def test_datasets_run(self, tmp_path, zachary_root):
        cfg = config_from_dict({
            "kind": "datasets", "grid": 6,
            "families": ["Heat", "logHeat", "SP-CT"],
            "out": str(tmp_path / "d"),
            "tasks": ["zachary"],
            "data_root": str(zachary_root),
        })
        out = run(cfg)
        assert (out / "tournament.csv").exists()
        rows = (out / "sweep.csv").read_text().splitlines()
        # header + 3 families x 6 grid points x 1 graph
        assert len(rows) == 1 + 18


class TestCliMain:
    def test_run_subcommand(self, tmp_path, capsys):
        path = _write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "o"))
        assert main(["run", str(path), "--grid", "3"]) == 0
        assert (tmp_path / "o" / "sweep.csv").exists()

    def test_run_missing_config(self, capsys):
        assert main(["run", "nope.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_bad_constant_is_an_error_not_a_traceback(self, tmp_path, capsys):
        text = MINI_SWEEP.format(out=tmp_path / "o") + "constants: {Heat: fast}\n"
        assert main(["run", str(_write_cfg(tmp_path, text))]) == 2
        assert "constant for Heat" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--graphs", "0"), ("--seed", "-3"), ("--workers", "-2"), ("--grid", "0"),
    ])
    def test_bad_override_rejected_before_run(self, tmp_path, capsys, flag, value):
        # the config file's rules hold for the flags too, and nothing is written
        path = _write_cfg(tmp_path, MINI_SWEEP.format(out=tmp_path / "o"))
        assert main(["run", str(path), flag, value]) == 2
        assert f"'{flag[2:]}' must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_verify_only_unknown(self, capsys):
        assert main(["verify", "--only", "A9"]) == 2

    def test_verify_skips_missing_dataset(self, tmp_path, capsys):
        assert main(["verify", "--only", "datasets", "--data-root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[SKIP] A4" in out
