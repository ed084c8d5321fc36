import hashlib

import numpy as np
import pytest

from kernelbench import is_connected
from kernelbench.datasets import (
    dataset_descriptor,
    load_dataset,
    load_graph,
    registry,
)
from kernelbench.errors import (
    DatasetMissing,
    Disconnected,
    MissingLabels,
    NegativeWeight,
    NotFound,
    ParseError,
)

from conftest import fetch_datasets

P3_GML = """
Creator "test"
graph [
  node [ id 10 label "a" value "left" ]
  node [ id 20 label "b" value "left" ]
  node [ id 30 label "c" value "right" ]
  edge [ source 10 target 20 ]
  edge [ source 20 target 30 weight 2.5 ]
]
"""


@pytest.fixture
def p3_gml(tmp_path):
    path = tmp_path / "p3.gml"
    path.write_text(P3_GML)
    return path


class TestGml:
    def test_parses_nodes_edges_labels(self, p3_gml):
        g = load_graph(p3_gml)
        assert g.n == 3
        assert np.array_equal(g.labels, [0, 0, 1])
        assert g.adjacency[0, 1] == 1.0
        assert g.adjacency[1, 2] == 2.5
        assert g.adjacency[0, 2] == 0.0

    def test_idempotent(self, p3_gml):
        a = load_graph(p3_gml)
        b = load_graph(p3_gml)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.labels, b.labels)

    def test_missing_value_attribute(self, tmp_path):
        path = tmp_path / "x.gml"
        path.write_text('graph [ node [ id 0 ] node [ id 1 value 1 ] '
                        'edge [ source 0 target 1 ] ]')
        with pytest.raises(MissingLabels):
            load_graph(path)

    def test_unknown_edge_endpoint(self, tmp_path):
        path = tmp_path / "x.gml"
        path.write_text('graph [ node [ id 0 value 1 ] edge [ source 0 target 7 ] ]')
        with pytest.raises(ParseError):
            load_graph(path)

    def test_unbalanced_brackets(self, tmp_path):
        path = tmp_path / "x.gml"
        path.write_text('graph [ node [ id 0 value 1 ')
        with pytest.raises((ParseError, MissingLabels, Disconnected)):
            load_graph(path)

    @pytest.mark.parametrize("weight", ["heavy", "[ value 2 ]"])
    def test_non_numeric_weight(self, tmp_path, weight):
        path = tmp_path / "x.gml"
        path.write_text('graph [ node [ id 0 value 0 ] node [ id 1 value 1 ] '
                        f'edge [ source 0 target 1 weight {weight} ] ]')
        with pytest.raises(ParseError, match=r"x\.gml: edge \(0,1\)"):
            load_graph(path)

    @pytest.mark.parametrize("text, match", [
        ("graph [ node [ id 0 value 0 ] ] ]", r"unexpected '\]' at token 10"),
        ("[ graph [ node [ id 0 value 0 ] ] ]", r"unexpected '\[' at token 0"),
        ("graph [ node [ id 0 value 0 ] ] creator", "key 'creator' has no value"),
        ('creator "test"', r"x\.gml: no 'graph \[\.\.\.\]' section"),
        ("graph [ node [ label 0 value 0 ] ]", r"x\.gml: node without id"),
        ("graph [ directed 0 ]", r"x\.gml: no nodes"),
        ("graph [ node [ id 0 value 0 ] node [ id 5 value 1 ] "
         "edge [ source 0 target 5 ] edge [ source 5 target 5 ] ]",
         r"x\.gml: self-loop on node 5"),
    ], ids=["stray-close", "stray-open", "key-without-value", "no-graph",
            "node-without-id", "no-nodes", "self-loop"])
    def test_malformed_file(self, tmp_path, text, match):
        path = tmp_path / "x.gml"
        path.write_text(text)
        with pytest.raises(ParseError, match=match):
            load_graph(path)

    def test_duplicate_node_id(self, tmp_path):
        path = tmp_path / "x.gml"
        path.write_text('graph [ node [ id 0 value 1 ] node [ id 0 value 1 ] ]')
        with pytest.raises(ParseError):
            load_graph(path)

    def test_disconnected_rejected(self, tmp_path):
        path = tmp_path / "x.gml"
        path.write_text(
            'graph [ node [ id 0 value 0 ] node [ id 1 value 0 ] '
            'node [ id 2 value 1 ] node [ id 3 value 1 ] '
            'edge [ source 0 target 1 ] edge [ source 2 target 3 ] ]'
        )
        with pytest.raises(Disconnected):
            load_graph(path)


class TestEdgeList:
    def test_with_sidecar(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("# comment\n0 1\n1 2\n")
        (tmp_path / "g.labels").write_text("0\n0\n1\n")
        g = load_graph(edges)
        assert g.n == 3
        assert np.array_equal(g.labels, [0, 0, 1])
        assert g.adjacency[0, 1] == 1.0

    def test_weights_preserved(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("5 6 0.25\n6 7 4.0\n")
        (tmp_path / "g.labels").write_text("0\n1\n1\n")
        g = load_graph(edges)
        assert g.adjacency[0, 1] == 0.25
        assert g.adjacency[1, 2] == 4.0

    def test_matches_gml_encoding(self, tmp_path, p3_gml):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1 1.0\n1 2 2.5\n")
        (tmp_path / "g.labels").write_text("0\n0\n1\n")
        a = load_graph(p3_gml)
        b = load_graph(edges)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.labels, b.labels)

    def test_non_finite_weight(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1 nan\n1 2\n")
        (tmp_path / "g.labels").write_text("0\n0\n1\n")
        with pytest.raises(NegativeWeight, match="non-finite"):
            load_graph(edges)

    def test_missing_sidecar(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n")
        with pytest.raises(MissingLabels):
            load_graph(edges)

    def test_bad_line(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1 2 3\n")
        (tmp_path / "g.labels").write_text("0\n1\n")
        with pytest.raises(ParseError):
            load_graph(edges)

    def test_label_count_mismatch(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n")
        (tmp_path / "g.labels").write_text("0\n1\n0\n")
        with pytest.raises(ParseError):
            load_graph(edges)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetMissing):
            load_graph(tmp_path / "none.edges")

    @pytest.mark.parametrize("edges, labels, match", [
        ("0 1\n1 a\n", "0\n1\n", r"g\.edges:2: invalid literal"),
        ("# no edges\n\n", "", r"g\.edges: no edges"),
        ("0 1\n", "0\nright\n", r"g\.labels:2: labels must be integers"),
        ("5 6\n6 7\n7 7\n", "0\n0\n1\n", r"g\.edges:3: self-loop on node 7"),
    ], ids=["non-integer-node", "no-edges", "non-integer-label", "self-loop"])
    def test_malformed_file(self, tmp_path, edges, labels, match):
        (tmp_path / "g.edges").write_text(edges)
        (tmp_path / "g.labels").write_text(labels)
        with pytest.raises(ParseError, match=match):
            load_graph(tmp_path / "g.edges")


class TestRegistry:
    def test_nine_datasets(self):
        names = [d.name for d in registry()]
        assert len(names) == 9
        assert names[:3] == ["football", "polbooks", "zachary"]

    def test_filenames_name_their_format(self):
        # load_graph reads .gml as GML and any other suffix as an edge list
        assert all(d.filename.endswith((".gml", ".edges")) for d in registry())

    def test_expected_counts(self):
        assert (dataset_descriptor("zachary").nodes,
                dataset_descriptor("zachary").classes) == (34, 2)
        assert (dataset_descriptor("news_3cl_2").nodes,
                dataset_descriptor("news_3cl_2").classes) == (600, 3)
        assert (dataset_descriptor("football").nodes,
                dataset_descriptor("football").classes) == (115, 12)

    def test_unknown_name(self):
        with pytest.raises(NotFound):
            dataset_descriptor("karate")

    def test_load_missing_dataset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KERNELBENCH_DATA", str(tmp_path))
        with pytest.raises(DatasetMissing):
            load_dataset("zachary")

    def test_count_mismatch_aborts(self, tmp_path, p3_gml, monkeypatch):
        (tmp_path / "zachary.gml").write_text(p3_gml.read_text())
        monkeypatch.setenv("KERNELBENCH_DATA", str(tmp_path))
        with pytest.raises(ParseError):
            load_dataset("zachary")

    def test_class_count_mismatch_aborts(self, tmp_path, monkeypatch):
        # zachary's 34 nodes on a path, in three classes where two are expected
        nodes = " ".join(f"node [ id {i} value {i % 3} ]" for i in range(34))
        edges = " ".join(f"edge [ source {i} target {i + 1} ]" for i in range(33))
        (tmp_path / "zachary.gml").write_text(f"graph [ {nodes} {edges} ]")
        monkeypatch.setenv("KERNELBENCH_DATA", str(tmp_path))
        with pytest.raises(ParseError, match="zachary: 3 classes, descriptor expects 2"):
            load_dataset("zachary")


class TestZachary:
    def test_loads_with_expected_shape(self, zachary_root, monkeypatch):
        monkeypatch.setenv("KERNELBENCH_DATA", str(zachary_root))
        g = load_dataset("zachary")
        assert g.n == 34
        assert g.num_classes == 2
        assert is_connected(g)
        assert g.adjacency.sum() / 2 == 78  # edge count of the karate club graph

    def test_env_var_root(self, zachary_root, monkeypatch):
        monkeypatch.setenv("KERNELBENCH_DATA", str(zachary_root))
        g = load_dataset("zachary")
        assert g.n == 34

    def test_fetch_script_offline_mode(self, tmp_path, capsys):
        # --skip-download synthesizes zachary.gml, records its sha256 on the
        # first run, checks it on later ones, and fails on a changed file
        pytest.importorskip("networkx")
        script = fetch_datasets()
        argv = ["--root", str(tmp_path), "--skip-download"]
        gml = tmp_path / "zachary.gml"
        assert script.main(argv) == 0
        assert "recorded sha256" in capsys.readouterr().out
        digest = hashlib.sha256(gml.read_bytes()).hexdigest()
        assert (tmp_path / "CHECKSUMS.sha256").read_text() == f"{digest}  zachary.gml\n"
        assert script.main(argv) == 0
        assert "checksum ok for zachary.gml" in capsys.readouterr().out
        gml.write_text(gml.read_text().replace("value 1", "value 0", 1))
        assert script.main(argv) == 1
        assert "CHECKSUM MISMATCH for zachary.gml" in capsys.readouterr().err
