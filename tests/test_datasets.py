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
