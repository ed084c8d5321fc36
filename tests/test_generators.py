from pathlib import Path

import numpy as np
import pytest

from kernelbench import (
    block_model_spec,
    build_graph,
    generate,
    is_connected,
    uniform_spec,
)
from kernelbench.config import load_config
from kernelbench.errors import CannotConnect, ConfigInvalid, ParameterOutOfRange


def _complicated():
    """The abstract's "more complicated cases", as general block-model tasks."""
    return load_config(Path(__file__).parents[1] / "configs" / "complicated.cfg")


class TestSpecBuilders:
    def test_uniform_spec(self):
        spec = uniform_spec(100, 2, 0.3, 0.1, seed=1)
        assert spec.sizes == (50, 50)
        assert spec.probabilities[0, 0] == 0.3
        assert spec.probabilities[0, 1] == 0.1
        assert spec.name == "G(100,(2)0.3,0.1)"

    def test_uniform_requires_divisible(self):
        with pytest.raises(ConfigInvalid):
            uniform_spec(100, 3, 0.3, 0.1, seed=1)

    def test_two_class_unequal(self):
        cfg = _complicated()
        spec = cfg.tasks[0]
        assert spec.sizes == (20, 80)
        assert spec.probabilities.tolist() == [[0.3, 0.1], [0.1, 0.3]]
        assert spec.name == "unequal(20,80)"
        assert spec.seed == cfg.seed + 0

    def test_six_class_structure(self):
        cfg = _complicated()
        spec = cfg.tasks[1]
        assert sum(spec.sizes) == 150
        assert spec.sizes == (65, 35, 25, 13, 8, 4)
        p = spec.probabilities
        assert p.tolist() == [
            [0.30, 0.20, 0.10, 0.15, 0.07, 0.25],
            [0.20, 0.24, 0.08, 0.13, 0.05, 0.17],
            [0.10, 0.08, 0.16, 0.09, 0.04, 0.12],
            [0.15, 0.13, 0.09, 0.20, 0.02, 0.14],
            [0.07, 0.05, 0.04, 0.02, 0.12, 0.04],
            [0.25, 0.17, 0.12, 0.14, 0.04, 0.40],
        ]
        assert np.array_equal(p, p.T)
        assert spec.name == "sixclass150"
        assert spec.seed == cfg.seed + 1

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            block_model_spec((3, 0), np.eye(2), seed=1)
        with pytest.raises(ConfigInvalid):
            block_model_spec((2, 2), np.array([[0.5, 0.2], [0.3, 0.5]]), seed=1)
        with pytest.raises(ConfigInvalid):
            block_model_spec((2, 2), np.full((2, 2), 1.5), seed=1)
        with pytest.raises(ConfigInvalid):
            block_model_spec((2, 2), np.eye(2) * 0.5, seed=-3)

    @pytest.mark.parametrize("sizes, probabilities, seed, name, match", [
        ([2.5, 3], np.eye(2) * 0.5, 1, "", "'sizes' must be an integer >= 1"),
        (["4", 3], np.eye(2) * 0.5, 1, "", "'sizes' must be an integer >= 1"),
        ([True, 3], np.eye(2) * 0.5, 1, "", "'sizes' must be an integer >= 1"),
        (7, [[0.5]], 1, "", "'sizes' must be a list"),
        ([], [], 1, "", r"at least two nodes, got sizes \[\]"),
        ([1], [[0.5]], 1, "", r"at least two nodes, got sizes \[1\]"),
        ([2, 3], [[0.5, 0.1], [0.1]], 1, "", "'probabilities' must be 2 rows of 2 numbers"),
        ([2, 3], np.full((2, 3), 0.5), 1, "", "'probabilities' must be 2 rows of 2 numbers"),
        ([2, 3], [[0.5, "0.1"], [0.1, 0.5]], 1, "",
         r"'probabilities' must be a real number, got '0\.1'"),
        ([2, 3], [[True, 0.1], [0.1, 0.5]], 1, "", "'probabilities' must be a real number"),
        ([2, 3], np.eye(2) * 0.5, 1.7, "", "seed must be an unsigned 64-bit integer"),
        ([2, 3], np.eye(2) * 0.5, True, "", "seed must be an unsigned 64-bit integer"),
        ([2, 3], np.eye(2) * 0.5, 1, 5, "'name' must be a string"),
    ], ids=["size-float", "size-str", "size-bool", "sizes-int", "sizes-empty", "sizes-one",
            "rows-ragged", "rows-wide", "p-str", "p-bool", "seed-float", "seed-bool", "name-int"])
    def test_block_model_checks_its_inputs(self, sizes, probabilities, seed, name, match):
        # nothing is rounded or coerced into a model the caller did not ask for
        with pytest.raises(ConfigInvalid, match=match):
            block_model_spec(sizes, probabilities, seed, name)

    @pytest.mark.parametrize("args, match", [
        ((100, 0, 0.3, 0.1), "'classes' must be an integer >= 1"),
        ((100.0, 2, 0.3, 0.1), "'nodes' must be an integer >= 1"),
        ((100, 2, "0.3", 0.1), r"'p_in' must be a real number, got '0\.3'"),
        ((100, 2, 0.3, True), "'p_out' must be a real number"),
        ((1, 1, 0.3, 0.1), "at least two nodes"),
    ], ids=["classes-zero", "nodes-float", "p_in-str", "p_out-bool", "one-node"])
    def test_uniform_checks_its_inputs(self, args, match):
        with pytest.raises(ConfigInvalid, match=match):
            uniform_spec(*args, seed=1)

    def test_builders_take_numpy_values(self):
        spec = block_model_spec(np.array([3, 4]), np.array([[0.5, 0.1], [0.1, 0.5]]), np.int64(3))
        assert spec.sizes == (3, 4) and type(spec.sizes[0]) is int
        assert spec.seed == 3 and type(spec.seed) is int
        assert spec.name == "blocks3x4"
        spec = uniform_spec(np.int64(10), np.int64(2), np.float64(0.5), np.float32(0.25),
                            seed=np.uint64(7))
        assert (spec.sizes, spec.seed, spec.name) == ((5, 5), 7, "G(10,(2)0.5,0.25)")
        assert spec.probabilities.tolist() == [[0.5, 0.25], [0.25, 0.5]]


class TestGenerate:
    def test_deterministic_bits(self):
        spec = uniform_spec(60, 2, 0.4, 0.1, seed=42)
        a = generate(spec, 3)
        b = generate(spec, 3)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("index", [np.int64(3), np.int32(3), np.uint8(3), 2.5, True, -1, "3"],
                             ids=["int64", "int32", "uint8", "float", "bool", "negative", "string"])
    def test_index_is_a_count(self, index):
        # the index is an integer (numpy's too, not a bool) of at least 0
        spec = uniform_spec(20, 2, 0.5, 0.1, seed=4)
        if isinstance(index, np.integer):
            assert np.array_equal(generate(spec, index).adjacency, generate(spec, 3).adjacency)
        else:
            with pytest.raises(ParameterOutOfRange, match="graph index must be an integer >= 0"):
                generate(spec, index)

    def test_streams_are_independent_of_order(self):
        spec = uniform_spec(40, 2, 0.4, 0.1, seed=7)
        fresh = generate(spec, 5).adjacency
        generate(spec, 0)
        generate(spec, 1)
        assert np.array_equal(generate(spec, 5).adjacency, fresh)

    def test_label_marginals_exact(self):
        spec = block_model_spec((12, 28), np.array([[0.6, 0.3], [0.3, 0.6]]), seed=3)
        g = generate(spec, 0)
        assert np.sum(g.labels == 0) == 12
        assert np.sum(g.labels == 1) == 28

    def test_all_ones_gives_complete_graph(self):
        spec = block_model_spec((3, 2), np.ones((2, 2)), seed=9)
        g = generate(spec, 0)
        assert np.array_equal(g.adjacency, 1.0 - np.eye(5))

    def test_all_zeros_cannot_connect(self):
        spec = block_model_spec((2, 2), np.zeros((2, 2)), seed=9)
        with pytest.raises(CannotConnect):
            generate(spec, 0)

    def test_connected_by_construction(self):
        spec = uniform_spec(30, 2, 0.25, 0.02, seed=11)
        for i in range(10):
            assert is_connected(generate(spec, i).adjacency)

    def test_intra_edge_frequency_concentrates(self):
        # binomial concentration: 200 graphs x 2450 intra pairs, 15 sigma margin
        spec = uniform_spec(100, 2, 0.3, 0.1, seed=20240501)
        intra_edges = 0
        intra_pairs = 0
        for i in range(200):
            g = generate(spec, i)
            same = g.labels[:, None] == g.labels[None, :]
            iu = np.triu_indices(100, 1)
            mask = same[iu]
            intra_edges += int((g.adjacency[iu] > 0)[mask].sum())
            intra_pairs += int(mask.sum())
        freq = intra_edges / intra_pairs
        assert abs(freq - 0.3) <= 0.01

    def test_edge_count_concentrates(self):
        # one-class graph: edge count within 3 sigma of the binomial mean
        spec = block_model_spec((100,), np.array([[0.3]]), seed=5)
        pairs = 100 * 99 // 2
        counts = []
        for i in range(100):
            g = generate(spec, i)
            counts.append(int(g.adjacency.sum() // 2))
        mean = np.mean(counts)
        sigma = np.sqrt(pairs * 0.3 * 0.7 / 100)
        assert abs(mean - pairs * 0.3) <= 3 * sigma

    def test_graph_is_valid(self):
        six = _complicated().tasks[1]
        spec = block_model_spec(six.sizes, six.probabilities, seed=2)
        g = generate(spec, 0)
        build_graph(g.adjacency, g.labels)  # revalidates all invariants
        assert g.num_classes == 6
