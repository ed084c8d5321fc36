import numpy as np
import pytest

from kernelbench import evaluation, generate, uniform_spec
from kernelbench.acceptance import auc_mannwhitney_oracle
from kernelbench.errors import DegenerateLabels, KernelBenchError, ParameterOutOfRange
from kernelbench.evaluation import (
    RejectCurve,
    Statistic,
    average_reject_curves,
    best_of_grid,
    copeland_scores,
    copeland_tournament,
    family_statistics,
    parameter_grid,
    reject_curve,
    reject_experiment,
    sweep_graphs,
    sweep_task,
)
from kernelbench.graph import Graph
from kernelbench.measures import FamilyEvaluator
from kernelbench.transforms import reject_distance


@pytest.fixture(scope="module")
def separated_graph():
    return generate(uniform_spec(40, 2, 0.9, 0.02, seed=17), 0)


# Dense blocks whose adjacency spectral radius is 30.0-30.9 on graphs 0-3:
# Comm's exp(tA) overflows at p = 0.98 (t = 49) on all four, and at
# p = 0.9583 only on graphs 0 and 3.
OVERFLOW_SPEC = uniform_spec(40, 2, 0.95, 0.6, seed=1)


@pytest.fixture(scope="module")
def overflow_graph():
    return generate(OVERFLOW_SPEC, 0)


class TestParameterGrid:
    def test_endpoints_avoided(self):
        grid = parameter_grid(50)
        assert grid[0] == 0.02 and grid[-1] == 0.98
        assert np.all(np.diff(grid) > 0)

    def test_single_point(self):
        assert parameter_grid(1).tolist() == [0.5]

    def test_invalid_size(self):
        with pytest.raises(ParameterOutOfRange):
            parameter_grid(0)


class TestStatistic:
    def test_parse(self):
        assert Statistic.parse("max") == Statistic("max")
        assert Statistic.parse("percentile:90") == Statistic("percentile", 90.0)
        with pytest.raises(ParameterOutOfRange):
            Statistic.parse("median")
        with pytest.raises(ParameterOutOfRange):
            Statistic.parse("percentile:120")

    def test_percentile_100_is_max(self, rng):
        values = rng.normal(size=37)
        assert Statistic.parse("percentile:100").of(values) == values.max()

    @pytest.mark.parametrize("text", ["max", "percentile:80", "percentile:0",
                                      "percentile:12.3456789", "percentile:33.333333333333336"])
    def test_text_parses_back(self, text):
        assert str(Statistic.parse(text)) == text
        assert Statistic.parse(str(Statistic.parse(text))) == Statistic.parse(text)

    @pytest.mark.parametrize("text", ["max", "percentile:80", "percentile:12.3456789"])
    def test_table_reduced_as_row_by_row(self, rng, text):
        # a (graphs, grid) ARI table with -1 error cells, as family_statistics sees it
        table = np.where(rng.random((30, 17)) < 0.2, -1.0, rng.uniform(-0.5, 1.0, (30, 17)))
        statistic = Statistic.parse(text)
        rows = [np.max(row) if statistic.kind == "max" else np.percentile(row, statistic.q)
                for row in table]
        assert statistic.of(table).tolist() == rows


class TestSweep:
    def test_separated_blocks_ari_one_across_grid(self, separated_graph):
        result = sweep_graphs([separated_graph], ["SP-CT"], parameter_grid(10))["SP-CT"]
        assert not result.errors
        assert (result.ari[0] == 1.0).mean() >= 0.8

    def test_error_cells_marked(self, overflow_graph):
        # exp(tA) leaves the float range at the grid's last point
        result = sweep_graphs([overflow_graph], ["Comm"], parameter_grid(6))["Comm"]
        assert [j for _, j, _ in result.errors] == [5]
        marked = {j for _, j, _ in result.errors}
        assert all(result.ari[0, j] == -1.0 for j in marked)
        assert all(marker == "NumericalOverflow" for _, _, marker in result.errors)

    def test_ari_range_invariant(self, separated_graph):
        ari = sweep_graphs([separated_graph], ["logComm"], parameter_grid(8))["logComm"].ari
        assert np.all(ari >= -1.0) and np.all(ari <= 1.0)

    def test_sweep_task_shape_and_determinism(self):
        spec = uniform_spec(20, 2, 0.8, 0.1, seed=5)
        grid = parameter_grid(4)
        res = sweep_task(spec, ("Heat", "SP-CT"), grid, 3)
        assert set(res) == {"Heat", "SP-CT"}
        assert res["Heat"].ari.shape == (3, 4)
        again = sweep_task(spec, ("Heat", "SP-CT"), grid, 3)
        assert np.array_equal(res["Heat"].ari, again["Heat"].ari)

    def test_worker_pool_matches_serial(self):
        spec = uniform_spec(16, 2, 0.8, 0.1, seed=6)
        grid = parameter_grid(3)
        serial = sweep_task(spec, ("Heat", "RSP"), grid, 4, workers=1)
        pooled = sweep_task(spec, ("Heat", "RSP"), grid, 4, workers=2)
        for name in ("Heat", "RSP"):
            assert np.array_equal(serial[name].ari, pooled[name].ari)
            assert serial[name].errors == pooled[name].errors

    def test_best_of_grid_tie_takes_smaller(self):
        from kernelbench.evaluation import SweepResult

        res = SweepResult("X", np.array([0.1, 0.5, 0.9]),
                          np.array([[0.3, 0.7, 0.7]]), ())
        assert best_of_grid(res) == (0.5, 0.7)

    def test_graph_list_matches_generated_task(self):
        # one graph path: explicit graphs, serial, equal a pooled task
        # sweep of the same samples bit for bit, error cells included
        grid = parameter_grid(4)
        fams = ("Comm", "logComm", "SP-CT")
        listed = sweep_graphs([generate(OVERFLOW_SPEC, i) for i in range(3)], fams, grid)
        pooled = sweep_task(OVERFLOW_SPEC, fams, grid, 3, workers=2)
        assert listed["Comm"].errors == ((0, 3, "NumericalOverflow"), (1, 3, "NumericalOverflow"),
                                         (2, 3, "NumericalOverflow"))
        for name in fams:
            assert np.array_equal(listed[name].ari, pooled[name].ari)
            assert listed[name].errors == pooled[name].errors

    @pytest.mark.parametrize("stack_size", [1, 3])
    def test_stack_size_changes_no_cell(self, monkeypatch, stack_size):
        # The default budget clusters all 28 cells in one stack.  Comm
        # overflows at the last grid point only, so with stacks of 3 its
        # error cell falls while a pWalk cell is still waiting to be
        # clustered, after eight full stacks.
        g = generate(OVERFLOW_SPEC, 0)
        job = (g, ["pWalk", "Comm", "logFor", "SP-CT"], parameter_grid(7))
        table, errors = evaluation._graph_cells(job)
        monkeypatch.setattr(evaluation, "STACK_ENTRIES", stack_size * g.n ** 2)
        chunked, chunked_errors = evaluation._graph_cells(job)
        assert np.array_equal(chunked, table)
        assert chunked_errors == errors
        assert errors == [(1, 6, "NumericalOverflow")]
        assert len(set(table[2])) > 1


class TestCopeland:
    def test_three_family_example(self):
        scores = copeland_scores(np.array([[0.9, 0.5, 0.1]]))
        assert scores.tolist() == [2, 0, -2]

    def test_identical_families_tie(self):
        scores = copeland_scores(np.array([[0.7, 0.7], [0.2, 0.2]]))
        assert scores.tolist() == [0, 0]

    def test_zero_sum(self, rng):
        for _ in range(20):
            stats = rng.random((int(rng.integers(1, 8)), int(rng.integers(2, 9))))
            assert copeland_scores(stats).sum() == 0

    def test_score_bounds(self, rng):
        graphs, fams = 6, 5
        scores = copeland_scores(rng.random((graphs, fams)))
        assert np.abs(scores).max() <= graphs * (fams - 1)

    def test_tournament_and_percentile_100_equals_max(self):
        tasks = [uniform_spec(16, 2, 0.8, 0.1, seed=13)]
        fams = ("Heat", "logHeat", "SP-CT")
        grid = parameter_grid(4)
        by_max = copeland_tournament(tasks, fams, 3, grid, Statistic("max"))
        by_p100 = copeland_tournament(tasks, fams, 3, grid, Statistic("percentile", 100.0))
        assert np.array_equal(by_max.scores, by_p100.scores)
        assert by_max.totals.sum() == 0

    def test_needs_two_families(self):
        with pytest.raises(ParameterOutOfRange):
            copeland_tournament([uniform_spec(10, 2, 0.9, 0.1, seed=1)], ("Heat",),
                                1, parameter_grid(2), Statistic("max"))

    def test_error_cells_feed_minus_one(self, overflow_graph):
        sweeps = sweep_graphs([overflow_graph], ("Comm", "Heat"), parameter_grid(4))
        stats = family_statistics(sweeps, ("Comm", "Heat"), Statistic("percentile", 0.0))
        assert stats[0, 0] == -1.0


def _three_sort_reject_curve(d, labels):
    """The reject curve as an earlier version built it: a sort per class,
    np.unique of the thresholds and a searchsorted per class."""
    iu, ju = np.triu_indices(d.shape[0], 1)
    values = d[iu, ju]
    intra_mask = labels[iu] == labels[ju]
    intra = np.sort(values[intra_mask])
    inter = np.sort(values[~intra_mask])
    thresholds = np.unique(values)
    x = np.searchsorted(inter, thresholds, side="right") / inter.size
    y = np.searchsorted(intra, thresholds, side="right") / intra.size
    x = np.concatenate(([0.0], x))
    y = np.concatenate(([0.0], y))
    return x, y, float(np.trapezoid(y, x))


class TestRejectCurve:
    def test_one_sort_matches_three_sorts(self, rng):
        # tie-heavy integer distances: the same counts, so the same bits
        for trial in range(60):
            n = int(rng.integers(4, 41))
            labels = rng.integers(0, 4, size=n)
            labels[:4] = [0, 1, 0, 1]
            d = rng.integers(0, 2 + trial % 7, size=(n, n)).astype(float)
            d = d + d.T
            np.fill_diagonal(d, 0.0)
            curve = reject_curve(d, labels)
            x, y, auc = _three_sort_reject_curve(d, labels)
            assert np.array_equal(curve.x, x) and np.array_equal(curve.y, y)
            assert curve.auc == auc

    def test_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        d = np.array([
            [0.0, 1.0, 9.0, 8.0],
            [1.0, 0.0, 7.0, 9.5],
            [9.0, 7.0, 0.0, 2.0],
            [8.0, 9.5, 2.0, 0.0],
        ])
        curve = reject_curve(d, labels)
        assert curve.auc == pytest.approx(1.0)

    def test_all_equal_distances(self):
        labels = np.array([0, 0, 1, 1])
        d = np.ones((4, 4)) - np.eye(4)
        curve = reject_curve(d, labels)
        assert curve.auc == pytest.approx(0.5)

    def test_matches_mannwhitney_oracle(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 21))
            labels = rng.integers(0, 3, size=n)
            labels[:3] = [0, 1, 1]
            d = rng.integers(0, 5, size=(n, n)).astype(float)
            d = (d + d.T) / 2.0
            np.fill_diagonal(d, 0.0)
            curve = reject_curve(d, labels)
            assert curve.auc == pytest.approx(auc_mannwhitney_oracle(d, labels), abs=1e-12)

    def test_rank_invariance_under_monotone_transforms(self, rng):
        n = 14
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        d = rng.random((n, n))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        base = reject_curve(d, labels).auc
        assert reject_curve(d ** 3, labels).auc == pytest.approx(base, abs=1e-12)
        assert reject_curve(np.log1p(d), labels).auc == pytest.approx(base, abs=1e-12)

    def test_monotone_and_anchored(self, separated_graph):
        ev = FamilyEvaluator(separated_graph)
        curve = reject_curve(reject_distance(ev.matrix("Heat", 0.5)), separated_graph.labels)
        assert np.all(np.diff(curve.x) >= 0)
        assert np.all(np.diff(curve.y) >= 0)
        assert curve.x[0] == 0.0 and curve.y[0] == 0.0
        assert curve.x[-1] == 1.0 and curve.y[-1] == 1.0
        assert 0.0 <= curve.auc <= 1.0

    def test_degenerate_labels(self):
        d = np.ones((3, 3)) - np.eye(3)
        with pytest.raises(DegenerateLabels):
            reject_curve(d, np.zeros(3, dtype=int))
        with pytest.raises(DegenerateLabels):
            reject_curve(d, np.arange(3))


class TestAverageCurves:
    def test_single_curve_reproduced_on_grid(self):
        curve = RejectCurve(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.8, 1.0]), 0.0)
        avg = average_reject_curves([curve], grid_points=11)
        assert avg.y[5] == pytest.approx(0.8)
        assert avg.x.shape == (11,)

    def test_identical_copies_average_to_same(self):
        curve = RejectCurve(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.6, 1.0]), 0.0)
        one = average_reject_curves([curve])
        three = average_reject_curves([curve, curve, curve])
        assert np.abs(one.y - three.y).max() <= 1e-12

    def test_mirror_curves_average_auc(self):
        up = RejectCurve(np.array([0.0, 0.1, 1.0]), np.array([0.0, 0.9, 1.0]), 0.0)
        down = RejectCurve(np.array([0.0, 0.9, 1.0]), np.array([0.0, 0.1, 1.0]), 0.0)
        a_up = average_reject_curves([up]).auc
        a_down = average_reject_curves([down]).auc
        both = average_reject_curves([up, down]).auc
        assert both == pytest.approx((a_up + a_down) / 2.0, abs=1e-3)

    def test_vertical_jump_takes_upper_envelope(self):
        curve = RejectCurve(np.array([0.0, 0.5, 0.5, 1.0]),
                            np.array([0.0, 0.2, 0.9, 1.0]), 0.0)
        avg = average_reject_curves([curve], grid_points=3)
        assert avg.y[1] == pytest.approx(0.9)

    def test_empty_raises(self):
        with pytest.raises(DegenerateLabels):
            average_reject_curves([])


class TestRejectExperiment:
    def test_separated_task_high_auc(self):
        spec = uniform_spec(20, 2, 0.9, 0.05, seed=23)
        out = reject_experiment(spec, ("Heat", "SP-CT"), parameter_grid(4), 3)
        for name in ("Heat", "SP-CT"):
            p, curve = out[name]
            assert 0.0 < p < 1.0
            assert curve.auc > 0.9

    # Comm overflows on every graph at p = 0.98 and on graphs 0 and 3 at
    # p = 0.9583, so its best parameter is 0.9583 and its reject average
    # drops two graphs.
    FAMILIES = ("pWalk", "Walk", "For", "logFor", "Comm", "logHeat", "SP-CT")
    GRID = np.array([0.9583, 0.98])

    def test_worker_pool_matches_serial(self):
        serial = reject_experiment(OVERFLOW_SPEC, self.FAMILIES, self.GRID, 4, workers=1)
        pooled = reject_experiment(OVERFLOW_SPEC, self.FAMILIES, self.GRID, 4, workers=2)
        for name in self.FAMILIES:
            (p, curve), (q, other) = serial[name], pooled[name]
            assert p == q and curve.auc == other.auc
            assert np.array_equal(curve.x, other.x) and np.array_equal(curve.y, other.y)

    def test_reduced_in_job_as_average_reject_curves(self):
        # each graph's curves, averaged by the public function, give the
        # protocol's result bit for bit, graphs that error dropped
        out = reject_experiment(OVERFLOW_SPEC, self.FAMILIES, self.GRID, 4)
        assert out["Comm"][0] == 0.9583
        evaluators = [FamilyEvaluator(generate(OVERFLOW_SPEC, i)) for i in range(4)]
        dropped = {}
        for name in self.FAMILIES:
            p, curve = out[name]
            curves = []
            for ev in evaluators:
                try:
                    dist = reject_distance(ev.matrix(name, p))
                except KernelBenchError:
                    continue
                curves.append(reject_curve(dist, ev.graph.labels))
            dropped[name] = len(evaluators) - len(curves)
            expected = average_reject_curves(curves)
            assert np.array_equal(curve.x, expected.x) and np.array_equal(curve.y, expected.y)
            assert curve.auc == expected.auc
        assert dropped == dict.fromkeys(self.FAMILIES, 0) | {"Comm": 2}

    def test_family_failing_on_every_graph_has_no_curve(self, comm_fails):
        out = reject_experiment(uniform_spec(20, 2, 0.6, 0.1, seed=6), ("Comm", "Heat"),
                                parameter_grid(3), 2, workers=1)
        assert out["Comm"] == (0.02, None)
        assert out["Heat"][1].auc > 0.5


class TestNodeOrderInvariance:
    def test_sweep_and_curve_invariant_under_permutation(self, rng):
        spec = uniform_spec(30, 2, 0.8, 0.05, seed=31)
        g = generate(spec, 0)
        perm = rng.permutation(g.n)
        permuted = Graph(
            np.ascontiguousarray(g.adjacency[np.ix_(perm, perm)]), g.labels[perm]
        )
        grid = parameter_grid(8)
        a = sweep_graphs([g], ("logComm", "SP-CT"), grid)
        b = sweep_graphs([permuted], ("logComm", "SP-CT"), grid)
        for name in ("logComm", "SP-CT"):
            assert np.abs(a[name].ari - b[name].ari).max() <= 1e-10
        ev_a = FamilyEvaluator(g)
        ev_b = FamilyEvaluator(permuted)
        auc_a = reject_curve(reject_distance(ev_a.matrix("logComm", 0.5)), g.labels).auc
        auc_b = reject_curve(reject_distance(ev_b.matrix("logComm", 0.5)), permuted.labels).auc
        assert abs(auc_a - auc_b) <= 1e-10
