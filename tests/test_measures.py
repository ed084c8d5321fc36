import math

import numpy as np
import pytest

from kernelbench import (
    FAMILY_NAMES,
    block_model_spec,
    build_graph,
    family,
    generate,
    log_kernel,
    measures,
    parameter_grid,
    shortest_path_matrix,
    uniform_spec,
)
from kernelbench.acceptance import grounded_resistance, neumann_series
from kernelbench.clustering import _checked_sqdist
from kernelbench.errors import (
    DegenerateKernel,
    Disconnected,
    KernelBenchError,
    NonPositiveEntry,
    NotFound,
    NumericalOverflow,
    ParameterOutOfRange,
    ZeroDegree,
)
from kernelbench.evaluation import _graph_cells
from kernelbench.families import DistanceMatrix, ProximityMatrix
from kernelbench.measures import FamilyEvaluator, _sigmoid_kernel
from kernelbench.transforms import clustering_sqdist

# Ratio families take t = p/(1-p): p = 0.5 gives t = 1 exactly,
# and p = t/(1+t) gives t up to rounding.


def _p(t):
    return t / (1.0 + t)


class TestPWalk:
    def test_tiny_t_is_identity(self, k2):
        k = FamilyEvaluator(k2).matrix("pWalk", 1e-9).matrix
        assert np.abs(k - np.eye(2)).max() <= 1e-6

    def test_k2_half(self, k2):
        # (I - tA)^-1 for the single edge, inverted by hand; rho(K2) = 1 puts
        # p = 0.5 just inside t = 1/2
        ev = FamilyEvaluator(k2)
        t = ev.raw_parameter("pWalk", 0.5)
        assert t == pytest.approx(0.5, rel=1e-4)
        expected = np.array([[1.0, t], [t, 1.0]]) / (1.0 - t * t)
        assert np.abs(ev.matrix("pWalk", 0.5).matrix - expected).max() <= 1e-12

    def test_matches_walk_series(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        series = neumann_series(sbm_graph.adjacency, ev.raw_parameter("pWalk", 0.3), 200)
        assert np.abs(ev.matrix("pWalk", 0.3).matrix - series).max() <= 1e-8

    def test_entrywise_nonnegative(self, sbm_graph):
        k = FamilyEvaluator(sbm_graph).matrix("pWalk", 0.9).matrix
        assert k.min() >= -1e-10


class TestForest:
    def test_tiny_t_is_identity(self, k3):
        k = FamilyEvaluator(k3).matrix("For", 1e-9).matrix
        assert np.abs(k - np.eye(3)).max() <= 1e-6

    def test_k2_unit(self, k2):
        expected = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        assert np.abs(FamilyEvaluator(k2).matrix("For", 0.5).matrix - expected).max() <= 1e-12

    def test_row_sums_one(self, connected_graph_factory):
        ev = FamilyEvaluator(connected_graph_factory(12))
        for t in (0.05, 1.0, 9.0):
            rows = ev.matrix("For", _p(t)).matrix.sum(axis=1)
            assert np.abs(rows - 1.0).max() <= 1e-8

    def test_entries_in_unit_interval(self, connected_graph_factory):
        k = FamilyEvaluator(connected_graph_factory(9)).matrix("For", _p(2.0)).matrix
        assert k.min() > 0.0
        assert k.max() <= 1.0 + 1e-12


class TestCommAndHeat:
    def test_comm_k2_closed_form(self, k2):
        expected = np.array([
            [math.cosh(1.0), math.sinh(1.0)],
            [math.sinh(1.0), math.cosh(1.0)],
        ])
        assert np.abs(FamilyEvaluator(k2).matrix("Comm", 0.5).matrix - expected).max() <= 1e-10

    def test_comm_diag_at_least_one(self, connected_graph_factory):
        # even powers of A contribute cosh-type nonnegative diagonal terms
        for n in (6, 15):
            ev = FamilyEvaluator(connected_graph_factory(n))
            for t in (0.1, 0.7):
                assert np.diagonal(ev.matrix("Comm", _p(t)).matrix).min() >= 1.0 - 1e-10

    def test_comm_overflow_guarded(self, k5):
        # t = 9999 and rho(K5) = 4
        with pytest.raises(NumericalOverflow):
            FamilyEvaluator(k5).matrix("Comm", 0.9999)

    def test_heat_k2_spectral_formula(self, k2):
        # Laplacian eigenvalues {0, 2} give entries (1 +- e^-2t)/2
        expected = np.array([
            [(1 + math.exp(-2)) / 2, (1 - math.exp(-2)) / 2],
            [(1 - math.exp(-2)) / 2, (1 + math.exp(-2)) / 2],
        ])
        assert np.abs(FamilyEvaluator(k2).matrix("Heat", 0.5).matrix - expected).max() <= 1e-12

    def test_heat_rows_one_and_positive(self, connected_graph_factory):
        ev = FamilyEvaluator(connected_graph_factory(11))
        for t in (0.2, 2.0, 20.0):
            k = ev.matrix("Heat", _p(t)).matrix
            assert np.abs(k.sum(axis=1) - 1.0).max() <= 1e-8
            assert k.min() > 0.0

    def test_tiny_t_identity(self, k3):
        ev = FamilyEvaluator(k3)
        for name in ("Comm", "Heat"):
            assert np.abs(ev.matrix(name, 1e-9).matrix - np.eye(3)).max() <= 1e-6


class TestLogKernel:
    def test_all_ones_maps_to_zero(self):
        k = ProximityMatrix(np.ones((3, 3)), "Comm")
        assert np.array_equal(log_kernel(k).matrix, np.zeros((3, 3)))

    def test_forest_log_value(self, k2):
        logged = log_kernel(FamilyEvaluator(k2).matrix("For", 0.5)).matrix
        expected = np.log(np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]))
        assert np.abs(logged - expected).max() <= 1e-12

    def test_zero_entry_reported(self):
        m = np.ones((2, 2))
        m[0, 1] = m[1, 0] = 0.0
        with pytest.raises(NonPositiveEntry, match=r"\(0,1\)"):
            log_kernel(ProximityMatrix(m, "Comm"))

    def test_name_mapping(self, k2):
        ev = FamilyEvaluator(k2)
        assert log_kernel(ev.matrix("For", 0.5)).family == "logFor"
        assert log_kernel(ev.matrix("Heat", 0.5)).family == "logHeat"
        assert log_kernel(ev.matrix("pWalk", 0.5)).family == "Walk"

    def test_log_comm_stable_path_matches(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        direct = log_kernel(ev.matrix("Comm", 0.5)).matrix
        stable = ev.matrix("logComm", 0.5).matrix
        assert np.abs(direct - stable).max() <= 1e-9

    def test_one_log_step_on_ring_of_cliques(self):
        # Walk, logFor and logHeat fail exactly where their plain kernel has
        # an entry <= 0 and are otherwise np.log of it bit for bit; logComm
        # fails only by NonPositiveEntry.  An accurate path for tiny entries
        # would lower these counts on purpose.
        import networkx as nx

        ring = nx.ring_of_cliques(12, 10)
        ev = FamilyEvaluator(build_graph(nx.to_numpy_array(ring, nodelist=sorted(ring.nodes))))
        grid = [float(p) for p in parameter_grid(55)]
        failed = {}
        for log, plain in (("Walk", "pWalk"), ("logFor", "For"), ("logHeat", "Heat")):
            failed[log] = 0
            for p in grid:
                k = ev.matrix(plain, p).matrix
                if k.min() <= 0.0:
                    with pytest.raises(NonPositiveEntry):
                        ev.matrix(log, p)
                    failed[log] += 1
                else:
                    assert np.array_equal(ev.matrix(log, p).matrix, np.log(k))
        assert failed == {"Walk": 24, "logFor": 4, "logHeat": 15}
        markers = []
        for p in grid:
            try:
                ev.matrix("logComm", p)
            except KernelBenchError as exc:
                markers.append(type(exc).__name__)
        assert markers == ["NonPositiveEntry"] * 14

    def test_log_comm_survives_huge_parameter(self, sbm_graph):
        # plain Comm overflows here; the shifted log-domain path must not
        ev = FamilyEvaluator(sbm_graph)
        with pytest.raises(NumericalOverflow):
            ev.matrix("Comm", 0.999)
        k = ev.matrix("logComm", 0.999).matrix
        assert np.all(np.isfinite(k))

    def test_shared_plain_kernel_changes_no_value(self):
        # Walk, logFor and logHeat take the plain kernel of the call just
        # before them at the same t.  Every value and every error equals a
        # fresh evaluator's.
        g = _weighted_block_model(109)
        shared = FamilyEvaluator(g)
        for p in parameter_grid(12):
            for plain, log in (("pWalk", "Walk"), ("For", "logFor"), ("Heat", "logHeat")):
                kernel = shared.matrix(plain, float(p)).matrix
                assert not kernel.flags.writeable
                fresh = FamilyEvaluator(g).matrix(plain, float(p)).matrix
                assert np.array_equal(kernel, fresh)
                try:
                    expected = FamilyEvaluator(g).matrix(log, float(p)).matrix
                except NonPositiveEntry:
                    with pytest.raises(NonPositiveEntry):
                        shared.matrix(log, float(p))
                else:
                    assert np.array_equal(shared.matrix(log, float(p)).matrix, expected)


class TestCommuteTime:
    # the commute-time kernel is the Laplacian pseudoinverse, ev.lap_pinv
    def test_k2_kernel(self, k2):
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.abs(FamilyEvaluator(k2).lap_pinv - expected).max() <= 1e-12

    def test_zero_row_sums(self, connected_graph_factory):
        lp = FamilyEvaluator(connected_graph_factory(10)).lap_pinv
        assert np.abs(lp @ np.ones(10)).max() <= 1e-8

    def test_induced_distance_is_resistance(self, connected_graph_factory):
        # resistance_matrix is the distance L+ induces; check it against
        # effective resistances from the Laplacian grounded at node 0
        g = connected_graph_factory(13)
        resistance = FamilyEvaluator(g).resistance_matrix
        assert np.abs(resistance - grounded_resistance(g.adjacency)).max() <= 1e-10

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            FamilyEvaluator(build_graph(np.zeros((3, 3))))


class TestResistance:
    def test_single_edge(self, k2):
        assert FamilyEvaluator(k2).resistance_matrix[0, 1] == pytest.approx(1.0)

    def test_triangle_series_parallel(self, k3):
        # direct unit resistor in parallel with a two-resistor path: 2/3
        r = FamilyEvaluator(k3).resistance_matrix
        offdiag = r[~np.eye(3, dtype=bool)]
        assert np.abs(offdiag - 2 / 3).max() <= 1e-10

    def test_path_series(self, p3):
        r = FamilyEvaluator(p3).resistance_matrix
        assert r[0, 2] == pytest.approx(2.0, abs=1e-10)

    def test_metric(self, connected_graph_factory):
        r = FamilyEvaluator(connected_graph_factory(10)).resistance_matrix
        for i in range(10):
            for j in range(10):
                for k in range(10):
                    assert r[i, k] <= r[i, j] + r[j, k] + 1e-10


class TestSPCT:
    def test_endpoints(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        sp = shortest_path_matrix(sbm_graph).matrix
        assert np.array_equal(ev.matrix("SP-CT", 0.0).matrix, sp)
        assert np.abs(ev.matrix("SP-CT", 1.0).matrix - ev.resistance_matrix).max() <= 1e-12

    def test_midpoint_on_tree(self, p3):
        # both parents give 2 between the path ends on a tree
        d = FamilyEvaluator(p3).matrix("SP-CT", 0.5).matrix
        assert d[0, 2] == pytest.approx(2.0, abs=1e-10)

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            FamilyEvaluator(build_graph(np.zeros((2, 2)))).matrix("SP-CT", 0.5)


class TestSigmoidKernels:
    def test_entries_in_unit_interval(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        for name in ("SCT", "SCCT"):
            k = ev.matrix(name, _p(2.0)).matrix
            assert k.min() > 0.0
            assert k.max() < 1.0

    def test_one_exp_sigmoid_matches_two_masked_branches(self, rng):
        # the form the sigmoid had: exp(-x) on x >= 0, exp(x) below
        x = np.concatenate([rng.standard_normal(4000) * s for s in (1e-3, 1.0, 40.0, 800.0)]
                           + [np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308])])
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        assert np.array_equal(_sigmoid_kernel(x, 1.0, 1.0, "SCT").matrix, ref)

    def test_zero_base_entry_maps_to_half(self):
        base = np.array([[0.0, 1.0], [1.0, 0.0]])
        k = _sigmoid_kernel(base, float(base.std()), 1.0, "SCT").matrix
        assert k[0, 0] == pytest.approx(0.5)
        assert k[1, 1] == pytest.approx(0.5)

    def test_sigma_uses_all_entries(self, k3):
        ev = FamilyEvaluator(k3)
        assert ev.ct_sigma == pytest.approx(float(ev.lap_pinv.std()))

    def test_constant_base_degenerate(self):
        with pytest.raises(DegenerateKernel):
            _sigmoid_kernel(np.ones((3, 3)), 0.0, 1.0, "SCT")

    def test_single_node_zero_degree(self):
        ev = FamilyEvaluator(build_graph(np.zeros((1, 1))))
        with pytest.raises(ZeroDegree):
            ev.matrix("SCCT", 0.5)


def _rsp_fe(g, beta, variant):
    # RSP or FE at inverse temperature beta (up to rounding): the normalized
    # p = beta / (1 + beta), as criterion A7 takes beta = 20
    return FamilyEvaluator(g).matrix(variant, beta / (1.0 + beta)).matrix


class TestRspFe:
    @pytest.mark.parametrize("name", ["RSP", "FE"])
    def test_single_node_zero_degree(self, name):
        ev = FamilyEvaluator(build_graph(np.zeros((1, 1))))
        with pytest.raises(ZeroDegree, match=f"{name} needs all degrees positive"):
            ev.matrix(name, 0.5)

    def test_k2_symmetric_zero_diagonal(self, k2):
        for variant in ("RSP", "FE"):
            for beta in (0.1, 1.0, 10.0):
                d = _rsp_fe(k2, beta, variant)
                assert d[0, 0] == 0.0 and d[1, 1] == 0.0
                assert d[0, 1] == d[1, 0]
                assert d[0, 1] > 0.0

    def test_rsp_low_temperature_limit(self, p3):
        d = _rsp_fe(p3, 20.0, "RSP")
        assert abs(d[0, 2] - 2.0) <= 1e-3

    def test_fe_low_temperature_entropy_term(self, p3):
        # FE approaches shortest paths only up to -(1/beta) ln P(best walks):
        # through the cut vertex the walk probability is 1/2
        for beta in (20.0, 50.0, 200.0):
            d = _rsp_fe(p3, beta, "FE")
            assert d[0, 2] == pytest.approx(2.0 + math.log(2.0) / beta, abs=1e-6)

    def test_bracketed_below_by_shortest_path(self, sbm_graph):
        sp = shortest_path_matrix(sbm_graph).matrix
        ev = FamilyEvaluator(sbm_graph)
        for p in np.linspace(0.02, 0.98, 9):
            for variant in ("RSP", "FE"):
                d = ev.matrix(variant, float(p)).matrix
                assert (d - sp).min() >= -1e-8

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            FamilyEvaluator(build_graph(np.zeros((2, 2)))).matrix("RSP", 0.5)

    def test_shared_fundamental_matrix_changes_no_value(self):
        # One evaluator solves once per beta for RSP and FE, in either order,
        # and a lone RSP or FE leaves a Z that the next beta must not take;
        # every value equals a fresh evaluator's, and both families still
        # fail at beta = 49 (p = 0.98) on this weighted 12x10 block model.
        g = _weighted_block_model(109)
        shared = FamilyEvaluator(g)
        failed = {"RSP": [], "FE": []}
        orders = [("RSP",), ("FE",), ("RSP", "FE"), ("FE", "RSP")]
        for j, p in enumerate(parameter_grid(55)):
            for name in orders[j % 4]:
                try:
                    expected = FamilyEvaluator(g).matrix(name, float(p)).matrix
                except NonPositiveEntry:
                    with pytest.raises(NonPositiveEntry):
                        shared.matrix(name, float(p))
                    failed[name].append(j)
                else:
                    assert np.array_equal(shared.matrix(name, float(p)).matrix, expected)
        assert failed == {"RSP": [54], "FE": [54]}


class TestKeptResult:
    # One evaluator keeps one result until its next kept result: a plain
    # kernel for its log family at the same t, or W and Z for RSP and FE at
    # the same beta.  Counted on G(200,(4)0.3,0.1) at a 4-point grid, where
    # Comm overflows at one point and SCCT's base costs one solve.
    SPEC = uniform_spec(200, 4, 0.3, 0.1, seed=20240501)

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(("spectral_apply", "solve_linear"), 0)
        for name in counts:
            def counted(*args, name=name, original=getattr(measures, name)):
                counts[name] += 1
                return original(*args)
            monkeypatch.setattr(measures, name, counted)
        return counts

    def test_parameter_major_cells_reuse(self, calls):
        # _graph_cells' order: every family at one parameter, then the next
        _graph_cells((generate(self.SPEC, 0), FAMILY_NAMES, parameter_grid(4)))
        assert calls == {"spectral_apply": 19, "solve_linear": 5}

    def test_family_major_cells_reuse_nothing(self, calls):
        # the benchmark's replay order: every parameter of one family, then
        # the next family, so no kept result is ever asked for again
        ev = FamilyEvaluator(generate(self.SPEC, 0))
        for name in FAMILY_NAMES:
            for p in parameter_grid(4):
                try:
                    ev.matrix(name, float(p))
                except KernelBenchError:
                    pass
        assert calls == {"spectral_apply": 31, "solve_linear": 9}


def _weighted_block_model(seed):
    """Twelve blocks of ten (p_in 0.8, p_out 0.004), graph 0, with edge
    weights drawn uniformly from [0.5, 1)."""
    p = np.full((12, 12), 0.004)
    np.fill_diagonal(p, 0.8)
    g = generate(block_model_spec((10,) * 12, p, seed, name="sbm12x10"), 0)
    a = g.adjacency.copy()
    iu, ju = np.nonzero(np.triu(a, 1))
    a[iu, ju] = a[ju, iu] = np.random.default_rng(seed).uniform(0.5, 1.0, iu.shape[0])
    return build_graph(a, g.labels)


# The families that return a DistanceMatrix; the other ten return kernels.
DISTANCES = {"RSP", "FE", "SP-CT"}


class TestFamilyDispatch:
    def test_registry_kinds(self, k2):
        # a family's kind is the type of matrix it returns
        for name in FAMILY_NAMES:
            m = FamilyEvaluator(k2).matrix(name, 0.5)
            assert isinstance(m, DistanceMatrix if name in DISTANCES else ProximityMatrix)
            assert m.family == name
        with pytest.raises(NotFound):
            family("nosuch")
        with pytest.raises(NotFound):
            FamilyEvaluator(k2).matrix("nosuch", 0.5)

    def test_every_family_evaluates(self, sbm_graph, connected_graph_factory):
        # exact symmetry and, for distances, an exact zero diagonal: the
        # pipeline passes these matrices to Ward without re-checking them;
        # the weighted graph takes shortest paths by Floyd-Warshall
        weighted = connected_graph_factory(14, weighted=True)
        for g in (sbm_graph, weighted):
            for name in FAMILY_NAMES:
                for p in (0.3, 0.5):
                    m = FamilyEvaluator(g).matrix(name, p)
                    assert isinstance(m, DistanceMatrix if name in DISTANCES else ProximityMatrix)
                    assert np.array_equal(m.matrix, m.matrix.T)
                    if name in DISTANCES:
                        assert np.all(np.diagonal(m.matrix) == 0.0)
                        assert not m.matrix.flags.writeable
                    # the cell loop hands this to Ward unchecked: Ward's
                    # input check must return it bit for bit
                    sq = clustering_sqdist(m)
                    assert np.all(np.isfinite(sq)) and sq.min() >= 0.0
                    assert np.array_equal(sq, sq.T)
                    assert np.all(np.diagonal(sq) == 0.0)
                    assert np.array_equal(_checked_sqdist(sq), sq)

    def test_pwalk_scaling(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        t = ev.raw_parameter("pWalk", 0.5)
        assert t == pytest.approx(0.5 * (1 - 1e-4) / ev.spectral_radius)
        resolvent = np.linalg.inv(np.eye(sbm_graph.n) - t * sbm_graph.adjacency)
        assert np.abs(ev.matrix("pWalk", 0.5).matrix - resolvent).max() <= 1e-10

    def test_ratio_scaling(self, sbm_graph):
        # t = p / (1 - p), exact at these p
        ev = FamilyEvaluator(sbm_graph)
        assert ev.raw_parameter("Comm", 0.5) == 1.0
        assert ev.raw_parameter("Heat", 0.75) == 3.0

    def test_spct_identity_scaling(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        direct = (1.0 - 0.34) * ev.sp_matrix + 0.34 * ev.resistance_matrix
        assert np.array_equal(FamilyEvaluator(sbm_graph).matrix("SP-CT", 0.34).matrix, direct)

    def test_log_families_are_logs(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        assert np.abs(
            ev.matrix("logFor", 0.4).matrix - np.log(ev.matrix("For", 0.4).matrix)
        ).max() <= 1e-10

    def test_open_interval_endpoints(self, sbm_graph):
        for name in ("For", "Comm", "Heat", "SCT", "SCCT", "RSP", "FE"):
            with pytest.raises(ParameterOutOfRange):
                FamilyEvaluator(sbm_graph).matrix(name, 0.0)
            with pytest.raises(ParameterOutOfRange):
                FamilyEvaluator(sbm_graph).matrix(name, 1.0)
        with pytest.raises(ParameterOutOfRange):
            FamilyEvaluator(sbm_graph).matrix("pWalk", 0.0)
        # pWalk at p = 1 stays strictly inside (0, 1/rho)
        assert isinstance(FamilyEvaluator(sbm_graph).matrix("pWalk", 1.0), ProximityMatrix)
        assert isinstance(FamilyEvaluator(sbm_graph).matrix("SP-CT", 0.0), DistanceMatrix)
        assert isinstance(FamilyEvaluator(sbm_graph).matrix("SP-CT", 1.0), DistanceMatrix)

    def test_p_outside_unit_interval(self, sbm_graph):
        with pytest.raises(ParameterOutOfRange):
            FamilyEvaluator(sbm_graph).matrix("Heat", 1.5)
        with pytest.raises(ParameterOutOfRange):
            FamilyEvaluator(sbm_graph).matrix("Heat", -0.1)
        with pytest.raises(ParameterOutOfRange):
            FamilyEvaluator(sbm_graph).matrix("SP-CT", 1.5)

    def test_disconnected_graph_rejected(self):
        with pytest.raises(Disconnected):
            FamilyEvaluator(build_graph(np.zeros((3, 3)))).matrix("Heat", 0.5)

    def test_plain_kernels_identity_limit(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        for name in ("pWalk", "For", "Comm", "Heat"):
            k = ev.matrix(name, 1e-9).matrix
            assert np.abs(k - np.eye(sbm_graph.n)).max() <= 1e-6

    def test_evaluator_reuse_matches_one_shot(self, sbm_graph):
        ev = FamilyEvaluator(sbm_graph)
        for name in ("logComm", "SCCT", "RSP"):
            a = ev.matrix(name, 0.37).matrix
            b = FamilyEvaluator(sbm_graph).matrix(name, 0.37).matrix
            assert np.array_equal(a, b)
