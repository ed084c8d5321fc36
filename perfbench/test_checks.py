"""Each output check rejects a deliberately wrong result.

Run from the repository root: ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import kernelbench as kb  # noqa: E402
import reference as ref  # noqa: E402
import replay  # noqa: E402
from workloads import FAMILIES  # noqa: E402


@pytest.fixture(scope="module")
def graph():
    return kb.generate(kb.uniform_spec(40, 2, 0.4, 0.1, seed=3), 0)


def run_cell(graph, name, p, ward=True):
    checks = replay.Checks()
    ev = kb.FamilyEvaluator(graph)
    replay.check_cell(ev, ref.GraphReference(graph.adjacency), FAMILIES.index(name), 0, p,
                      None, ward, checks)
    return checks


@pytest.mark.parametrize("name", FAMILIES)
def test_correct_cells_pass(graph, name):
    checks = run_cell(graph, name, 0.3)
    assert checks.failures == []
    assert checks.counts["kernel"] == 1


@pytest.mark.parametrize("name", ["Comm", "logFor", "RSP"])
def test_kernel_off_by_relative_1e6_fails(graph, name):
    real = kb.FamilyEvaluator.matrix

    def off(self, family, p):
        m = real(self, family, p)
        return type(m)(m.matrix * (1.0 + 1e-6), m.family, m.parameter)

    with mock.patch.object(kb.FamilyEvaluator, "matrix", off):
        checks = run_cell(graph, name, 0.3, ward=False)
    assert any(f.startswith("kernel:") for f in checks.failures)


def test_permuted_partition_fails(graph):
    real = replay.ward_cluster

    def permuted(sq, k):
        part = real(sq, k)
        labels = np.roll(part.labels, 1)
        return kb.Partition(labels, k)

    with mock.patch.object(replay, "ward_cluster", permuted):
        checks = run_cell(graph, "For", 0.5)
    assert any(f.startswith("ward_cut:") for f in checks.failures)


def test_shifted_reject_curve_fails(graph):
    real = replay.reject_curve

    def shifted(dist, labels):
        curve = real(dist, labels)
        y = np.clip(curve.y + 0.01, 0.0, 1.0)
        return kb.RejectCurve(curve.x, y, float(np.trapezoid(y, curve.x)))

    checks = replay.Checks()
    grid = kb.parameter_grid(3)
    with mock.patch.object(replay, "reject_curve", shifted):
        replay.replay_task([graph], grid, replay.NullTracer(), checks)
    assert any(f.startswith("reject_auc:") for f in checks.failures)


def test_reject_auc_equals_mann_whitney(graph):
    checks = replay.Checks()
    replay.replay_task([graph], kb.parameter_grid(3), replay.NullTracer(), checks)
    assert checks.failures == [] and checks.counts["reject_auc"] > 0


def test_scale_variant_cut_counts_as_f1():
    # Points 0, 10, 11, 30 on a line, scaled until every Ward cost is within
    # the program's absolute tie tolerance: the first pair in slot order
    # merges first, where the rescaled input merges the close pair (1, 2).
    x = np.array([0.0, 10.0, 11.0, 30.0])
    sq = (x[:, None] - x[None, :]) ** 2 * 1e-15
    tiny = kb.ward_cluster(sq, 3).labels
    assert replay.scale_variant(sq, 3, tiny)
    assert not replay.scale_variant(sq * 1e15, 3, kb.ward_cluster(sq * 1e15, 3).labels)
    labels, tied = ref.ward_cut(np.ldexp(sq, ref.rescale_exponent(sq)), 3)
    assert not tied and list(labels) == [0, 1, 1, 2]


def test_ari_reference_matches_hand_value():
    assert ref.ari([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert ref.ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)
