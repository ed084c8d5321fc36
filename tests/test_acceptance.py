"""Acceptance criteria A1-A7 at their stated scale.

Each test prints its criterion's one-line verdict (visible with -s or on
failure) and asserts it.  A7's free-energy half allows for the rate at
which FE converges: FE - SP -> c/beta, where c_ij is minus the mean of
ln N_ij and ln N_ji and N_ij is the reference-walk probability mass of the
shortest i -> j walks (ln(2)/20 on a 3-node path at beta=20).  The parts
of A7 are also asserted separately below; README.md's acceptance section
has the analysis.  Monte-Carlo criteria (A1-A3) take a few minutes in total.
"""

import math
import os
from unittest import mock

import numpy as np
import pytest

from kernelbench import RejectCurve, acceptance, shortest_path_matrix, uniform_spec
from kernelbench.acceptance import CRITERIA, DEFAULT_SEED, fe_limit_offset, run_acceptance
from kernelbench.generators import generate
from kernelbench.graph import build_graph
from kernelbench.measures import FamilyEvaluator


def _run(name, **kwargs):
    result = CRITERIA[name](seed=DEFAULT_SEED, workers=min(2, os.cpu_count() or 1), **kwargs)
    print(f"[{result.status}] {result.name}: {result.details}")
    return result


@pytest.mark.slow
def test_a1_best_grid_ari_of_logcomm():
    result = _run("A1")
    assert result.passed, result.details


@pytest.mark.slow
def test_a2_log_measures_beat_plain():
    result = _run("A2")
    assert result.passed, result.details


@pytest.mark.slow
def test_a3_tournament_ordering():
    result = _run("A3")
    assert result.passed, result.details


def test_a4_zachary_absolute_results(zachary_root, monkeypatch):
    monkeypatch.setenv("KERNELBENCH_DATA", str(zachary_root))
    result = _run("A4")
    assert result.passed is not None, "zachary fixture should prevent a skip"
    assert result.passed, result.details


def test_a4_skips_without_data(tmp_path, monkeypatch):
    monkeypatch.setenv("KERNELBENCH_DATA", str(tmp_path))
    result = _run("A4")
    assert result.passed is None


def test_a5_oracle_suite():
    result = _run("A5")
    assert result.passed, result.details


def test_a6_invariant_suite():
    result = _run("A6")
    assert result.passed, result.details


def test_a7_criterion_as_stated():
    # RSP within 1e-2 of SP at beta=20, FE within 1e-2 of SP + c/beta (the
    # raw FE gap is ln(2)/20 = 0.0347 on P3 alone), and both above SP on
    # the whole grid; see the acceptance section of README.md.
    result = _run("A7")
    assert result.passed, result.details


# A5-A7 each fail when one component they check is wrong: each test below
# patches that component, runs its criterion without a pool and reads the
# criterion's message.
def _fails(name):
    result = CRITERIA[name](seed=DEFAULT_SEED, workers=1)
    assert result.status == "FAIL", result.details
    return result.details


def test_a5_fails_on_a_shifted_reject_auc():
    real = acceptance.reject_curve

    def shifted(dist, labels):
        curve = real(dist, labels)
        return RejectCurve(curve.x, curve.y, curve.auc + 1e-9)

    with mock.patch.object(acceptance, "reject_curve", shifted):
        assert "AUC oracle mismatch 1e-09" in _fails("A5")


def test_a5_fails_on_swapped_ward_labels():
    real = acceptance.ward_cuts

    def swapped(stack, k, *merges):
        labels = real(stack, k, *merges)
        labels[:, [0, -1]] = labels[:, [-1, 0]]
        return labels

    with mock.patch.object(acceptance, "ward_cuts", swapped):
        assert "ward partition differs at n=6, k=2" in _fails("A5")


def test_a6_fails_on_a_scaled_for_kernel():
    real = FamilyEvaluator.matrix

    def scaled(self, name, p):
        m = real(self, name, p)
        return type(m)(m.matrix * (1.0 + 1e-6), m.family, m.parameter) if name == "For" else m

    # its sweeps run serially too: workers forked under the patch would be
    # kept, scaled kernel and all, for later pooled calls
    real_sweep = acceptance.sweep_task
    with mock.patch.object(FamilyEvaluator, "matrix", scaled), \
            mock.patch.object(acceptance, "sweep_task",
                              lambda *args, workers: real_sweep(*args, workers=1)):
        assert "For row sums differ from 1" in _fails("A6")


def test_a7_fails_when_fe_returns_shortest_paths():
    real = FamilyEvaluator.matrix

    def shortest(self, name, p):
        return shortest_path_matrix(self.graph) if name == "FE" else real(self, name, p)

    with mock.patch.object(FamilyEvaluator, "matrix", shortest):
        details = _fails("A7")
    assert "FE at beta=20 off SP + c/beta by 3.47e-02 on P3" in details
    assert "FE at beta=20 off SP + c/beta by 1.59e-01 on n10" in details


def test_a7_rsp_low_temperature_limit_holds():
    p3 = build_graph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
    g10 = generate(uniform_spec(10, 2, 0.6, 0.3, seed=DEFAULT_SEED + 40), 0)
    for g in (p3, g10):
        sp = shortest_path_matrix(g).matrix
        delta = FamilyEvaluator(g).matrix("RSP", 20.0 / 21.0).matrix  # beta = 20, as A7 takes it
        assert np.abs(delta - sp).max() <= 1e-2


def test_a7_fe_matches_entropy_corrected_limit():
    # what FE actually converges to: SP - ln(N)/beta, with N the
    # reference-walk probability mass of the shortest walks (1/2 on P3)
    p3 = build_graph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
    delta = FamilyEvaluator(p3).matrix("FE", 20.0 / 21.0).matrix  # beta = 20, as A7 takes it
    assert delta[0, 2] == pytest.approx(2.0 + math.log(2.0) / 20.0, abs=1e-6)


def test_fe_limit_offset_hand_values():
    p3 = build_graph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
    c = fe_limit_offset(p3.adjacency)
    # N_01 = 1 and N_10 = 1/2; N_02 = N_20 = 1 * 1/2
    assert c[0, 1] == pytest.approx(math.log(2.0) / 2.0, abs=1e-15)
    assert c[0, 2] == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.all(np.diagonal(c) == 0.0)
    c4 = np.zeros((4, 4))
    for i in range(4):
        c4[i, (i + 1) % 4] = c4[(i + 1) % 4, i] = 1.0
    # two shortest walks across the 4-cycle, each of mass 1/4
    assert fe_limit_offset(c4)[0, 2] == pytest.approx(math.log(2.0), abs=1e-15)
    with pytest.raises(ValueError):
        fe_limit_offset(2.0 * c4)


def test_a7_grid_lower_bound_holds():
    p3 = build_graph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
    g10 = generate(uniform_spec(10, 2, 0.6, 0.3, seed=DEFAULT_SEED + 40), 0)
    for g in (p3, g10):
        ev = FamilyEvaluator(g)
        sp = shortest_path_matrix(g).matrix
        for p in np.linspace(0.02, 0.98, 50):
            for variant in ("RSP", "FE"):
                delta = ev.matrix(variant, float(p)).matrix
                assert (delta - sp).min() >= -1e-8


def test_verify_runner_reports_all_criteria(zachary_root, capsys, monkeypatch):
    monkeypatch.setenv("KERNELBENCH_DATA", str(zachary_root))
    results = run_acceptance(only=["properties"], seed=DEFAULT_SEED, workers=1, log=print)
    out = capsys.readouterr().out
    assert [r.name for r in results] == ["A5", "A6", "A7"]
    for r in results:
        assert f"[{r.status}] {r.name}" in out
