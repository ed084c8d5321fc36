"""Ward's deterministic tie rule and the batched Ward body in the hot-loop kernels."""

import numpy as np
import pytest

from kernelbench import _accel, cut_dendrogram
from kernelbench.clustering import Dendrogram, _checked_sqdist, ward_cuts


def reference_ward_merges(sqdist: np.ndarray) -> np.ndarray:
    """The full-triangle Ward loop: every step reads all n(n-1)/2 pairs.

    Same tie rule and Lance-Williams arithmetic as ``_accel.ward_batch``,
    which must reproduce its merge rows bit for bit.
    """
    d = np.ascontiguousarray(sqdist, dtype=np.float64)
    n = d.shape[0]
    if n < 2:
        return np.empty((0, 4), dtype=np.float64)
    w = d / 2.0
    np.fill_diagonal(w, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    iu, ju = np.triu_indices(n, 1)
    out = np.empty((n - 1, 4), dtype=np.float64)
    for step in range(n - 1):
        vals = w[iu, ju]
        best = vals.min()
        pick = int(np.argmax(vals <= best + _accel.TIE_TOL))
        a = int(iu[pick])
        b = int(ju[pick])
        cost = w[a, b]
        na = sizes[a]
        nb = sizes[b]
        ns = na + nb
        mask = alive.copy()
        mask[a] = False
        mask[b] = False
        nk = sizes[mask]
        upd = ((na + nk) * w[a, mask] + (nb + nk) * w[b, mask] - nk * cost) / (ns + nk)
        w[a, mask] = upd
        w[mask, a] = upd
        w[b, :] = np.inf
        w[:, b] = np.inf
        alive[b] = False
        sizes[a] = ns
        out[step, 0] = ids[a]
        out[step, 1] = ids[b]
        out[step, 2] = cost
        out[step, 3] = ns
        ids[a] = n + step
    return out


class TestTieBreaking:
    def test_unit_square_first_merge(self):
        # four corners of a unit square: all four side pairs tie at cost 1/2;
        # the smallest slot pair (0, 1) must merge first
        pts = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        merges = _accel.ward_merges(sq.copy())
        assert (merges[0, 0], merges[0, 1]) == (0.0, 1.0)

    def test_identical_points_merge_in_slot_order(self):
        sq = np.zeros((4, 4))
        merges = _accel.ward_merges(sq.copy())
        assert [tuple(row[:2]) for row in merges] == [(0.0, 1.0), (4.0, 2.0), (5.0, 3.0)]


def _points_sqdist(points):
    return ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)


def _inputs(kind, count, n, rng):
    """``count`` checked Ward inputs of one kind: tie-heavy integer grids,
    all zeros, or random points."""
    out = []
    for _ in range(count):
        if kind == "grid":
            points = rng.integers(0, 3, size=(n, 2)).astype(float)
        elif kind == "zeros":
            points = np.zeros((n, 1))
        else:
            points = rng.normal(size=(n, 3))
        out.append(_checked_sqdist(_points_sqdist(points)))
    return out


class TestBatchedWard:
    @pytest.mark.parametrize("kind", ["grid", "zeros", "random"])
    @pytest.mark.parametrize("n", [2, 7, 23])
    def test_merge_rows_match_reference(self, kind, n, rng):
        for sq in _inputs(kind, 5, n, rng):
            expected = reference_ward_merges(sq)
            got = _accel.ward_merges(sq)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", ["grid", "zeros", "random"])
    @pytest.mark.parametrize("size", [1, 3, 11])
    def test_cuts_match_reference(self, kind, size, rng):
        # 11 inputs cut in stacks of 1, of 3 (which does not divide 11) and
        # of all 11 at once
        n = 19
        inputs = _inputs(kind, 11, n, rng)
        trees = [Dendrogram(reference_ward_merges(sq), n) for sq in inputs]
        for k in (1, 2, 4, n - 1, n):
            expected = [cut_dendrogram(tree, k).labels for tree in trees]
            got = []
            for start in range(0, len(inputs), size):
                got.extend(ward_cuts(np.stack(inputs[start:start + size]), k))
            assert all(np.array_equal(x, y) for x, y in zip(got, expected))

    def test_full_stack_merge_rows(self, rng):
        n = 15
        inputs = _inputs("grid", 6, n, rng) + _inputs("random", 6, n, rng)
        merges = np.empty((len(inputs), n - 1, 4))
        _accel.ward_batch(np.stack(inputs), n - 1, merges)
        for sq, rows in zip(inputs, merges):
            assert np.array_equal(rows, reference_ward_merges(sq))

    def test_rejects_a_strided_stack(self):
        with pytest.raises(ValueError):
            _accel.ward_batch(np.zeros((2, 4, 4))[:, ::2, ::2], 1)
