"""Ward's deterministic tie rule in the hot-loop kernels."""

import numpy as np

from kernelbench import _accel


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
