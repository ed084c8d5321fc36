import re

import numpy as np
import pytest

from kernelbench import plots
from kernelbench.plots import write_curves_svg

PLOT_W = plots.WIDTH - plots.MARGIN_L - plots.MARGIN_R
PLOT_H = plots.HEIGHT - plots.MARGIN_T - plots.MARGIN_B
GRID = np.linspace(0.0, 1.0, 101)
OTHER = np.linspace(0.0, 1.0, 7) ** 2
NEG_ZERO = np.append(-0.0, GRID[1:])  # equal to GRID, but prints "-0"


def _joined(point, sep, xs, ys):
    return sep.join(point % (x, y) for x, y in zip(xs.tolist(), ys.tolist()))


@pytest.mark.parametrize("grids", [
    [GRID, GRID, GRID.copy()],  # one x grid, shared and copied
    [GRID, OTHER, NEG_ZERO],  # a different grid for every curve
    [GRID, OTHER, GRID, OTHER],  # grids that alternate
], ids=["shared", "different", "alternating"])
def test_points_as_per_point_joins(tmp_path, grids):
    # a curve's points are formatted once per x grid that curves share; the
    # text must be the per-point "%.6g,%.6g" and "%.2f,%.2f" joins
    rng = np.random.default_rng(len(grids))
    curves = [(f"c{i}", xs, rng.random(xs.shape) * 3.0 - 1.0) for i, xs in enumerate(grids)]
    curves[0][2][:3] = [5e-324, 0.1 + 0.2, 1 - 2 ** -53]
    path = write_curves_svg(tmp_path / "c.svg", curves, title="t", xlabel="x", ylabel="y",
                            y_range=(-1.0, 2.0))
    text = path.read_text()
    data = re.findall(r"<!-- data (\S+): (.*) -->", text)
    points = re.findall(r'<polyline [^>]* points="([^"]*)"', text)
    assert data == [(label, _joined("%.6g,%.6g", ";", xs, ys)) for label, xs, ys in curves]
    assert points == [
        _joined("%.2f,%.2f", " ", plots.MARGIN_L + xs * PLOT_W,
                plots.MARGIN_T + PLOT_H - (ys + 1.0) / 3.0 * PLOT_H)
        for _, xs, ys in curves]
