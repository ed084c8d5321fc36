import re

import numpy as np
import pytest

from kernelbench import plots
from kernelbench.plots import write_curves_svg

PLOT_W = plots.WIDTH - plots.MARGIN_L - plots.MARGIN_R
PLOT_H = plots.HEIGHT - plots.MARGIN_T - plots.MARGIN_B
GRID = np.linspace(0.0, 1.0, 101)


def _joined(point, sep, xs, ys):
    return sep.join(point % (x, y) for x, y in zip(xs.tolist(), ys.tolist()))


@pytest.mark.parametrize("missing", [(), (0, 2)], ids=["shared", "missing"])
def test_points_as_per_point_joins(tmp_path, missing):
    # every curve is drawn on the one x grid, formatted once; the text must
    # be the per-point "%.6g,%.6g" and "%.2f,%.2f" joins, and a curve of None
    # is left out while the others keep the colours of their places
    rng = np.random.default_rng(3)
    curves = [(f"c{i}", None if i in missing else rng.random(GRID.shape) * 3.0 - 1.0)
              for i in range(4)]
    curves[1][1][:3] = [5e-324, 0.1 + 0.2, 1 - 2 ** -53]
    path = write_curves_svg(tmp_path / "c.svg", GRID, curves, title="t", xlabel="x",
                            ylabel="y", y_range=(-1.0, 2.0))
    text = path.read_text()
    drawn = [(slot, label, ys) for slot, (label, ys) in enumerate(curves) if ys is not None]
    data = re.findall(r"<!-- data (\S+): (.*) -->", text)
    polylines = re.findall(r'<polyline [^>]*stroke="([^"]*)"[^>]* points="([^"]*)"', text)
    legend = re.findall(r'<text x="\d+" y="(\d+)" font-family="sans-serif" '
                        r'font-size="12">(\S+)</text>', text)
    assert data == [(label, _joined("%.6g,%.6g", ";", GRID, ys)) for _, label, ys in drawn]
    assert polylines == [
        (plots.PALETTE[slot],
         _joined("%.2f,%.2f", " ", plots.MARGIN_L + GRID * PLOT_W,
                 plots.MARGIN_T + PLOT_H - (ys + 1.0) / 3.0 * PLOT_H))
        for slot, _, ys in drawn]
    assert legend == [(str(plots.MARGIN_T + 14 + 16 * idx), label)
                      for idx, (_, label, _) in enumerate(drawn)]
