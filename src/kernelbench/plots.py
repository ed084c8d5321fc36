"""Standalone SVG curve plots.

Plots are plain hand-written SVG (no plotting dependency) with the curve
data embedded as comments, so the file is self-contained; the CSVs remain
the canonical output.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 760, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 176, 40, 48

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#ad494a",
    "#637939",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _text(s: str) -> str:
    """``s`` as XML text: ``&``, ``<`` and ``>`` escaped (``xml.sax.saxutils``
    would import ``urllib.request``, about 7 MB, into every run)."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_curves_svg(path: str | Path, curves, title: str, xlabel: str,
                     ylabel: str, y_range=(0.0, 1.0), slots=None) -> Path:
    """Write labeled polyline curves to ``path``.

    ``curves`` is a sequence of (label, x_array, y_array) with x in [0, 1].
    ``slots`` gives each curve's palette position (default: its index), so
    that a curve keeps its colour when a curve before it is left out.
    """
    path = Path(path)
    y0, y1 = float(y_range[0]), float(y_range[1])
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v):
        return MARGIN_L + v * plot_w

    def sy(v):
        return MARGIN_T + plot_h - (v - y0) / (y1 - y0) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_text(title)}</text>',
    ]
    # axes box and ticks
    lines.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = frac
        yv = y0 + frac * (y1 - y0)
        px, py = sx(xv), sy(yv)
        lines.append(
            f'<line x1="{px:.1f}" y1="{MARGIN_T + plot_h}" x2="{px:.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{px:.1f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>'
        )
        lines.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" y2="{py:.1f}" '
            'stroke="black"/>'
        )
        lines.append(
            f'<text x="{MARGIN_L - 9}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>'
        )
    lines.append(
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_text(xlabel)}</text>'
    )
    lines.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.0f})">{_text(ylabel)}</text>'
    )

    if slots is None:
        slots = range(len(curves))
    # A curve's points take one % call over Python floats, which format
    # faster than numpy scalars, on rows whose x is already filled in.  The
    # rows are made again only when a curve's x differs in any bit from the
    # last curve's (-0.0 prints apart from 0.0).
    grid = None
    for idx, ((label, xs, ys), slot) in enumerate(zip(curves, slots)):
        color = PALETTE[slot % len(PALETTE)]
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.tobytes() != grid:
            grid = xs.tobytes()
            data_rows = ";".join(["%.6g,%%.6g" % x for x in xs.tolist()])
            pts_rows = " ".join(["%.2f,%%.2f" % x for x in sx(xs).tolist()])
        data = data_rows % tuple(ys.tolist())
        lines.append(f"<!-- data {label}: {data} -->")
        pts = pts_rows % tuple(sy(ys).tolist())
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        ly = MARGIN_T + 14 + 16 * idx
        lx = WIDTH - MARGIN_R + 12
        lines.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_text(label)}</text>'
        )

    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n")
    return path
