"""Tiny SVG line chart for the generalized Hill plots, with no plotting library.

Emits a fixed 600x400 chart with three polylines: the classical series
(solid), the bounded-domain series (dotted) and the expected exponent
(dashed horizontal).  The y range is clipped to robust percentiles because
early-l classical estimates can be arbitrarily wild.
"""

from __future__ import annotations

import math

import numpy as np

from .estimator import HillPlotSeries

WIDTH = 600
HEIGHT = 400
MARGIN = 45


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


def _polyline(xs, ys, style: str) -> str:
    coords = " ".join(["%.2f,%.2f" % point for point in zip(xs, ys)])
    return '<polyline fill="none" %s points="%s"/>' % (style, coords)


def hill_plot_svg(series: HillPlotSeries, expected_mu: float,
                  title: str = "") -> str:
    """Render the series as a standalone SVG document string."""
    l_values = np.asarray(series.l_values)
    # None entries become NaN and are left out of the range and the lines
    columns = [np.array(vs, dtype=float) for vs in (series.mu_hill, series.mu_improved)]
    finite = np.sort(np.concatenate([v[~np.isnan(v)] for v in columns]), kind="stable").tolist()
    y_lo = min(expected_mu, _percentile(finite, 0.02))
    y_hi = max(expected_mu, _percentile(finite, 0.98))
    pad = 0.08 * (y_hi - y_lo) or 1.0
    y_lo -= pad
    y_hi += pad
    x_lo, x_hi = series.l_values[0], series.l_values[-1]
    x_span = max(x_hi - x_lo, 1)

    # the same arithmetic, in the same order, on arrays or scalars
    def sx(l):
        return MARGIN + (l - x_lo) / x_span * (WIDTH - 2 * MARGIN)

    def sy(v):
        v = np.minimum(np.maximum(v, y_lo), y_hi)  # clip off-scale points to the frame
        return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    def line(values, style: str) -> list[str]:
        present = ~np.isnan(values)
        if not present.any():
            return []
        return [_polyline(sx(l_values[present]).tolist(), sy(values[present]).tolist(), style)]

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT),
        '<rect x="%d" y="%d" width="%d" height="%d" fill="white" stroke="black"/>'
        % (MARGIN, MARGIN, WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN),
    ]
    if title:
        parts.append('<text x="%d" y="%d" font-size="14">%s</text>'
                     % (MARGIN, MARGIN - 12, title))
    # axis labels: x extremes and y extremes
    parts.append('<text x="%d" y="%d" font-size="11">%d</text>'
                 % (MARGIN, HEIGHT - MARGIN + 16, x_lo))
    parts.append('<text x="%d" y="%d" font-size="11" text-anchor="end">%d</text>'
                 % (WIDTH - MARGIN, HEIGHT - MARGIN + 16, x_hi))
    parts.append('<text x="%d" y="%d" font-size="11" text-anchor="end">%.3g</text>'
                 % (MARGIN - 4, HEIGHT - MARGIN, y_lo + pad))
    parts.append('<text x="%d" y="%d" font-size="11" text-anchor="end">%.3g</text>'
                 % (MARGIN - 4, MARGIN + 10, y_hi - pad))
    parts.append(_polyline(
        [sx(x_lo), sx(x_hi)], [sy(expected_mu), sy(expected_mu)],
        'stroke="grey" stroke-width="1" stroke-dasharray="8,4"'))
    parts += line(columns[0], 'stroke="black" stroke-width="1"')
    parts += line(columns[1], 'stroke="blue" stroke-width="1" stroke-dasharray="2,3"')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
