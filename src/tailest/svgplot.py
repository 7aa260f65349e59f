"""Tiny SVG line chart for the generalized Hill plots, with no plotting library.

Emits a fixed 600x400 chart with three polylines: the classical series
(solid), the bounded-domain series (dotted) and the expected exponent
(dashed horizontal).  The y range is clipped to robust percentiles because
early-l classical estimates can be arbitrarily wild.

Every coordinate is written as ``"%.2f" % v`` would write it, but for a
whole polyline at once: with w = v * 100 and q = rint(w), the digits of q
are laid into one byte buffer.  That is exact.  ``"%.2f"`` rounds the exact
binary value of v to hundredths, that is 100 v to the nearest integer, ties
to even.  The product w is 100 v correctly rounded; rounding is monotone
and leaves every half-integer below 2^52 as it is, so w lies on the same
side of each half-integer as 100 v, or on it.  So q is the integer nearest
100 v unless w is itself a half-integer.  Such an entry, and any negative
(also -0.0), non-finite or larger value (from 999.995 on, ``"%.2f"`` writes
four integer digits), is formatted by ``"%.2f"`` itself.
"""

from __future__ import annotations

import math

import numpy as np

from .estimator import HillPlotSeries

WIDTH = 600
HEIGHT = 400
MARGIN = 45


def _percentile(values: np.ndarray, q: float) -> float:
    """The q-quantile of values, linear between the two order statistics
    around position q * (n - 1); only those two are selected, not sorted."""
    if not values.size:
        return 0.0
    pos = q * (values.size - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, values.size - 1)
    frac = pos - lo
    low, high = np.partition(values, (lo, hi))[[lo, hi]].tolist()
    return low * (1.0 - frac) + high * frac


def _format_points(xs, ys) -> str:
    """``" ".join("%.2f,%.2f" % p for p in zip(xs, ys))``, byte for byte."""
    v = np.empty(2 * len(xs))
    v[0::2] = xs
    v[1::2] = ys
    if not v.size:
        return ""
    with np.errstate(invalid="ignore"):
        w = v * 100.0
        q = np.rint(w)
        exact = (np.abs(w - q) < 0.5) & (v < 999.995) & ~np.signbit(v)
    q = np.where(exact, q, 0.0).astype(np.int32)
    slow = np.flatnonzero(~exact).tolist()
    texts = [("%.2f" % v[i]).encode("ascii") for i in slow]
    # bytes per entry: 1-3 integer digits, '.', 2 decimals, then ',' or ' '
    size = 5 + (q >= 1000) + (q >= 10000)
    size[slow] = [len(text) + 1 for text in texts]
    end = np.cumsum(size)
    buf = np.empty(end[-1], np.uint8)
    zero = ord("0")
    buf[end - 2] = q % 10 + zero
    buf[end - 3] = q // 10 % 10 + zero
    buf[end - 4] = ord(".")
    buf[end - 5] = q // 100 % 10 + zero
    for offset, power in ((6, 1000), (7, 10000)):
        wide = np.flatnonzero(q >= power)
        buf[end[wide] - offset] = q[wide] // power % 10 + zero
    # An entry shorter than 5 bytes ("nan,") had its third digit written one
    # byte before it, onto the previous separator (for the first entry, onto
    # the last byte), so the separators are written after the digits.
    buf[end[0::2] - 1] = ord(",")
    buf[end[1::2] - 1] = ord(" ")
    for i, text in zip(slow, texts):
        buf[end[i] - 1 - len(text):end[i] - 1] = np.frombuffer(text, np.uint8)
    return buf[:-1].tobytes().decode("ascii")


def _polyline(xs, ys, style: str) -> str:
    return '<polyline fill="none" %s points="%s"/>' % (style, _format_points(xs, ys))


def hill_plot_svg(series: HillPlotSeries, expected_mu: float,
                  title: str = "") -> str:
    """Render the series as a standalone SVG document string."""
    # NaN entries are blanks: left out of the range and the lines
    finite = np.concatenate([v[~np.isnan(v)] for v in (series.mu_hill, series.mu_improved)])
    y_lo = min(expected_mu, _percentile(finite, 0.02))
    y_hi = max(expected_mu, _percentile(finite, 0.98))
    pad = 0.08 * (y_hi - y_lo) or 1.0
    y_lo -= pad
    y_hi += pad
    x_lo, x_hi = series.l_values[[0, -1]].tolist()
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
        return [_polyline(sx(series.l_values[present]), sy(values[present]), style)]

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
    parts += line(series.mu_hill, 'stroke="black" stroke-width="1"')
    parts += line(series.mu_improved, 'stroke="blue" stroke-width="1" stroke-dasharray="2,3"')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
