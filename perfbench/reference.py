"""Reference values for checking tailest's outputs, computed without tailest.

The benchmark does not trust the program it measures.  Everything the CLI
prints is re-derived here from the inputs alone: Hill values from numpy, the
bounded-domain root from the mean-log equation in its dimensionless form, and
the figure samples from the grid inverse-CDF recipe that the package's
sampler documents.  Nothing in this module imports tailest.

The mean-log equation m = 1/alpha + C(alpha, L, R) is written in
delta = alpha * ln(R/L) as

    g(delta) = 1/delta - 1/expm1(delta) = (m - ln L) / ln(R/L) = t,

so residuals are measured in units of ln(R/L).  g falls from 1 to 0 and
g(-delta) = 1 - g(delta).
"""

from __future__ import annotations

import math

import numpy as np

# Residual |g(delta) - t| allowed for a reported root, in units of ln(R/L).
# Observed roots of this commit sit below 1e-11; a root off by one part in
# 1e6 of alpha on a window with ln(R/L) ~ 0.3 misses by ~1e-8.
RESIDUAL_TOL = 1e-8
# Absolute error, in log units, that summing the window's logs in another
# order may leave in the mean log; divided by ln(R/L) it bounds how far an
# exact root can read off for a very narrow window.
SUMMATION_TOL = 1e-11

# A window must have an improved value when its root |alpha| is at most this:
# a decade inside the solver's documented bracket limit of 1e4.
ALPHA_WITH_ROOT = 1e3

GRID_POINTS = 10000  # the package's default grid resolution


def excess(delta):
    """g(delta) = 1/delta - 1/expm1(delta), elementwise, exact at delta = 0."""
    d = np.asarray(delta, dtype=float)
    out = np.empty_like(d)
    small = np.abs(d) < 1e-3
    ds = d[small]
    out[small] = 0.5 - ds / 12.0 + ds ** 3 / 720.0
    dl = d[~small]
    with np.errstate(over="ignore"):
        out[~small] = 1.0 / dl - 1.0 / np.expm1(dl)
    return out


def solve_excess(t):
    """delta with g(delta) = t for every t in (0, 1), by vectorized bisection."""
    t = np.asarray(t, dtype=float)
    # g(delta) < 1/delta for delta > 0, so g(2/t + 10) < t; symmetric below.
    lo = -(2.0 / (1.0 - t) + 10.0)
    hi = 2.0 / t + 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = excess(mid) > t
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def root_residual(mu, excess_mean, span):
    """|g((mu - 1) span) - t| for reported exponents mu, in units of ln(R/L).

    excess_mean is m - ln L and span is ln R - ln L, so t = excess_mean / span.
    """
    span = np.asarray(span, dtype=float)
    t = np.asarray(excess_mean, dtype=float) / span
    return np.abs(excess((np.asarray(mu, dtype=float) - 1.0) * span) - t)


def needs_root(excess_mean, span):
    """True for windows whose root alpha exists and lies well inside the bracket.

    excess_mean is m - ln L and span is ln R - ln L; a root exists exactly
    when 0 < excess_mean < span.
    """
    excess_mean = np.asarray(excess_mean, dtype=float)
    span = np.asarray(span, dtype=float)
    inside = (span > 0) & (excess_mean > 0) & (excess_mean < span)
    safe_span = np.where(inside, span, 1.0)
    delta = solve_excess(np.where(inside, excess_mean / safe_span, 0.5))
    return inside & (np.abs(delta) <= ALPHA_WITH_ROOT * safe_span)


def residual_tolerance(span, ln_low, ln_high):
    floor = SUMMATION_TOL * (1.0 + np.abs(ln_low) + np.abs(ln_high))
    return RESIDUAL_TOL + floor / np.asarray(span, dtype=float)


def hill_mismatch(mu_hill, h, ln_low, ln_high):
    """True where a reported Hill mu disagrees with the mean log excess h.

    Compared as h = 1/(mu - 1), relative to h plus the summation floor.
    """
    reported_h = 1.0 / (np.asarray(mu_hill, dtype=float) - 1.0)
    tol = 1e-9 * np.abs(h) + SUMMATION_TOL * (1.0 + np.abs(ln_low) + np.abs(ln_high))
    return ~(np.abs(reported_h - h) <= tol)


def agrees_4g(printed: str, value: float) -> bool:
    """Whether a '%.4g' string is the value rounded to 4 significant digits."""
    try:
        shown = float(printed)
    except ValueError:
        return False
    if value == 0.0 or not math.isfinite(value):
        return shown == value
    unit = max(10.0 ** (math.floor(math.log10(abs(v))) - 3) for v in (value, shown or value))
    return abs(shown - value) <= 0.5 * unit * (1.0 + 1e-9)


# --------------------------------------------------------------------------
# Inputs and samples


def truncated_power_sample(seed: int, n: int, exponent: float = 1.5,
                           low: float = 1.0, high: float = 1e4) -> np.ndarray:
    """n draws from x^-exponent on [low, high] by the closed-form inverse CDF.

    Uses numpy's PCG64 directly, not the package sampler, so a sampler change
    cannot alter this input.  Returned in ascending order.
    """
    u = np.random.default_rng(seed).random(n)
    a = 1.0 - exponent
    x = (low ** a + u * (high ** a - low ** a)) ** (1.0 / a)
    return np.sort(x)


def _pade14(x):
    return 1.0 / (1.0 + 494.7 * x ** 2 + 4886.0 * x ** 4)


def _two_power(x):
    return 3.0 * x ** -4.0 + 1.0 * x ** -2.5


def _log_over_x(x):
    return np.log(x) / x


def _sqrt_inv(x):
    return 1.0 / np.sqrt(x)


# figure example id -> (figure number, density, d_low, d_high, n)
FIGURES = {
    14: (1, _pade14, 1.0, 3.0, 2000),
    15: (2, _two_power, 10.0, 30.0, 10000),
    16: (3, _log_over_x, 100.0, 400.0, 10000),
    17: (4, _sqrt_inv, 3.0, 1500.0, 10000),
}


def grid_sample(pdf, d_low: float, d_high: float, n: int, seed: int) -> np.ndarray:
    """Seeded draws by the grid recipe: linspace, trapezoid CDF, np.interp."""
    xs = np.linspace(d_low, d_high, GRID_POINTS)
    dens = pdf(xs)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))])
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return np.interp(np.random.default_rng(seed).random(n), cdf, xs)


def top_windows(sample) -> dict[str, np.ndarray]:
    """Statistics of every window (l, 1) of a sample, for l = 2..n.

    Logs are shifted by ln X_1 before the prefix sums, so a narrow window
    near the top keeps its digits: span = ln X_1 - ln X_l and
    excess_mean = m - ln X_l (the Hill mean excess h) are both formed from
    small numbers.
    """
    logs = np.log(np.sort(np.asarray(sample, dtype=float))[::-1])
    shift = logs[0] - logs
    prefix_mean = np.cumsum(shift) / np.arange(1, shift.size + 1)
    span = shift[1:]
    return {
        "l": np.arange(2, shift.size + 1),
        "span": span,
        "excess_mean": span - prefix_mean[1:],
        "ln_low": logs[1:],
        "ln_high": np.full(span.size, logs[0]),
    }
