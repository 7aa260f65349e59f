"""Tail exponent estimators for samples restricted to a bounded domain.

The classical Hill estimator infers the tail exponent mu of a power-law-like
density from the largest order statistics, implicitly assuming the data
extends to infinity.  When the observations are confined to a finite interval
[L, R] (external cuts, saturated detectors, administrative limits) that
assumption breaks down and the Hill estimate can be badly biased.  This
module provides both the classical estimator and a bounded-domain estimator
that solves the exact mean-log identity for a truncated power law.  Both
bounded-domain solvers take Newton steps on one dimensionless kernel of
delta = alpha * ln(R/L): the direct solver safeguards them with a bracket,
and the iterative solver is the paper's multiplicative update seeded with
the Hill value, which is the same Newton step taken unguarded.  One
vectorized Newton loop takes those steps for every root the module solves:
a single window, the full windows of many samples, or every window of a
generalized Hill plot.

Conventions: samples are held in descending order (X_1 is the largest value),
mu = alpha + 1, and a window (l, r) selects X_r >= ... >= X_l with 1-based
indices, so X_l is the smallest included observation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EstimationError",
    "WindowError",
    "DegenerateSampleError",
    "DegenerateBoundsError",
    "SingularityError",
    "SolverFailureError",
    "OrderedSample",
    "TailWindow",
    "SolverConfig",
    "DEFAULT_CONFIG",
    "EstimateResult",
    "HillPlotSeries",
    "mean_log",
    "hill_estimate",
    "correction",
    "correction_derivative",
    "gfun",
    "solve_direct",
    "solve_iterative",
    "improved_estimate",
    "full_window_estimates",
    "hill_plot_series",
]


class EstimationError(ValueError):
    """Base class for all estimation failures."""


class WindowError(EstimationError):
    """Window indices are out of range or do not select >= 2 points."""


class DegenerateSampleError(EstimationError):
    """The selected observations carry no usable spread."""


class DegenerateBoundsError(EstimationError):
    """Domain bounds are non-positive or coincide."""


class SingularityError(EstimationError):
    """Evaluation requested exactly at a pole of the function."""


class SolverFailureError(EstimationError):
    """Root search or iteration could not proceed."""


class OrderedSample:
    """Strictly positive observations stored as reversed order statistics.

    The constructor accepts values in any order and sorts them descending,
    so estimates depend only on the multiset of observations.  Logarithms
    are cached because every estimator consumes them.
    """

    __slots__ = ("values", "log_values")

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size < 2:
            raise DegenerateSampleError("need at least 2 observations, got %d" % arr.size)
        if not np.all(np.isfinite(arr)):
            raise DegenerateSampleError("sample contains non-finite values")
        if np.any(arr <= 0.0):
            raise DegenerateSampleError("sample contains non-positive values")
        arr = np.sort(arr)[::-1].copy()
        arr.setflags(write=False)
        logs = np.log(arr)
        logs.setflags(write=False)
        self.values = arr
        self.log_values = logs

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return "OrderedSample(n=%d, high=%g, low=%g)" % (
            len(self), self.values[0], self.values[-1])


@dataclass(frozen=True)
class TailWindow:
    """Index pair selecting the sub-sample X_r ... X_l (1-based, r < l)."""

    l: int  # index of the smallest included observation
    r: int  # index of the largest included observation

    def __post_init__(self):
        if self.r < 1 or self.l <= self.r:
            raise WindowError("need 1 <= r < l, got l=%d r=%d" % (self.l, self.r))

    @property
    def k(self) -> int:
        """Number of observations in the window."""
        return self.l - self.r + 1


def full_window(sample: OrderedSample) -> TailWindow:
    """Window covering the whole sample."""
    return TailWindow(l=len(sample), r=1)


def _check_window(sample: OrderedSample, window: TailWindow) -> None:
    if window.l > len(sample):
        raise WindowError(
            "window l=%d exceeds sample length %d" % (window.l, len(sample)))


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by the direct and iterative solvers.

    Both solvers work in delta = alpha * ln(R/L) and measure residuals of the
    mean-log equation in units of ln(R/L), so every knob is scale-free: the
    same settings serve a domain [3, 3.000001] and a domain [1e-300, 1e300].
    """

    # a Newton step in delta below this, relative to max(1, |delta|), ends the solve
    alpha_tolerance: float = 1e-10
    # converged also needs |G(alpha) - mean_log| / ln(R/L) at most this, at the
    # iterate the final step was taken from
    residual_tolerance: float = 1e-10
    # Newton steps (iterative); Newton or bisection steps (direct)
    max_iterations: int = 100
    # the direct solver looks for the root only within |alpha * ln(R/L)| <= this
    bracket_limit: float = 1e4

    def __post_init__(self):
        # written so that NaN fails them too
        if not (self.alpha_tolerance > 0 and self.residual_tolerance > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.bracket_limit > 0:
            raise ValueError("bracket_limit must be positive")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class EstimateResult:
    """One tail estimate with its method and convergence diagnostics."""

    alpha: float
    mu: float  # always alpha + 1
    method: str  # "hill" | "improved-direct" | "improved-iterative"
    iterations: int  # update steps taken; 0 for hill and improved-direct
    converged: bool
    window_low: float  # X_l, smallest included observation
    window_high: float  # X_r, largest included observation
    k: int  # window size; 0 for a bare solve_direct on explicit bounds
    mean_log: float


@dataclass
class HillPlotSeries:
    """Aligned per-l series of classical and bounded-domain estimates.

    Entries are None where the corresponding estimate was degenerate or the
    solver failed; the series itself is always complete in l.
    """

    l_values: list[int]
    mu_hill: list[float | None]
    mu_improved: list[float | None]

    def __len__(self) -> int:
        return len(self.l_values)


# --------------------------------------------------------------------------
# Mean-log statistics


def mean_log(sample: OrderedSample, window: TailWindow) -> float:
    """Plain average of ln(X_j) over the window, in [ln X_l, ln X_r]."""
    _check_window(sample, window)
    return float(np.mean(sample.log_values[window.r - 1:window.l]))


# --------------------------------------------------------------------------
# Classical Hill estimator


def hill_estimate(sample: OrderedSample, k: int) -> EstimateResult:
    """Classical Hill estimate from the k largest observations.

    H_k = mean(ln X_1 .. ln X_k) - ln X_k, alpha = 1 / H_k, mu = alpha + 1.
    """
    if k < 2 or k > len(sample):
        raise WindowError("k must be in [2, %d], got %d" % (len(sample), k))
    m = float(np.mean(sample.log_values[:k]))
    h = m - float(sample.log_values[k - 1])
    # np.mean of k equal logs need not return that log exactly, so ties are
    # caught on the values; h == 0.0 also covers logs that round together
    if h == 0.0 or sample.values[k - 1] == sample.values[0]:
        raise DegenerateSampleError("top-%d observations are all equal" % k)
    alpha = 1.0 / h
    return EstimateResult(
        alpha=alpha,
        mu=alpha + 1.0,
        method="hill",
        iterations=0,
        converged=True,
        window_low=float(sample.values[k - 1]),
        window_high=float(sample.values[0]),
        k=k,
        mean_log=m,
    )


# --------------------------------------------------------------------------
# Bounded-domain correction math
#
# Everything is a function of delta = alpha * ln(R / L).  With span = ln R -
# ln L, the theoretical mean log is G = ln L + span * g(delta) where
#
#     g(delta) = 1/delta - 1/expm1(delta),
#
# which falls strictly from 1 at -inf to 0 at +inf, with g(0) = 1/2 and
# g(-delta) = 1 - g(delta).  Its slope is g' = q - 1/delta^2 with the even,
# positive q = e^|delta| / expm1(|delta|)^2, and the correction derivative is
# D = span^2 * q.  Written in e^-|delta| these forms can only underflow, never
# overflow; near delta = 0 the cancellation in 1/delta - 1/expm1(delta) is
# replaced by its Bernoulli series.

# Below this |delta| the series gives g to < 1e-15 and its slope, which only
# sizes Newton steps, to < 1e-13.  Above it the closed form loses digits to
# the cancellation in 1/|delta| - e/em and in q - 1/delta^2: against a
# 40-digit reference over |delta| in [0.05, 3] it is good only to about
# 5e-15 in g and 1.3e-12 relative in the slope, worst near the switch.
_SERIES_DELTA = 0.05


def _kernel_array(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise g(delta), its slope g'(delta) and q(delta) = g' + 1/delta^2."""
    t = np.abs(delta)
    series = t < _SERIES_DELTA
    # the closed form is replaced by the series where it fails; delta^2
    # overflows beyond |delta| ~ 1e154, which only zeroes 1/delta^2, and q =
    # 1/delta^2 + slope overflows to inf below |delta| ~ 1e-154
    with np.errstate(all="ignore"):
        d2 = delta * delta
        ds, d2s = delta[series], d2[series]
        e = np.exp(-t)  # 0.0 beyond t ~ 745, where g = 1/delta (+1 if delta < 0)
        em = -np.expm1(-t)  # 1 - e^-t, in (0, 1]
        q = e / (em * em)
        h = 1.0 / t - e / em  # g(|delta|)
        g = np.where(delta > 0.0, h, 1.0 - h)
        slope = q - 1.0 / d2
        g[series] = 0.5 - ds * (1.0 / 12.0 - d2s * (1.0 / 720.0 - d2s / 30240.0))
        slope[series] = -1.0 / 12.0 + d2s * (1.0 / 240.0 - d2s / 6048.0)
        q[series] = 1.0 / d2s + slope[series]
    return g, slope, q


def _bounded_kernel(alpha: float, L: float, R: float):
    """ln L, ln(R/L) and the kernel at alpha * ln(R/L), for bounds in any order."""
    if L <= 0.0 or R <= 0.0 or L == R:
        raise DegenerateBoundsError(
            "bounds must be positive and distinct, got L=%r R=%r" % (L, R))
    ln_l = math.log(L)
    span = math.log(R) - ln_l
    return ln_l, span, [float(v[0]) for v in _kernel_array(np.array([alpha * span]))]


def correction(alpha: float, L: float, R: float) -> float:
    """Finite-domain correction C(alpha, L, R).

    C = (ln L * L^-alpha - ln R * R^-alpha) / (L^-alpha - R^-alpha)
      = G(alpha) - 1/alpha.  Symmetric under exchanging L and R; diverges
    like -1/alpha at alpha = 0.
    """
    ln_l, span, (g, _, _) = _bounded_kernel(alpha, L, R)
    if alpha == 0.0:
        raise SingularityError("correction has a pole at alpha = 0")
    return ln_l + span * g - 1.0 / alpha


def correction_derivative(alpha: float, L: float, R: float) -> float:
    """Derivative of :func:`correction` with respect to alpha.

    D = R^alpha L^alpha (ln L - ln R)^2 / (L^alpha - R^alpha)^2, an even
    function of delta, computed as span^2 * q(delta).  D is strictly
    positive and diverges like 1/alpha^2 at alpha = 0.
    """
    _, span, (_, _, q) = _bounded_kernel(alpha, L, R)
    return span * span * q


def gfun(alpha: float, L: float, R: float) -> float:
    """Theoretical mean of ln(x) under an exact power law x^-(alpha+1) on [L, R].

    G(alpha) = 1/alpha + C(alpha, L, R), extended continuously through the
    removable singularity at alpha = 0 where G(0) = (ln L + ln R) / 2.
    G is strictly decreasing with limits ln R at -inf and ln L at +inf.
    """
    if not (0.0 < L < R):
        raise DegenerateBoundsError("need 0 < L < R, got L=%r R=%r" % (L, R))
    ln_l, span, (g, _, _) = _bounded_kernel(alpha, L, R)
    return ln_l + span * g


# --------------------------------------------------------------------------
# Solvers
#
# Every bounded-domain estimate solves g(delta) = y with y = (mean_log -
# ln L) / ln(R/L) in (0, 1), i.e. G(alpha) = mean_log, by Newton steps in
# delta.  One vectorized loop, _solve_windows, takes those steps for one
# window, for every sample of the table and for every window of the plot
# sweep, so the three cannot drift apart.


def _has_root(y: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Where y lies in (0, 1) with its root inside |delta| <= config.bracket_limit."""
    # g(-d) = 1 - g(d): the root lies in the bracket iff min(y, 1-y) >= g(limit)
    g_limit = _kernel_array(np.array([config.bracket_limit]))[0]
    return (0.0 < y) & (y < 1.0) & (np.minimum(y, 1.0 - y) >= g_limit)


def _solve_windows(y: np.ndarray, span: np.ndarray, config: SolverConfig,
                   seed: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Solve g(delta) = y for every entry at once: alpha = delta / span, a
    converged mask and the Newton steps taken by each entry.

    Without a seed the steps are safeguarded: from 1/y - 1/(1-y), inside a
    bracket that starts at |delta| <= ``config.bracket_limit``, so every
    entry must pass :func:`_has_root`; a step leaving the bracket becomes a
    bisection.  Given a seed (the starting deltas) they are unguarded, and
    an entry stops at the first step whose iterate is non-finite, with a
    non-finite alpha.  Each entry also stops once a step in delta is at most
    ``config.alpha_tolerance`` relative to max(1, |delta|), and is converged
    if its residual, in units of ln(R/L), was at most
    ``config.residual_tolerance`` at the iterate that step was taken from.
    One still going after ``config.max_iterations`` steps keeps its last
    iterate, unconverged.
    """
    guarded = seed is None
    alpha = np.empty(y.size)
    converged = np.zeros(y.size, dtype=bool)
    steps = np.full(y.size, config.max_iterations)
    todo = np.arange(y.size)
    lo = np.full(y.size, -config.bracket_limit)
    hi = np.full(y.size, config.bracket_limit)
    with np.errstate(all="ignore"):  # non-finite iterates are handled below
        delta = 1.0 / y - 1.0 / (1.0 - y) if guarded else seed
        for count in range(1, config.max_iterations + 1):
            if not todo.size:
                break
            if guarded:
                delta = np.where((lo < delta) & (delta < hi), delta, 0.5 * (lo + hi))
            g, slope, _ = _kernel_array(delta)
            residual = g - y
            # the slope only underflows to 0 for |delta| > 1e154; the step is lost there
            step = np.where(slope != 0.0, residual / slope, np.inf)
            done = np.abs(step) <= config.alpha_tolerance * np.maximum(1.0, np.abs(delta))
            if guarded:
                up = residual > 0.0
                lo = np.where(up, delta, lo)
                hi = np.where(up, hi, delta)
            delta = delta - step
            stop = done if guarded else done | ~np.isfinite(delta)
            ended = todo[stop]
            alpha[ended] = delta[stop] / span[ended]
            converged[ended] = done[stop] & (np.abs(residual[stop]) <= config.residual_tolerance)
            steps[ended] = count
            left = ~stop
            todo, y, delta, lo, hi = todo[left], y[left], delta[left], lo[left], hi[left]
        alpha[todo] = delta / span[todo]
    return alpha, converged, steps


def _window_bounds(sample: OrderedSample, window: TailWindow):
    """X_l, X_r, their logs and the window's mean log; rejects a window whose
    end points have equal logs, which distinct values a few ulp apart can."""
    m = mean_log(sample, window)  # checks the window first
    low = float(sample.values[window.l - 1])
    high = float(sample.values[window.r - 1])
    ln_low = float(sample.log_values[window.l - 1])
    ln_high = float(sample.log_values[window.r - 1])
    if ln_low == ln_high:
        raise DegenerateSampleError("window values %r to %r have equal logs" % (low, high))
    return low, high, ln_low, ln_high, m


def _solve_bounded(mean_log: float, L: float, R: float, ln_l: float, ln_r: float,
                   k: int, config: SolverConfig) -> EstimateResult:
    """The safeguarded solve of G(alpha) = mean_log on [L, R], given ln L < ln R."""
    span = ln_r - ln_l
    y = (mean_log - ln_l) / span
    if not (0.0 < y < 1.0):
        raise DegenerateSampleError(
            "mean log %r outside (ln L, ln R) = (%r, %r)" % (mean_log, ln_l, ln_r))
    if not _has_root(np.array([y]), config)[0]:
        raise SolverFailureError(
            "no root within |alpha * ln(R/L)| <= %g" % config.bracket_limit)
    alpha, converged, _ = _solve_windows(np.array([y]), np.array([span]), config)
    return EstimateResult(
        alpha=float(alpha[0]),
        mu=float(alpha[0]) + 1.0,
        method="improved-direct",
        iterations=0,
        converged=bool(converged[0]),
        window_low=L,
        window_high=R,
        k=k,
        mean_log=mean_log,
    )


def solve_direct(mean_log: float, L: float, R: float,
                 config: SolverConfig = DEFAULT_CONFIG) -> EstimateResult:
    """Solve G(alpha) = mean_log for alpha by safeguarded Newton steps in delta.

    G is strictly decreasing, so any mean_log strictly inside
    (ln L, ln R) has exactly one root.  Newton starts from the two-sided
    asymptotic seed delta = 1/y - 1/(1 - y) and keeps a bracket on the root,
    initially |delta| <= ``config.bracket_limit``; a step leaving the
    bracket becomes a bisection.
    """
    if not (0.0 < L < R):
        raise DegenerateBoundsError("need 0 < L < R, got L=%r R=%r" % (L, R))
    ln_l, ln_r = math.log(L), math.log(R)
    if ln_l == ln_r:
        raise DegenerateBoundsError("bounds L=%r R=%r have equal logs" % (L, R))
    return _solve_bounded(mean_log, L, R, ln_l, ln_r, 0, config)


def improved_estimate(sample: OrderedSample, window: TailWindow,
                      config: SolverConfig = DEFAULT_CONFIG) -> EstimateResult:
    """Bounded-domain estimate over a window, solved directly.

    Equates the window's empirical mean log to G(alpha) with L = X_l and
    R = X_r and returns the unique root; mu = alpha + 1.
    """
    low, high, ln_low, ln_high, m = _window_bounds(sample, window)
    return _solve_bounded(m, low, high, ln_low, ln_high, window.k, config)


def solve_iterative(sample: OrderedSample, window: TailWindow,
                    config: SolverConfig = DEFAULT_CONFIG) -> EstimateResult:
    """Bounded-domain estimate via the multiplicative fixed-point iteration.

    Starts from the Hill value alpha_1 = 1 / (mean_log - ln X_l) and applies

        alpha' = alpha * (1 + (alpha * (m - C) - 1) / (alpha^2 * D - 1))

    which is exactly Newton's method on G(alpha) = m, since G' = D - 1/alpha^2.
    The steps are the unguarded Newton steps in delta = alpha * ln(R/L) of
    the loop every solver shares (Newton is unchanged by that rescaling), so
    the table's mu_iter5 is the Hill seed followed by four Newton steps.
    Iteration stops once a step in delta is below ``config.alpha_tolerance``
    relative to max(1, |delta|), or after ``config.max_iterations`` steps.
    Non-convergence is reported via ``converged=False``, not an exception,
    so callers can fall back to :func:`solve_direct`.
    """
    low, high, ln_low, ln_high, m = _window_bounds(sample, window)
    if m == ln_low:
        raise DegenerateSampleError("mean log equals ln X_l; Hill seed undefined")
    span = ln_high - ln_low
    y = np.array([(m - ln_low) / span])
    alpha, converged, steps = _solve_windows(y, np.array([span]), config, seed=1.0 / y)
    if not np.isfinite(alpha[0]):
        raise SolverFailureError("iteration diverged at step %d" % steps[0])
    return EstimateResult(
        alpha=float(alpha[0]),
        mu=float(alpha[0]) + 1.0,
        method="improved-iterative",
        iterations=int(steps[0]),
        converged=bool(converged[0]),
        window_low=low,
        window_high=high,
        k=window.k,
        mean_log=m,
    )


# --------------------------------------------------------------------------
# Many samples at once


def full_window_estimates(blocks: Iterable[np.ndarray], iterative: SolverConfig = DEFAULT_CONFIG,
                          config: SolverConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, ...]:
    """Full-window estimates of many samples, solved all at once.

    Each block is a 2-D array whose rows are samples in descending order,
    as :attr:`OrderedSample.values` holds one; blocks may differ in width.
    A block is reduced to a few numbers per sample before the next is read,
    so only one needs to be in memory.  Returns six arrays with one entry
    per sample, in order: X_l and X_r (the smallest and largest value), the
    mean log, and mu from :func:`hill_estimate` over the whole sample, from
    :func:`solve_iterative` with ``iterative`` and from
    :func:`improved_estimate` with ``config``.  All six are bit-identical to
    the one-sample functions: each row is logged and summed on its own, in
    the same order, and its roots are solved by the same Newton loop from
    the same ln X_l and ln X_r.  A sample that the one-sample functions
    reject raises the same EstimationError subclass, for the first such
    sample and, within it, the first check they would fail.
    """
    columns: list[list[np.ndarray]] = [[] for _ in range(6)]
    for values in blocks:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] < 2:
            raise DegenerateSampleError(
                "need rows of at least 2 observations, got shape %s" % (values.shape,))
        with np.errstate(divide="ignore", invalid="ignore"):
            # contiguous, as OrderedSample's are: numpy may take a loop that
            # differs in the last bit for strided input
            logs = np.log(np.ascontiguousarray(values))
            parts = (values[:, -1], values[:, 0], logs.mean(axis=1), logs[:, -1], logs[:, 0],
                     np.isfinite(logs).all(axis=1))
        for column, part in zip(columns, parts):
            column.append(part.copy())  # a view would keep the whole block alive
    if not columns[0]:
        raise DegenerateSampleError("need at least one block of samples")
    low, high, mean, ln_low, ln_high, finite = map(np.concatenate, columns)
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = mean - ln_low
        span = ln_high - ln_low
        y = excess / span
        mu_hill = 1.0 / excess + 1.0
        hill_seed = 1.0 / y
    alpha_iterative, _, _ = _solve_windows(y, span, iterative, seed=hill_seed)
    # checks in the order the one-sample path meets them
    failures = (
        (~finite, DegenerateSampleError, "sample contains non-finite or non-positive values"),
        ((excess == 0.0) | (span == 0.0), DegenerateSampleError,
         "observations are all equal or have equal logs"),
        (~np.isfinite(alpha_iterative), SolverFailureError, "iteration diverged"),
        (~((0.0 < y) & (y < 1.0)), DegenerateSampleError, "mean log outside (ln L, ln R)"),
        (~_has_root(y, config), SolverFailureError,
         "no root within |alpha * ln(R/L)| <= %g" % config.bracket_limit),
    )
    bad = np.logical_or.reduce([mask for mask, _, _ in failures])
    if bad.any():
        row = int(np.argmax(bad))
        error, message = next((error, message) for mask, error, message in failures
                              if mask[row])
        raise error("sample %d of %d: %s" % (row + 1, bad.size, message))
    alpha_direct, _, _ = _solve_windows(y, span, config)
    return low, high, mean, mu_hill, alpha_iterative + 1.0, alpha_direct + 1.0


# --------------------------------------------------------------------------
# Generalised Hill plot


def _window_excess(values: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """ln(X_r/X_l) and mean_log - ln X_l of every window (l, r), l = r+1..n.

    Logs are taken relative to X_r before the prefix sums, so a narrow window
    keeps its digits: both results are built from small numbers.  Within a
    factor 2 of X_r the difference X_r - X_j is exact, and log1p of it over
    X_j keeps ln(X_r/X_j) accurate relative to itself as it nears 0; a
    difference of two logs would carry their absolute rounding error.
    """
    top = values[r - 1]
    tail = values[r - 1:]
    near = tail > 0.5 * top
    shift = np.log(top) - np.log(tail)
    shift[near] = np.log1p((top - tail[near]) / tail[near])
    span = shift[1:]
    mean = np.cumsum(shift)[1:] / np.arange(2, shift.size + 1)
    return span, span - mean


def _none_for_nan(values: np.ndarray) -> list[float | None]:
    out = values.astype(object)
    out[np.isnan(values)] = None
    return out.tolist()


def hill_plot_series(sample: OrderedSample, r: int,
                     config: SolverConfig = DEFAULT_CONFIG) -> HillPlotSeries:
    """Per-l series of classical and bounded-domain estimates, in O(n).

    For each l from r+1 to n the classical entry uses the top-l points
    (k = l) and the improved entry uses the window (l, r).  One prefix sum
    of logs shifted by ln X_1, and one of logs shifted by ln X_r, give every
    window's Hill excess and mean log in O(1); the improved entries are then
    solved together in the Newton loop that :func:`solve_direct` runs on one
    root, with its seed, bracket, step and residual tests.
    An entry is None exactly where the per-window estimators fail: tied top
    values (Hill), X_l == X_r, a mean log outside (ln X_l, ln X_r), no root
    within ``config.bracket_limit``, or no convergence within
    ``config.max_iterations`` steps.
    """
    n = len(sample)
    if r < 1 or r >= n:
        raise WindowError("r must be in [1, %d), got %d" % (n, r))
    top_span, top_excess = _window_excess(sample.values, 1)
    span, excess = (top_span, top_excess) if r == 1 else _window_excess(sample.values, r)
    hill_excess = top_excess[r - 1:]
    with np.errstate(divide="ignore"):
        mu_hill = np.where(hill_excess == 0.0, np.nan, 1.0 / hill_excess + 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        y = excess / span
    todo = np.flatnonzero((span > 0.0) & _has_root(y, config))
    alpha, converged, _ = _solve_windows(y[todo], span[todo], config)
    mu_improved = np.full(span.size, np.nan)
    mu_improved[todo[converged]] = alpha[converged] + 1.0

    return HillPlotSeries(
        l_values=list(range(r + 1, n + 1)),
        mu_hill=_none_for_nan(mu_hill),
        mu_improved=_none_for_nan(mu_improved),
    )
