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
from collections.abc import Callable, Iterable
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
    "full_window",
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

    The constructor accepts values in any order and puts them in descending
    order, so estimates depend only on the multiset of observations.
    Logarithms are cached because every estimator consumes them.
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
        # input already in order, as a sorted file or draw()'s rows, skips the
        # sort; with NaN and non-positive values refused, the copy equals
        # np.sort(arr)[::-1] element for element
        ascending = arr[0] <= arr[-1]
        if np.all(arr[1:] >= arr[:-1]) if ascending else np.all(arr[1:] <= arr[:-1]):
            arr = (arr[::-1] if ascending else arr).copy()
        else:
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


# Solver settings.  Both solvers work in delta = alpha * ln(R/L) and measure
# residuals of the mean-log equation in units of ln(R/L), so every setting is
# scale-free: the same values serve a domain [3, 3.000001] and a domain
# [1e-300, 1e300].

# a Newton step in delta below this, relative to max(1, |delta|), ends the solve
_STEP_TOLERANCE = 1e-10
# converged also needs |G(alpha) - mean_log| / ln(R/L) at most this, at the
# iterate the final step was taken from
_RESIDUAL_TOLERANCE = 1e-10
# the direct solver looks for the root only within |alpha * ln(R/L)| <= this
_BRACKET_LIMIT = 1e4
# Newton or bisection steps of the direct solver; the iterative solvers' default
_MAX_STEPS = 100


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


def _result(alpha, method, iterations, converged, low, high, k, mean_log) -> EstimateResult:
    """Every EstimateResult, with mu = alpha + 1 and Python scalars."""
    return EstimateResult(float(alpha), float(alpha) + 1.0, method, int(iterations),
                          bool(converged), low, high, k, mean_log)


@dataclass
class HillPlotSeries:
    """Aligned per-l series of classical and bounded-domain estimates.

    ``l_values`` is an int64 array; ``mu_hill`` and ``mu_improved`` are
    float64 arrays of the same length, NaN where the corresponding estimate
    was degenerate or the solver failed.  The series is always complete in l.
    """

    l_values: np.ndarray
    mu_hill: np.ndarray
    mu_improved: np.ndarray

    def __len__(self) -> int:
        return len(self.l_values)


# --------------------------------------------------------------------------
# Window logs


def _window_logs(values: np.ndarray, logs: np.ndarray,
                 running: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """ln(X_r/X_l) and the excess mean_log - ln X_l of windows whose largest
    value X_r is the first of a row: the whole row, or with ``running`` every
    window (l, r) of a 1-D row with l > r.

    Both are sums of ln(X_r/X_j), so a window keeps its digits however
    narrow and at any scale.  Within a factor 2 of X_r the difference X_r -
    X_j is exact, and log1p of it over X_j keeps ln(X_r/X_j) accurate
    relative to itself as it nears 0; beyond that it is ln X_r - ln X_j,
    with the absolute error of the two logs.  A whole row is summed
    pairwise, by the same ufuncs for one window and for each C-contiguous
    row of a block, so both give the same bits; running windows take one
    cumulative sum.  Tied values give a span and an excess of exactly 0.
    """
    top = values[..., :1]
    shift = logs[..., :1] - logs
    near = values > 0.5 * top
    # rows descend, so the values within a factor 2 of X_r lead each row
    m = np.count_nonzero(np.atleast_2d(near).any(axis=0))
    ratio = top - values[..., :m]
    with np.errstate(over="ignore"):  # the ratios of far values, which log1p skips
        ratio /= values[..., :m]
    np.log1p(ratio, out=shift[..., :m], where=near[..., :m])
    if running:
        span = shift[1:]
        return span, span - np.cumsum(shift)[1:] / np.arange(2, shift.size + 1)
    span = shift[..., -1]
    return span, span - shift.sum(axis=-1) / shift.shape[-1]


def _window_bounds(sample: OrderedSample, window: TailWindow):
    """X_l, X_r, ln(X_r/X_l), mean_log - ln X_l and the mean log of a window."""
    if window.l > len(sample):
        raise WindowError("window l=%d exceeds sample length %d" % (window.l, len(sample)))
    rows = slice(window.r - 1, window.l)
    span, excess = map(float, _window_logs(sample.values[rows], sample.log_values[rows]))
    return (float(sample.values[window.l - 1]), float(sample.values[window.r - 1]), span,
            excess, float(sample.log_values[window.l - 1]) + excess)


def mean_log(sample: OrderedSample, window: TailWindow) -> float:
    """Average of ln(X_j) over the window, as ln X_l plus the mean of
    ln(X_j/X_l) >= 0: never below ln X_l, and above ln X_r by at most the
    rounding of that sum."""
    return _window_bounds(sample, window)[4]


# --------------------------------------------------------------------------
# Classical Hill estimator


def hill_estimate(sample: OrderedSample, k: int) -> EstimateResult:
    """Classical Hill estimate from the k largest observations.

    H_k = mean(ln X_1 .. ln X_k) - ln X_k, alpha = 1 / H_k, mu = alpha + 1.
    """
    if k < 2 or k > len(sample):
        raise WindowError("k must be in [2, %d], got %d" % (len(sample), k))
    low, high, _, h, m = _window_bounds(sample, TailWindow(l=k, r=1))
    if h <= 0.0:  # only tied top values give 0
        raise DegenerateSampleError(
            "top-%d observations: Hill excess mean log - ln X_%d = %r is not positive"
            % (k, k, h))
    return _result(1.0 / h, "hill", 0, True, low, high, k, m)


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
# sweep, so the three cannot drift apart.  Its guarded solve also decides
# whether a root exists, and gives each caller alpha NaN where none does.


def _has_root(y: np.ndarray) -> np.ndarray:
    """Where y lies in (0, 1) with its root inside |delta| <= _BRACKET_LIMIT."""
    # g(-d) = 1 - g(d): the root lies in the bracket iff min(y, 1-y) >= g(limit)
    g_limit = _kernel_array(np.array([_BRACKET_LIMIT]))[0]
    return (0.0 < y) & (y < 1.0) & (np.minimum(y, 1.0 - y) >= g_limit)


def _solve_windows(y: np.ndarray, span: np.ndarray, max_iterations: int,
                   seed: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Solve g(delta) = y for every entry at once: alpha = delta / span, a
    converged mask and the Newton steps taken by each entry.

    Without a seed the steps are safeguarded: from 1/y - 1/(1-y), inside a
    bracket that starts at |delta| <= _BRACKET_LIMIT; a step leaving the
    bracket becomes a bisection.  An entry that fails :func:`_has_root` is
    not iterated: it returns alpha NaN, unconverged, after 0 steps.  Given a
    seed (the starting deltas) every entry takes unguarded steps, and stops
    at the first step whose iterate is non-finite, with a non-finite alpha.
    Each entry also stops once a step in delta is at most _STEP_TOLERANCE
    relative to max(1, |delta|), and is converged if its residual, in units
    of ln(R/L), was at most _RESIDUAL_TOLERANCE at the iterate that step was
    taken from.  One still going after ``max_iterations`` steps keeps its
    last iterate, unconverged.
    """
    guarded = seed is None
    alpha = np.full(y.size, np.nan)
    converged = np.zeros(y.size, dtype=bool)
    steps = np.zeros(y.size, dtype=int)
    todo = np.flatnonzero(_has_root(y)) if guarded else np.arange(y.size)
    y = y[todo]
    lo = np.full(y.size, -_BRACKET_LIMIT)
    hi = np.full(y.size, _BRACKET_LIMIT)
    with np.errstate(all="ignore"):  # non-finite iterates are handled below
        delta = 1.0 / y - 1.0 / (1.0 - y) if guarded else seed
        for count in range(1, max_iterations + 1):
            if not todo.size:
                break
            if guarded:
                delta = np.where((lo < delta) & (delta < hi), delta, 0.5 * (lo + hi))
            g, slope, _ = _kernel_array(delta)
            residual = g - y
            # the slope only underflows to 0 for |delta| > 1e154; the step is lost there
            step = np.where(slope != 0.0, residual / slope, np.inf)
            done = np.abs(step) <= _STEP_TOLERANCE * np.maximum(1.0, np.abs(delta))
            if guarded:
                up = residual > 0.0
                lo = np.where(up, delta, lo)
                hi = np.where(up, hi, delta)
            delta = delta - step
            stop = done if guarded else done | ~np.isfinite(delta)
            ended = todo[stop]
            alpha[ended] = delta[stop] / span[ended]
            converged[ended] = done[stop] & (np.abs(residual[stop]) <= _RESIDUAL_TOLERANCE)
            steps[ended] = count
            left = ~stop
            todo, y, delta, lo, hi = todo[left], y[left], delta[left], lo[left], hi[left]
        alpha[todo], steps[todo] = delta / span[todo], max_iterations
    return alpha, converged, steps


def _solve_bounded(mean_log: float, L: float, R: float, excess: float, span: float,
                   k: int) -> EstimateResult:
    """The safeguarded solve of G(alpha) = mean_log on [L, R], given the
    excess mean_log - ln L and span = ln(R/L)."""
    if not 0.0 < excess < span:
        raise DegenerateSampleError(
            "mean log %r outside (ln L, ln R) for L=%r R=%r" % (mean_log, L, R))
    alpha, converged, _ = _solve_windows(np.array([excess / span]), np.array([span]), _MAX_STEPS)
    if np.isnan(alpha[0]):
        raise SolverFailureError("no root within |alpha * ln(R/L)| <= %g" % _BRACKET_LIMIT)
    return _result(alpha[0], "improved-direct", 0, converged[0], L, R, k, mean_log)


def solve_direct(mean_log: float, L: float, R: float) -> EstimateResult:
    """Solve G(alpha) = mean_log for alpha by safeguarded Newton steps in delta.

    G is strictly decreasing, so any mean_log strictly inside
    (ln L, ln R) has exactly one root.  Newton starts from the two-sided
    asymptotic seed delta = 1/y - 1/(1 - y) and keeps a bracket on the root,
    initially |delta| <= 1e4, and a step leaving the bracket becomes a
    bisection; it takes at most 100 steps.
    """
    if not (0.0 < L < R):
        raise DegenerateBoundsError("need 0 < L < R, got L=%r R=%r" % (L, R))
    ln_l = math.log(L)
    span = math.log(R) - ln_l
    if span == 0.0:
        raise DegenerateBoundsError("bounds L=%r R=%r have equal logs" % (L, R))
    return _solve_bounded(mean_log, L, R, mean_log - ln_l, span, 0)


def improved_estimate(sample: OrderedSample, window: TailWindow) -> EstimateResult:
    """Bounded-domain estimate over a window, solved directly.

    Equates the window's empirical mean log to G(alpha) with L = X_l and
    R = X_r and returns the unique root; mu = alpha + 1.
    """
    low, high, span, excess, m = _window_bounds(sample, window)
    return _solve_bounded(m, low, high, excess, span, window.k)


def solve_iterative(sample: OrderedSample, window: TailWindow,
                    max_iterations: int = _MAX_STEPS) -> EstimateResult:
    """Bounded-domain estimate via the multiplicative fixed-point iteration.

    Starts from the Hill value alpha_1 = 1 / (mean_log - ln X_l) and applies

        alpha' = alpha * (1 + (alpha * (m - C) - 1) / (alpha^2 * D - 1))

    which is exactly Newton's method on G(alpha) = m, since G' = D - 1/alpha^2.
    The steps are the unguarded Newton steps in delta = alpha * ln(R/L) of
    the loop every solver shares (Newton is unchanged by that rescaling), so
    the table's mu_iter5 is the Hill seed followed by four Newton steps.
    Iteration stops once a step in delta is below 1e-10 relative to
    max(1, |delta|), or after ``max_iterations`` steps (at least 1).
    Non-convergence is reported via ``converged=False``, not an exception,
    so callers can fall back to :func:`solve_direct`.  A window of k values
    has y = excess / ln(R/L) in [1/k, 1 - 1/k]: its shifts ln(X_r/X_j) are 0
    at the top and at most ln(R/L).  The steps fail only for y below about
    7e-155; this divergence check and full_window_estimates' stay for any y.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    low, high, span, excess, m = _window_bounds(sample, window)
    if excess <= 0.0:  # only tied values give 0
        raise DegenerateSampleError("mean log equals ln X_l; Hill seed undefined")
    y = np.array([excess / span])
    alpha, converged, steps = _solve_windows(y, np.array([span]), max_iterations, seed=1.0 / y)
    if not np.isfinite(alpha[0]):
        raise SolverFailureError("iteration diverged at step %d" % steps[0])
    return _result(alpha[0], "improved-iterative", steps[0], converged[0], low, high, window.k, m)


# --------------------------------------------------------------------------
# Many samples at once


def full_window_estimates(blocks: Iterable[np.ndarray], max_iterations: int = _MAX_STEPS,
                          name: Callable[[int], str] | None = None, *,
                          order: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Full-window estimates of many samples, solved all at once.

    Each block is a 2-D array whose rows are samples in descending order,
    as :attr:`OrderedSample.values` holds one; blocks may differ in width.
    A block is reduced to a few numbers per sample before the next is read,
    so only one needs to be in memory.  Returns six arrays with one entry
    per sample, in order: X_l and X_r (the smallest and largest value), the
    mean log, and mu from :func:`hill_estimate` over the whole sample, from
    :func:`solve_iterative` with ``max_iterations`` and from
    :func:`improved_estimate`.  All six are bit-identical to the one-sample
    functions: each row's shifted logs are formed by the same ufuncs and
    summed on their own, in the same order, and its roots are solved by the
    same Newton loop from the same span and excess.  A sample that the
    one-sample functions reject raises the same EstimationError subclass,
    for the first such sample and, within it, the first check they would
    fail; its message names the sample as ``name(i)`` for the i-th sample
    (from 0), by default "sample i+1 of N".  With ``order``, an integer
    array holding each of 0..N-1 once, the i-th sample is the ``order[i]``-th
    row read from the blocks, so a caller can read samples in any order and
    have them returned, checked and named in its own.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    columns: list[list[np.ndarray]] = [[] for _ in range(5)]
    for values in blocks:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] < 2:
            raise DegenerateSampleError(
                "need rows of at least 2 observations, got shape %s" % (values.shape,))
        # contiguous, as OrderedSample's are: numpy may take a loop that
        # differs in the last bit for strided input
        values = np.ascontiguousarray(values)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(values)
            span, excess = _window_logs(values, logs)
            parts = (values[:, -1], values[:, 0], span, excess, logs[:, -1] + excess)
        for column, part in zip(columns, parts):
            column.append(part.copy())  # a view would keep the whole block alive
    if not columns[0]:
        raise DegenerateSampleError("need at least one block of samples")
    samples = sum(map(len, columns[0]))
    if order is not None and order.shape != (samples,):
        raise ValueError("order has %d entries for %d samples" % (order.size, samples))
    # each column reordered as it is joined, and the parts dropped before the solves
    index = slice(None) if order is None else order
    low, high, span, excess, mean = (np.concatenate(parts)[index] for parts in columns)
    del columns
    with np.errstate(divide="ignore", invalid="ignore"):
        y = excess / span
        mu_hill = 1.0 / excess + 1.0
        alpha_iterative, _, _ = _solve_windows(y, span, max_iterations, seed=1.0 / y)
    alpha_direct, _, _ = _solve_windows(y, span, _MAX_STEPS)
    # checks in the order the one-sample path meets them: a non-finite or
    # non-positive value leaves a non-finite excess, and a positive excess
    # leaves y in (0, 1)
    failures = (
        (~np.isfinite(excess), DegenerateSampleError,
         "sample contains non-finite or non-positive values"),
        (excess <= 0.0, DegenerateSampleError, "Hill excess is not positive"),
        (~np.isfinite(alpha_iterative), SolverFailureError, "iteration diverged"),
        (np.isnan(alpha_direct), SolverFailureError,
         "no root within |alpha * ln(R/L)| <= %g" % _BRACKET_LIMIT),
    )
    bad = np.logical_or.reduce([mask for mask, _, _ in failures])
    if bad.any():
        row = int(np.argmax(bad))
        error, message = next((error, message) for mask, error, message in failures
                              if mask[row])
        label = name(row) if name else "sample %d of %d" % (row + 1, bad.size)
        raise error("%s: %s" % (label, message))
    return low, high, mean, mu_hill, alpha_iterative + 1.0, alpha_direct + 1.0


# --------------------------------------------------------------------------
# Generalised Hill plot


def hill_plot_series(sample: OrderedSample, r: int) -> HillPlotSeries:
    """Per-l series of classical and bounded-domain estimates, in O(n).

    For each l from r+1 to n the classical entry uses the top-l points
    (k = l) and the improved entry uses the window (l, r).  One prefix sum
    of logs shifted by ln X_1, and one of logs shifted by ln X_r, give every
    window's Hill excess and mean log in O(1); the improved entries are then
    solved together in the Newton loop that :func:`solve_direct` runs on one
    root, with its seed, bracket, step and residual tests.
    The arrays are returned as the sweep computes them.  An entry is NaN
    where the per-window estimators fail: tied top values (Hill), X_l ==
    X_r, no root within |delta| <= 1e4, or no convergence within 100 steps.
    """
    n = len(sample)
    if r < 1 or r >= n:
        raise WindowError("r must be in [1, %d), got %d" % (n, r))
    top_span, top_excess = _window_logs(sample.values, sample.log_values, running=True)
    span, excess = (top_span, top_excess) if r == 1 else _window_logs(
        sample.values[r - 1:], sample.log_values[r - 1:], running=True)
    hill_excess = top_excess[r - 1:]
    with np.errstate(divide="ignore"):
        mu_hill = np.where(hill_excess <= 0.0, np.nan, 1.0 / hill_excess + 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):  # y is NaN where X_l == X_r
        alpha, converged, _ = _solve_windows(excess / span, span, _MAX_STEPS)
    mu_improved = np.where(converged, alpha + 1.0, np.nan)

    return HillPlotSeries(np.arange(r + 1, n + 1, dtype=np.int64), mu_hill, mu_improved)
