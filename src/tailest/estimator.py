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
the Hill value, which is the same Newton step taken unguarded.

Conventions: samples are held in descending order (X_1 is the largest value),
mu = alpha + 1, and a window (l, r) selects X_r >= ... >= X_l with 1-based
indices, so X_l is the smallest included observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if self.alpha_tolerance <= 0 or self.residual_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.bracket_limit <= 0:
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
    if h == 0.0:
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

# At this |delta| either form gives g to < 1e-15 and q to 1 ulp; the series
# slope, which only sizes Newton steps, is off by < 1e-13.
_SERIES_DELTA = 0.05


def _kernel(delta: float) -> tuple[float, float, float]:
    """Return g(delta), its slope g'(delta) and q(delta) = g' + 1/delta^2."""
    d2 = delta * delta
    if abs(delta) < _SERIES_DELTA:
        g = 0.5 - delta * (1.0 / 12.0 - d2 * (1.0 / 720.0 - d2 / 30240.0))
        slope = -1.0 / 12.0 + d2 * (1.0 / 240.0 - d2 / 6048.0)
        return g, slope, (1.0 / d2 + slope) if d2 else math.inf
    t = abs(delta)
    e = math.exp(-t)  # 0.0 beyond t ~ 745, where g = 1/delta (+1 if delta < 0)
    em = -math.expm1(-t)  # 1 - e^-t, in (0, 1]
    q = e / (em * em)
    h = 1.0 / t - e / em  # g(|delta|)
    return (h if delta > 0.0 else 1.0 - h), q - 1.0 / d2, q


def _bounded_kernel(alpha: float, L: float, R: float):
    """ln L, ln(R/L) and the kernel at alpha * ln(R/L), for bounds in any order."""
    if L <= 0.0 or R <= 0.0 or L == R:
        raise DegenerateBoundsError(
            "bounds must be positive and distinct, got L=%r R=%r" % (L, R))
    ln_l = math.log(L)
    span = math.log(R) - ln_l
    return ln_l, span, _kernel(alpha * span)


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
# Both solvers solve g(delta) = y with y = (mean_log - ln L) / ln(R/L) in
# (0, 1), i.e. G(alpha) = mean_log, by Newton steps in delta.


def _newton_step(delta: float, y: float, config: SolverConfig):
    """One Newton step on g(delta) = y: (next delta, residual at delta, done)."""
    g, slope, _ = _kernel(delta)
    residual = g - y
    # the slope only underflows to 0 for |delta| > 1e154; the step is lost there
    step = residual / slope if slope else math.inf
    done = abs(step) <= config.alpha_tolerance * max(1.0, abs(delta))
    return delta - step, residual, done


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
    ln_l = math.log(L)
    ln_r = math.log(R)
    span = ln_r - ln_l
    y = (mean_log - ln_l) / span
    if not (0.0 < y < 1.0):
        raise DegenerateSampleError(
            "mean log %r outside (ln L, ln R) = (%r, %r)" % (mean_log, ln_l, ln_r))
    # g(-d) = 1 - g(d), so the root lies in the bracket iff min(y, 1-y) >= g(limit)
    lo, hi = -config.bracket_limit, config.bracket_limit
    if min(y, 1.0 - y) < _kernel(hi)[0]:
        raise SolverFailureError(
            "no root within |alpha * ln(R/L)| <= %g" % config.bracket_limit)

    delta = 1.0 / y - 1.0 / (1.0 - y)
    converged = False
    for _ in range(config.max_iterations):
        if not lo < delta < hi:
            delta = 0.5 * (lo + hi)
        nxt, residual, done = _newton_step(delta, y, config)
        if residual > 0.0:
            lo = delta
        else:
            hi = delta
        delta = nxt
        if done:
            converged = abs(residual) <= config.residual_tolerance
            break

    alpha = delta / span
    return EstimateResult(
        alpha=alpha,
        mu=alpha + 1.0,
        method="improved-direct",
        iterations=0,
        converged=converged,
        window_low=L,
        window_high=R,
        k=0,
        mean_log=mean_log,
    )


def _window_bounds(sample: OrderedSample, window: TailWindow) -> tuple[float, float, float]:
    """X_l, X_r and the window's mean log; rejects a window of equal values."""
    m = mean_log(sample, window)  # checks the window first
    low = float(sample.values[window.l - 1])
    high = float(sample.values[window.r - 1])
    if low == high:
        raise DegenerateSampleError("window values are all equal to %g" % low)
    return low, high, m


def improved_estimate(sample: OrderedSample, window: TailWindow,
                      config: SolverConfig = DEFAULT_CONFIG) -> EstimateResult:
    """Bounded-domain estimate over a window, solved directly.

    Equates the window's empirical mean log to G(alpha) with L = X_l and
    R = X_r and returns the unique root; mu = alpha + 1.
    """
    low, high, m = _window_bounds(sample, window)
    result = solve_direct(m, low, high, config)
    return replace(result, k=window.k)


def solve_iterative(sample: OrderedSample, window: TailWindow,
                    config: SolverConfig = DEFAULT_CONFIG) -> EstimateResult:
    """Bounded-domain estimate via the multiplicative fixed-point iteration.

    Starts from the Hill value alpha_1 = 1 / (mean_log - ln X_l) and applies

        alpha' = alpha * (1 + (alpha * (m - C) - 1) / (alpha^2 * D - 1))

    which is exactly Newton's method on G(alpha) = m, since G' = D - 1/alpha^2.
    The steps are taken unguarded in delta = alpha * ln(R/L) (Newton is
    unchanged by that rescaling), so the table's mu_iter5 is the Hill seed
    followed by four Newton steps.  Iteration stops once a step in delta is
    below ``config.alpha_tolerance`` relative to max(1, |delta|), or after
    ``config.max_iterations`` steps.  Non-convergence is reported via
    ``converged=False``, not an exception, so callers can fall back to
    :func:`solve_direct`.
    """
    low, high, m = _window_bounds(sample, window)
    ln_low = math.log(low)
    span = math.log(high) - ln_low
    if m == ln_low:
        raise DegenerateSampleError("mean log equals ln X_l; Hill seed undefined")

    y = (m - ln_low) / span
    delta = 1.0 / y  # Hill seed
    converged = False
    for iterations in range(1, config.max_iterations + 1):
        delta, residual, done = _newton_step(delta, y, config)
        if not math.isfinite(delta):
            raise SolverFailureError("iteration diverged at step %d" % iterations)
        if done:
            converged = abs(residual) <= config.residual_tolerance
            break
    alpha = delta / span
    return EstimateResult(
        alpha=alpha,
        mu=alpha + 1.0,
        method="improved-iterative",
        iterations=iterations,
        converged=converged,
        window_low=low,
        window_high=high,
        k=window.k,
        mean_log=m,
    )


# --------------------------------------------------------------------------
# Generalised Hill plot


def hill_plot_series(sample: OrderedSample, r: int,
                     config: SolverConfig = DEFAULT_CONFIG) -> HillPlotSeries:
    """Per-l series of classical and bounded-domain estimates.

    For each l from r+1 to n the classical entry uses the top-l points
    (k = l) and the improved entry uses the window (l, r).  Degenerate
    windows and solver failures leave a None at that l.
    """
    n = len(sample)
    if r < 1 or r >= n:
        raise WindowError("r must be in [1, %d), got %d" % (n, r))
    l_values: list[int] = []
    hill_mu: list[float | None] = []
    improved_mu: list[float | None] = []
    for l in range(r + 1, n + 1):
        l_values.append(l)
        try:
            hill_mu.append(hill_estimate(sample, l).mu)
        except EstimationError:
            hill_mu.append(None)
        try:
            res = improved_estimate(sample, TailWindow(l=l, r=r), config)
            improved_mu.append(res.mu if res.converged else None)
        except EstimationError:
            improved_mu.append(None)
    return HillPlotSeries(l_values=l_values, mu_hill=hill_mu, mu_improved=improved_mu)
