"""Randomized invariant checks with fixed seeds."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailest.estimator import (
    OrderedSample,
    SolverConfig,
    TailWindow,
    _SERIES_DELTA,
    _kernel_array,
    correction,
    correction_derivative,
    full_window,
    gfun,
    hill_estimate,
    improved_estimate,
    mean_log,
    solve_direct,
    solve_iterative,
)
from tailest.sampler import DistributionSpec, SampleRequest, draw, tabulate


def _raw_correction(a, low, high):
    return ((math.log(low) * low ** -a - math.log(high) * high ** -a)
            / (low ** -a - high ** -a))


def _raw_derivative(a, low, high):
    return (high ** a * low ** a * (math.log(low) - math.log(high)) ** 2
            / (low ** a - high ** a) ** 2)


def _random_bounds(rng):
    ln_low = rng.uniform(-3.0, 5.0)
    span = rng.uniform(0.05, 8.0)
    return math.exp(ln_low), math.exp(ln_low + span), span


def test_gfun_strictly_decreasing():
    rng = np.random.default_rng(101)
    for _ in range(500):
        low, high, _ = _random_bounds(rng)
        a1, a2 = sorted(rng.uniform(-40.0, 40.0, size=2))
        if a2 - a1 < 1e-9:
            continue
        assert gfun(a1, low, high) > gfun(a2, low, high)


def test_round_trip_exact_recovery():
    # solve_direct inverts gfun to 1e-8 over alpha in [-10, 10], excluding
    # only the sub-1e-6 |delta| zone that the series already pins exactly
    rng = np.random.default_rng(102)
    checked = 0
    for _ in range(400):
        low, high, span = _random_bounds(rng)
        a_star = rng.uniform(-10.0, 10.0)
        if abs(a_star) * span < 1e-3:
            continue
        res = solve_direct(gfun(a_star, low, high), low, high)
        assert abs(res.alpha - a_star) < 1e-8
        assert res.converged
        checked += 1
    assert checked > 300


def test_round_trip_in_series_zone():
    rng = np.random.default_rng(103)
    for _ in range(50):
        low, high, span = _random_bounds(rng)
        a_star = rng.uniform(-1.0, 1.0) * 1e-7 / span
        res = solve_direct(gfun(a_star, low, high), low, high)
        assert abs(res.alpha - a_star) < 1e-8


def test_correction_symmetric_under_bound_exchange():
    rng = np.random.default_rng(104)
    for _ in range(300):
        low, high, span = _random_bounds(rng)
        a = rng.uniform(-30.0, 30.0)
        if abs(a) < 1e-9:
            continue
        c1 = correction(a, low, high)
        c2 = correction(a, high, low)
        assert c1 == pytest.approx(c2, rel=1e-11, abs=1e-11)
        assert correction_derivative(a, low, high) == pytest.approx(
            correction_derivative(a, high, low), rel=1e-12)


def test_stable_forms_match_raw_formulas():
    # agreement to 1e-12 relative wherever the raw power forms stay finite
    rng = np.random.default_rng(105)
    checked = 0
    for _ in range(500):
        low, high, span = _random_bounds(rng)
        delta = rng.uniform(0.01, 50.0) * (1 if rng.random() < 0.5 else -1)
        a = delta / span
        # keep L^alpha, R^alpha representable
        if max(abs(a * math.log(low)), abs(a * math.log(high))) > 200.0:
            continue
        assert correction(a, low, high) == pytest.approx(
            _raw_correction(a, low, high), rel=1e-12)
        assert correction_derivative(a, low, high) == pytest.approx(
            _raw_derivative(a, low, high), rel=1e-12)
        checked += 1
    assert checked > 300


def test_derivative_matches_finite_differences():
    # float central differences in a range where they are well conditioned;
    # the step shrinks with |alpha| so the 1/alpha pole cannot pollute the
    # quadratic truncation term
    rng = np.random.default_rng(106)
    for _ in range(300):
        ln_low = rng.uniform(-3.0, 3.0)
        span = rng.uniform(0.25, 5.0)
        low, high = math.exp(ln_low), math.exp(ln_low + span)
        delta = rng.uniform(1e-3, 5.0) * (1 if rng.random() < 0.5 else -1)
        a = delta / span
        h = min(1e-5, 1e-4 * abs(a))
        fd = (correction(a + h, low, high) - correction(a - h, low, high)) / (2 * h)
        d = correction_derivative(a, low, high)
        assert abs(d - fd) / abs(d) < 1e-6


def test_hill_identity_machine_precision():
    rng = np.random.default_rng(107)
    s = OrderedSample(rng.uniform(1.0, 200.0, size=120))
    logs = s.log_values
    for r in range(1, len(s)):
        h_next = 1.0 / hill_estimate(s, r + 1).alpha
        h_hat = float(np.sum(logs[:r]) / (r + 1) - r * logs[r] / (r + 1))
        assert h_next == pytest.approx(h_hat, rel=1e-12, abs=1e-13)


def test_scale_invariance_of_both_estimators():
    rng = np.random.default_rng(108)
    for _ in range(25):
        n = int(rng.integers(10, 80))
        base = rng.uniform(0.5, 60.0, size=n)
        c = math.exp(rng.uniform(-6.0, 6.0))
        s0, s1 = OrderedSample(base), OrderedSample(c * base)
        k = int(rng.integers(2, n + 1))
        try:
            h0 = hill_estimate(s0, k).alpha
            h1 = hill_estimate(s1, k).alpha
        except Exception:
            continue
        assert h1 == pytest.approx(h0, rel=1e-9, abs=1e-9)
        w = full_window(s0)
        a0 = improved_estimate(s0, w).alpha
        a1 = improved_estimate(s1, w).alpha
        assert a1 == pytest.approx(a0, abs=1e-8)


def test_method_agreement_on_seeded_samples():
    # uncapped iteration agrees with the direct solver wherever it converges
    specs = [
        (DistributionSpec.power(5.0, 3.0, 150.0), 400),
        (DistributionSpec.power(5.0, 3.0, 4.0), 400),
        (DistributionSpec.sqrt_inv(3.0, 1500.0), 400),
        (DistributionSpec.log_over_x(100.0, 400.0), 400),
        (DistributionSpec.inv_xlogx(3000.0, 6000.0), 400),
        (DistributionSpec.power_growth(3.5, 3.0, 10000.0), 400),
        (DistributionSpec.pade14(494.7, 4886.0, 1.0, 5.0), 400),
    ]
    converged = total = 0
    for spec, n in specs:
        dist = tabulate(spec)
        for seed in range(1, 6):
            sample = draw(dist, SampleRequest(n=n, seed=seed))
            w = full_window(sample)
            it = solve_iterative(sample, w)
            total += 1
            if it.converged:
                converged += 1
                direct = improved_estimate(sample, w)
                assert abs(it.alpha - direct.alpha) < 1e-6
    assert converged / total >= 0.95


def test_mean_log_stays_within_window_logs():
    rng = np.random.default_rng(109)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        s = OrderedSample(rng.uniform(0.1, 1e4, size=n))
        r = int(rng.integers(1, n))
        l = int(rng.integers(r + 1, n + 1))
        w = TailWindow(l=l, r=r)
        m = mean_log(s, w)
        assert s.log_values[l - 1] - 1e-12 <= m <= s.log_values[r - 1] + 1e-12


def test_solver_always_finds_interior_root():
    # any mean strictly inside (ln L, ln R) is reachable: G is onto
    rng = np.random.default_rng(110)
    for _ in range(200):
        low, high, span = _random_bounds(rng)
        frac = rng.uniform(0.05, 0.95)
        m = math.log(low) + frac * span
        res = solve_direct(m, low, high, SolverConfig(bracket_limit=1e6))
        assert abs(gfun(res.alpha, low, high) - m) < 1e-9


# --------------------------------------------------------------------------
# Properties of the delta-space kernel over |delta| <= 1e4.  Examples are
# derandomized so every run checks the same inputs.

KERNEL_SETTINGS = settings(max_examples=400, derandomize=True, deadline=None)
deltas = st.floats(min_value=-1e4, max_value=1e4)


def _kernel(delta):
    """g, slope and q at one delta, through the vectorized kernel."""
    return [float(v[0]) for v in _kernel_array(np.array([delta]))]


@KERNEL_SETTINGS
@given(deltas)
def test_kernel_g_in_unit_interval_with_negative_slope(delta):
    g, slope, _ = _kernel(delta)
    assert 0.0 < g < 1.0
    assert math.isfinite(slope) and slope < 0.0


@KERNEL_SETTINGS
@given(deltas, st.floats(min_value=1e-6, max_value=1.0))
def test_kernel_g_strictly_decreasing(d1, gap):
    # pairs closer than this relative gap differ by less than g's rounding
    d2 = d1 + gap * max(1.0, abs(d1))
    assert _kernel(d1)[0] > _kernel(d2)[0]


@KERNEL_SETTINGS
@given(deltas)
@example(0.0)
@example(5e-324)  # subnormal: q = 1/delta^2 + slope overflows to inf
@example(1e-7)
@example(0.0499)
@example(-0.0501)
@example(_SERIES_DELTA)
@example(-_SERIES_DELTA)
@example(math.nextafter(_SERIES_DELTA, 0.0))
@example(math.nextafter(_SERIES_DELTA, 1.0))
@example(math.nextafter(-_SERIES_DELTA, 0.0))
@example(math.nextafter(-_SERIES_DELTA, -1.0))
@example(1e4)
@example(-1e4)
def test_kernel_matches_raw_forms(delta):
    t = abs(delta)
    g, slope, q = _kernel(delta)
    # q ~ e^-|delta| underflows to 0 past |delta| ~ 745; it is never negative
    assert q > 0.0 if t < 700.0 else q >= 0.0
    if 1e-150 < t < 350.0:  # where the raw forms are finite in floats
        raw_q = math.exp(t) / math.expm1(t) ** 2
        assert q == pytest.approx(raw_q, rel=1e-13)
        # the raw g and slope cancel to a few ulp of 1/|delta| and 1/delta^2
        assert g == pytest.approx(1.0 / delta - 1.0 / math.expm1(delta),
                                  abs=1e-15 * (1.0 + 1.0 / t))
        assert slope == pytest.approx(raw_q - 1.0 / t ** 2, abs=1e-15 * (1.0 + 1.0 / t ** 2))


@KERNEL_SETTINGS
@given(deltas.filter(lambda d: abs(d) > 1e-9), st.floats(min_value=-20.0, max_value=20.0),
       st.floats(min_value=1e-3, max_value=50.0), st.floats(min_value=-20.0, max_value=20.0))
def test_correction_bound_exchange_and_scaling(delta, ln_low, span, ln_c):
    low, high = math.exp(ln_low), math.exp(ln_low + span)
    alpha = delta / span
    c = math.exp(ln_c)
    base = correction(alpha, low, high)
    # rounding of the logs and of 1/alpha sets the achievable accuracy
    tol = 1e-12 * (1.0 + abs(ln_low) + abs(ln_low + span) + abs(ln_c) + 1.0 / abs(alpha))
    assert correction(alpha, high, low) == pytest.approx(base, abs=tol)
    assert correction(alpha, c * low, c * high) == pytest.approx(base + ln_c, abs=tol)
