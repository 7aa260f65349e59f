"""Acceptance suite: one check per shipped guarantee, one report line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
for every criterion.  Statistical criteria use the fixed seed list 1..20 and
are fully deterministic.
"""

import math
import time
from decimal import Decimal, getcontext

import numpy as np

from tailest.estimator import (
    OrderedSample,
    correction,
    correction_derivative,
    full_window,
    gfun,
    hill_estimate,
    improved_estimate,
    solve_direct,
    solve_iterative,
)
from tailest.experiments import TABLE_ROWS, run_figure, run_full_table
from tailest.sampler import DistributionSpec, draw, tabulate

SEEDS = list(range(1, 21))

_CACHE = {}


def _report(num, label, ok, detail=""):
    print("criterion %d (%s): %s%s" % (num, label, "PASS" if ok else "FAIL",
                                       " " + detail if detail else ""))
    assert ok, "criterion %d (%s) failed: %s" % (num, label, detail)


def _table_results():
    if "table" not in _CACHE:
        t0 = time.perf_counter()
        results = run_full_table(SEEDS)
        _CACHE["table"] = (results, time.perf_counter() - t0)
    return _CACHE["table"]


def test_criterion_1_analytic_round_trip():
    alphas = (-4.5, -2.0, -0.5, -1e-7, 0.0, 1e-7, 0.5, 4.0, 9.0)
    bound_pairs = ((1.0, math.e), (3.0, 4.0), (3.0, 150.0))
    t0 = time.perf_counter()
    worst = 0.0
    for a_star in alphas:
        for low, high in bound_pairs:
            res = solve_direct(gfun(a_star, low, high), low, high)
            worst = max(worst, abs(res.alpha - a_star))
    elapsed = time.perf_counter() - t0
    _report(1, "analytic round-trip", worst < 1e-8 and elapsed < 1.0,
            "worst |dalpha| %.2e, %.2fs" % (worst, elapsed))


def test_criterion_2_derivative_oracle():
    # independent oracle: the correction term re-implemented in 60-digit
    # decimal arithmetic, centrally differenced with a step small enough for
    # quadratic truncation below 1e-8 relative
    getcontext().prec = 60
    one = Decimal(1)

    def central_difference(alpha, low, high, span):
        ln_low, ln_high = Decimal(low).ln(), Decimal(high).ln()
        d_span = ln_high - ln_low

        def c(a):
            return ln_low - d_span / ((a * d_span).exp() - one)

        h = Decimal(min(abs(alpha), 1.0 / span)) * Decimal("1e-4")
        a = Decimal(alpha)
        return float((c(a + h) - c(a - h)) / (2 * h))

    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(1000):
        ln_low = float(rng.uniform(-3.0, 5.0))
        span = float(rng.uniform(0.05, 8.0))
        low, high = math.exp(ln_low), math.exp(ln_low + span)
        delta = float(rng.uniform(1e-3, 50.0)) * (1 if rng.random() < 0.5 else -1)
        alpha = delta / span
        d = correction_derivative(alpha, low, high)
        fd = central_difference(alpha, low, high, span)
        worst = max(worst, abs(d - fd) / abs(d))
    _report(2, "derivative oracle", worst < 1e-6, "worst rel err %.2e" % worst)


def test_criterion_3_method_agreement():
    total = converged = agreeing = 0
    worst = 0.0
    for row in TABLE_ROWS.values():
        dist = tabulate(row.spec)
        for seed in range(1, 9):  # 13 x 8 = 104 samples
            sample = draw(dist, row.n_rand, seed)
            window = full_window(sample)
            iterative = solve_iterative(sample, window)
            total += 1
            if iterative.converged:
                converged += 1
                direct = improved_estimate(sample, window)
                gap = abs(iterative.alpha - direct.alpha)
                worst = max(worst, gap)
                if gap < 1e-6:
                    agreeing += 1
    rate = converged / total
    ok = rate >= 0.95 and agreeing == converged
    _report(3, "method agreement", ok,
            "%d/%d converged, worst gap %.2e" % (converged, total, worst))


def test_criterion_4_table_reproduction():
    results, elapsed = _table_results()
    means = {}
    for row_id in sorted(TABLE_ROWS):
        group = [mu for row, mu in zip(results["row"], results["mu_iter5"]) if row == row_id]
        assert len(group) == len(SEEDS)
        means[row_id] = sum(group) / len(group)
    bands = {
        1: (4.75, 5.25), 2: (4.8, 6.8), 3: (4.7, 5.5),
        4: (0.4, 0.6), 5: (0.4, 0.6), 6: (0.4, 0.6),
        7: (3.7, 4.3), 8: (3.7, 4.3),
        9: (0.7, 1.0), 10: (0.7, 1.0),
        11: (1.0, 1.6), 12: (1.0, 1.6),
        13: (-3.7, -3.3),
    }
    failures = [row_id for row_id, (lo, hi) in bands.items()
                if not (lo < means[row_id] < hi)]
    detail = ("%.1fs; means " % elapsed
              + " ".join("%d:%.3f" % (i, means[i]) for i in sorted(means)))
    _report(4, "table reproduction", not failures and elapsed < 30.0,
            detail + (" failures %s" % failures if failures else ""))


def test_criterion_5_horror_plot_separation():
    results, _ = _table_results()
    failures = []
    for row_id in (2, 3, 4, 5, 6, 11, 13):
        mu_in = TABLE_ROWS[row_id].mu_input
        wins = sum(1 for row, iter5, hill in zip(results["row"], results["mu_iter5"],
                                                 results["mu_hill"])
                   if row == row_id and abs(iter5 - mu_in) < abs(hill - mu_in))
        if wins < 19:
            failures.append((row_id, wins))
    _report(5, "horror-plot separation", not failures,
            "failures %s" % failures if failures else "improved wins >= 19/20 on all rows")


def test_criterion_6_negative_exponent_recovery():
    results, _ = _table_results()
    row13 = [(iter5, hill) for row, iter5, hill in zip(results["row"], results["mu_iter5"],
                                                        results["mu_hill"]) if row == 13]
    good = sum(1 for iter5, hill in row13 if iter5 < 0.0 and hill > 0.0)
    _report(6, "negative-exponent recovery", good == len(SEEDS),
            "%d/%d seeds with opposite signs" % (good, len(SEEDS)))


def test_criterion_7_figure_behavior():
    checks = []
    for example_id, target, tol in ((15, 2.5, 0.15), (17, 0.5, 0.1)):
        series = run_figure(example_id, seed=1)
        n = len(series)
        tail = slice(n - n // 10, None)
        improved = series.mu_improved[tail]
        hill = series.mu_hill[tail]
        improved = improved[~np.isnan(improved)].tolist()
        hill = hill[~np.isnan(hill)].tolist()
        mean_improved = sum(improved) / len(improved)
        mean_hill = sum(hill) / len(hill)
        dev_improved = abs(mean_improved - target)
        dev_hill = abs(mean_hill - target)
        checks.append((example_id, dev_improved < tol and dev_hill > 3.0 * dev_improved,
                       mean_improved, mean_hill))
    ok = all(c[1] for c in checks)
    detail = "; ".join("ex%d improved %.3f hill %.3f" % (c[0], c[2], c[3])
                       for c in checks)
    _report(7, "figure behavior", ok, detail)


def test_criterion_8_property_suites():
    failures = []

    # scale invariance of both estimators
    rng = np.random.default_rng(88)
    base = rng.uniform(1.0, 40.0, size=200)
    for c in (0.02, 13.7):
        s0, s1 = OrderedSample(base), OrderedSample(c * base)
        if abs(hill_estimate(s0, 120).alpha - hill_estimate(s1, 120).alpha) > 1e-9:
            failures.append("hill scale invariance")
        w = full_window(s0)
        if abs(improved_estimate(s0, w).alpha - improved_estimate(s1, w).alpha) > 1e-8:
            failures.append("improved scale invariance")

    # symmetry under exchanging the bounds
    for a in (-3.0, -0.4, 0.7, 6.0):
        for low, high in ((1.0, math.e), (3.0, 150.0)):
            if abs(correction(a, low, high) - correction(a, high, low)) > 1e-11:
                failures.append("correction symmetry")
            if abs(correction_derivative(a, low, high)
                   - correction_derivative(a, high, low)) > 1e-12:
                failures.append("derivative symmetry")

    # classical index identity between the two historical weightings
    s = OrderedSample(rng.uniform(1.0, 300.0, size=80))
    logs = s.log_values
    for r in range(1, 80):
        h_next = 1.0 / hill_estimate(s, r + 1).alpha
        h_hat = float(np.sum(logs[:r]) / (r + 1) - r * logs[r] / (r + 1))
        if abs(h_next - h_hat) > 1e-12 * max(1.0, abs(h_hat)):
            failures.append("hill identity at r=%d" % r)

    # gfun strictly decreasing
    grid = np.linspace(-30.0, 30.0, 301)
    values = [gfun(a, 3.0, 150.0) for a in grid]
    if not all(v1 > v2 for v1, v2 in zip(values, values[1:])):
        failures.append("gfun monotonicity")

    # sampler determinism
    dist = tabulate(DistributionSpec.of("power", 3.0, 150.0, mu=5.0))
    if not np.array_equal(draw(dist, 1000, 123).values,
                          draw(dist, 1000, 123).values):
        failures.append("sampler determinism")

    # inverse-CDF median: 1/x on [1, e^2] has median e
    dist = tabulate(DistributionSpec.of("power", 1.0, math.e ** 2, mu=1.0))
    sample = draw(dist, 10000, 6)
    frac = float(np.mean(sample.values < math.e))
    if abs(frac - 0.5) > 4.0 * 0.5 / math.sqrt(10000):
        failures.append("inverse-CDF median (frac %.4f)" % frac)

    _report(8, "property suites", not failures,
            "failures: %s" % failures if failures else "all invariants hold")
