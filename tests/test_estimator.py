import math

import numpy as np
import pytest

from tailest.estimator import (
    DegenerateBoundsError,
    DegenerateSampleError,
    EstimateResult,
    EstimationError,
    OrderedSample,
    SingularityError,
    SolverConfig,
    SolverFailureError,
    TailWindow,
    WindowError,
    correction,
    correction_derivative,
    full_window,
    full_window_estimates,
    gfun,
    hill_estimate,
    hill_plot_series,
    improved_estimate,
    mean_log,
    solve_direct,
    solve_iterative,
)
from tailest.experiments import FIGURE_EXAMPLES, ITER5_CONFIG, TABLE_ROWS
from tailest.sampler import SampleRequest, draw, tabulate

# eleven values on two adjacent floats whose logs tie: the Hill excess is
# not 0 (the mean of the logs rounds), but ln X_l == ln X_r
LOG_TIE = [math.nextafter(3.0, 4.0)] + [3.0] * 10

E = math.e


def _log_uniform(n, seed):
    # density 1/x (mu = 1) over [1e-300, 1e300], a domain 600 decades wide
    rng = np.random.default_rng(seed)
    return OrderedSample(np.exp(rng.uniform(math.log(1e-300), math.log(1e300), size=n)))


class TestOrderedSample:
    def test_sorts_descending(self):
        s = OrderedSample([1.0, 5.0, 3.0])
        assert list(s.values) == [5.0, 3.0, 1.0]

    def test_ties_allowed(self):
        s = OrderedSample([2.0, 2.0, 1.0])
        assert list(s.values) == [2.0, 2.0, 1.0]

    def test_rejects_short(self):
        with pytest.raises(DegenerateSampleError):
            OrderedSample([1.0])

    def test_rejects_non_positive(self):
        with pytest.raises(DegenerateSampleError):
            OrderedSample([1.0, 0.0])
        with pytest.raises(DegenerateSampleError):
            OrderedSample([1.0, -2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DegenerateSampleError):
            OrderedSample([1.0, math.nan])
        with pytest.raises(DegenerateSampleError):
            OrderedSample([1.0, math.inf])

    def test_log_cache(self):
        s = OrderedSample([E, 1.0])
        assert np.allclose(s.log_values, [1.0, 0.0])

    def test_values_immutable(self):
        s = OrderedSample([2.0, 1.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestTailWindow:
    def test_k(self):
        assert TailWindow(l=5, r=2).k == 4

    @pytest.mark.parametrize("l,r", [(1, 1), (2, 2), (2, 3), (2, 0)])
    def test_invalid(self, l, r):
        with pytest.raises(WindowError):
            TailWindow(l=l, r=r)

    def test_full_window(self):
        s = OrderedSample([3.0, 2.0, 1.0])
        w = full_window(s)
        assert (w.l, w.r) == (3, 1)


class TestMeanLog:
    def test_two_point(self):
        s = OrderedSample([E ** 2, 1.0])
        assert mean_log(s, TailWindow(l=2, r=1)) == pytest.approx(1.0)

    def test_constant_sample(self):
        c = 7.5
        s = OrderedSample([c, c, c, c])
        assert mean_log(s, full_window(s)) == pytest.approx(math.log(c))

    def test_three_exponents(self):
        s = OrderedSample([E ** 3, E ** 2, E])
        assert mean_log(s, TailWindow(l=3, r=1)) == pytest.approx(2.0)

    def test_sub_window(self):
        s = OrderedSample([E ** 4, E ** 3, E ** 2, E])
        assert mean_log(s, TailWindow(l=3, r=2)) == pytest.approx(2.5)

    def test_within_log_bounds(self):
        rng = np.random.default_rng(5)
        s = OrderedSample(rng.uniform(0.5, 50.0, size=40))
        w = TailWindow(l=30, r=4)
        m = mean_log(s, w)
        assert s.log_values[w.l - 1] <= m <= s.log_values[w.r - 1]

    def test_window_out_of_range(self):
        s = OrderedSample([2.0, 1.0])
        with pytest.raises(WindowError):
            mean_log(s, TailWindow(l=3, r=1))


class TestHillEstimate:
    def test_two_point(self):
        s = OrderedSample([E, 1.0])
        res = hill_estimate(s, 2)
        assert res.alpha == pytest.approx(2.0)
        assert res.mu == pytest.approx(3.0)
        assert res.method == "hill"
        assert res.iterations == 0 and res.converged
        assert res.k == 2
        assert res.window_low == 1.0 and res.window_high == E

    def test_degenerate(self):
        s = OrderedSample([4.0, 4.0, 4.0])
        with pytest.raises(DegenerateSampleError):
            hill_estimate(s, 3)
        # the mean of three logs of 7.3 is not ln 7.3 in floats
        s = OrderedSample([7.3, 7.3, 7.3, 7.3, 2.0, 1.0])
        for k in (2, 3, 4):
            with pytest.raises(DegenerateSampleError):
                hill_estimate(s, k)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_k_out_of_range(self, k):
        s = OrderedSample([3.0, 2.0, 1.0])
        with pytest.raises(WindowError):
            hill_estimate(s, k)

    def test_mu_is_alpha_plus_one(self):
        rng = np.random.default_rng(3)
        s = OrderedSample(rng.uniform(1.0, 9.0, size=25))
        res = hill_estimate(s, 10)
        assert res.mu == res.alpha + 1.0

    def test_hill_identity_with_classical_form(self):
        # mean of top k logs minus log X_k equals the (r+1)-indexed classical
        # weighting (1/(r+1)) sum_{j<=r} ln X_j - (r/(r+1)) ln X_{r+1}
        rng = np.random.default_rng(7)
        s = OrderedSample(rng.uniform(1.0, 50.0, size=30))
        logs = s.log_values
        for r in range(1, len(s)):
            k = r + 1
            h_k = 1.0 / hill_estimate(s, k).alpha
            h_hat = float(np.sum(logs[:r]) / (r + 1) - r * logs[r] / (r + 1))
            assert h_k == pytest.approx(h_hat, rel=1e-12, abs=1e-14)


class TestCorrection:
    def test_known_value(self):
        # (ln1 * 1 - ln e * e^-1) / (1 - e^-1) = -1 / (e - 1)
        assert correction(1.0, 1.0, E) == pytest.approx(-1.0 / (E - 1.0), rel=1e-14)

    def test_symmetric_in_bounds(self):
        assert correction(2.5, 3.0, 150.0) == pytest.approx(
            correction(2.5, 150.0, 3.0), rel=1e-13)

    def test_scale_covariance(self):
        # shifting both bounds by a factor c adds ln c
        for c in (0.05, 3.0, 1e4):
            base = correction(1.7, 2.0, 9.0)
            scaled = correction(1.7, 2.0 * c, 9.0 * c)
            assert scaled == pytest.approx(base + math.log(c), rel=1e-12)

    def test_pole_at_zero(self):
        with pytest.raises(SingularityError):
            correction(0.0, 1.0, E)

    def test_equal_bounds_rejected(self):
        with pytest.raises(DegenerateBoundsError):
            correction(1.0, 2.0, 2.0)
        with pytest.raises(DegenerateBoundsError):
            correction(1.0, -1.0, 2.0)

    def test_large_alpha_limits(self):
        # C tends to ln(min bound) as alpha -> +inf, ln(max bound) as -> -inf
        assert correction(5000.0, 2.0, 8.0) == pytest.approx(math.log(2.0))
        assert correction(-5000.0, 2.0, 8.0) == pytest.approx(math.log(8.0))


class TestCorrectionDerivative:
    def test_known_value(self):
        assert correction_derivative(1.0, 1.0, E) == pytest.approx(
            E / (E - 1.0) ** 2, rel=1e-14)

    def test_symmetric_in_bounds(self):
        assert correction_derivative(1.3, 2.0, 40.0) == correction_derivative(
            1.3, 40.0, 2.0)

    def test_finite_difference(self):
        h = 1e-5
        cases = [(1.0, 1.0, E), (2.0, 3.0, 150.0), (-1.5, 3.0, 4.0),
                 (0.4, 1.0, 20.0), (-0.02, 5.0, 9.0)]
        for a, low, high in cases:
            fd = (correction(a + h, low, high) - correction(a - h, low, high)) / (2 * h)
            d = correction_derivative(a, low, high)
            assert abs(d - fd) / abs(d) < 1e-6

    def test_diverges_at_zero(self):
        assert correction_derivative(0.0, 2.0, 5.0) == math.inf

    def test_small_alpha_matches_pole_expansion(self):
        # D = 1/alpha^2 - span^2/12 + O(alpha^2) near zero
        low, high = 2.0, 5.0
        span = math.log(high / low)
        for a in (1e-8, -1e-8, 1e-7):
            d = correction_derivative(a, low, high)
            assert d == pytest.approx(1.0 / a ** 2 - span ** 2 / 12.0, rel=1e-12)

    def test_equal_bounds_rejected(self):
        with pytest.raises(DegenerateBoundsError):
            correction_derivative(1.0, 3.0, 3.0)


class TestGfun:
    def test_midpoint_at_zero(self):
        for low, high in ((1.0, E), (3.0, 150.0), (0.2, 0.7)):
            assert gfun(0.0, low, high) == pytest.approx(
                0.5 * (math.log(low) + math.log(high)), rel=1e-14)

    def test_known_value(self):
        assert gfun(1.0, 1.0, E) == pytest.approx(1.0 - 1.0 / (E - 1.0), rel=1e-14)

    def test_strictly_decreasing_on_grid(self):
        alphas = np.linspace(-30.0, 30.0, 601)
        values = [gfun(a, 3.0, 150.0) for a in alphas]
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))

    def test_limits(self):
        # G -> ln L like 1/alpha from above, and ln R from below
        low, high = 2.0, 50.0
        assert gfun(1e12, low, high) == pytest.approx(math.log(low), abs=2e-12)
        assert gfun(-1e12, low, high) == pytest.approx(math.log(high), abs=2e-12)
        assert gfun(20.0, low, high) > math.log(low)
        assert gfun(-20.0, low, high) < math.log(high)

    def test_requires_ordered_bounds(self):
        with pytest.raises(DegenerateBoundsError):
            gfun(1.0, 5.0, 2.0)
        with pytest.raises(DegenerateBoundsError):
            gfun(1.0, 2.0, 2.0)

    def test_continuous_through_series_zone(self):
        # values straddling the series cutover stay monotone and follow the
        # local slope -span^2/12 with no jump
        low, high = 3.0, 150.0
        span = math.log(high / low)
        alphas = [d * 1e-7 / span for d in range(4, 17)]
        values = [gfun(a, low, high) for a in alphas]
        slope = -span * span / 12.0
        for a1, a2, v1, v2 in zip(alphas, alphas[1:], values, values[1:]):
            assert v2 < v1
            # each step tracks the local slope up to sub-nanoscale float noise
            assert (v2 - v1) == pytest.approx(slope * (a2 - a1), rel=0.05)
        # noise cancels over the whole range
        total = values[-1] - values[0]
        assert total == pytest.approx(slope * (alphas[-1] - alphas[0]), rel=1e-3)


class TestSolveDirect:
    def test_midpoint_gives_zero(self):
        low, high = 3.0, 150.0
        m = 0.5 * (math.log(low) + math.log(high))
        res = solve_direct(m, low, high)
        assert abs(res.alpha) < 1e-9
        assert res.mu == pytest.approx(1.0)
        assert res.method == "improved-direct"
        assert res.iterations == 0
        assert res.converged

    def test_inverts_known_value(self):
        res = solve_direct(1.0 - 1.0 / (E - 1.0), 1.0, E)
        assert res.alpha == pytest.approx(1.0, abs=1e-9)
        assert res.mu == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("a_star", [-4.5, -2.0, -0.5, 0.5, 4.0])
    def test_round_trip(self, a_star):
        low, high = 3.0, 150.0
        res = solve_direct(gfun(a_star, low, high), low, high)
        assert abs(res.alpha - a_star) < 1e-8

    def test_mean_outside_bounds(self):
        with pytest.raises(DegenerateSampleError):
            solve_direct(math.log(3.0), 3.0, 150.0)
        with pytest.raises(DegenerateSampleError):
            solve_direct(math.log(150.0) + 0.1, 3.0, 150.0)

    def test_bounds_with_equal_logs(self):
        with pytest.raises(DegenerateBoundsError):
            solve_direct(math.log(3.0), LOG_TIE[1], LOG_TIE[0])

    def test_bracket_limit_exhausted(self):
        low, high = 3.0, 150.0
        m = gfun(9.0, low, high)  # root at alpha = 9
        with pytest.raises(SolverFailureError):
            solve_direct(m, low, high, SolverConfig(bracket_limit=2.0))

    def test_residual_small(self):
        low, high = 2.0, 40.0
        m = gfun(-1.25, low, high)
        res = solve_direct(m, low, high)
        assert abs(gfun(res.alpha, low, high) - m) <= 1e-10

    def test_wide_domain_converges(self):
        # residuals are judged in units of ln(R/L), so a domain of width
        # ln(R/L) ~ 1380 converges as readily as a unit one
        for n in (100, 1000, 10000):
            for seed in range(1, 41):
                s = _log_uniform(n, seed)
                w = full_window(s)
                direct = improved_estimate(s, w)
                iterative = solve_iterative(s, w)
                assert direct.converged and iterative.converged, (n, seed)
                assert abs(direct.mu - 1.0) < 0.5
                assert iterative.alpha == pytest.approx(direct.alpha, abs=1e-9)


class TestSolveIterative:
    def _power_sample(self, mu=5.0, n=400, seed=2, low=3.0, high=150.0):
        # inverse-CDF draws from x^-mu truncated to [low, high]
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        b = 1.0 - mu
        x = (low ** b + u * (high ** b - low ** b)) ** (1.0 / b)
        return OrderedSample(x)

    def test_converges_on_exact_mean(self):
        # six-point sample tuned so its mean log equals gfun(a_star) exactly:
        # four equal interior points soak up the required mean
        a_star = 1.5
        low, high = 3.0, 50.0
        k = 6
        m = gfun(a_star, low, high)
        mid = math.exp((k * m - math.log(low) - math.log(high)) / (k - 2))
        assert low < mid < high
        s = OrderedSample([high] + [mid] * (k - 2) + [low])
        res = solve_iterative(s, full_window(s))
        assert res.converged
        assert res.alpha == pytest.approx(a_star, abs=1e-7)
        assert res.method == "improved-iterative"
        assert res.iterations > 0

    def test_agrees_with_direct_on_sample(self):
        # the second sample lies on [3, 3.000001]: its root has alpha ~ 2.5e5
        # but delta = alpha * ln(R/L) ~ 0.08, so steps in delta converge
        for s in (self._power_sample(),
                  self._power_sample(n=1000, seed=7, high=3.000001)):
            w = full_window(s)
            res_it = solve_iterative(s, w)
            res_dir = improved_estimate(s, w)
            assert res_it.converged and res_dir.converged
            assert abs(res_it.alpha - res_dir.alpha) < 1e-6

    def test_fifth_iterate_already_close(self):
        # four updates from the Hill seed land within a few percent
        s = self._power_sample(n=1000, seed=9)
        w = full_window(s)
        capped = solve_iterative(s, w, SolverConfig(max_iterations=4))
        exact = improved_estimate(s, w)
        assert capped.iterations <= 4
        assert abs(capped.alpha - exact.alpha) < 0.05 * max(1.0, abs(exact.alpha))

    def test_non_convergence_reported_not_raised(self):
        s = self._power_sample(n=500, seed=4, low=3.0, high=4.0)
        w = full_window(s)
        res = solve_iterative(s, w, SolverConfig(max_iterations=1))
        assert not res.converged
        assert res.iterations == 1

    def test_degenerate_window(self):
        for values in ([2.0, 2.0, 2.0], LOG_TIE):
            s = OrderedSample(values)
            with pytest.raises(DegenerateSampleError):
                solve_iterative(s, full_window(s))

    def test_divergence_names_its_step(self):
        # the mean log rounds below ln X_l, so no root exists and the ninth
        # unguarded step leaves the floats; the eighth is still finite
        s = OrderedSample([math.nextafter(math.nextafter(3.0, 4.0), 4.0)] + [3.0] * 12)
        assert mean_log(s, full_window(s)) < s.log_values[-1]
        with pytest.raises(SolverFailureError, match="diverged at step 9$"):
            solve_iterative(s, full_window(s))
        res = solve_iterative(s, full_window(s), SolverConfig(max_iterations=8))
        assert (res.iterations, res.converged) == (8, False)


class TestImprovedEstimate:
    def test_two_point_window_gives_mu_one(self):
        s = OrderedSample([7.0, 2.0])
        res = improved_estimate(s, TailWindow(l=2, r=1))
        assert abs(res.alpha) < 1e-9
        assert res.mu == pytest.approx(1.0)
        assert res.k == 2

    def test_swapped_bounds_equation_holds(self):
        # the solved alpha satisfies the estimating equation written with the
        # two bounds exchanged, to solver accuracy
        rng = np.random.default_rng(21)
        s = OrderedSample(rng.uniform(2.0, 90.0, size=60))
        w = full_window(s)
        res = improved_estimate(s, w)
        m = mean_log(s, w)
        swapped = 1.0 / res.alpha + correction(res.alpha, res.window_high, res.window_low)
        assert swapped == pytest.approx(m, abs=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        base = rng.uniform(1.0, 30.0, size=50)
        w = TailWindow(l=40, r=2)
        for c in (0.01, 7.0, 250.0):
            a0 = improved_estimate(OrderedSample(base), w).alpha
            a1 = improved_estimate(OrderedSample(c * base), w).alpha
            assert a1 == pytest.approx(a0, abs=1e-8)

    def test_order_invariance(self):
        rng = np.random.default_rng(17)
        base = rng.uniform(1.0, 30.0, size=50)
        shuffled = base.copy()
        rng.shuffle(shuffled)
        w = full_window(OrderedSample(base))
        r0 = improved_estimate(OrderedSample(base), w)
        r1 = improved_estimate(OrderedSample(shuffled), w)
        assert r0 == r1

    def test_degenerate_window(self):
        for values in ([5.0, 5.0], LOG_TIE):
            s = OrderedSample(values)
            with pytest.raises(DegenerateSampleError):
                improved_estimate(s, full_window(s))

    def test_approaches_hill_as_high_bound_grows(self):
        # with an exact-power-law mean the Hill inverse of the same mean
        # approaches the bounded-domain root as the domain widens
        a_star = 2.0
        low = 2.0
        gaps = []
        for high in (2e2, 2e4, 2e6):
            m = gfun(a_star, low, high)
            alpha_direct = solve_direct(m, low, high).alpha
            alpha_hill = 1.0 / (m - math.log(low))
            gaps.append(abs(alpha_direct - alpha_hill))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-8


class TestHillPlotSeries:
    def _sample(self, n=40, seed=23):
        rng = np.random.default_rng(seed)
        return OrderedSample(rng.uniform(1.0, 60.0, size=n))

    def test_length(self):
        s = self._sample()
        for r in (1, 3, 10):
            series = hill_plot_series(s, r=r)
            assert len(series) == len(s) - r
            assert series.l_values[0] == r + 1
            assert series.l_values[-1] == len(s)

    def test_matches_pointwise_estimates(self):
        s = self._sample(n=25)
        series = hill_plot_series(s, r=2)
        for l, mh, mi in zip(series.l_values, series.mu_hill, series.mu_improved):
            assert mh == pytest.approx(hill_estimate(s, l).mu, rel=1e-12)
            assert mi == pytest.approx(
                improved_estimate(s, TailWindow(l=l, r=2)).mu, rel=1e-9, abs=1e-9)

    def test_r_out_of_range(self):
        s = self._sample(n=10)
        with pytest.raises(WindowError):
            hill_plot_series(s, r=0)
        with pytest.raises(WindowError):
            hill_plot_series(s, r=10)

    def test_wide_domain_has_no_blank_entries(self):
        series = hill_plot_series(_log_uniform(400, 1), r=1)
        assert all(v is not None for v in series.mu_improved)

    def test_degenerate_entries_absent(self):
        # leading ties make the first windows degenerate, not fatal
        s = OrderedSample([4.0, 4.0, 4.0, 2.0, 1.0])
        series = hill_plot_series(s, r=1)
        assert series.mu_hill[0] is None  # top-2 values equal
        assert series.mu_improved[0] is None
        assert series.mu_hill[-1] is not None
        assert series.mu_improved[-1] is not None

    # The prefix-sum sweep against a loop of per-window estimates: the same
    # blank entries, and the same mu wherever ln(R/L) >= 1e-2 (narrower
    # windows are where the per-window path loses digits of the mean log).
    _RNG = np.random.default_rng(41)
    _UNIFORM = OrderedSample(_RNG.uniform(1.0, 60.0, size=300))
    _TIES = OrderedSample(np.concatenate([
        [7.3] * 4, _RNG.uniform(1.0, 7.0, size=60), [3.1] * 5, [2.2] * 3,
        _RNG.uniform(1.0, 7.0, size=30)]))
    _WIDE = OrderedSample(_RNG.uniform(1.0, 1000.0, size=300))  # |delta| up to ~7

    @staticmethod
    def _per_window(sample, r, config):
        hill, improved = [], []
        for l in range(r + 1, len(sample) + 1):
            try:
                hill.append(hill_estimate(sample, l).mu)
            except EstimationError:
                hill.append(None)
            try:
                res = improved_estimate(sample, TailWindow(l=l, r=r), config)
                improved.append(res.mu if res.converged else None)
            except EstimationError:
                improved.append(None)
        return hill, improved

    @pytest.mark.parametrize("sample, r, config, blanks", [
        (_UNIFORM, 1, SolverConfig(), 0),
        (_UNIFORM, 3, SolverConfig(), 0),
        (_UNIFORM, 10, SolverConfig(), 0),
        (_TIES, 1, SolverConfig(), 3),  # windows (2..4, 1) hold only ties
        (_TIES, 2, SolverConfig(), 2),
        (_WIDE, 1, SolverConfig(bracket_limit=5.0), 1),  # no root in the bracket
        (_UNIFORM, 3, SolverConfig(max_iterations=1), 1),  # not converged
    ])
    def test_matches_per_window_loop(self, sample, r, config, blanks):
        series = hill_plot_series(sample, r=r, config=config)
        hill, improved = self._per_window(sample, r, config)
        values = sample.values
        for column, expected, top in ((series.mu_hill, hill, values[0]),
                                      (series.mu_improved, improved, values[r - 1])):
            assert [v is None for v in column] == [v is None for v in expected]
            for l, got, want in zip(series.l_values, column, expected):
                if want is not None and math.log(top / values[l - 1]) >= 1e-2:
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), l
        # each case's blank-forcing input really leaves blank entries
        assert sum(v is None for v in series.mu_improved) >= blanks

    def test_narrow_windows_match_exact_root(self):
        # windows (2..20, 1) of a figure sample span ln(R/L) ~ 1e-4..4e-3, where
        # the root is known to 50 digits from the sample's exact logs
        mpmath = pytest.importorskip("mpmath")
        fig = FIGURE_EXAMPLES[16]
        sample = draw(tabulate(fig.spec), SampleRequest(n=fig.n_rand, seed=1))
        series = hill_plot_series(sample, r=1)
        with mpmath.workdps(50):
            logs = [mpmath.log(mpmath.mpf(float(v))) for v in sample.values[:20]]
            for l in range(2, 21):
                span = logs[0] - logs[l - 1]
                y = (mpmath.fsum(logs[:l]) / l - logs[l - 1]) / span

                def excess(d):
                    return (1 / d - 1 / mpmath.expm1(d) if d else mpmath.mpf(0.5)) - y

                mu = series.mu_improved[l - 2]
                start = mpmath.mpf((mu - 1.0) * float(span))
                exact = 1 + mpmath.findroot(excess, start) / span
                assert abs(mu - exact) <= 1e-10, l


def _one_sample_estimates(values, iterative, config):
    """(mean log, Hill mu, iterative mu, direct mu) by the one-sample
    functions, or the class of the error they raise."""
    try:
        sample = OrderedSample(values)
        window = full_window(sample)
        return (mean_log(sample, window), hill_estimate(sample, len(sample)).mu,
                solve_iterative(sample, window, iterative).mu,
                improved_estimate(sample, window, config).mu)
    except EstimationError as exc:
        return type(exc)


class TestFullWindowEstimates:
    CONFIGS = [
        (ITER5_CONFIG, SolverConfig()),
        (SolverConfig(), SolverConfig(max_iterations=2)),  # direct stops unconverged
        (SolverConfig(max_iterations=1), SolverConfig(bracket_limit=50.0)),
    ]

    @pytest.mark.parametrize("iterative, config", CONFIGS)
    def test_matches_one_sample_estimators(self, iterative, config):
        rows = [draw(tabulate(TABLE_ROWS[row].spec), SampleRequest(300, seed)).values
                for row in (1, 2, 5, 9, 13) for seed in (1, 2)]
        rows += [_log_uniform(300, seed).values for seed in (1, 2)]
        rows.append(rows[0][:123])  # a narrower block
        # numpy's log and libm's differ in the last bit at both ends (x86-64,
        # AVX-512), so the solvers must read the logs OrderedSample holds
        rows.append(np.array([37.284, 30.0, 20.0, 10.0, 3.641]))
        blocks = [np.array(rows[:5]), np.array(rows[5:12]), np.array(rows[12:13]),
                  np.array(rows[13:])]
        columns = full_window_estimates(blocks, iterative, config)
        for i, row in enumerate(rows):
            mean, hill, iterated, direct = _one_sample_estimates(row, iterative, config)
            assert (columns[0][i], columns[1][i]) == (row[-1], row[0])
            assert columns[2][i] == mean
            assert columns[3][i] == hill
            assert columns[4][i] == iterated
            assert columns[5][i] == direct

    def test_each_sample_on_its_own(self):
        # 333 values: rows start at every offset within a SIMD register
        rows = np.array([draw(tabulate(TABLE_ROWS[row].spec), SampleRequest(333, seed)).values
                         for row in (2, 4, 13) for seed in (1, 2, 3)])
        together = full_window_estimates([rows], ITER5_CONFIG)
        for i in range(len(rows)):
            alone = full_window_estimates([rows[i:i + 1]], ITER5_CONFIG)
            assert all(np.array_equal(a, t[i:i + 1]) for a, t in zip(alone, together))

    # blocks of descending rows that the one-sample path rejects somewhere
    GOOD = [4.0, 3.7, 3.5, 3.3, 3.2, 3.1, 3.05, 3.0]
    TIED = [5.0] * 8
    # y ~ 1/8 < g(5) ~ 0.19: no root within a bracket of 5 (y >= 1/n always)
    NO_ROOT = [100.0, 1.002, 1.001, 1.0, 1.0, 1.0, 1.0, 1.0]
    # logs that tie, or a mean log that rounds onto a bound
    ONE_ULP = [math.nextafter(3.0, 4.0)] + [3.0] * 7

    @pytest.mark.parametrize("blocks", [
        [[TIED]],
        [[GOOD, GOOD[:-1] + [0.0]]],
        [[GOOD, GOOD[:-1] + [-1.0]]],
        [[[math.inf] + GOOD[1:]]],
        [[GOOD, NO_ROOT]],
        [[ONE_ULP]],
        # the first bad sample decides the error, across blocks of any width
        [[GOOD], [NO_ROOT, TIED]],
        [[GOOD[:4], GOOD[4:]], [TIED], [NO_ROOT]],
        [[LOG_TIE]],
    ])
    def test_rejects_like_one_sample_path(self, blocks):
        iterative, config = ITER5_CONFIG, SolverConfig(bracket_limit=5.0)
        outcomes = [_one_sample_estimates(row, iterative, config)
                    for block in blocks for row in block]
        expected = next(o for o in outcomes if isinstance(o, type))
        with pytest.raises(EstimationError) as info:
            full_window_estimates([np.array(block) for block in blocks], iterative, config)
        assert type(info.value) is expected

    def test_needs_blocks_of_samples(self):
        for blocks in ([], [np.array([3.0, 2.0])], [np.array([[3.0], [2.0]])]):
            with pytest.raises(DegenerateSampleError):
                full_window_estimates(blocks)


class TestEstimateResultInvariants:
    def test_mu_always_alpha_plus_one(self):
        rng = np.random.default_rng(31)
        s = OrderedSample(rng.uniform(1.0, 20.0, size=30))
        w = full_window(s)
        for res in (hill_estimate(s, 30), improved_estimate(s, w),
                    solve_iterative(s, w)):
            assert res.mu == res.alpha + 1.0

    def test_result_is_frozen(self):
        res = hill_estimate(OrderedSample([E, 1.0]), 2)
        assert isinstance(res, EstimateResult)
        with pytest.raises(AttributeError):
            res.alpha = 0.0


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.alpha_tolerance == 1e-10
        assert cfg.residual_tolerance == 1e-10
        assert cfg.max_iterations == 100
        assert cfg.bracket_limit == 1e4

    @pytest.mark.parametrize("kwargs", [
        {"alpha_tolerance": 0.0},
        {"residual_tolerance": -1e-3},
        {"max_iterations": 0},
        {"bracket_limit": 0.0},
        {"alpha_tolerance": math.nan},
        {"residual_tolerance": math.nan},
        {"bracket_limit": math.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
