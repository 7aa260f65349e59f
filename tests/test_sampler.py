import math

import numpy as np
import pytest

from tailest.estimator import OrderedSample, full_window, mean_log
from tailest.sampler import (
    DistributionSpec,
    DistributionSpecError,
    SampleRequest,
    draw,
    sigma_statistic,
    tabulate,
)

E = math.e


class TestDistributionSpec:
    def test_unknown_kind(self):
        with pytest.raises(DistributionSpecError):
            DistributionSpec("cauchy", 1.0, 2.0)

    def test_bad_domain(self):
        with pytest.raises(DistributionSpecError):
            DistributionSpec.power(5.0, 4.0, 3.0)
        with pytest.raises(DistributionSpecError):
            DistributionSpec.power(5.0, -1.0, 3.0)

    @pytest.mark.parametrize("gp", [999, 100001, 0])
    def test_grid_points_bounds(self, gp):
        with pytest.raises(DistributionSpecError):
            DistributionSpec.power(5.0, 3.0, 150.0, grid_points=gp)

    def test_missing_param(self):
        spec = DistributionSpec.sqrt_inv(3.0, 150.0)
        with pytest.raises(DistributionSpecError):
            spec.param("mu")

    @pytest.mark.parametrize("kind, params", [
        ("power", ()),                                   # missing
        ("pade14", (("p2", 1.0),)),                      # missing
        ("sqrt_inv", (("mu", 5.0),)),                    # extra
        ("power", (("mu", 5.0), ("exponent", 1.0))),     # extra
        ("power_growth", (("mu", 5.0),)),                # wrong name
    ])
    def test_params_must_match_registry(self, kind, params):
        with pytest.raises(DistributionSpecError):
            DistributionSpec(kind, 3.0, 150.0, params=params)

    def test_describe(self):
        text = DistributionSpec.power(5.0, 3.0, 150.0).describe()
        assert "power" in text and "[3, 150]" in text


class TestTabulate:
    def test_uniform_cdf_is_linear(self):
        # constant density: N(y) = y on [0, 1]
        spec = DistributionSpec.two_power(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, grid_points=2000)
        dist = tabulate(spec)
        assert np.allclose(dist.cdf, dist.xs, atol=1e-12)

    def test_one_over_x_closed_form(self):
        # density 1/x on [1, e^2]: N(y) = ln(y) / 2
        spec = DistributionSpec.power(1.0, 1.0, E ** 2, grid_points=10000)
        dist = tabulate(spec)
        at_e = float(np.interp(E, dist.xs, dist.cdf))
        assert at_e == pytest.approx(0.5, abs=1e-4)
        assert np.allclose(dist.cdf, np.log(dist.xs) / 2.0, atol=1e-4)

    def test_normalization_exact(self):
        for spec in (DistributionSpec.power(5.0, 3.0, 150.0),
                     DistributionSpec.log_over_x(100.0, 400.0),
                     DistributionSpec.pade14(494.7, 4886.0, 1.0, 5.0)):
            dist = tabulate(spec)
            assert dist.cdf[0] == 0.0
            assert dist.cdf[-1] == 1.0
            assert np.all(np.diff(dist.cdf) >= 0.0)
            assert np.all(dist.pdf > 0.0)

    def test_non_finite_density_rejected(self):
        # 1/(x ln x) has a pole at x = 1 and is negative below it
        with pytest.raises(DistributionSpecError):
            tabulate(DistributionSpec.inv_xlogx(0.5, 2.0))
        # x^-5 blows up at 0
        with pytest.raises(DistributionSpecError):
            tabulate(DistributionSpec.power(5.0, 0.0, 1.0))

    def test_grid_shape(self):
        spec = DistributionSpec.sqrt_inv(3.0, 1500.0, grid_points=4321)
        dist = tabulate(spec)
        assert dist.xs.shape == dist.pdf.shape == dist.cdf.shape == (4321,)
        assert dist.xs[0] == 3.0 and dist.xs[-1] == 1500.0


class TestDraw:
    def test_range(self):
        dist = tabulate(DistributionSpec.power(5.0, 3.0, 150.0))
        sample = draw(dist, SampleRequest(n=1000, seed=7))
        assert len(sample) == 1000
        assert sample.values[0] <= 150.0
        assert sample.values[-1] >= 3.0

    def test_deterministic(self):
        dist = tabulate(DistributionSpec.power(5.0, 3.0, 150.0))
        s1 = draw(dist, SampleRequest(n=500, seed=42))
        s2 = draw(dist, SampleRequest(n=500, seed=42))
        assert np.array_equal(s1.values, s2.values)

    def test_seed_changes_sample(self):
        dist = tabulate(DistributionSpec.power(5.0, 3.0, 150.0))
        s1 = draw(dist, SampleRequest(n=500, seed=1))
        s2 = draw(dist, SampleRequest(n=500, seed=2))
        assert not np.array_equal(s1.values, s2.values)

    def test_monotone_inversion(self):
        dist = tabulate(DistributionSpec.sqrt_inv(3.0, 1500.0))
        u = np.linspace(0.001, 0.999, 500)
        x = np.interp(u, dist.cdf, dist.xs)
        assert np.all(np.diff(x) >= 0.0)

    def test_grid_refinement_stability(self):
        # same uniforms through a twice-finer grid move each draw by less
        # than one coarse grid spacing
        for maker in (lambda gp: DistributionSpec.power(5.0, 3.0, 150.0, grid_points=gp),
                      lambda gp: DistributionSpec.log_over_x(100.0, 400.0, grid_points=gp)):
            coarse = tabulate(maker(5000))
            fine = tabulate(maker(10000))
            req = SampleRequest(n=2000, seed=11)
            x_coarse = draw(coarse, req).values
            x_fine = draw(fine, req).values
            spacing = (coarse.xs[-1] - coarse.xs[0]) / (len(coarse.xs) - 1)
            assert np.max(np.abs(x_coarse - x_fine)) < spacing

    def test_median_check(self):
        # for 1/x on [1, e^2] the median is e; binomial 4-sigma band at n=10000
        dist = tabulate(DistributionSpec.power(1.0, 1.0, E ** 2))
        sample = draw(dist, SampleRequest(n=10000, seed=3))
        frac_below = float(np.mean(sample.values < E))
        assert abs(frac_below - 0.5) < 4.0 * 0.5 / math.sqrt(10000)

    def test_extremes_approach_domain_ends(self):
        dist = tabulate(DistributionSpec.power(5.0, 3.0, 4.0))
        lows, highs = [], []
        for n in (100, 1000, 10000):
            s = draw(dist, SampleRequest(n=n, seed=5))
            lows.append(float(s.values[-1]))
            highs.append(float(s.values[0]))
        assert lows[0] > lows[-1] and lows[-1] < 3.001
        assert highs[0] < highs[-1] and highs[-1] > 3.99

    def test_request_validation(self):
        with pytest.raises(ValueError):
            SampleRequest(n=1, seed=0)
        with pytest.raises(ValueError):
            SampleRequest(n=10, seed=-1)


class TestSigmaStatistic:
    def test_constant(self):
        assert sigma_statistic(OrderedSample([E, E, E])) == pytest.approx(1.0)

    def test_equals_full_window_mean_log(self):
        rng = np.random.default_rng(9)
        s = OrderedSample(rng.uniform(1.0, 100.0, size=64))
        assert sigma_statistic(s) == mean_log(s, full_window(s))

    def test_fast_decay_reference_value(self):
        # x^-5 on [3, 150]: mean log sits near 1.34
        dist = tabulate(DistributionSpec.power(5.0, 3.0, 150.0))
        for seed in range(1, 6):
            s = draw(dist, SampleRequest(n=1000, seed=seed))
            assert sigma_statistic(s) == pytest.approx(1.339, abs=0.05)

    def test_slow_decay_reference_value(self):
        # 1/sqrt(x) on [3, 15000]: mean log sits near 7.68
        dist = tabulate(DistributionSpec.sqrt_inv(3.0, 15000.0))
        for seed in range(1, 6):
            s = draw(dist, SampleRequest(n=1000, seed=seed))
            assert sigma_statistic(s) == pytest.approx(7.682, abs=0.2)
