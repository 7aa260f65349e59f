import math

import numpy as np
import pytest

from tailest.estimator import OrderedSample, full_window, mean_log
from tailest.experiments import FIGURE_EXAMPLES, TABLE_ROWS
from tailest.sampler import (
    DENSITIES,
    DistributionSpec,
    DistributionSpecError,
    SeedStreams,
    _descending_rows,
    _draw_grids,
    _grid,
    _inverse_cdf,
    draw,
    draw_block,
    sigma_statistic,
    tabulate,
)

# (spec, n) of every table row and figure: the samples the package reproduces
BUILT_IN_SAMPLES = ([(row.spec, row.n_rand) for row in TABLE_ROWS.values()]
                    + [(fig.spec, fig.n_rand) for fig in FIGURE_EXAMPLES.values()])

E = math.e

# Grids with flat CDF cells: all the mass in the first cells, or a domain one
# float wide.  The last has cells whose slope overflows (the CDF rises by
# subnormal steps), where np.interp takes its special branch on a node.
FLAT_GRIDS = [
    DistributionSpec.of("power", 3.0, 1e6, mu=5.0),
    DistributionSpec.of("power", 1.0, 1e4, mu=60.0),
    DistributionSpec.of("power", 3.0, math.nextafter(3.0, 4.0), mu=5.0),
    DistributionSpec.of("power_growth", 0.5, 1.0, exponent=1070.0),
]


def node_uniforms(cdf, seed=0, n=20000):
    """0, every CDF node, both float neighbours of each, 1 - 2^-53 and
    random uniforms, clipped to [0, 1)."""
    u = np.concatenate([cdf, np.nextafter(cdf, -1.0), np.nextafter(cdf, 2.0),
                        [0.0, 1.0 - 2.0 ** -53], np.random.default_rng(seed).random(n)])
    return u[(u >= 0.0) & (u < 1.0)]


def assert_interp_bits(dist, u):
    expected = np.interp(u, dist.cdf, dist.xs)
    got = _inverse_cdf(dist, u.copy())  # sorts its argument
    order = np.argsort(u, kind="stable")
    assert np.array_equal(got, expected[order])
    assert np.array_equal(np.signbit(got), np.signbit(expected[order]))


class TestDistributionSpec:
    def test_unknown_kind(self):
        with pytest.raises(DistributionSpecError):
            DistributionSpec("cauchy", 1.0, 2.0)

    def test_bad_domain(self):
        with pytest.raises(DistributionSpecError):
            DistributionSpec.of("power", 4.0, 3.0, mu=5.0)
        with pytest.raises(DistributionSpecError):
            DistributionSpec.of("power", -1.0, 3.0, mu=5.0)
        for low, high in ((3.0, math.inf), (math.nan, 3.0), (-math.inf, 3.0)):
            with pytest.raises(DistributionSpecError, match="must be finite"):
                DistributionSpec.of("power", low, high, mu=5.0)

    @pytest.mark.parametrize("gp", [999, 100001, 0])
    def test_grid_points_bounds(self, gp):
        with pytest.raises(DistributionSpecError):
            DistributionSpec.of("power", 3.0, 150.0, grid_points=gp, mu=5.0)

    @pytest.mark.parametrize("kind, params", [
        ("power", ()),                                   # missing
        ("pade14", (("p2", 1.0),)),                      # missing
        ("sqrt_inv", (("mu", 5.0),)),                    # extra
        ("power", (("mu", 5.0), ("exponent", 1.0))),     # extra
        ("power_growth", (("mu", 5.0),)),                # wrong name
        # keywords of DistributionSpec.of
        pytest.param("pade14", {"p2": 1.0}, id="of-missing"),
        pytest.param("sqrt_inv", {"mu": 5.0}, id="of-extra"),
        pytest.param("power_growth", {"mu": 5.0}, id="of-wrong-name"),
        pytest.param("no_such_kind", {}, id="of-unknown-kind"),
        pytest.param("two_power", {"mu2": 2.5, "a1": 3, "a2": 1, "mu1": 4}, id="of-any-order"),
        pytest.param("power", {"mu": 5}, id="of-int"),
        pytest.param("sqrt_inv", {}, id="of-no-params"),
    ])
    def test_params_must_match_registry(self, kind, params):
        if isinstance(params, tuple):
            with pytest.raises(DistributionSpecError):
                DistributionSpec(kind, 3.0, 150.0, params=params)
        elif kind not in DENSITIES or set(params) != set(DENSITIES[kind].params):
            with pytest.raises(DistributionSpecError):
                DistributionSpec.of(kind, 3.0, 150.0, **params)
        else:
            # the registry's order and floats, whatever the keywords' order and type
            spec = DistributionSpec.of(kind, 3.0, 150.0, **params)
            assert spec == DistributionSpec(kind, 3.0, 150.0, params=tuple(
                (name, float(params[name])) for name in DENSITIES[kind].params))
            assert [name for name, _ in spec.params] == list(DENSITIES[kind].params)
            assert all(type(value) is float for _, value in spec.params)

    def test_describe(self):
        text = DistributionSpec.of("power", 3.0, 150.0, mu=5.0).describe()
        assert "power" in text and "[3, 150]" in text


class TestTabulate:
    def test_uniform_cdf_is_linear(self):
        # constant density: N(y) = y on [0, 1]
        spec = DistributionSpec.of("two_power", 0.0, 1.0, grid_points=2000,
                                   a1=1.0, mu1=0.0, a2=0.0, mu2=0.0)
        dist = tabulate(spec)
        assert np.allclose(dist.cdf, dist.xs, atol=1e-12)

    def test_one_over_x_closed_form(self):
        # density 1/x on [1, e^2]: N(y) = ln(y) / 2
        spec = DistributionSpec.of("power", 1.0, E ** 2, grid_points=10000, mu=1.0)
        dist = tabulate(spec)
        at_e = float(np.interp(E, dist.xs, dist.cdf))
        assert at_e == pytest.approx(0.5, abs=1e-4)
        assert np.allclose(dist.cdf, np.log(dist.xs) / 2.0, atol=1e-4)

    def test_normalization_exact(self):
        for spec in (DistributionSpec.of("power", 3.0, 150.0, mu=5.0),
                     DistributionSpec.of("log_over_x", 100.0, 400.0),
                     DistributionSpec.of("pade14", 1.0, 5.0, p2=494.7, p4=4886.0)):
            dist = tabulate(spec)
            assert dist.cdf[0] == 0.0
            assert dist.cdf[-1] == 1.0
            assert np.all(np.diff(dist.cdf) >= 0.0)
            assert np.all(dist.pdf > 0.0)

    def test_non_finite_density_rejected(self):
        # 1/(x ln x) has a pole at x = 1 and is negative below it
        with pytest.raises(DistributionSpecError):
            tabulate(DistributionSpec.of("inv_xlogx", 0.5, 2.0))
        # x^-5 blows up at 0
        with pytest.raises(DistributionSpecError):
            tabulate(DistributionSpec.of("power", 0.0, 1.0, mu=5.0))

    def test_integral_outside_float_range_rejected(self):
        # x^100 stays below 1.8e308 up to 1200, but its integral overflows
        with pytest.raises(DistributionSpecError, match="integrates to inf"):
            tabulate(DistributionSpec.of("power_growth", 1.0, 1200.0, exponent=100.0))
        # x^-32 is subnormal near 1e10, and every trapezoid of width 1e-4 underflows
        with pytest.raises(DistributionSpecError, match="integrates to 0.0"):
            tabulate(DistributionSpec.of("power", 1e10, 1e10 + 1, mu=32.0))

    def test_grid_shape(self):
        spec = DistributionSpec.of("sqrt_inv", 3.0, 1500.0, grid_points=4321)
        dist = tabulate(spec)
        assert dist.xs.shape == dist.pdf.shape == dist.cdf.shape == (4321,)
        assert dist.xs[0] == 3.0 and dist.xs[-1] == 1500.0


class TestDraw:
    def test_range(self):
        dist = tabulate(DistributionSpec.of("power", 3.0, 150.0, mu=5.0))
        sample = draw(dist, 1000, 7)
        assert len(sample) == 1000
        assert sample.values[0] <= 150.0
        assert sample.values[-1] >= 3.0

    def test_deterministic(self):
        dist = tabulate(DistributionSpec.of("power", 3.0, 150.0, mu=5.0))
        s1 = draw(dist, 500, 42)
        s2 = draw(dist, 500, 42)
        assert np.array_equal(s1.values, s2.values)

    def test_seed_changes_sample(self):
        dist = tabulate(DistributionSpec.of("power", 3.0, 150.0, mu=5.0))
        s1 = draw(dist, 500, 1)
        s2 = draw(dist, 500, 2)
        assert not np.array_equal(s1.values, s2.values)

    def test_monotone_inversion(self):
        dist = tabulate(DistributionSpec.of("sqrt_inv", 3.0, 1500.0))
        u = np.linspace(0.001, 0.999, 500)
        x = np.interp(u, dist.cdf, dist.xs)
        assert np.all(np.diff(x) >= 0.0)

    def test_grid_refinement_stability(self):
        # same uniforms through a twice-finer grid move each draw by less
        # than one coarse grid spacing
        for maker in (lambda gp: DistributionSpec.of("power", 3.0, 150.0, grid_points=gp, mu=5.0),
                      lambda gp: DistributionSpec.of("log_over_x", 100.0, 400.0, grid_points=gp)):
            coarse = tabulate(maker(5000))
            fine = tabulate(maker(10000))
            x_coarse = draw(coarse, 2000, 11).values
            x_fine = draw(fine, 2000, 11).values
            spacing = (coarse.xs[-1] - coarse.xs[0]) / (len(coarse.xs) - 1)
            assert np.max(np.abs(x_coarse - x_fine)) < spacing

    def test_median_check(self):
        # for 1/x on [1, e^2] the median is e; binomial 4-sigma band at n=10000
        dist = tabulate(DistributionSpec.of("power", 1.0, E ** 2, mu=1.0))
        sample = draw(dist, 10000, 3)
        frac_below = float(np.mean(sample.values < E))
        assert abs(frac_below - 0.5) < 4.0 * 0.5 / math.sqrt(10000)

    def test_extremes_approach_domain_ends(self):
        dist = tabulate(DistributionSpec.of("power", 3.0, 4.0, mu=5.0))
        lows, highs = [], []
        for n in (100, 1000, 10000):
            s = draw(dist, n, 5)
            lows.append(float(s.values[-1]))
            highs.append(float(s.values[0]))
        assert lows[0] > lows[-1] and lows[-1] < 3.001
        assert highs[0] < highs[-1] and highs[-1] > 3.99

    def test_request_validation(self):
        dist = tabulate(DistributionSpec.of("power", 3.0, 4.0, mu=5.0))
        with pytest.raises(ValueError, match="need n >= 2 draws, got 1"):
            draw(dist, 1, 0)
        with pytest.raises(ValueError, match="need seed >= 0, got -1"):
            draw(dist, 10, -1)

    @pytest.mark.parametrize("spec, n", BUILT_IN_SAMPLES)
    def test_pcg64_contract(self, spec, n):
        # the uniforms of default_rng(seed), mapped in the order drawn: sorting
        # them first must not change a single bit of the sample
        dist = tabulate(spec)
        for seed in (0, 1, 2):
            u = np.random.default_rng(seed).random(n)
            expected = np.sort(np.interp(u, dist.cdf, dist.xs))[::-1]
            assert np.array_equal(draw(dist, n, seed).values, expected)


class TestInverseCdf:
    @pytest.mark.parametrize("spec", [spec for spec, _ in BUILT_IN_SAMPLES] + FLAT_GRIDS)
    def test_equals_interp_bit_for_bit(self, spec):
        dist = tabulate(spec)
        assert_interp_bits(dist, node_uniforms(dist.cdf))

    @pytest.mark.parametrize("grid_points", [1000, 100000])
    @pytest.mark.parametrize("maker", [
        lambda gp: DistributionSpec.of("power", 3.0, 150.0, grid_points=gp, mu=5.0),
        lambda gp: DistributionSpec.of("sqrt_inv", 3.0, 15000.0, grid_points=gp),
        lambda gp: DistributionSpec.of("power", 1.0, 1e4, grid_points=gp, mu=60.0),
    ])
    def test_grid_sizes(self, maker, grid_points):
        dist = tabulate(maker(grid_points))
        assert dist.guide.size == 1 << (grid_points - 1).bit_length()
        assert_interp_bits(dist, node_uniforms(dist.cdf))

    def test_nodes_with_overflowing_slope_go_to_interp(self):
        # on these nodes numpy's formula gives inf * 0 = nan, np.interp the node
        dist = tabulate(FLAT_GRIDS[-1])
        rises = np.flatnonzero(np.diff(dist.cdf) > 0.0)
        steep = rises[~np.isfinite(dist.slope[rises])]
        assert steep.size > 100
        u = dist.cdf[steep]
        assert np.array_equal(_inverse_cdf(dist, u.copy()), dist.xs[steep])
        assert_interp_bits(dist, u)

    def test_node_branch_keeps_the_sign_of_zero(self):
        # np.interp returns the node itself on a node: -0.0 here, where
        # numpy's formula would give 0 * slope + -0.0 = 0.0
        dist = _grid(np.array([-0.0, 1.0, 2.0]), np.ones(3), "flat")
        assert_interp_bits(dist, np.array([0.0, 0.25, 0.5, 0.75]))
        assert np.signbit(_inverse_cdf(dist, np.array([0.0]))[0])

    def test_outside_unit_interval_matches_interp(self):
        dist = tabulate(DistributionSpec.of("power", 3.0, 150.0, mu=5.0))
        for extra in ([-5e-324], [1.0], [1.0 + 2.0 ** -52], [-1.0, 2.0]):
            assert_interp_bits(dist, np.concatenate([extra, node_uniforms(dist.cdf)]))

    def test_guide_table(self):
        for spec in [spec for spec, _ in BUILT_IN_SAMPLES] + FLAT_GRIDS:
            dist = tabulate(spec)
            m = dist.guide.size
            assert m >= dist.cdf.size and m & (m - 1) == 0
            assert dist.guide.dtype == np.int32
            expected = np.searchsorted(dist.cdf, np.arange(m) / m, side="right") - 1
            assert np.array_equal(dist.guide, expected)

    @pytest.mark.parametrize("spec, n", BUILT_IN_SAMPLES)
    def test_few_uniforms_need_a_binary_search(self, spec, n, monkeypatch):
        # the guide table and one forward step place all but a few percent
        # of the uniforms of every built-in grid
        searched = []

        def counting(a, v, **kwargs):
            searched.append(len(v))
            return real(a, v, **kwargs)

        real = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", counting)
        dist = tabulate(spec)
        draw_block(dist, n, range(20))
        assert sum(searched) <= 0.05 * 20 * n


class TestSeedStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32, 2 ** 64 + 5, 10 ** 30])
    def test_restored_state_replays_default_rng(self, seed):
        streams = SeedStreams([7, seed, seed])
        out = np.empty((3, 1000))
        streams.fill(out)
        expected = np.random.default_rng(seed).random(1000)
        assert np.array_equal(out[1], expected)
        assert np.array_equal(out[2], expected)
        assert np.array_equal(out[0], np.random.default_rng(7).random(1000))

    def test_slices_replay_their_own_seeds(self):
        streams = SeedStreams(range(10))
        part = streams[3:6]
        assert part.seeds == (3, 4, 5) and len(part) == 3 and len(streams) == 10
        out = np.empty((3, 50))
        part.fill(out)
        for row, seed in zip(out, part.seeds):
            assert np.array_equal(row, np.random.default_rng(seed).random(50))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed >= 0"):
            SeedStreams([1, -1])


class TestDrawBlock:
    @pytest.mark.parametrize("spec, n", BUILT_IN_SAMPLES)
    def test_rows_equal_draws(self, spec, n):
        # each row against the reference of test_pcg64_contract, not draw(),
        # which is row 0 of a one-seed block
        dist = tabulate(spec)
        seeds = [3, 1, 4, 1, 5]
        block = draw_block(dist, n, seeds)
        assert block.shape == (len(seeds), n)
        for row, seed in zip(block, seeds):
            u = np.random.default_rng(seed).random(n)
            assert np.array_equal(row, np.sort(np.interp(u, dist.cdf, dist.xs))[::-1])
        assert np.array_equal(draw_block(dist, n, SeedStreams([0] + seeds)[1:]), block)

    def test_shared_uniforms_through_grids_of_every_size(self, monkeypatch):
        # one fill and sort of the uniforms, mapped through guides of 2^17,
        # 2^10 and 2^14 buckets; the last two grids share a guide size, and
        # the last has slopes that overflow
        dists = [tabulate(spec) for spec in (
            DistributionSpec.of("power", 3.0, 150.0, grid_points=100000, mu=5.0),
            DistributionSpec.of("sqrt_inv", 3.0, 15000.0, grid_points=1000),
            DistributionSpec.of("power", 1.0, 1e4, grid_points=10000, mu=60.0),
            FLAT_GRIDS[-1])]
        searched = []

        def counting(a, v, **kwargs):
            searched.append(len(v))
            return real(a, v, **kwargs)

        real = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", counting)
        seeds, n = [3, 1, 4], 5000
        blocks = list(_draw_grids(dists, n, seeds))
        assert len(blocks) == len(dists)
        for dist, block in zip(dists, blocks):
            assert block.shape == (len(seeds), n) and block.flags.c_contiguous
            for row, seed in zip(block, seeds):
                u = np.random.default_rng(seed).random(n)
                expected = np.sort(np.interp(u, dist.cdf, dist.xs))[::-1]
                assert np.array_equal(row, expected)
                assert np.array_equal(np.signbit(row), np.signbit(expected))
        # a bucket index of another guide size indexes past a smaller guide,
        # or sends most uniforms of a larger one to the binary search
        assert sum(searched) <= 0.05 * len(dists) * len(seeds) * n

    def test_tail_sorts_a_row_out_of_order(self):
        rows = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 1.5, 2.0]])
        rows[1, 2] = np.nextafter(rows[1, 1], 0.0)  # one ulp below its left neighbour
        expected = -np.sort(-rows, axis=1)
        out = _descending_rows(rows)
        assert np.array_equal(out, expected) and out.flags.c_contiguous

    def test_request_validation(self):
        dist = tabulate(DistributionSpec.of("power", 3.0, 4.0, mu=5.0))
        with pytest.raises(ValueError):
            draw_block(dist, 10, [1, -1])
        with pytest.raises(ValueError):
            draw_block(dist, 1, [1])


class TestSigmaStatistic:
    def test_constant(self):
        assert sigma_statistic(OrderedSample([E, E, E])) == pytest.approx(1.0)

    def test_equals_full_window_mean_log(self):
        rng = np.random.default_rng(9)
        s = OrderedSample(rng.uniform(1.0, 100.0, size=64))
        assert sigma_statistic(s) == mean_log(s, full_window(s))

    def test_fast_decay_reference_value(self):
        # x^-5 on [3, 150]: mean log sits near 1.34
        dist = tabulate(DistributionSpec.of("power", 3.0, 150.0, mu=5.0))
        for seed in range(1, 6):
            s = draw(dist, 1000, seed)
            assert sigma_statistic(s) == pytest.approx(1.339, abs=0.05)

    def test_slow_decay_reference_value(self):
        # 1/sqrt(x) on [3, 15000]: mean log sits near 7.68
        dist = tabulate(DistributionSpec.of("sqrt_inv", 3.0, 15000.0))
        for seed in range(1, 6):
            s = draw(dist, 1000, seed)
            assert sigma_statistic(s) == pytest.approx(7.682, abs=0.2)
