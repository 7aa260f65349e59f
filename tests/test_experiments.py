import io
import math
import xml.etree.ElementTree as ET

import pytest

from tailest import experiments
from tailest.estimator import (
    EstimationError,
    HillPlotSeries,
    SolverConfig,
    full_window,
    hill_estimate,
    improved_estimate,
    solve_iterative,
)
from tailest.experiments import (
    FIGURE_EXAMPLES,
    ITER5_CONFIG,
    TABLE_ROWS,
    FigureExampleError,
    TableRowError,
    TableRowSpec,
    check_table_rows,
    figure_csv,
    run_figure,
    run_full_table,
    run_table_row,
    summarize_table,
    summary_csv,
    table_csv,
)
from tailest.sampler import DistributionSpec, SampleRequest, draw, sigma_statistic, tabulate
from tailest.svgplot import hill_plot_svg


class TestRegistries:
    def test_table_rows_complete(self):
        assert sorted(TABLE_ROWS) == list(range(1, 14))

    def test_figure_examples_complete(self):
        assert sorted(FIGURE_EXAMPLES) == [14, 15, 16, 17]
        assert [FIGURE_EXAMPLES[e].figure_number for e in (14, 15, 16, 17)] == [1, 2, 3, 4]
        assert [FIGURE_EXAMPLES[e].expected_mu for e in (14, 15, 16, 17)] == [4.0, 2.5, 1.0, 0.5]

    def test_domains_inside_table(self):
        for row in TABLE_ROWS.values():
            assert 0.0 < row.spec.d_low < row.spec.d_high


class TestRunTableRow:
    def test_unknown_row(self):
        with pytest.raises(ValueError):
            run_table_row(0, seed=1)
        with pytest.raises(ValueError):
            run_table_row(14, seed=1)

    def test_deterministic(self):
        a = run_table_row(4, seed=3)
        b = run_table_row(4, seed=3)
        assert a == b

    def test_observed_bounds_inside_domain(self):
        for row_id in (1, 7, 13):
            res = run_table_row(row_id, seed=1)
            assert res.observed_low >= res.spec.d_low
            assert res.observed_high <= res.spec.d_high

    def test_tight_cut_breaks_hill_not_improved(self):
        # x^-5 restricted to [3, 4]: the classical estimate roughly doubles
        # while the bounded-domain one stays near 5
        res = run_table_row(2, seed=1)
        assert res.mu_hill > 7.0
        assert abs(res.mu_iter5 - 5.0) < 1.0

    def test_wide_domain_both_work(self):
        res = run_table_row(1, seed=1)
        assert abs(res.mu_hill - 5.0) < 0.5
        assert abs(res.mu_iter5 - 5.0) < 0.5
        assert abs(res.mu_hill - res.mu_iter5) < 0.1

    def test_increasing_density_sign(self):
        res = run_table_row(13, seed=1)
        assert res.mu_hill > 0.0
        assert res.mu_iter5 < 0.0
        assert abs(res.mu_iter5 - (-3.5)) < 0.5

    def test_iter5_close_to_direct_when_converged(self):
        for row_id in sorted(TABLE_ROWS):
            res = run_table_row(row_id, seed=2)
            entry = TABLE_ROWS[row_id]
            sample = draw(tabulate(entry.spec), SampleRequest(entry.n_rand, 2))
            capped = solve_iterative(sample, full_window(sample), ITER5_CONFIG)
            if capped.converged:
                assert abs(res.mu_iter5 - res.mu_direct) < 1e-3

    def test_uncapped_iteration_matches_direct(self):
        for row_id in sorted(TABLE_ROWS):
            entry = TABLE_ROWS[row_id]
            sample = draw(tabulate(entry.spec), SampleRequest(entry.n_rand, 1))
            res = solve_iterative(sample, full_window(sample),
                                  SolverConfig(max_iterations=100))
            direct = run_table_row(row_id, seed=1).mu_direct
            if res.converged:
                assert abs(res.mu - direct) < 1e-6


class TestRunFullTable:
    def test_counts_and_order(self):
        results = run_full_table([1, 2])
        assert len(results) == 26
        keys = [(r.row_id, r.seed) for r in results]
        assert keys == sorted(keys)

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            run_full_table([])

    def test_byte_identical_reports(self):
        csv1 = table_csv(run_full_table([5, 9]))
        csv2 = table_csv(run_full_table([5, 9]))
        assert csv1 == csv2

    def test_matches_single_row_runner(self):
        # a cell must not depend on the seeds that share its block: row 3
        # draws 5000 values per seed, so its 40 seeds span several blocks
        seeds = range(1, 41)
        assert len(seeds) * TABLE_ROWS[3].n_rand > 2 * experiments._BLOCK_VALUES
        results = run_full_table(seeds)
        assert [(r.row_id, r.seed) for r in results] == [
            (row, seed) for row in TABLE_ROWS for seed in seeds]
        for res in results:
            assert res == run_table_row(res.row_id, res.seed)

    def test_matches_one_sample_estimators(self):
        # the per-cell calls the runner used to make: same draws, sigma, Hill
        # and both solvers bit for bit
        for res in run_full_table(range(1, 6)):
            entry = TABLE_ROWS[res.row_id]
            sample = draw(tabulate(entry.spec), SampleRequest(entry.n_rand, res.seed))
            window = full_window(sample)
            assert res.observed_low == sample.values[-1]
            assert res.observed_high == sample.values[0]
            assert res.sigma == sigma_statistic(sample)
            assert res.mu_hill == hill_estimate(sample, len(sample)).mu
            iter5 = solve_iterative(sample, window, ITER5_CONFIG).mu
            direct = improved_estimate(sample, window).mu
            assert res.mu_iter5 == iter5
            assert res.mu_direct == direct

    def test_degenerate_cell_raises_like_one_sample_path(self, monkeypatch):
        # two draws on a domain one float wide: their values or logs tie, or
        # the mean log rounds onto a bound
        spec = DistributionSpec.power(5.0, 3.0, math.nextafter(3.0, 4.0))
        monkeypatch.setitem(TABLE_ROWS, 14, TableRowSpec(14, spec, 2, 5.0, True))
        dist = tabulate(spec)
        for seed in range(1, 6):
            sample = draw(dist, SampleRequest(2, seed))
            window = full_window(sample)
            with pytest.raises(EstimationError) as scalar:
                hill_estimate(sample, 2)
                solve_iterative(sample, window, ITER5_CONFIG)
                improved_estimate(sample, window)
            with pytest.raises(EstimationError) as blocked:
                run_full_table([seed], [2, 14])
            assert type(blocked.value) is type(scalar.value)


class TestSummaries:
    def test_summary_shape(self):
        results = run_full_table([1, 2, 3])
        summaries = summarize_table(results)
        assert [s.row_id for s in summaries] == list(range(1, 14))
        assert all(s.n_seeds == 3 for s in summaries)
        assert all(s.std_mu_hill >= 0.0 for s in summaries)

    def test_single_seed_has_zero_std(self):
        summaries = summarize_table(run_full_table([1]))
        assert all(s.std_mu_iter5 == 0.0 for s in summaries)


class TestCsv:
    def test_table_csv_parses(self):
        text = table_csv(run_full_table([1]))
        lines = text.strip().split("\n")
        assert lines[0] == "row,seed,mu_input,sigma,L,R,mu_hill,mu_iter5,mu_direct"
        assert len(lines) == 14
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 9
            for field in fields:
                float(field)  # every column numeric

    def test_summary_csv_parses(self):
        text = summary_csv(summarize_table(run_full_table([1, 2])))
        lines = text.strip().split("\n")
        assert len(lines) == 14
        for line in lines[1:]:
            for field in line.split(","):
                float(field)

    def test_figure_csv_blank_for_absent(self):
        series = HillPlotSeries(l_values=[2, 3, 4],
                                mu_hill=[1.5, None, 2.0],
                                mu_improved=[None, 0.5, 0.75])
        text = figure_csv(series)
        assert text == ("l,mu_hill,mu_improved\n"
                        "2,1.5,\n"
                        "3,,0.5\n"
                        "4,2.0,0.75\n")


class TestRunFigure:
    def test_unknown_example(self):
        with pytest.raises(ValueError):
            run_figure(13, seed=1)
        # the message the CLI prints for --examples 3
        with pytest.raises(FigureExampleError,
                           match=r"^unknown figure examples \[3\] \(valid: 14\.\.17\)$"):
            run_figure(3, seed=1)

    def test_unknown_ids_listed_up_to_a_hundred_then_as_ranges(self):
        check_table_rows([5, range(1, 14)])
        with pytest.raises(TableRowError) as listed:
            check_table_rows([range(1, 114)])  # 14..113: 100 unknown ids
        assert str(listed.value) == "unknown table rows %s (valid: 1..13)" % list(range(14, 114))
        with pytest.raises(TableRowError) as ranged:
            check_table_rows([range(-5, 2), 20, range(1, 115)])
        assert str(ranged.value) == "unknown table rows [-5..0, 14..114] (valid: 1..13)"

    def test_pade_example_shape(self):
        res = run_figure(14, seed=1)
        assert res.figure_number == 1
        assert res.expected_mu == 4.0
        assert res.series.l_values[0] == 2
        assert res.series.l_values[-1] == res.n_rand
        assert len(res.series) == res.n_rand - 1

    def test_pade_example_tail_behavior(self):
        # improved series settles near 4 while the classical one sits higher
        res = run_figure(14, seed=1)
        tail = slice(len(res.series) - len(res.series) // 10, None)
        improved = [v for v in res.series.mu_improved[tail] if v is not None]
        hill = [v for v in res.series.mu_hill[tail] if v is not None]
        mean_improved = sum(improved) / len(improved)
        mean_hill = sum(hill) / len(hill)
        assert abs(mean_improved - 4.0) < 0.4
        assert mean_hill > mean_improved

    def test_log_corrected_example_sits_below_one(self):
        # ln(x)/x density: the slowly varying numerator drags the effective
        # exponent below 1, which the bounded-domain series tracks while the
        # classical series stays far above
        res = run_figure(16, seed=1)
        ls = res.series.l_values
        late_improved = [v for l, v in zip(ls, res.series.mu_improved)
                         if l > 9000 and v is not None]
        late_hill = [v for l, v in zip(ls, res.series.mu_hill)
                     if l > 9000 and v is not None]
        mean_improved = sum(late_improved) / len(late_improved)
        mean_hill = sum(late_hill) / len(late_hill)
        assert 0.6 < mean_improved < 1.0
        assert mean_hill > 2.0
        assert abs(mean_improved - 1.0) < abs(mean_hill - 1.0)


class TestSvg:
    def test_well_formed_and_complete(self):
        res = run_figure(14, seed=1)
        svg = hill_plot_svg(res.series, res.expected_mu, title="demo")
        root = ET.parse(io.StringIO(svg)).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3

    def test_handles_absent_entries(self):
        series = HillPlotSeries(l_values=[2, 3, 4, 5],
                                mu_hill=[None, 3.0, 2.5, 2.4],
                                mu_improved=[1.0, None, 1.1, 1.05])
        svg = hill_plot_svg(series, expected_mu=1.0)
        ET.parse(io.StringIO(svg))

    def test_points_skip_absent_and_clip_off_scale_entries(self):
        # None entries leave no point, and 1e12, above the 98th percentile,
        # is clipped to the top of the frame (y = 45)
        series = HillPlotSeries(l_values=[2, 3, 4, 5, 6, 7],
                                mu_hill=[1e9, None, 3.0, -1e9, 2.5, None],
                                mu_improved=[None, 2.0, 1e12, None, 2.25, 1.5])
        points = [el.get("points") for el in ET.parse(io.StringIO(
            hill_plot_svg(series, expected_mu=2.0))).getroot().iter()
            if el.tag.endswith("polyline")]
        assert points == [
            "45.00,333.35 555.00,333.35",
            "45.00,333.04 249.00,333.35 351.00,333.66 453.00,333.35",
            "147.00,333.35 249.00,45.00 453.00,333.35 555.00,333.35",
        ]
