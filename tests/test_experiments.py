import csv
import io
import math
import statistics
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tailest import experiments, svgplot
from tailest.estimator import (
    EstimationError,
    HillPlotSeries,
    full_window,
    hill_estimate,
    improved_estimate,
    solve_iterative,
)
from tailest.experiments import (
    FIGURE_EXAMPLES,
    ITER5_MAX_ITERATIONS,
    TABLE_ROWS,
    FigureExampleError,
    TableRowError,
    TableRowSpec,
    check_table_rows,
    figure_csv,
    run_figure,
    run_full_table,
    summarize_table,
    table_csv,
)
from tailest.sampler import DistributionSpec, draw, sigma_statistic, tabulate
from tailest.svgplot import hill_plot_svg


def _series(l_values, mu_hill, mu_improved):
    """A HillPlotSeries of the given entries, as the sweep's array types."""
    return HillPlotSeries(np.array(l_values, dtype=np.int64), np.array(mu_hill, dtype=float),
                          np.array(mu_improved, dtype=float))


def _cells(table):
    """The table's cells in order, each a dict of its column values."""
    return [dict(zip(table, values)) for values in zip(*table.values())]


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
            run_full_table([1], [0])
        with pytest.raises(ValueError):
            run_full_table([1], [14])

    def test_deterministic(self):
        a = run_full_table([3], [4])
        b = run_full_table([3], [4])
        assert a == b

    def test_observed_bounds_inside_domain(self):
        for row_id in (1, 7, 13):
            res = _cells(run_full_table([1], [row_id]))[0]
            assert res["L"] >= TABLE_ROWS[row_id].spec.d_low
            assert res["R"] <= TABLE_ROWS[row_id].spec.d_high

    def test_tight_cut_breaks_hill_not_improved(self):
        # x^-5 restricted to [3, 4]: the classical estimate roughly doubles
        # while the bounded-domain one stays near 5
        res = _cells(run_full_table([1], [2]))[0]
        assert res["mu_hill"] > 7.0
        assert abs(res["mu_iter5"] - 5.0) < 1.0

    def test_wide_domain_both_work(self):
        res = _cells(run_full_table([1], [1]))[0]
        assert abs(res["mu_hill"] - 5.0) < 0.5
        assert abs(res["mu_iter5"] - 5.0) < 0.5
        assert abs(res["mu_hill"] - res["mu_iter5"]) < 0.1

    def test_increasing_density_sign(self):
        res = _cells(run_full_table([1], [13]))[0]
        assert res["mu_hill"] > 0.0
        assert res["mu_iter5"] < 0.0
        assert abs(res["mu_iter5"] - (-3.5)) < 0.5

    def test_iter5_close_to_direct_when_converged(self):
        for row_id in sorted(TABLE_ROWS):
            res = _cells(run_full_table([2], [row_id]))[0]
            entry = TABLE_ROWS[row_id]
            sample = draw(tabulate(entry.spec), entry.n_rand, 2)
            capped = solve_iterative(sample, full_window(sample), ITER5_MAX_ITERATIONS)
            if capped.converged:
                assert abs(res["mu_iter5"] - res["mu_direct"]) < 1e-3

    def test_uncapped_iteration_matches_direct(self):
        for row_id in sorted(TABLE_ROWS):
            entry = TABLE_ROWS[row_id]
            sample = draw(tabulate(entry.spec), entry.n_rand, 1)
            res = solve_iterative(sample, full_window(sample), max_iterations=100)
            direct = run_full_table([1], [row_id])["mu_direct"][0]
            if res.converged:
                assert abs(res.mu - direct) < 1e-6


class TestRunFullTable:
    def test_counts_and_order(self):
        table = run_full_table([1, 2])
        assert list(table) == ["row", "seed", "mu_input", "sigma", "L", "R",
                               "mu_hill", "mu_iter5", "mu_direct"]
        assert all(len(column) == 26 for column in table.values())
        keys = list(zip(table["row"], table["seed"]))
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
        table = run_full_table(seeds)
        assert list(zip(table["row"], table["seed"])) == [
            (row, seed) for row in TABLE_ROWS for seed in seeds]
        for res in _cells(table):
            assert res == _cells(run_full_table([res["seed"]], [res["row"]]))[0]

    def test_matches_one_sample_estimators(self):
        # the per-cell calls the runner used to make: same draws, sigma, Hill
        # and both solvers bit for bit
        for res in _cells(run_full_table(range(1, 6))):
            entry = TABLE_ROWS[res["row"]]
            sample = draw(tabulate(entry.spec), entry.n_rand, res["seed"])
            window = full_window(sample)
            assert res["L"] == sample.values[-1]
            assert res["R"] == sample.values[0]
            assert res["sigma"] == sigma_statistic(sample)
            assert res["mu_hill"] == hill_estimate(sample, len(sample)).mu
            iter5 = solve_iterative(sample, window, ITER5_MAX_ITERATIONS).mu
            direct = improved_estimate(sample, window).mu
            assert res["mu_iter5"] == iter5
            assert res["mu_direct"] == direct

    def test_degenerate_cell_raises_like_one_sample_path(self, monkeypatch):
        # two draws on a domain one float wide: their values or logs tie, or
        # the mean log rounds onto a bound
        spec = DistributionSpec.of("power", 3.0, math.nextafter(3.0, 4.0), mu=5.0)
        monkeypatch.setitem(TABLE_ROWS, 14, TableRowSpec(14, spec, 2, 5.0))
        dist = tabulate(spec)
        for seed in range(1, 6):
            sample = draw(dist, 2, seed)
            window = full_window(sample)
            with pytest.raises(EstimationError) as scalar:
                hill_estimate(sample, 2)
                solve_iterative(sample, window, ITER5_MAX_ITERATIONS)
                improved_estimate(sample, window)
            with pytest.raises(EstimationError) as blocked:
                run_full_table([seed], [2, 14])
            assert type(blocked.value) is type(scalar.value)
            assert str(blocked.value).startswith("table row 14, seed %d: " % seed)


    def test_shared_draw_passes_across_block_boundaries(self, monkeypatch):
        # a block of 2,500 draws holds 2 seeds of a 1000-draw row and 1 of a
        # 5000-draw row, so each pass (rows 13, 1, 2 and rows 3, 11) spans
        # several seed blocks
        monkeypatch.setattr(experiments, "_BLOCK_VALUES", 2500)
        rows, seeds = [13, 3, 1, 11, 2], range(1, 8)
        table = run_full_table(seeds, rows)
        assert list(zip(table["row"], table["seed"])) == [
            (row, seed) for row in rows for seed in seeds]
        for res in _cells(table):
            entry = TABLE_ROWS[res["row"]]
            sample = draw(tabulate(entry.spec), entry.n_rand, res["seed"])
            window = full_window(sample)
            assert (res["L"], res["R"]) == (sample.values[-1], sample.values[0])
            assert res["sigma"] == sigma_statistic(sample)
            assert res["mu_hill"] == hill_estimate(sample, len(sample)).mu
            assert res["mu_iter5"] == solve_iterative(sample, window, ITER5_MAX_ITERATIONS).mu
            assert res["mu_direct"] == improved_estimate(sample, window).mu

    def test_first_failure_by_row_then_seed_across_passes(self, monkeypatch):
        # rows 16 and 14 draw 2 values and share a pass, read before row 15's
        # 3 draws; with one seed a block, the draws are read in the order
        # (16, 6), (14, 6), (16, 4), (14, 4), ...  On a domain one float wide
        # 14 fails at seeds 4 and 5 and 15 at 4, 5 and 7, neither at 6, so the
        # first failure read is (14, 4), the 4th cell by row, then seed, is
        # (15, 6), and the first failure by row, then seed, is (15, 4)
        narrow = DistributionSpec.of("power", 3.0, math.nextafter(3.0, 4.0), mu=5.0)
        wide = DistributionSpec.of("power", 3.0, 150.0, mu=5.0)
        monkeypatch.setitem(TABLE_ROWS, 14, TableRowSpec(14, narrow, 2, 5.0))
        monkeypatch.setitem(TABLE_ROWS, 15, TableRowSpec(15, narrow, 3, 5.0))
        monkeypatch.setitem(TABLE_ROWS, 16, TableRowSpec(16, wide, 2, 5.0))
        monkeypatch.setattr(experiments, "_BLOCK_VALUES", 3)
        sample = draw(tabulate(narrow), 3, 4)
        with pytest.raises(EstimationError) as scalar:
            hill_estimate(sample, 3)
            solve_iterative(sample, full_window(sample), ITER5_MAX_ITERATIONS)
            improved_estimate(sample, full_window(sample))
        with pytest.raises(EstimationError) as blocked:
            run_full_table([6, 4, 5], [16, 15, 14])
        assert type(blocked.value) is type(scalar.value)
        assert str(blocked.value).startswith("table row 15, seed 4: ")


class TestSummaries:
    def test_summary_shape(self):
        summary = summarize_table(run_full_table([1, 2, 3]))
        assert summary["row"] == list(range(1, 14))
        assert all(n == 3 for n in summary["n_seeds"])
        assert all(std >= 0.0 for std in summary["std_mu_hill"])

    def test_single_seed_has_zero_std(self):
        summary = summarize_table(run_full_table([1]))
        assert all(std == 0.0 for std in summary["std_mu_iter5"])

    def test_repeated_and_unsorted_rows_are_merged(self):
        # row 2 given twice, before row 1: its six cells make one summary row
        table = run_full_table([1, 2, 3], [2, 1, 2])
        summary = summarize_table(table)
        assert summary["row"] == [1, 2]
        assert summary["n_seeds"] == [3, 6]
        for i, row_id in enumerate(summary["row"]):
            for name in ("mu_hill", "mu_iter5", "mu_direct"):
                cells = [v for row, v in zip(table["row"], table[name]) if row == row_id]
                assert summary["mean_" + name][i] == statistics.fmean(cells)
                assert summary["std_" + name][i] == statistics.stdev(cells)


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
        text = table_csv(summarize_table(run_full_table([1, 2])))
        lines = text.strip().split("\n")
        assert len(lines) == 14
        for line in lines[1:]:
            for field in line.split(","):
                float(field)

    def test_figure_csv_blank_for_absent(self):
        series = _series([2, 3, 4], [1.5, math.nan, 2.0], [math.nan, 0.5, 0.75])
        text = figure_csv(series)
        assert text == ("l,mu_hill,mu_improved\n"
                        "2,1.5,\n"
                        "3,,0.5\n"
                        "4,2.0,0.75\n")


    @staticmethod
    def _report(name):
        """A report's text and the columns its runner returned."""
        if name == "figure":
            series = run_figure(17, seed=1)
            return figure_csv(series), {"l": series.l_values.tolist(),
                                        "mu_hill": series.mu_hill.tolist(),
                                        "mu_improved": series.mu_improved.tolist()}
        table = run_full_table([1, 2, 3], [13, 2, 13])  # row 13's mu is negative
        if name == "table":
            # the runner's float columns are arrays: compare Python floats
            return table_csv(table), {key: column.tolist() if isinstance(column, np.ndarray)
                                      else column for key, column in table.items()}
        summary = summarize_table(table)
        return table_csv(summary), summary

    @pytest.mark.parametrize("name", ["table", "summary", "figure"])
    def test_report_parses_back_to_runner_values(self, name):
        text, columns = self._report(name)
        header, *rows = csv.reader(io.StringIO(text))
        assert header == list(columns)

        def parse(field):
            if field == "":
                return math.nan
            return int(field) if field.lstrip("-").isdigit() else float(field)

        def typed(column):
            # NaN != NaN, so a blank compares as its type and the text "nan"
            return [(type(v), "nan" if v != v else v) for v in column]

        parsed = [[parse(field) for field in column] for column in zip(*rows)]
        assert [typed(column) for column in parsed] == [
            typed(column) for column in columns.values()]


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
        fig = FIGURE_EXAMPLES[14]
        series = run_figure(14, seed=1)
        assert fig.figure_number == 1
        assert fig.expected_mu == 4.0
        assert series.l_values[0] == 2
        assert series.l_values[-1] == fig.n_rand
        assert len(series) == fig.n_rand - 1

    def test_pade_example_tail_behavior(self):
        # improved series settles near 4 while the classical one sits higher
        series = run_figure(14, seed=1)
        tail = slice(len(series) - len(series) // 10, None)
        mean_improved = np.nanmean(series.mu_improved[tail])
        mean_hill = np.nanmean(series.mu_hill[tail])
        assert abs(mean_improved - 4.0) < 0.4
        assert mean_hill > mean_improved

    def test_log_corrected_example_sits_below_one(self):
        # ln(x)/x density: the slowly varying numerator drags the effective
        # exponent below 1, which the bounded-domain series tracks while the
        # classical series stays far above
        series = run_figure(16, seed=1)
        late = series.l_values > 9000
        mean_improved = np.nanmean(series.mu_improved[late])
        mean_hill = np.nanmean(series.mu_hill[late])
        assert 0.6 < mean_improved < 1.0
        assert mean_hill > 2.0
        assert abs(mean_improved - 1.0) < abs(mean_hill - 1.0)


class TestSvg:
    def test_well_formed_and_complete(self):
        svg = hill_plot_svg(run_figure(14, seed=1), FIGURE_EXAMPLES[14].expected_mu,
                            title="demo")
        root = ET.parse(io.StringIO(svg)).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3

    def test_handles_absent_entries(self):
        series = _series([2, 3, 4, 5], [math.nan, 3.0, 2.5, 2.4], [1.0, math.nan, 1.1, 1.05])
        svg = hill_plot_svg(series, expected_mu=1.0)
        ET.parse(io.StringIO(svg))

    def test_points_skip_absent_and_clip_off_scale_entries(self):
        # NaN entries leave no point, and 1e12, above the 98th percentile,
        # is clipped to the top of the frame (y = 45)
        series = _series([2, 3, 4, 5, 6, 7], [1e9, math.nan, 3.0, -1e9, 2.5, math.nan],
                         [math.nan, 2.0, 1e12, math.nan, 2.25, 1.5])
        points = [el.get("points") for el in ET.parse(io.StringIO(
            hill_plot_svg(series, expected_mu=2.0))).getroot().iter()
            if el.tag.endswith("polyline")]
        assert points == [
            "45.00,333.35 555.00,333.35",
            "45.00,333.04 249.00,333.35 351.00,333.66 453.00,333.35",
            "147.00,333.35 249.00,45.00 453.00,333.35 555.00,333.35",
        ]

    @staticmethod
    def _per_point(xs, ys):
        """The formatter the byte kernel replaced: one "%.2f" per coordinate."""
        xs = np.asarray(xs, dtype=float).tolist()
        ys = np.asarray(ys, dtype=float).tolist()
        return " ".join(["%.2f,%.2f" % point for point in zip(xs, ys)])

    def test_matches_per_point_formatter(self, monkeypatch):
        cases = [(run_figure(example, seed=1), FIGURE_EXAMPLES[example].expected_mu)
                 for example in (14, 15, 16, 17)]
        cases += [
            (_series([2, 3, 4, 5], [math.nan, 3.0, 2.5, 2.4], [1.0, math.nan, 1.1, 1.05]), 1.0),
            (_series([2, 3, 4, 5, 6, 7], [1e9, math.nan, 3.0, -1e9, 2.5, math.nan],
                     [math.nan, 2.0, 1e12, math.nan, 2.25, 1.5]), 2.0),
        ]
        kernel = [hill_plot_svg(series, mu, title="t") for series, mu in cases]
        monkeypatch.setattr(svgplot, "_format_points", self._per_point)
        for (series, mu), text in zip(cases, kernel):
            assert hill_plot_svg(series, mu, title="t") == text

    @staticmethod
    def _sorted_list_percentile(values, q):
        """The percentile the selection replaced: read off a sorted list."""
        ordered = sorted(np.asarray(values, dtype=float).tolist())
        if not ordered:
            return 0.0
        pos = q * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def test_percentile_matches_sorted_list(self):
        rng = np.random.default_rng(61)
        cases = [[], [2.5], [3.0, -1.0], [1.0] * 7 + [2.0] * 5]
        cases += [rng.standard_cauchy(size) for size in (3, 50, 51, 1001, 64000)]
        cases += [np.round(rng.normal(size=5000), 1)]  # many ties
        for values in cases:
            for q in (0.0, 0.02, 0.5, 0.98, 1.0):
                got = svgplot._percentile(np.asarray(values, dtype=float), q)
                assert got == self._sorted_list_percentile(values, q)
                assert type(got) is float
