"""Benchmark harness: thirteen table scenarios and four plot scenarios.

The table scenarios span the regimes where domain truncation matters: fast
power decay with and without a tight right cut, very slow decay, rational
densities with a delayed asymptotic onset, logarithmic corrections in both
directions, and an increasing density whose exponent is negative.  Each run
draws a seeded sample, then records the whole-sample classical Hill
estimate, the bounded-domain estimate after four fixed-point updates
(mu_iter5) and the directly solved estimate (mu_direct).

The figure scenarios produce full generalized Hill plots (estimate versus
number of included order statistics) for densities whose classical plot is
known to mislead.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass

from .estimator import (
    DEFAULT_CONFIG,
    HillPlotSeries,
    SolverConfig,
    full_window,
    hill_estimate,
    hill_plot_series,
    improved_estimate,
    solve_iterative,
)
from .sampler import DistributionSpec, SampleRequest, draw, sigma_statistic, tabulate

__all__ = [
    "TABLE_ROWS",
    "FIGURE_EXAMPLES",
    "TableRowResult",
    "FigureSeriesResult",
    "RowSummary",
    "TableRowError",
    "run_table_row",
    "run_figure",
    "run_full_table",
    "summarize_table",
    "table_csv",
    "summary_csv",
    "figure_csv",
]

# Four applications of the fixed-point update on top of the Hill seed.
ITER5_CONFIG = SolverConfig(max_iterations=4)

TABLE_CSV_HEADER = "row,seed,mu_input,sigma,L,R,mu_hill,mu_iter5,mu_direct"
FIGURE_CSV_HEADER = "l,mu_hill,mu_improved"


class TableRowError(ValueError):
    """A table row id outside TABLE_ROWS was requested."""


@dataclass(frozen=True)
class TableRowSpec:
    """Registry entry: sampling configuration plus the nominal exponent."""

    row_id: int
    spec: DistributionSpec
    n_rand: int
    mu_input: float
    mu_input_exact: bool  # False where the density is only asymptotically x^-mu


TABLE_ROWS: dict[int, TableRowSpec] = {
    row.row_id: row for row in (
        TableRowSpec(1, DistributionSpec.power(5.0, 3.0, 150.0), 1000, 5.0, True),
        TableRowSpec(2, DistributionSpec.power(5.0, 3.0, 4.0), 1000, 5.0, True),
        TableRowSpec(3, DistributionSpec.power(5.0, 3.0, 4.0), 5000, 5.0, True),
        TableRowSpec(4, DistributionSpec.sqrt_inv(3.0, 150.0), 1000, 0.5, True),
        TableRowSpec(5, DistributionSpec.sqrt_inv(3.0, 1500.0), 1000, 0.5, True),
        TableRowSpec(6, DistributionSpec.sqrt_inv(3.0, 15000.0), 1000, 0.5, True),
        TableRowSpec(7, DistributionSpec.pade14(494.7, 4886.0, 1.0, 2.0), 1000, 4.0, False),
        TableRowSpec(8, DistributionSpec.pade14(494.7, 4886.0, 1.0, 5.0), 1000, 4.0, False),
        TableRowSpec(9, DistributionSpec.log_over_x(100.0, 400.0), 1000, 1.0, False),
        # The printed source for row 10 lists an observed maximum above its
        # own domain cut; the registry keeps the printed [2000, 5000] domain.
        TableRowSpec(10, DistributionSpec.log_over_x(2000.0, 5000.0), 1000, 1.0, False),
        TableRowSpec(11, DistributionSpec.inv_xlogx(8000.0, 10000.0), 5000, 1.0, False),
        TableRowSpec(12, DistributionSpec.inv_xlogx(3000.0, 6000.0), 5000, 1.0, False),
        TableRowSpec(13, DistributionSpec.power_growth(3.5, 3.0, 10000.0), 1000, -3.5, True),
    )
}


@dataclass(frozen=True)
class FigureSpec:
    """Registry entry for one generalized Hill plot scenario."""

    example_id: int
    figure_number: int
    spec: DistributionSpec
    n_rand: int
    expected_mu: float


FIGURE_EXAMPLES: dict[int, FigureSpec] = {
    fig.example_id: fig for fig in (
        FigureSpec(14, 1, DistributionSpec.pade14(494.7, 4886.0, 1.0, 3.0), 2000, 4.0),
        FigureSpec(15, 2, DistributionSpec.two_power(3.0, 4.0, 1.0, 2.5, 10.0, 30.0), 10000, 2.5),
        FigureSpec(16, 3, DistributionSpec.log_over_x(100.0, 400.0), 10000, 1.0),
        FigureSpec(17, 4, DistributionSpec.sqrt_inv(3.0, 1500.0), 10000, 0.5),
    )
}


@dataclass(frozen=True)
class TableRowResult:
    row_id: int
    seed: int
    spec: DistributionSpec
    n_rand: int
    observed_low: float   # smallest draw
    observed_high: float  # largest draw
    sigma: float
    mu_input: float
    mu_input_exact: bool
    mu_hill: float
    mu_iter5: float
    mu_direct: float


@dataclass(frozen=True)
class FigureSeriesResult:
    example_id: int
    figure_number: int
    spec: DistributionSpec
    n_rand: int
    seed: int
    expected_mu: float
    series: HillPlotSeries


@dataclass(frozen=True)
class RowSummary:
    """Across-seed mean and standard deviation for one table row."""

    row_id: int
    mu_input: float
    n_seeds: int
    mean_mu_hill: float
    std_mu_hill: float
    mean_mu_iter5: float
    std_mu_iter5: float
    mean_mu_direct: float
    std_mu_direct: float


def _run_row(entry: TableRowSpec, dist, seed: int) -> TableRowResult:
    sample = draw(dist, SampleRequest(n=entry.n_rand, seed=seed))
    window = full_window(sample)
    hill = hill_estimate(sample, len(sample))
    iter5 = solve_iterative(sample, window, ITER5_CONFIG)
    direct = improved_estimate(sample, window, DEFAULT_CONFIG)
    return TableRowResult(
        row_id=entry.row_id,
        seed=seed,
        spec=entry.spec,
        n_rand=entry.n_rand,
        observed_low=float(sample.values[-1]),
        observed_high=float(sample.values[0]),
        sigma=sigma_statistic(sample),
        mu_input=entry.mu_input,
        mu_input_exact=entry.mu_input_exact,
        mu_hill=hill.mu,
        mu_iter5=iter5.mu,
        mu_direct=direct.mu,
    )


def run_table_row(row_id: int, seed: int) -> TableRowResult:
    """Run one table scenario with the given seed."""
    return run_full_table([seed], [row_id])[0]


def run_full_table(seeds: list[int],
                   rows: Sequence[int] = tuple(TABLE_ROWS)) -> list[TableRowResult]:
    """Run the given table rows (default all 13) for every seed.

    Results are ordered by row, then seed, each in the order given.  Each
    row's grid is tabulated once and reused across its seeds.  Unknown row
    ids raise TableRowError before any work is done.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    bad = [row_id for row_id in rows if row_id not in TABLE_ROWS]
    if bad:
        raise TableRowError("unknown table rows %s (valid: 1..13)" % bad)
    results = []
    for row_id in rows:
        entry = TABLE_ROWS[row_id]
        dist = tabulate(entry.spec)
        for seed in seeds:
            results.append(_run_row(entry, dist, seed))
    return results


def run_figure(example_id: int, seed: int,
               config: SolverConfig = DEFAULT_CONFIG) -> FigureSeriesResult:
    """Run one plot scenario: draw the sample and build the full series (r = 1)."""
    if example_id not in FIGURE_EXAMPLES:
        raise ValueError("unknown figure example %r (valid: 14..17)" % example_id)
    fig = FIGURE_EXAMPLES[example_id]
    dist = tabulate(fig.spec)
    sample = draw(dist, SampleRequest(n=fig.n_rand, seed=seed))
    series = hill_plot_series(sample, r=1, config=config)
    return FigureSeriesResult(
        example_id=example_id,
        figure_number=fig.figure_number,
        spec=fig.spec,
        n_rand=fig.n_rand,
        seed=seed,
        expected_mu=fig.expected_mu,
        series=series,
    )


def summarize_table(results: list[TableRowResult]) -> list[RowSummary]:
    """Per-row across-seed mean/std of the three estimates."""
    by_row: dict[int, list[TableRowResult]] = {}
    for res in results:
        by_row.setdefault(res.row_id, []).append(res)

    def stats(values: list[float]) -> tuple[float, float]:
        if len(values) == 1:
            return values[0], 0.0
        return statistics.fmean(values), statistics.stdev(values)

    summaries = []
    for row_id in sorted(by_row):
        group = by_row[row_id]
        mh, sh = stats([g.mu_hill for g in group])
        mi, si = stats([g.mu_iter5 for g in group])
        md, sd = stats([g.mu_direct for g in group])
        summaries.append(RowSummary(
            row_id=row_id,
            mu_input=group[0].mu_input,
            n_seeds=len(group),
            mean_mu_hill=mh, std_mu_hill=sh,
            mean_mu_iter5=mi, std_mu_iter5=si,
            mean_mu_direct=md, std_mu_direct=sd,
        ))
    return summaries


# --------------------------------------------------------------------------
# CSV emission.  Numbers are written with Python's shortest round-trip
# representation; absent series entries become empty fields.


def table_csv(results: list[TableRowResult]) -> str:
    lines = [TABLE_CSV_HEADER]
    for r in results:
        lines.append(",".join(str(v) for v in (
            r.row_id, r.seed, r.mu_input, r.sigma,
            r.observed_low, r.observed_high,
            r.mu_hill, r.mu_iter5, r.mu_direct)))
    return "\n".join(lines) + "\n"


def summary_csv(summaries: list[RowSummary]) -> str:
    header = ("row,mu_input,n_seeds,mean_mu_hill,std_mu_hill,"
              "mean_mu_iter5,std_mu_iter5,mean_mu_direct,std_mu_direct")
    lines = [header]
    for s in summaries:
        lines.append(",".join(str(v) for v in (
            s.row_id, s.mu_input, s.n_seeds,
            s.mean_mu_hill, s.std_mu_hill,
            s.mean_mu_iter5, s.std_mu_iter5,
            s.mean_mu_direct, s.std_mu_direct)))
    return "\n".join(lines) + "\n"


def figure_csv(series: HillPlotSeries) -> str:
    lines = [FIGURE_CSV_HEADER]
    for l, mh, mi in zip(series.l_values, series.mu_hill, series.mu_improved):
        lines.append("%d,%s,%s" % (
            l,
            "" if mh is None else str(mh),
            "" if mi is None else str(mi)))
    return "\n".join(lines) + "\n"
