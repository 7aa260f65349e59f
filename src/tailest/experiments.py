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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .estimator import (
    DEFAULT_CONFIG,
    HillPlotSeries,
    SolverConfig,
    full_window_estimates,
    hill_plot_series,
)
from .sampler import DistributionSpec, SampleRequest, draw, draw_block, tabulate

__all__ = [
    "TABLE_ROWS",
    "FIGURE_EXAMPLES",
    "TableRowResult",
    "FigureSeriesResult",
    "RowSummary",
    "TableRowError",
    "FigureExampleError",
    "check_table_rows",
    "check_figure_examples",
    "merge_ranges",
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


class FigureExampleError(ValueError):
    """A figure example id outside FIGURE_EXAMPLES was requested."""


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


# An error message lists at most this many unknown ids one by one; beyond
# that it gives them as ranges "a..b".
_LISTED_IDS = 100


def merge_ranges(ranges: Iterable[range]) -> list[range]:
    """The ids of step-1 ranges as sorted ranges that neither overlap nor touch."""
    merged: list[range] = []
    for part in sorted(ranges, key=lambda part: part.start):
        if merged and part.start <= merged[-1].stop:
            merged[-1] = range(merged[-1].start, max(merged[-1].stop, part.stop))
        else:
            merged.append(part)
    return merged


def _check_ids(ids: Iterable[int | range], registry: dict, what: str,
               error: type[ValueError]) -> None:
    """Raise error naming every id in ids (ints or step-1 ranges) not in registry.

    Registry ids are contiguous, so the unknown part of a range is found from
    its ends: a range of 10^8 ids costs no more than one id.
    """
    first, last = min(registry), max(registry)
    bad = []
    for part in ids:
        if isinstance(part, int):
            part = range(part, part + 1)
        bad += [piece for piece in (range(part.start, min(part.stop, first)),
                                    range(max(part.start, last + 1), part.stop))
                if piece.start < piece.stop]
    if not bad:
        return
    merged = merge_ranges(bad)
    if sum(piece.stop - piece.start for piece in merged) <= _LISTED_IDS:
        shown = str([i for piece in merged for i in piece])
    else:
        shown = "[%s]" % ", ".join(
            "%d..%d" % (piece.start, piece.stop - 1) if piece.stop - piece.start > 1
            else "%d" % piece.start for piece in merged)
    raise error("unknown %s %s (valid: %d..%d)" % (what, shown, first, last))


def check_table_rows(ids: Iterable[int | range]) -> None:
    """Raise TableRowError naming the ids (ints or ranges) that are not table rows."""
    _check_ids(ids, TABLE_ROWS, "table rows", TableRowError)


def check_figure_examples(ids: Iterable[int | range]) -> None:
    """Raise FigureExampleError naming the ids (ints or ranges) that are not figures."""
    _check_ids(ids, FIGURE_EXAMPLES, "figure examples", FigureExampleError)


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


def run_table_row(row_id: int, seed: int) -> TableRowResult:
    """Run one table scenario with the given seed."""
    return run_full_table([seed], [row_id])[0]


# Draws per block of seeds that run_full_table maps and sorts together.
# Each block-sized array costs 128 KB.  A whole row at once (100 seeds of
# 5000 draws) doubled the command's peak memory; larger blocks than this
# were no faster, since the solves run once over the whole table.
_BLOCK_VALUES = 1 << 14


def run_full_table(seeds: Sequence[int],
                   rows: Sequence[int] = tuple(TABLE_ROWS)) -> list[TableRowResult]:
    """Run the given table rows (default all 13) for every seed.

    Results are ordered by row, then seed, each in the order given.  Each
    row's grid is tabulated once, and its seeds are drawn in blocks of up
    to 2^14 values: :func:`draw_block` gives every seed the sample ``draw``
    would (each seed keeps its own generator, and since a draw depends on
    its own uniform alone and the sample is sorted anyway, mapping the
    uniforms in sorted order leaves it unchanged).
    :func:`full_window_estimates` reduces each block as it is drawn and then
    solves every cell of the table at once.  No cell depends on the cells
    beside it: sigma, L, R, mu_hill, mu_iter5 and mu_direct are
    bit-identical to the one-sample estimators, whose roots the same Newton
    loop solves.  A cell those estimators reject raises their EstimationError
    subclass, for the first such cell by row, then seed.  Unknown row ids
    raise TableRowError before any work is done.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    check_table_rows(rows)
    entries = [TABLE_ROWS[row_id] for row_id in rows]
    low, high, sigma, mu_hill, mu_iter5, mu_direct = (
        column.tolist()
        for column in full_window_estimates(_draw_blocks(entries, seeds), ITER5_CONFIG))
    cells = ((entry, seed) for entry in entries for seed in seeds)
    return [
        TableRowResult(
            row_id=entry.row_id,
            seed=seed,
            spec=entry.spec,
            n_rand=entry.n_rand,
            observed_low=low[i],
            observed_high=high[i],
            sigma=sigma[i],
            mu_input=entry.mu_input,
            mu_input_exact=entry.mu_input_exact,
            mu_hill=mu_hill[i],
            mu_iter5=mu_iter5[i],
            mu_direct=mu_direct[i],
        )
        for i, (entry, seed) in enumerate(cells)
    ]


def _draw_blocks(entries: Sequence[TableRowSpec], seeds: Sequence[int]) -> Iterator[np.ndarray]:
    """Every entry's samples for the seeds, in order, in blocks of at most
    _BLOCK_VALUES draws (or one seed); each entry's grid is tabulated once."""
    for entry in entries:
        dist = tabulate(entry.spec)
        per_block = max(1, _BLOCK_VALUES // entry.n_rand)
        for start in range(0, len(seeds), per_block):
            yield draw_block(dist, entry.n_rand, seeds[start:start + per_block])


def run_figure(example_id: int, seed: int,
               config: SolverConfig = DEFAULT_CONFIG) -> FigureSeriesResult:
    """Run one plot scenario: draw the sample and build the full series (r = 1)."""
    check_figure_examples([example_id])
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
