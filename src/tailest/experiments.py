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
known to mislead.  Each report is a dict of its CSV columns keyed by the
header names, and one writer, ``_csv_pieces``, writes them all piecewise.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .estimator import HillPlotSeries, full_window_estimates, hill_plot_series
from .sampler import DistributionSpec, SeedStreams, _draw_grids, draw, tabulate

__all__ = [
    "TABLE_ROWS",
    "FIGURE_EXAMPLES",
    "TableRowError",
    "FigureExampleError",
    "check_table_rows",
    "check_figure_examples",
    "merge_ranges",
    "run_figure",
    "run_full_table",
    "summarize_table",
    "table_csv",
    "figure_csv",
]

# Four applications of the fixed-point update on top of the Hill seed.
ITER5_MAX_ITERATIONS = 4


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


TABLE_ROWS: dict[int, TableRowSpec] = {
    row.row_id: row for row in (
        TableRowSpec(1, DistributionSpec.of("power", 3.0, 150.0, mu=5.0), 1000, 5.0),
        TableRowSpec(2, DistributionSpec.of("power", 3.0, 4.0, mu=5.0), 1000, 5.0),
        TableRowSpec(3, DistributionSpec.of("power", 3.0, 4.0, mu=5.0), 5000, 5.0),
        TableRowSpec(4, DistributionSpec.of("sqrt_inv", 3.0, 150.0), 1000, 0.5),
        TableRowSpec(5, DistributionSpec.of("sqrt_inv", 3.0, 1500.0), 1000, 0.5),
        TableRowSpec(6, DistributionSpec.of("sqrt_inv", 3.0, 15000.0), 1000, 0.5),
        TableRowSpec(7, DistributionSpec.of("pade14", 1.0, 2.0, p2=494.7, p4=4886.0), 1000, 4.0),
        TableRowSpec(8, DistributionSpec.of("pade14", 1.0, 5.0, p2=494.7, p4=4886.0), 1000, 4.0),
        TableRowSpec(9, DistributionSpec.of("log_over_x", 100.0, 400.0), 1000, 1.0),
        # The printed source for row 10 lists an observed maximum above its
        # own domain cut; the registry keeps the printed [2000, 5000] domain.
        TableRowSpec(10, DistributionSpec.of("log_over_x", 2000.0, 5000.0), 1000, 1.0),
        TableRowSpec(11, DistributionSpec.of("inv_xlogx", 8000.0, 10000.0), 5000, 1.0),
        TableRowSpec(12, DistributionSpec.of("inv_xlogx", 3000.0, 6000.0), 5000, 1.0),
        TableRowSpec(13, DistributionSpec.of("power_growth", 3.0, 10000.0, exponent=3.5),
                     1000, -3.5),
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
        FigureSpec(14, 1, DistributionSpec.of("pade14", 1.0, 3.0, p2=494.7, p4=4886.0),
                   2000, 4.0),
        FigureSpec(15, 2, DistributionSpec.of("two_power", 10.0, 30.0,
                                              a1=3.0, mu1=4.0, a2=1.0, mu2=2.5), 10000, 2.5),
        FigureSpec(16, 3, DistributionSpec.of("log_over_x", 100.0, 400.0), 10000, 1.0),
        FigureSpec(17, 4, DistributionSpec.of("sqrt_inv", 3.0, 1500.0), 10000, 0.5),
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


# Draws per block of seeds that run_full_table maps and sorts together.
# Each block-sized array costs 128 KB.  A whole row at once (100 seeds of
# 5000 draws) doubled the command's peak memory; larger blocks than this
# were no faster, since the solves run once over the whole table.
_BLOCK_VALUES = 1 << 14

# Grids that share one fill and sort of each seed block's uniforms.  Each
# grid alive costs about 384 KB.  run_full_table over 100 seeds, all 13
# rows, took 0.085 s with 1 grid a pass, 0.064-0.069 s with 3 for 0.9 MB
# more peak, no less with 4 for 1.2 MB, and 0.062-0.065 s with all 10 rows
# of 1000 draws for 3.5 MB (in process, 2-core Xeon).
_SHARED_GRIDS = 3


def run_full_table(seeds: Sequence[int],
                   rows: Sequence[int] = tuple(TABLE_ROWS)) -> dict[str, Sequence]:
    """The columns of ``table.csv`` for the given rows (default all 13) and seeds.

    Each column is keyed by its header name ("L" and "R" are the smallest
    and largest draw), with one entry per cell, ordered by row, then seed,
    each in the order given: sigma to mu_direct are float64 arrays, the
    others lists of Python ints or floats (a seed may exceed 2^63).  Each
    seed's generator is seeded once (:class:`SeedStreams`) and replayed for
    every row.  Seed s gives the same uniforms to every row that draws the
    same number of values, so the rows are drawn in passes of up to three
    rows with the same n (10 of the 13 rows draw 1000, 3 draw 5000): each
    pass tabulates its rows' grids once, and fills and sorts each block of
    up to 2^14 uniforms once, then maps it through every grid of the pass,
    which gives every seed the sample ``draw`` would, bit for bit.  At
    most three grids are alive at once; on all 13 rows this took ``table
    --seeds 1-2000`` from 2.24 to 1.88 s (medians of 10 fresh processes
    each, 2-core Xeon) for 0.5 MB more peak memory.
    :func:`full_window_estimates` reduces each block as it is drawn, puts
    the cells back in order by row, then seed, and then solves every cell
    of the table at once.  No cell depends on the cells beside it: those
    six columns are bit-identical to the one-sample estimators, whose roots
    the same Newton loop solves.  A cell those estimators reject raises
    their EstimationError subclass, for the first such cell by row, then
    seed, naming it as "table row R, seed S".
    Unknown row ids raise TableRowError before any work is done.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    check_table_rows(rows)
    entries = [TABLE_ROWS[row_id] for row_id in rows]
    passes = _draw_passes(entries)

    def cell(i: int) -> str:
        return "table row %d, seed %d" % (
            entries[i // len(seeds)].row_id, seeds[i % len(seeds)])

    low, high, sigma, mu_hill, mu_iter5, mu_direct = full_window_estimates(
        _draw_blocks(entries, passes, SeedStreams(seeds)), ITER5_MAX_ITERATIONS,
        name=cell, order=_read_order(entries, passes, len(seeds)))
    return {
        "row": [entry.row_id for entry in entries for _ in seeds],
        "seed": [seed for _ in entries for seed in seeds],
        "mu_input": [entry.mu_input for entry in entries for _ in seeds],
        "sigma": sigma, "L": low, "R": high,
        "mu_hill": mu_hill, "mu_iter5": mu_iter5, "mu_direct": mu_direct,
    }


def _draw_passes(entries: Sequence[TableRowSpec]) -> list[list[int]]:
    """The indices of the entries, grouped by n_rand in the order the entries
    are given and cut into passes of at most _SHARED_GRIDS."""
    groups: dict[int, list[int]] = {}
    for i, entry in enumerate(entries):
        groups.setdefault(entry.n_rand, []).append(i)
    return [group[start:start + _SHARED_GRIDS] for group in groups.values()
            for start in range(0, len(group), _SHARED_GRIDS)]


def _per_block(n: int) -> int:
    """Seeds per block of a row that draws n values: _BLOCK_VALUES draws, or one seed."""
    return max(1, _BLOCK_VALUES // n)


def _draw_blocks(entries: Sequence[TableRowSpec], passes: Sequence[Sequence[int]],
                 streams: SeedStreams) -> Iterator[np.ndarray]:
    """The samples of every entry for the seeds, by pass, then seed block,
    then entry of the pass; each entry's grid is tabulated once."""
    for indices in passes:
        n = entries[indices[0]].n_rand
        dists, per_block = [tabulate(entries[i].spec) for i in indices], _per_block(n)
        for start in range(0, len(streams), per_block):
            yield from _draw_grids(dists, n, streams[start:start + per_block])
        del dists  # the next pass's grids replace these, never join them


def _read_order(entries: Sequence[TableRowSpec], passes: Sequence[Sequence[int]],
                n_seeds: int) -> np.ndarray:
    """For each cell, by entry, then seed, the place of its sample among
    those _draw_blocks yields."""
    order = np.empty(len(entries) * n_seeds, dtype=np.intp)
    seed = np.arange(n_seeds)
    read = 0  # samples yielded by the passes before
    for indices in passes:
        per_block = _per_block(entries[indices[0]].n_rand)
        start = seed - seed % per_block  # the first seed of each seed's block
        # the blocks before a seed's hold that many samples of each entry of
        # the pass, and its own block's width of each entry before it
        width = np.minimum(per_block, n_seeds - start)
        for position, i in enumerate(indices):
            order[i * n_seeds:(i + 1) * n_seeds] = (
                read + len(indices) * start + position * width + seed - start)
        read += len(indices) * n_seeds
    return order


def run_figure(example_id: int, seed: int) -> HillPlotSeries:
    """The full generalized Hill plot series (r = 1) of one plot scenario's
    sample drawn with the seed; the scenario itself, its figure number,
    density and expected mu, is ``FIGURE_EXAMPLES[example_id]``."""
    check_figure_examples([example_id])
    fig = FIGURE_EXAMPLES[example_id]
    return hill_plot_series(draw(tabulate(fig.spec), fig.n_rand, seed), r=1)


def summarize_table(table: dict[str, Sequence]) -> dict[str, list]:
    """The columns of ``table_summary.csv``: one entry per row id, sorted,
    with the mean and standard deviation of each estimate over all the
    cells of that id (as Python floats); a single cell gives its value and 0.0."""
    ids, row = sorted(set(table["row"])), np.asarray(table["row"])
    groups = [np.flatnonzero(row == row_id) for row_id in ids]
    summary = {"row": ids, "mu_input": [table["mu_input"][g[0]] for g in groups],
               "n_seeds": [len(g) for g in groups]}
    for name in ("mu_hill", "mu_iter5", "mu_direct"):
        values = [np.asarray(table[name])[g].tolist() for g in groups]
        summary["mean_" + name] = [statistics.fmean(v) for v in values]
        summary["std_" + name] = [statistics.stdev(v) if len(v) > 1 else 0.0 for v in values]
    return summary


# --------------------------------------------------------------------------
# CSV emission.  Every report is a dict of its columns keyed by the header,
# and _csv_pieces is the one place a report becomes text.

# Values per piece of report text: a whole text of 10^6 draws doubled simulate's peak.
_PIECE = 1 << 16


def _csv_rows(columns: Sequence[Sequence]) -> Iterator[str]:
    """One line (without its end) per entry of the equal-length columns: str()
    of each value, the shortest round-trip form of a float, and an empty
    field for NaN.  _csv_pieces passes it one piece of rows at a time."""
    line = ",".join(["%s"] * len(columns))
    columns = [["" if v != v else v for v in column] for column in columns]
    return (line % row for row in zip(*columns))


def _csv_pieces(report: dict[str, Sequence] | HillPlotSeries) -> Iterator[str]:
    """A report's text in pieces: the header line, then _PIECE // (number of
    columns) rows at a time (at least one), with each numpy column's piece
    made Python numbers by .tolist()."""
    if isinstance(report, HillPlotSeries):
        report = {"l": report.l_values, "mu_hill": report.mu_hill,
                  "mu_improved": report.mu_improved}
    yield ",".join(report) + "\n"
    columns = list(report.values())
    rows = max(1, _PIECE // len(columns))
    for start in range(0, len(columns[0]), rows):
        piece = [column[start:start + rows] for column in columns]
        lines = _csv_rows([p.tolist() if isinstance(p, np.ndarray) else p for p in piece])
        yield "\n".join(lines) + "\n"


def table_csv(table: dict[str, Sequence]) -> str:
    """``table.csv`` for the columns :func:`run_full_table` returns, or
    ``table_summary.csv`` for those :func:`summarize_table` returns."""
    return "".join(_csv_pieces(table))


def figure_csv(series: HillPlotSeries) -> str:
    """A plot CSV, ``l,mu_hill,mu_improved``; a blank entry is an empty field."""
    return "".join(_csv_pieces(series))
