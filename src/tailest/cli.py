"""Command-line front end: estimate, simulate, table, figure.

Exit codes: 0 success, 2 unreadable input (including text that is not
UTF-8, a malformed CSV record and a non-numeric or non-finite value) or
invalid configuration (including --l/--r flags that select no window and a
simulate --n above 10^7 draws), 3 non-positive observation in an input
file, 4 degenerate window (including one beyond the sample) or failed
estimation.  Diagnostics go to stderr; data goes to stdout or to files
under --out.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import functools
import itertools
import math
import os
import sys

import numpy as np

from .estimator import (
    EstimationError,
    OrderedSample,
    TailWindow,
    WindowError,
    hill_estimate,
    hill_plot_series,
    improved_estimate,
    solve_iterative,
)
from .experiments import (
    FIGURE_EXAMPLES,
    FigureExampleError,
    TableRowError,
    _PIECE,
    _csv_pieces,
    check_figure_examples,
    check_table_rows,
    merge_ranges,
    run_figure,
    run_full_table,
    summarize_table,
)
from .sampler import (
    DENSITIES,
    DistributionSpec,
    DistributionSpecError,
    draw,
    sigma_statistic,
    tabulate,
)
from .svgplot import hill_plot_svg

class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _fmt(x: float) -> str:
    return "%.4g" % x


# Bytes of input per block of lines that the plain reader converts in one
# call, about 28,000 lines of 17-digit values.  Reading 10^6 such lines on
# two threads took 0.24, 0.17, 0.14 and 0.22 s in blocks of 2^17, 2^18,
# 2^19 and 2^20 bytes, against 0.21 s on one thread at 2^19 (the second to
# sixth reads in a process, median of 3 processes, 2-core Xeon).  Each
# hand-over to the worker costs about 0.3-0.5 ms, which small blocks pay
# often; at 2^20 the reads faulted in 37,000 pages against 4,700 at 2^19.
_BLOCK_BYTES = 1 << 19

# Blocks that the plain reader converts at once, one in the reading thread
# and the others on worker threads; numpy releases the GIL inside each pass
# of the decimal kernel.
_THREADS = 2


def _read_values(path: str, column: str | None) -> np.ndarray:
    """Read one observation per line, or a named CSV column, as a float array.

    The input is UTF-8 text, with or without a leading byte-order mark, and
    is read once from start to end without seeking, so a pipe such as
    /dev/stdin works.  Lines end at \\n, \\r\\n or \\r.  Lines starting with '#'
    and blank lines are skipped in plain mode.  In column mode the last
    column the CSV header gives that name is read, and empty cells, as a
    record too short to reach it gives, are skipped.
    Non-numeric and non-finite values abort with exit code 2, non-positive
    values with exit code 3, each naming the offending line (in column mode
    the line its record ends on, as for a malformed record); input that is
    not UTF-8 aborts with exit code 2.  Every value is float() of its line
    or cell, bit for bit: see _read_lines for how plain input gets there
    without a float() call per line.
    """
    try:
        if column is None:
            with open(path, "rb") as fh:
                values = _read_lines(path, fh)
        else:
            with open(path, "r", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                try:
                    index = {name: i for i, name in enumerate(next(reader, []))}.get(column)
                    if index is None:
                        raise _CliError(2, "%s: no column named %r" % (path, column))
                    cells = ((reader.line_num, record[index] if index < len(record) else "")
                             for record in reader)
                    values = [_checked(path, *zip(*piece), comments=False)
                              for piece in iter(lambda: list(itertools.islice(cells, _PIECE)), [])]
                except csv.Error as exc:
                    raise _CliError(2, "%s:%d: %s" % (path, reader.line_num, exc))
                values = np.concatenate(values) if values else np.empty(0)
                values = values[~np.isnan(values)]
    except UnicodeDecodeError:
        raise _CliError(2, "%s: not UTF-8 text" % path)
    except OSError as exc:
        raise _CliError(2, "cannot read %s: %s" % (path, exc))
    if len(values) < 2:
        raise _CliError(4, "%s: need at least 2 observations, got %d" % (path, len(values)))
    return values


def _read_lines(path: str, fh) -> np.ndarray:
    """The values of a binary file of lines, converted a block at a time.

    A block goes through _decimals.parse_lines, which converts every plain
    decimal line of up to 19 digits in one numpy kernel and proves each
    result equal to float(line), bit for bit (see that module for the
    argument).  Only the lines it leaves unproven -- a sign, blank, space,
    '#', '_', non-ASCII digits, more than 19 digits, an exponent out of
    range, or a value too near a rounding boundary -- go to _checked, all
    of a block's in one call, which marks blank and '#' lines to be dropped
    and exits on the first bad line.  After a block of mostly such lines,
    the next blocks skip the kernel and hand every line to _checked, but
    every 16th block tries the kernel again.  Lines end at \\n, \\r\\n or
    \\r, as in text mode, and a block that is not UTF-8 fails before any
    of its lines is reported.

    This thread reads the blocks _THREADS at a time.  It hands the kernel
    of each block of such a batch but the first to a worker thread, and runs
    the first block's itself.  It then finishes the batch strictly in input
    order -- the UTF-8 check, the unproven lines, the kernel-skip decision
    and the line numbers -- so a bad line in one block is reported before
    anything in a later block.  Reading is the exception: a batch is read
    whole before any of it is finished, so an error reading a block comes
    before a bad line in an earlier block of its batch, and on a pipe a bad
    line is reported only once the rest of its batch has arrived.  The skip
    decision for a block is made from the last block finished before its
    batch was read, up to _THREADS blocks back rather than one; that moves
    only which lines go to float(), never a value.
    """
    from . import _decimals  # here, not at module load: only estimate reads lines

    blocks = []
    first = 1  # line number of the next block's first line
    kernel = True
    index = 0  # of the next block read
    source = _line_blocks(fh)
    workers = None  # started at the first hand-over: one block starts no thread
    try:
        while True:
            batch = []  # (block, its kernel call, or None where it is skipped)
            for block in itertools.islice(source, _THREADS):
                if b"\r" in block:
                    block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                convert = None
                if kernel or index % 16 == 0:
                    convert = functools.partial(_decimals.parse_lines, block)
                    if batch:
                        if workers is None:
                            # here, not at module load: 6-11 ms that one block never needs
                            from concurrent.futures import ThreadPoolExecutor
                            workers = ThreadPoolExecutor(_THREADS - 1)
                        convert = workers.submit(convert).result
                batch.append((block, convert))
                index += 1
            if not batch:
                break
            for position, (block, convert) in enumerate(batch):
                if convert is not None:
                    ends, values, proven = convert()
                    if position:
                        # converted on the worker: a copy made here leaves
                        # nothing in the worker's malloc arena, which is then
                        # freed whole.  Without it a fresh estimate of 10^6
                        # lines peaked at 69-71 MB rather than 59 (57 at one
                        # thread; medians of 12-24 processes), at the price
                        # of faulting the arena in again for every block:
                        # 44,000 page faults against 18,000, about 0.05 s.
                        values = values.copy()
                    unproven = np.flatnonzero(~proven)
                    kernel = 2 * unproven.size <= len(ends)
                else:
                    values = np.empty(block.count(b"\n"))
                    unproven = np.arange(len(values))
                if not block.isascii():
                    block.decode("utf-8")  # UnicodeDecodeError if it is not UTF-8
                lines = len(values)
                if unproven.size:
                    texts = block.decode("utf-8").split("\n")[:-1]  # the block ends with one
                    if unproven.size < lines:
                        texts = [texts[i] for i in unproven.tolist()]
                    values[unproven] = _checked(path, first + unproven, texts, comments=True)
                    values = values[~np.isnan(values)]
                blocks.append(values)
                first += lines
    finally:
        if workers is not None:
            workers.shutdown()  # waits for a call still running, as after an error
    return np.concatenate(blocks) if blocks else np.empty(0)


def _line_blocks(fh):
    """Blocks of about _BLOCK_BYTES of a binary file, each cut after its last
    complete line end and ending with one, without a leading UTF-8
    byte-order mark.  A line longer than a block makes the block longer."""
    pending = bytearray()
    data = fh.read(_BLOCK_BYTES)
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    while data:
        # a \r at the end of the read may be the first half of a \r\n
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        pending += data[:cut] if cut else data
        if cut:
            yield pending
            pending = bytearray(data[cut:])
        data = fh.read(_BLOCK_BYTES)
    if pending:
        yield pending + b"\n"


def _checked(path: str, lines, texts: list[str], comments: bool) -> np.ndarray:
    """float() of each text as a float array, NaN for blank text and, when
    comments is true, for text starting with '#'; exit on the first text
    that is not a positive finite number, naming its entry in lines.  Where
    one float() call over all the texts gives only positive finite values,
    that is the result: float() strips the text, and a blank or '#' fails."""
    try:
        values = np.fromiter(map(float, texts), float, count=len(texts))
        if np.all((values > 0.0) & (values < math.inf)):
            return values
    except ValueError:  # a blank, '#' or bad text
        pass
    values = []
    for lineno, text in zip(lines, texts):
        text = text.strip()
        if not text or (comments and text.startswith("#")):
            values.append(math.nan)
            continue
        try:
            value = float(text)
        except ValueError:
            raise _CliError(2, "%s:%d: not a number: %r" % (path, lineno, text))
        if not 0.0 < value < math.inf:
            if value <= 0.0:
                raise _CliError(3, "%s:%d: non-positive value %r" % (path, lineno, text))
            raise _CliError(2, "%s:%d: not a finite number: %r" % (path, lineno, text))
        values.append(value)
    return np.array(values, dtype=float)


def _parse_ranges(text: str, what: str) -> list[range]:
    """Parse '1,3,5' / '1-13' / '2,5-7' into ranges, expanding none of them."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:  # a leading minus is a sign; callers reject negatives
            lo_text, hi_text = part.split("-", 1)
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise _CliError(2, "bad %s %r" % (what, part))
            if hi < lo:
                raise _CliError(2, "bad %s range %r" % (what, part))
            out.append(range(lo, hi + 1))
        else:
            try:
                value = int(part)
            except ValueError:
                raise _CliError(2, "bad %s %r" % (what, part))
            out.append(range(value, value + 1))
    if not out:
        raise _CliError(2, "empty %s list %r" % (what, text))
    return out


def _ids(ranges: list[range]) -> list[int]:
    """Every id of the ranges, sorted, without repeats."""
    return [i for part in merge_ranges(ranges) for i in part]


# The most seeds one table command may select; checked from the range ends
# before any seed list is built.
_MAX_SEEDS = 100_000

# The most draws one simulate command may ask for; checked before any array
# is built.  simulate peaks at about 74 MB at 10^6 draws and 351 MB at 10^7.
_MAX_DRAWS = 10**7


def _at_least(value: int, low: int, flag: str) -> int:
    """Return value, or exit 2 naming the flag if it is below low."""
    if value < low:
        raise _CliError(2, "%s must be >= %d, got %d" % (flag, low, value))
    return value


# --------------------------------------------------------------------------
# estimate


def cmd_estimate(args: argparse.Namespace) -> int:
    for flag, bound in (("--xmin", args.xmin), ("--xmax", args.xmax)):
        if bound is not None and math.isnan(bound):
            raise _CliError(2, "%s must be a number, got nan" % flag)
    if args.xmin is not None and args.xmax is not None and args.xmin > args.xmax:
        raise _CliError(2, "--xmin %r is greater than --xmax %r" % (args.xmin, args.xmax))
    # a window needs 1 <= r < l; only l or r beyond the sample depends on the data
    if args.l is not None:
        _at_least(args.l, 2, "--l")
    _at_least(args.r, 1, "--r")
    if args.l is not None and args.r >= args.l:
        raise _CliError(2, "--r %d must be below --l %d" % (args.r, args.l))
    values = _read_values(args.file, args.column)
    if args.xmin is not None:
        values = values[values >= args.xmin]
    if args.xmax is not None:
        values = values[values <= args.xmax]
    if len(values) < 2:
        raise _CliError(4, "fewer than 2 observations left after --xmin/--xmax cuts")
    sample = OrderedSample(values)

    n = len(sample)
    if args.l is None and args.r >= n:
        raise WindowError("--r %d must be below the sample size %d" % (args.r, n))
    window = TailWindow(l=n if args.l is None else args.l, r=args.r)
    if window.l > n:
        raise WindowError("window l=%d exceeds sample size %d" % (window.l, n))
    hill = hill_estimate(sample, window.l)
    direct = improved_estimate(sample, window)
    iterative = solve_iterative(sample, window)

    print("n %d  window l=%d r=%d (k=%d)" % (n, window.l, window.r, window.k))
    print("bounds L=%s R=%s" % (_fmt(direct.window_low), _fmt(direct.window_high)))
    print("mean_log %s" % _fmt(direct.mean_log))
    print("hill mu=%s alpha=%s" % (_fmt(hill.mu), _fmt(hill.alpha)))
    print("improved mu=%s alpha=%s" % (_fmt(direct.mu), _fmt(direct.alpha)))
    print("improved-iterative mu=%s alpha=%s iterations=%d converged=%s"
          % (_fmt(iterative.mu), _fmt(iterative.alpha), iterative.iterations,
             "yes" if iterative.converged else "no"))

    if args.plot is not None:
        series = hill_plot_series(sample, r=window.r)
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.writelines(_csv_pieces(series))
        print("wrote %s" % args.plot, file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# simulate


# Every density's parameter names, each once: simulate's parameter flags.
_PARAMS = tuple(dict.fromkeys(name for d in DENSITIES.values() for name in d.params))


def _spec_from_args(args: argparse.Namespace) -> DistributionSpec:
    """The spec of --dist with every parameter flag given; the spec itself
    refuses a missing parameter or one the density does not take."""
    kind = next(k for k, d in DENSITIES.items() if d.cli_name == args.dist)
    params = {name: getattr(args, name) for name in _PARAMS if getattr(args, name) is not None}
    return DistributionSpec.of(kind, args.dlow, args.dhigh, args.grid_points, **params)


# The most CDF mass one grid cell may hold before simulate refuses the grid.
# Draws inside a cell are spread almost uniformly, so a cell that holds much
# of the mass hides the density's shape: power(5) on [3, 1e6] puts all of it
# in [3, 103], and its estimates average mu = 0.008.  Every built-in table
# row and figure stays below 0.02.
_MAX_CELL_MASS = 0.05


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    n = _at_least(args.n, 2, "--n")
    if n > _MAX_DRAWS:
        raise _CliError(2, "--n asks for %d draws (at most %d)" % (n, _MAX_DRAWS))
    seed = _at_least(args.seed, 0, "--seed")
    dist = tabulate(spec)
    cell_mass = float(np.max(np.diff(dist.cdf)))
    if cell_mass > _MAX_CELL_MASS:
        raise _CliError(2, "one cell of the %d-point grid on [%g, %g] holds %.1f%% of the "
                        "probability (at most %g%%); raise --grid-points or narrow "
                        "--dlow/--dhigh" % (spec.grid_points, spec.d_low, spec.d_high,
                                           100 * cell_mass, 100 * _MAX_CELL_MASS))
    sample = draw(dist, n, seed)
    summary = "n %d  sigma %s  L %s  R %s" % (
        len(sample), _fmt(sigma_statistic(sample)),
        _fmt(float(sample.values[-1])), _fmt(float(sample.values[0])))
    lines = itertools.islice(_csv_pieces({"value": sample.values}), 1, None)  # no header
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        print(summary)
        print("wrote %s" % args.out, file=sys.stderr)
    else:
        sys.stdout.writelines(lines)
        print(summary, file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# table / figure


def cmd_table(args: argparse.Namespace) -> int:
    rows = _parse_ranges(args.rows, "row")
    seeds = merge_ranges(_parse_ranges(args.seeds, "seed"))
    _at_least(seeds[0].start, 0, "--seeds")  # merged ranges are sorted
    count = sum(len(part) for part in seeds)
    if count > _MAX_SEEDS:
        raise _CliError(2, "--seeds selects %d seeds (at most %d)" % (count, _MAX_SEEDS))
    check_table_rows(rows)  # before expanding rows
    results = run_full_table(_ids(seeds), _ids(rows))
    reports = {"table.csv": results}
    if count > 1:
        reports["table_summary.csv"] = summarize_table(results)
    os.makedirs(args.out, exist_ok=True)
    for name, report in reports.items():
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_csv_pieces(report))
        print("wrote %s" % path, file=sys.stderr)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    examples = _parse_ranges(args.examples, "example")
    check_figure_examples(examples)  # before expanding examples
    _at_least(args.seed, 0, "--seed")
    os.makedirs(args.out, exist_ok=True)
    for example_id in _ids(examples):
        fig = FIGURE_EXAMPLES[example_id]
        series = run_figure(example_id, args.seed)
        base = os.path.join(args.out, "figure%d" % fig.figure_number)
        with open(base + ".csv", "w", encoding="utf-8") as fh:
            fh.writelines(_csv_pieces(series))
        title = "%s, n=%d, expected mu=%g" % (fig.spec.describe(), fig.n_rand, fig.expected_mu)
        with open(base + ".svg", "w", encoding="utf-8") as fh:
            fh.write(hill_plot_svg(series, fig.expected_mu, title))
        print("wrote %s.csv %s.svg" % (base, base), file=sys.stderr)
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailest",
        description="Tail exponent estimation for samples on bounded domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate tail exponent from a data file")
    p_est.add_argument("file")
    p_est.add_argument("--column", help="read this column of a CSV file")
    p_est.add_argument("--xmin", type=float, help="drop observations below this value")
    p_est.add_argument("--xmax", type=float, help="drop observations above this value")
    p_est.add_argument("--l", type=int, help="1-based index of the smallest window point")
    p_est.add_argument("--r", type=int, default=1, help="1-based index of the largest window point")
    p_est.add_argument("--plot", metavar="OUT.csv", help="write the full per-l series")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="write seeded draws from a built-in density")
    p_sim.add_argument("--dist", required=True,
                       choices=[d.cli_name for d in DENSITIES.values()])
    for name in _PARAMS:
        p_sim.add_argument("--" + name, type=float)
    p_sim.add_argument("--dlow", type=float, required=True)
    p_sim.add_argument("--dhigh", type=float, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--grid-points", type=int, default=10000)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_tab = sub.add_parser("table", help="run benchmark table rows, write CSV")
    p_tab.add_argument("--rows", default="1-13")
    p_tab.add_argument("--seeds", default="1")
    p_tab.add_argument("--out", default=".")
    p_tab.set_defaults(func=cmd_table)

    p_fig = sub.add_parser("figure", help="run plot scenarios, write CSV and SVG")
    p_fig.add_argument("--examples", default="14-17")
    p_fig.add_argument("--seed", type=int, default=1)
    p_fig.add_argument("--out", default=".")
    p_fig.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print("error: %s" % exc.message, file=sys.stderr)
        return exc.code
    except (DistributionSpecError, TableRowError, FigureExampleError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except EstimationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
