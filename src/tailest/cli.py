"""Command-line front end: estimate, simulate, table, figure.

Exit codes: 0 success, 2 unreadable input (including a non-numeric or
non-finite value) or invalid configuration, 3 non-positive observation in
an input file, 4 degenerate window or failed estimation.  Diagnostics go to
stderr; data goes to stdout or to files under --out.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

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
    TableRowError,
    figure_csv,
    run_figure,
    run_full_table,
    summarize_table,
    summary_csv,
    table_csv,
)
from .sampler import (
    DENSITIES,
    DistributionSpec,
    DistributionSpecError,
    SampleRequest,
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


def _read_values(path: str, column: str | None) -> list[float]:
    """Read one observation per line, or a named CSV column.

    Lines starting with '#' and blank lines are skipped in plain mode, empty
    cells in column mode.  Non-numeric and non-finite values abort with exit
    code 2, non-positive values with exit code 3, each naming the offending
    line.
    """
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if column is None:
                cells = enumerate(fh, start=1)
            else:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or column not in reader.fieldnames:
                    raise _CliError(2, "%s: no column named %r" % (path, column))
                cells = ((reader.line_num, record[column] or "") for record in reader)
            for lineno, text in cells:
                text = text.strip()
                if not text or (column is None and text.startswith("#")):
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
    except OSError as exc:
        raise _CliError(2, "cannot read %s: %s" % (path, exc))
    if len(values) < 2:
        raise _CliError(4, "%s: need at least 2 observations, got %d" % (path, len(values)))
    return values


def _parse_int_list(text: str, what: str) -> list[int]:
    """Parse '1,3,5' / '1-13' / '2,5-7' into a sorted list of ints."""
    out: set[int] = set()
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
            out.update(range(lo, hi + 1))
        else:
            try:
                out.add(int(part))
            except ValueError:
                raise _CliError(2, "bad %s %r" % (what, part))
    if not out:
        raise _CliError(2, "empty %s list %r" % (what, text))
    return sorted(out)


def _at_least(value: int, low: int, flag: str) -> int:
    """Return value, or exit 2 naming the flag if it is below low."""
    if value < low:
        raise _CliError(2, "%s must be >= %d, got %d" % (flag, low, value))
    return value


# --------------------------------------------------------------------------
# estimate


def cmd_estimate(args: argparse.Namespace) -> int:
    values = _read_values(args.file, args.column)
    if args.xmin is not None:
        values = [v for v in values if v >= args.xmin]
    if args.xmax is not None:
        values = [v for v in values if v <= args.xmax]
    if len(values) < 2:
        raise _CliError(4, "fewer than 2 observations left after --xmin/--xmax cuts")
    sample = OrderedSample(values)

    n = len(sample)
    l = args.l if args.l is not None else n
    r = args.r if args.r is not None else 1
    window = TailWindow(l=l, r=r)
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
            fh.write(figure_csv(series))
        print("wrote %s" % args.plot, file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# simulate


def _spec_from_args(args: argparse.Namespace) -> DistributionSpec:
    kind = next(k for k, d in DENSITIES.items() if d.cli_name == args.dist)
    params = []
    for name in DENSITIES[kind].params:
        value = getattr(args, name)
        if value is None:
            raise _CliError(2, "--dist %s requires --%s" % (args.dist, name))
        params.append((name, value))
    return DistributionSpec(kind, args.dlow, args.dhigh, args.grid_points, tuple(params))


def cmd_simulate(args: argparse.Namespace) -> int:
    dist = tabulate(_spec_from_args(args))
    request = SampleRequest(n=_at_least(args.n, 2, "--n"),
                            seed=_at_least(args.seed, 0, "--seed"))
    sample = draw(dist, request)
    lines = "\n".join(str(v) for v in sample.values) + "\n"
    summary = "n %d  sigma %s  L %s  R %s" % (
        len(sample), _fmt(sigma_statistic(sample)),
        _fmt(float(sample.values[-1])), _fmt(float(sample.values[0])))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(lines)
        print(summary)
        print("wrote %s" % args.out, file=sys.stderr)
    else:
        sys.stdout.write(lines)
        print(summary, file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# table / figure


def cmd_table(args: argparse.Namespace) -> int:
    rows = _parse_int_list(args.rows, "row")
    seeds = _parse_int_list(args.seeds, "seed")
    _at_least(seeds[0], 0, "--seeds")  # seeds are sorted
    results = run_full_table(seeds, rows)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "table.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table_csv(results))
    print("wrote %s" % path, file=sys.stderr)
    if len(seeds) > 1:
        summary_path = os.path.join(args.out, "table_summary.csv")
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write(summary_csv(summarize_table(results)))
        print("wrote %s" % summary_path, file=sys.stderr)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    examples = _parse_int_list(args.examples, "example")
    bad = [e for e in examples if e not in FIGURE_EXAMPLES]
    if bad:
        raise _CliError(2, "unknown figure examples %s (valid: 14..17)" % bad)
    _at_least(args.seed, 0, "--seed")
    os.makedirs(args.out, exist_ok=True)
    for example_id in examples:
        result = run_figure(example_id, args.seed)
        base = os.path.join(args.out, "figure%d" % result.figure_number)
        with open(base + ".csv", "w", encoding="utf-8") as fh:
            fh.write(figure_csv(result.series))
        title = "%s, n=%d, expected mu=%g" % (
            result.spec.describe(), result.n_rand, result.expected_mu)
        with open(base + ".svg", "w", encoding="utf-8") as fh:
            fh.write(hill_plot_svg(result.series, result.expected_mu, title))
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
    p_est.add_argument("--r", type=int, help="1-based index of the largest window point")
    p_est.add_argument("--plot", metavar="OUT.csv", help="write the full per-l series")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="write seeded draws from a built-in density")
    p_sim.add_argument("--dist", required=True,
                       choices=[d.cli_name for d in DENSITIES.values()])
    for name in dict.fromkeys(n for d in DENSITIES.values() for n in d.params):
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
    except (DistributionSpecError, TableRowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except EstimationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
