"""The benchmark's workloads: their inputs, commands and output checks.

Each workload repeats one CLI command in a closed loop: one command at a
time in one process, no extra threads, the next command starting when the
previous one returns.  Inputs depend on the workload seed alone, and every
command's output is checked against :mod:`reference`, never against tailest.

  estimate_1m   read-heavy: parsing and one sort+log of 10^6 values, one
                solve, no sweep.  Solver and sweep work should not move it.
  figure_all    the generalized Hill plot sweep, a root search per l over
                31,996 windows.  The Newton kernel and a linear sweep move it.
  table_seeds   1,300 small independent samples, each tabulated, drawn and
                solved once.  A scalar kernel or a cached runner moves it, a
                vectorized sweep should not.
"""

from __future__ import annotations

import csv
import os
import re
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

OUT = "{out}"  # stands for a fresh output directory in each command's argv


@dataclass
class Workload:
    name: str
    argv: list[str]
    item: str  # what one unit of work is
    items: int  # units of work one command completes
    inputs: dict  # sizes and seeds, for the run record
    # (stdout, out_dir) -> problems found; empty when the output is correct
    check: Callable[[str, str], list[str]]


def checked(check):
    """Turn malformed output from the program into a problem, not a crash."""
    def guarded(stdout, out_dir):
        try:
            return check(stdout, out_dir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return ["malformed output: %s: %s" % (type(exc).__name__, exc)]
    return guarded


# --------------------------------------------------------------------------
# estimate_1m


ESTIMATE_LINES = {
    "window": r"^n (?P<n>\d+)  window l=(?P<l>\d+) r=(?P<r>\d+) \(k=(?P<k>\d+)\)$",
    "bounds": r"^bounds L=(?P<L>\S+) R=(?P<R>\S+)$",
    "mean_log": r"^mean_log (?P<mean_log>\S+)$",
    "hill": r"^hill mu=(?P<hill_mu>\S+) alpha=(?P<hill_alpha>\S+)$",
    "improved": r"^improved mu=(?P<mu>\S+) alpha=(?P<alpha>\S+)$",
    "iterative": (r"^improved-iterative mu=(?P<iter_mu>\S+) alpha=(?P<iter_alpha>\S+)"
                  r" iterations=\d+ converged=(?P<converged>\w+)$"),
}


def estimate_reference(x: np.ndarray) -> dict:
    """What `estimate` must print for observations x, over the full window."""
    logs = np.log(x)
    ln_low, ln_high = float(logs.min()), float(logs.max())
    h = float(np.mean(logs - ln_low))
    span = ln_high - ln_low
    alpha = float(reference.solve_excess(h / span)) / span
    return {
        "n": x.size, "l": x.size, "r": 1, "k": x.size,
        "L": float(x.min()), "R": float(x.max()), "mean_log": ln_low + h,
        "hill_mu": 1.0 / h + 1.0, "hill_alpha": 1.0 / h,
        "mu": alpha + 1.0, "alpha": alpha,
        "iter_mu": alpha + 1.0, "iter_alpha": alpha,
        "converged": "yes",
    }


def check_estimate(stdout: str, expected: dict) -> list[str]:
    shown = {}
    for line, pattern in ESTIMATE_LINES.items():
        found = re.search(pattern, stdout, re.MULTILINE)
        if found is None:
            return ["estimate: no %r line in output" % line]
        shown.update(found.groupdict())
    problems = []
    for key, want in expected.items():
        if isinstance(want, float):
            ok = reference.agrees_4g(shown[key], want)
        else:
            ok = shown[key] == str(want)
        if not ok:
            problems.append("estimate: %s printed %s, reference %r" % (key, shown[key], want))
    return problems


def estimate_1m(seed: int, workdir: str, tiny: bool = False) -> Workload:
    n = 2000 if tiny else 1_000_000
    x = reference.truncated_power_sample(seed, n)
    path = os.path.join(workdir, "observations.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join("%.17g" % v for v in x))
        fh.write("\n")
    expected = estimate_reference(x)
    return Workload(
        name="estimate_1m", argv=["estimate", path], item="observation", items=n,
        inputs={"n": n, "seed": seed, "density": "x^-1.5 on [1, 1e4]"},
        check=checked(lambda stdout, out_dir: check_estimate(stdout, expected)))


# --------------------------------------------------------------------------
# figure_all


def check_figure(base: str, windows: dict) -> list[str]:
    name = os.path.basename(base)
    with open(base + ".csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(base + ".svg", encoding="utf-8") as fh:
        svg = fh.read().strip()
    if rows[0] != ["l", "mu_hill", "mu_improved"]:
        return ["%s.csv: header %r" % (name, rows[0])]
    body = rows[1:]
    l = np.array([int(r[0]) for r in body])
    if not np.array_equal(l, windows["l"]):
        return ["%s.csv: l column is not 2..%d" % (name, windows["l"][-1])]

    def column(i):
        return np.array([float(r[i]) if r[i] else np.nan for r in body])

    hill, improved = column(1), column(2)
    ln_low, ln_high = windows["ln_low"], windows["ln_high"]
    h = windows["excess_mean"]
    problems = []
    bad_hill = reference.hill_mismatch(hill, h, ln_low, ln_high)
    bad_hill &= ~(np.isnan(hill) & (h == 0.0))  # no Hill value exists where h = 0
    if bad_hill.any():
        problems.append("%s.csv: %d Hill values disagree with the rebuilt sample, first at l=%d"
                        % (name, bad_hill.sum(), l[bad_hill][0]))
    valid = ~np.isnan(improved)
    missing = windows["needs_root"] & ~valid
    if missing.any():
        problems.append("%s.csv: %d improved values missing where a root exists, first at l=%d"
                        % (name, missing.sum(), l[missing][0]))
    span = windows["span"][valid]
    residual = reference.root_residual(improved[valid], h[valid], span)
    bad_root = ~(residual <= reference.residual_tolerance(span, ln_low[valid], ln_high[valid]))
    if bad_root.any():
        problems.append("%s.csv: %d improved values miss the mean-log equation, first at l=%d"
                        % (name, bad_root.sum(), l[valid][bad_root][0]))
    if not (svg.startswith("<svg") and svg.endswith("</svg>")):
        problems.append("%s.svg: not an svg document" % name)
    return problems


def figure_all(seed: int, workdir: str, tiny: bool = False) -> Workload:
    examples = [14] if tiny else [14, 15, 16, 17]
    windows = {}
    for example in examples:
        number, pdf, d_low, d_high, n = reference.FIGURES[example]
        windows[number] = win = reference.top_windows(
            reference.grid_sample(pdf, d_low, d_high, n, seed))
        win["needs_root"] = reference.needs_root(win["excess_mean"], win["span"])

    def check(stdout, out_dir):
        problems = []
        for number, win in windows.items():
            problems += check_figure(os.path.join(out_dir, "figure%d" % number), win)
        return problems

    return Workload(
        name="figure_all",
        argv=["figure", "--examples", "14" if tiny else "14-17", "--seed", str(seed),
              "--out", OUT],
        item="plot point", items=sum(w["l"].size for w in windows.values()),
        inputs={"examples": examples, "seed": seed,
                "n": [reference.FIGURES[e][4] for e in examples]},
        check=checked(check))


# --------------------------------------------------------------------------
# table_seeds

TABLE_ROWS = range(1, 14)


def check_table(out_dir: str, seeds: range) -> list[str]:
    with open(os.path.join(out_dir, "table.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = [(int(r["row"]), int(r["seed"])) for r in rows]
    if sorted(cells) != [(row, s) for row in TABLE_ROWS for s in seeds]:
        return ["table.csv: cells are not rows 1..13 x seeds %d..%d" % (seeds[0], seeds[-1])]

    def column(key):
        return np.array([float(r[key]) for r in rows])

    low, high, sigma = column("L"), column("R"), column("sigma")
    ln_low, ln_high = np.log(low), np.log(high)
    span = ln_high - ln_low
    h = sigma - ln_low
    problems = []
    inside = (low > 0) & (span > 0) & (h > 0) & (h < span)
    if not inside.all():
        return ["table.csv: %d rows without L < exp(sigma) < R" % (~inside).sum()]
    bad_hill = reference.hill_mismatch(column("mu_hill"), h, ln_low, ln_high)
    if bad_hill.any():
        problems.append("table.csv: %d mu_hill values disagree with sigma and L, first %r"
                        % (bad_hill.sum(), cells[int(np.argmax(bad_hill))]))
    residual = reference.root_residual(column("mu_direct"), h, span)
    bad_root = ~(residual <= reference.residual_tolerance(span, ln_low, ln_high))
    if bad_root.any():
        problems.append("table.csv: %d mu_direct values miss the mean-log equation, first %r"
                        % (bad_root.sum(), cells[int(np.argmax(bad_root))]))
    if not np.isfinite(column("mu_iter5")).all():
        problems.append("table.csv: non-finite mu_iter5")

    if len(seeds) > 1:
        with open(os.path.join(out_dir, "table_summary.csv"), encoding="utf-8") as fh:
            summary = {int(r["row"]): r for r in csv.DictReader(fh)}
        for row in TABLE_ROWS:
            mean = statistics.fmean(float(r["mu_direct"]) for r in rows if int(r["row"]) == row)
            shown = float(summary[row]["mean_mu_direct"])
            if not abs(shown - mean) <= 1e-9 * abs(mean):
                problems.append("table_summary.csv: row %d mean_mu_direct %r, table mean %r"
                                % (row, shown, mean))
    return problems


def table_seeds(seed: int, workdir: str, tiny: bool = False) -> Workload:
    seeds = range(seed, seed + (2 if tiny else 100))
    return Workload(
        name="table_seeds",
        argv=["table", "--seeds", "%d-%d" % (seeds[0], seeds[-1]), "--out", OUT],
        item="table cell", items=len(TABLE_ROWS) * len(seeds),
        inputs={"rows": "1-13", "seeds": [seeds[0], seeds[-1]]},
        check=checked(lambda stdout, out_dir: check_table(out_dir, seeds)))


WORKLOADS = {w.__name__: w for w in (estimate_1m, figure_all, table_seeds)}
