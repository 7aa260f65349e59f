"""Spans around the calls into tailest's modules, recorded from outside.

Modules import names directly (``from .estimator import improved_estimate``),
so a function is wrapped in every module that holds a reference to it: the
sweep's calls into ``estimator.improved_estimate`` and the table runner's
calls through ``experiments.improved_estimate`` both become spans.  Nothing
inside the package is edited.  Spans stay in memory and are written once,
when the traced run ends.

A span is [command, name, start_ns, end_ns, parent, attrs].  A layer's self
time is its span's duration minus the part its child spans cover; the self
times in ``SELF_TIME`` partition each command's root span.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

ROOT = "cli.main"

# Layer boundaries: the public functions of each module, by defining module.
BOUNDARIES = {
    "estimator": ("OrderedSample", "hill_estimate", "improved_estimate",
                  "solve_iterative", "hill_plot_series"),
    "sampler": ("tabulate", "draw"),
    "experiments": ("run_table_row", "run_figure", "summarize_table", "summary_csv",
                    "table_csv", "figure_csv"),
    "svgplot": ("hill_plot_svg",),
}
# Modules whose references to the boundaries are replaced by wrappers.
CALLERS = ("cli", "experiments", "sampler", "estimator", "svgplot")


def _solve_attrs(args, result):
    return {"converged": int(result.converged), "iterations": result.iterations}


def _sweep_attrs(args, result):
    return {"n": len(args[0]), "points": len(result),
            "valid": sum(v is not None for v in result.mu_improved)}


# Counts read off a boundary's arguments and result when it returns.
ATTRS = {
    "estimator.improved_estimate": _solve_attrs,
    "estimator.solve_iterative": _solve_attrs,
    "estimator.hill_plot_series": _sweep_attrs,
    "sampler.draw": lambda args, result: {"values": len(result)},
}

# Per-layer time metrics; each sums the self time of its spans.
SELF_TIME = {
    "cli.self_s": (ROOT,),
    "estimator.OrderedSample_s": ("estimator.OrderedSample",),
    "estimator.hill_estimate_s": ("estimator.hill_estimate",),
    "estimator.improved_estimate_s": ("estimator.improved_estimate",),
    "estimator.solve_iterative_s": ("estimator.solve_iterative",),
    "estimator.hill_plot_series_s": ("estimator.hill_plot_series",),
    "sampler.tabulate_s": ("sampler.tabulate",),
    "sampler.draw_s": ("sampler.draw",),
    "experiments.self_s": ("experiments.run_table_row", "experiments.run_figure",
                           "experiments.summarize_table", "experiments.summary_csv"),
    "experiments.table_csv_s": ("experiments.table_csv",),
    "experiments.figure_csv_s": ("experiments.figure_csv",),
    "svgplot.hill_plot_svg_s": ("svgplot.hill_plot_svg",),
}

# Sample sizes of the figure examples whose sweep cost per point is reported.
SWEEP_SIZES = (2000, 10000)


class Tracer:
    """Records spans for calls into the package while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.command = 0
        self._stack = [-1]
        names = {}
        for module_name, functions in BOUNDARIES.items():
            module = importlib.import_module("tailest." + module_name)
            for function in functions:
                if hasattr(module, function):
                    names[id(getattr(module, function))] = "%s.%s" % (module_name, function)
        self._patches = []  # (module, attribute, original, wrapper)
        for module_name in CALLERS:
            module = importlib.import_module("tailest." + module_name)
            for attribute, value in vars(module).items():
                if id(value) in names:
                    self._patches.append(
                        (module, attribute, value, self.wrap(names[id(value)], value)))

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            span = [self.command, name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced

    def install(self):
        for module, attribute, _, wrapper in self._patches:
            setattr(module, attribute, wrapper)

    def uninstall(self):
        for module, attribute, original, _ in self._patches:
            setattr(module, attribute, original)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for command, name, start, end, parent, attrs in self.spans:
                extra = ",".join("%s=%d" % kv for kv in attrs.items()) if attrs else ""
                fh.write("%d\t%s\t%d\t%d\t%d\t%s\n" % (command, name, start, end, parent, extra))


def read_spans(path: str) -> list[list]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            command, name, start, end, parent, extra = line.rstrip("\n").split("\t")
            attrs = dict((k, int(v)) for k, v in (kv.split("=") for kv in extra.split(",") if kv))
            spans.append([int(command), name, int(start), int(end), int(parent), attrs or None])
    return spans


@dataclass
class _Totals:
    """One command's span totals, by span name (counts by name.attr)."""

    self_ns: Counter = field(default_factory=Counter)
    inclusive_ns: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    sweeps: list = field(default_factory=list)  # (n, points, inclusive ns)


def command_layers(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per-layer metrics of each traced command, keyed by command index."""
    covered = [0] * len(spans)
    for command, name, start, end, parent, attrs in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[int, _Totals] = {}
    for index, (command, name, start, end, parent, attrs) in enumerate(spans):
        per = totals.setdefault(command, _Totals())
        per.self_ns[name] += end - start - covered[index]
        per.inclusive_ns[name] += end - start
        per.calls[name] += 1
        for key, value in (attrs or {}).items():
            per.counts[name + "." + key] += value
        if name == "estimator.hill_plot_series" and attrs:
            per.sweeps.append((attrs["n"], attrs["points"], end - start))
    return {command: _layer_metrics(per) for command, per in totals.items()}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _layer_metrics(per: _Totals) -> dict[str, float]:
    calls, counts = per.calls, per.counts
    metrics = {metric: sum(per.self_ns[name] for name in names) / 1e9
               for metric, names in SELF_TIME.items()}
    solves = calls["estimator.improved_estimate"]
    points = counts["estimator.hill_plot_series.points"]
    metrics.update({
        "estimator.OrderedSample.calls": calls["estimator.OrderedSample"],
        "estimator.improved_estimate.calls": solves,
        "estimator.improved_estimate.us_per_call":
            _ratio(per.inclusive_ns["estimator.improved_estimate"] / 1e3, solves),
        "estimator.solve_iterative.iterations": counts["estimator.solve_iterative.iterations"],
        "estimator.converged_ratio": _ratio(
            counts["estimator.improved_estimate.converged"]
            + counts["estimator.solve_iterative.converged"],
            solves + calls["estimator.solve_iterative"]),
        "estimator.hill_plot_series.points": points,
        "estimator.hill_plot_series.valid_ratio":
            _ratio(counts["estimator.hill_plot_series.valid"], points),
        "sampler.tabulate.calls": calls["sampler.tabulate"],
        "sampler.draw.values": counts["sampler.draw.values"],
    })
    for size in SWEEP_SIZES:
        sweeps = [(p, ns) for n, p, ns in per.sweeps if n == size]
        metrics["estimator.hill_plot_series.us_per_point_n%d" % size] = _ratio(
            sum(ns for _, ns in sweeps) / 1e3, sum(p for p, _ in sweeps))
    return metrics


def median_layers(per_command: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer metric over the traced commands."""
    return {key: statistics.median(m[key] for m in per_command) for key in per_command[0]}
