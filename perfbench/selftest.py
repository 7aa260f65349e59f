"""Tests of the benchmark harness itself, at tiny input sizes.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import tailest.cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_cli(argv, main=tailest.cli.main):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def one_command(name, tmp_path, seed=4):
    """A tiny workload and the output of one real run of its command."""
    workload = WORKLOADS[name](seed, str(tmp_path), tiny=True)
    out_dir = str(tmp_path / "out")
    code, stdout = run_cli([a.replace("{out}", out_dir) for a in workload.argv])
    assert code == 0
    return workload, stdout, out_dir


def edit(path, old, new):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))


def perturb_estimate(stdout, out_dir):
    return re.sub(r"^improved mu=(\S+)",
                  lambda found: "improved mu=%.4g" % (float(found.group(1)) * 1.01),
                  stdout, count=1, flags=re.MULTILINE)


def figure_row(out_dir):
    path = os.path.join(out_dir, "figure1.csv")
    with open(path, encoding="utf-8") as fh:
        row = fh.read().splitlines()[500]
    return path, row, row.split(",")


def perturb_figure(stdout, out_dir):
    path, row, (l, hill, improved) = figure_row(out_dir)
    edit(path, row + "\n", "%s,%s,%r\n" % (l, hill, float(improved) * (1 + 1e-4)))
    return stdout


def blank_figure(stdout, out_dir):
    path, row, (l, hill, improved) = figure_row(out_dir)
    edit(path, row + "\n", "%s,%s,\n" % (l, hill))
    return stdout


def perturb_table(stdout, out_dir):
    path = os.path.join(out_dir, "table.csv")
    with open(path, encoding="utf-8") as fh:
        row = fh.read().splitlines()[7]
    fields = row.split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-4))  # mu_direct
    edit(path, row + "\n", ",".join(fields) + "\n")
    return stdout


PERTURB = [("estimate_1m", perturb_estimate), ("figure_all", perturb_figure),
           ("figure_all", blank_figure), ("table_seeds", perturb_table)]


@pytest.mark.parametrize("name, perturb", PERTURB)
def test_check_rejects_a_perturbed_mu(name, perturb, tmp_path):
    workload, stdout, out_dir = one_command(name, tmp_path)
    assert workload.check(stdout, out_dir) == []
    stdout = perturb(stdout, out_dir)
    assert workload.check(stdout, out_dir) != []


@pytest.mark.parametrize("trace", [0, 1])
def test_failed_command_counts_in_fail_ratio(trace, tmp_path):
    workload, stdout, out_dir = one_command("estimate_1m", tmp_path)
    commands = [{"index": i, "traced": bool(trace and i % 2), "wall_s": 0.01, "exit_code": 0,
                 "stdout": text, "stderr": "", "out_dir": out_dir, "probe_s": [0.05]}
                for i, text in enumerate([stdout, perturb_estimate(stdout, out_dir)])]
    spans = [[1, tracing.ROOT, 0, 10_000_000, -1, None]] if trace else None
    result, record = run.evaluate(workload, {"commands": commands,
                                             "setup": [{"wall_s": 0.1, "probe_s": [0.05]}],
                                             "peak_rss_mb": 1.0, "tailest_file": ""}, spans)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert list(record["problems"]) == [1]
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == 0.5


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_reports_every_metric(name, trace, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(run.WORKLOADS, name, functools.partial(WORKLOADS[name], tiny=True))
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_layer_self_times_partition_the_command(tmp_path):
    groups = [n for names in tracing.SELF_TIME.values() for n in names]
    boundaries = ["%s.%s" % (m, f) for m, fs in tracing.BOUNDARIES.items() for f in fs]
    assert sorted(groups) == sorted(boundaries + [tracing.ROOT])

    tracer = tracing.Tracer()
    main = tracer.wrap(tracing.ROOT, tailest.cli.main)
    tracer.install()
    try:
        code, _ = run_cli(["figure", "--examples", "14", "--out", str(tmp_path)], main)
    finally:
        tracer.uninstall()
    assert code == 0
    path = str(tmp_path / "spans.tsv")
    tracer.write(path)
    spans = tracing.read_spans(path)
    layers = tracing.command_layers(spans)[0]
    root = spans[0]
    assert root[1] == tracing.ROOT
    total = sum(layers[k] for k in tracing.SELF_TIME)
    assert total == pytest.approx((root[3] - root[2]) / 1e9, abs=1e-9)
    assert layers["estimator.improved_estimate.calls"] == 1999
    assert layers["estimator.hill_plot_series.points"] == 1999
    assert layers["estimator.hill_plot_series.us_per_point_n2000"] > 0
