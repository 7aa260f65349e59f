"""Benchmark for the tailest CLI: one workload per run, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed, and worker.py then runs
the CLI command in a closed loop for S seconds, timing set-up in fresh
interpreters between commands.  Every command's output is checked against
reference.py.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics from spans recorded by tracing.py.  The last
line of stdout is one JSON object with correct, attempted, failed and
metrics; a run record with machine and sample counts is written under
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170  # a run must end within 180 s
# numpy's BLAS runs single-threaded in every process the benchmark starts: the
# commands never call BLAS, and starting its helper threads at import made the
# set-up time swing by up to 2x between runs on a 2-core machine.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
# The shared machine's speed swings by up to 2x within seconds and drifts by
# 20-40% over minutes, and every time sample swings with it.  The end-to-end
# times are therefore reported at a fixed machine speed, the one at which
# worker.speed_probe() takes PROBE_REFERENCE_S; see scaled().  The unscaled
# medians are in the run record.
PROBE_REFERENCE_S = 0.05


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json at the repository root names it."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform()}


def run_worker(job: dict, timeout: float) -> dict:
    job_path = os.path.join(job["workdir"], "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                          capture_output=True, text=True, timeout=timeout, env=CHILD_ENV)
    if done.returncode != 0:
        raise RuntimeError("worker exited %d:\n%s" % (done.returncode, done.stderr[-2000:]))
    with open(job["result_path"], encoding="utf-8") as fh:
        return json.load(fh)


def scaled(sample: dict) -> float:
    """A time sample at the reference machine speed: its wall time times
    PROBE_REFERENCE_S over the median of the probes run right after it."""
    return sample["wall_s"] * PROBE_REFERENCE_S / statistics.median(sample["probe_s"])


def problems_of(command: dict, workload) -> list[str]:
    if command["exit_code"] != 0:
        return ["exit code %s: %s" % (command["exit_code"], command["stderr"].strip()[-500:])]
    return workload.check(command["stdout"], command["out_dir"])


def evaluate(workload, run: dict, spans) -> tuple[dict, dict]:
    """Metrics and run record from a worker's commands; spans is None untraced."""
    commands = run["commands"]
    problems = {c["index"]: problems_of(c, workload) for c in commands}
    failed = sum(1 for found in problems.values() if found)
    plain = [c["wall_s"] for c in commands if not c["traced"]]
    traced = [c["wall_s"] for c in commands if c["traced"]]
    unscaled = {}
    if spans is None:
        setup = [scaled(sample) for sample in run["setup"]]
        wall = [scaled(c) for c in commands if not c["traced"]]
        values = {
            "setup_s": (statistics.median(setup), len(setup)),
            "wall_s": (statistics.median(wall), len(wall)),
            "items_per_s": (workload.items * len(wall) / sum(wall), len(wall)),
            "peak_rss_mb": (run["peak_rss_mb"], 1),
        }
        unscaled = {
            "setup_s": statistics.median(sample["wall_s"] for sample in run["setup"]),
            "wall_s": statistics.median(plain),
            "items_per_s": workload.items * len(plain) / sum(plain),
            "probe_s": statistics.median(t for c in commands for t in c["probe_s"]),
        }
        trace_check = None
    else:
        per_command = tracing.command_layers(spans)
        layers = [per_command[c["index"]] for c in commands if c["traced"]]
        values = {name: (value, len(layers))
                  for name, value in tracing.median_layers(layers).items()}
        overhead = statistics.median(traced) - statistics.median(plain)
        values["trace.overhead_s"] = (overhead, len(traced) + len(plain))
        values["fail_ratio"] = (failed / len(commands), len(commands))
        trace_check = {
            "layer_sum_s": statistics.median(
                sum(m[k] for k in tracing.SELF_TIME) for m in layers),
            "traced_wall_s": statistics.median(traced),
            "untraced_wall_s": statistics.median(plain),
        }
    units = metric_units()
    result = {
        "correct": failed == 0, "attempted": len(commands), "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in values.items()},
    }
    record = {
        "workload": workload.name, "argv": workload.argv, "inputs": workload.inputs,
        "item": workload.item, "items_per_command": workload.items,
        "commands": {"attempted": len(commands), "failed": failed,
                     "untraced_wall_s": plain, "traced_wall_s": traced,
                     "probe_s": [c.get("probe_s", []) for c in commands]},
        "setup": run["setup"],
        "unscaled": unscaled,
        "metrics": {name: {"value": v, "unit": units[name], "samples": n}
                    for name, (v, n) in values.items()},
        "trace_check": trace_check,
        "problems": {i: found for i, found in problems.items() if found},
        "tailest_file": run["tailest_file"],
    }
    return result, record


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed, required=True)
    parser.add_argument("--seconds", type=int, required=True, choices=range(1, 61),
                        metavar="1..60")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tailest", "cli.py")):
        print("perfbench: no tailest sources under %s; run from the repository root" % src,
              file=sys.stderr)
        return 2
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = tempfile.mkdtemp(prefix=stem + "-", dir=os.path.dirname(results))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        job = {"src": src, "argv": workload.argv, "seconds": args.seconds,
               "trace": bool(args.trace), "workdir": workdir,
               "result_path": os.path.join(workdir, "result.json"),
               "spans_path": os.path.join(results, stem + "-spans.tsv")}
        run = run_worker(job, timeout=RUN_LIMIT_S - (time.monotonic() - started))
        spans = tracing.read_spans(job["spans_path"]) if args.trace else None
        result, record = evaluate(workload, run, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(seed=args.seed, seconds=args.seconds, trace=args.trace, machine=machine())
    record_path = os.path.join(results, stem + ".json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, metric in record["metrics"].items():
        print("%-48s %14.6g %-5s (%d samples)"
              % (name, metric["value"], metric["unit"], metric["samples"]))
    print("%d of %d commands failed; record %s"
          % (result["failed"], result["attempted"], os.path.relpath(record_path, root)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
