"""Time the CLI commands the benchmark does not run, and its workloads.

    python tools/bench_commands.py SRC [--base BASE_SRC] [--runs N] [--out FILE]
        [--only [COMMAND ...]] [--workloads [WORKLOAD ...]]

SRC (and BASE_SRC) is a directory holding the ``tailest`` package, such as
a checkout's ``src``.  Each command runs as ``python -m tailest.cli`` in a
new process with OPENBLAS_NUM_THREADS=1; its wall time is taken around the
process and its peak resident memory from ``os.wait4``, which reports the
child's own ``ru_maxrss`` (``RUSAGE_CHILDREN`` would give the largest of all
children so far).  A child's ``ru_maxrss`` starts from the high-water mark
of the process that forked it, so the command is spawned by a small
launcher interpreter (``python -S``, about 10 MB), not by this script,
which holds the input and numpy.  The input is built once from a fixed seed: 10^6 draws
from x^-1.5 on [1, 1e4], shuffled as a file of measurements usually is,
written as plain lines and as a two-column CSV.

With --base, every run of a command is a pair: the two checkouts run one
after the other, in alternating order, and the ratio SRC / BASE_SRC of each
pair is reported with the two sets of runs.  A fresh process's peak moves
with the length of the source path (a heap-layout effect of about 10 MB was
seen), so the two paths should have equal length; a warning says when they
do not.  The outputs of the two checkouts are compared by sha256.

With --workloads, each run also runs the named BENCHMARK.json workloads
(all of them when none is named) after the commands, with the same
alternation: ``python <this checkout>/perfbench/run.py --workload W --seed S
--seconds <run_seconds> --trace 0``, with the working directory set to each
checkout's root, the parent of its SRC, so that the one benchmark runs
each checkout's sources.  Run i of every workload uses seed
WORKLOAD_SEED + i on both sides.  The last JSON line of each run gives its
end-to-end metrics and its attempted and failed command counts.  --only
with no names runs no command.

The JSON written to --out holds, per command and checkout, every run and
the median and quartiles of wall time and peak; per workload and checkout,
the same for each end-to-end metric, with attempted and failed; and per
pair the ratios SRC / BASE_SRC, with the number of pairs in which SRC is
the better (for a workload metric, by its direction in BENCHMARK.json).
It also holds each checkout's commit and path length and the machine: CPU
model, CPU count, Python and numpy versions and PYTHONDONTWRITEBYTECODE.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # this checkout

N_VALUES = 1_000_000
SEED = 20100723
WORKLOAD_SEED = 2600

# name -> argv after "python -m tailest.cli"; {plain}, {csv} and {out} are
# the plain input, the CSV input and a fresh output path
COMMANDS = {
    "estimate_plot_1m": ["estimate", "{plain}", "--plot", "{out}"],
    "estimate_column_1m": ["estimate", "{csv}", "--column", "value"],
    "simulate_1m": ["simulate", "--dist", "sqrtinv", "--dlow", "3", "--dhigh", "15000",
                    "--n", "1000000", "--seed", "7", "--out", "{out}"],
    "table_seeds_2000": ["table", "--seeds", "1-2000", "--out", "{out}"],
    "table_seeds_10000": ["table", "--seeds", "1-10000", "--out", "{out}"],
}


def write_inputs(workdir: str) -> dict[str, str]:
    """The shuffled 10^6-value input as plain lines and as a CSV column."""
    rng = np.random.default_rng(SEED)
    a = -0.5  # 1 - exponent
    x = (1.0 + rng.random(N_VALUES) * (1e4 ** a - 1.0)) ** (1.0 / a)
    rng.shuffle(x)
    texts = ["%.17g" % v for v in x.tolist()]
    paths = {"plain": os.path.join(workdir, "values.txt"),
             "csv": os.path.join(workdir, "values.csv")}
    with open(paths["plain"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(texts) + "\n")
    with open(paths["csv"], "w", encoding="utf-8") as fh:
        fh.write("id,value\n")
        fh.writelines("%d,%s\n" % (i, text) for i, text in enumerate(texts))
    return paths


def digest(path: str, stdout: bytes) -> str:
    """sha256 over stdout and every file at path (a file or a directory)."""
    h = hashlib.sha256(stdout)
    files = ([os.path.join(path, name) for name in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path] if os.path.exists(path) else [])
    for name in files:
        h.update(os.path.basename(name).encode())
        with open(name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


# Spawns argv[2:] with its stdout to the file argv[1] and its stderr to
# /dev/null, and prints its wall seconds, exit code and ru_maxrss (KB).
LAUNCHER = """
import os, sys, time
actions = [(os.POSIX_SPAWN_OPEN, 1, sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
           (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_once(src: str, argv: list[str], inputs: dict[str, str], workdir: str) -> dict:
    """One fresh-process run: wall seconds, peak MB and a digest of its output."""
    out = os.path.join(workdir, "out")
    argv = [arg.format(out=out, **inputs) for arg in argv]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    stdout = os.path.join(workdir, "stdout")
    report = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, stdout,
         sys.executable, "-m", "tailest.cli", *argv],
        env=env, cwd=workdir, capture_output=True, text=True, check=True).stdout.split()
    wall, code, peak_kb = float(report[0]), int(report[1]), int(report[2])
    if code != 0:
        raise SystemExit("exit %d: %s" % (code, " ".join(argv)))
    with open(stdout, "rb") as fh:
        result = {"wall_s": wall, "peak_mb": peak_kb / 1024.0, "sha256": digest(out, fh.read())}
    if os.path.isdir(out):
        shutil.rmtree(out)
    elif os.path.exists(out):
        os.remove(out)
    return result


def run_workload(src: str, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run of a workload on the checkout whose sources are at
    src: the JSON object on the last line of its stdout."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=os.path.dirname(os.path.abspath(src)), capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("perfbench exit %d on %s: %s" % (done.returncode, workload,
                                                          done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles, with every value."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "all": values}


def commit(src: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", src, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def paired(src_values: list[float], base_values: list[float], lower_is_better: bool) -> dict:
    """The ratios src / base of each pair, and in how many of them src is the better."""
    ratios = [a / b for a, b in zip(src_values, base_values)]
    better = sum(r < 1.0 if lower_is_better else r > 1.0 for r in ratios)
    return dict(spread(ratios), src_better=better, pairs=len(ratios))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark_spec = json.load(fh)
    workloads = [w["name"] for w in benchmark_spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="directory holding the tailest package")
    parser.add_argument("--base", help="a second such directory, run in alternating pairs")
    parser.add_argument("--runs", type=int, default=5, help="runs (pairs) per command")
    parser.add_argument("--only", nargs="*", choices=list(COMMANDS), help="commands to run")
    parser.add_argument("--workloads", nargs="*", choices=workloads,
                        help="also run these benchmark workloads (all when none is named)")
    parser.add_argument("--out", help="write the JSON record here")
    args = parser.parse_args(argv)
    checkouts = {"src": args.src} if args.base is None else {"base": args.base, "src": args.src}
    if args.base is not None and len(os.path.abspath(args.base)) != len(os.path.abspath(args.src)):
        print("warning: the source paths differ in length; a fresh process's peak moves "
              "with it", file=sys.stderr)
    names = list(COMMANDS) if args.only is None else args.only
    chosen = [] if args.workloads is None else args.workloads or workloads
    results = {name: {label: [] for label in checkouts} for name in names}
    workload_results = {name: {label: [] for label in checkouts} for name in chosen}
    with tempfile.TemporaryDirectory() as workdir:
        inputs = write_inputs(workdir) if names else None
        for run in range(args.runs):
            order = list(checkouts) if run % 2 == 0 else list(reversed(checkouts))
            for name in names:
                for label in order:
                    record = run_once(checkouts[label], COMMANDS[name], inputs, workdir)
                    results[name][label].append(record)
                    print("%-20s %-4s run %d: %.3f s, %.1f MB" % (
                        name, label, run + 1, record["wall_s"], record["peak_mb"]),
                        file=sys.stderr)
            for name in chosen:
                for label in order:
                    record = run_workload(checkouts[label], name, WORKLOAD_SEED + run,
                                          benchmark_spec["run_seconds"])
                    workload_results[name][label].append(record)
                    print("%-20s %-4s run %d: %s, %d of %d failed" % (
                        name, label, run + 1, ", ".join(
                            "%s %.4g" % (metric, value["value"])
                            for metric, value in record["metrics"].items()),
                        record["failed"], record["attempted"]), file=sys.stderr)
    commands = {}
    for name in names:
        entry = {"argv": COMMANDS[name]}
        for label, records in results[name].items():
            entry[label] = {"wall_s": spread([r["wall_s"] for r in records]),
                            "peak_mb": spread([r["peak_mb"] for r in records])}
        if args.base is not None:
            pairs = list(zip(results[name]["src"], results[name]["base"]))
            entry["identical_output"] = all(a["sha256"] == b["sha256"] for a, b in pairs)
            for metric in ("wall_s", "peak_mb"):
                entry["ratio_" + metric] = paired(
                    [a[metric] for a, _ in pairs], [b[metric] for _, b in pairs], True)
        commands[name] = entry
    benchmark = {}
    for name in chosen:
        entry = {"seeds": [WORKLOAD_SEED + run for run in range(args.runs)]}
        for label, records in workload_results[name].items():
            entry[label] = {"attempted": [r["attempted"] for r in records],
                            "failed": [r["failed"] for r in records]}
            for metric in benchmark_spec["end_to_end"]:
                entry[label][metric["name"]] = spread(
                    [r["metrics"][metric["name"]]["value"] for r in records])
        if args.base is not None:
            for metric in benchmark_spec["end_to_end"]:
                entry["ratio_" + metric["name"]] = paired(
                    entry["src"][metric["name"]]["all"], entry["base"][metric["name"]]["all"],
                    metric["better"] == "lower")
        benchmark[name] = entry
    record = {
        "what": "fresh-process wall time and peak RSS (os.wait4 ru_maxrss) per CLI command",
        "input": {"values": N_VALUES, "seed": SEED, "density": "x^-1.5 on [1, 1e4], shuffled"},
        "runs": args.runs,
        "checkouts": {label: {"path_length": len(os.path.abspath(path)), "commit": commit(path)}
                      for label, path in checkouts.items()},
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "commands": commands,
    }
    if chosen:
        record["benchmark"] = {
            "what": "perfbench/run.py end-to-end metrics, --seconds %d --trace 0"
            % benchmark_spec["run_seconds"], "workloads": benchmark}
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
