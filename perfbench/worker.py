"""Runs one workload's command in a closed loop, in process, and times it.

Started by run.py as its own process so that the peak resident memory it
reports belongs to the CLI work alone.  Usage: worker.py JOB.json, where the
job names the source tree, the argv (with "{out}" for a fresh directory per
command), the seconds to run, whether to trace, and where to write results.

With tracing, commands alternate untraced and traced (untraced first), so
the difference between the two medians is the tracing overhead.  Untraced,
the worker also times `import tailest.cli` in a fresh interpreter every
seconds / SETUP_RUNS between commands, so that the set-up samples are spread
over the whole run.  Right after each untraced command and each set-up
sample it times speed_probe(), once per PROBE_EVERY_S of the sample's wall
time, to measure how fast the shared machine ran at that moment.  The time
set-up and probe samples take does not count against the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

import tracing

SETUP_RUNS = 9
PROBE_EVERY_S = 0.5
PROBE_ROUNDS = 3  # over few values, so that the probe adds little to peak_rss_mb
PROBE_VALUES = (np.random.default_rng(20100723).random(5_000) + 1.0).tolist()
PROBE_GRID = np.linspace(1.0, 2.0, 10_000)
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import tailest.cli; "
              "print(time.perf_counter() - t)")


def measure_setup(src: str) -> float:
    """Seconds to import tailest.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, src], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def speed_probe() -> float:
    """Seconds for a fixed job in about equal parts like the three workloads:
    formatting and parsing floats, a scalar math loop, and small numpy calls
    on a 10^4-point grid.  It never calls tailest, so a change to the program
    cannot move it; only the machine's speed can."""
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        parsed = [float(text) for text in ["%.17g" % v for v in PROBE_VALUES]]
        total = 0.0
        for v in parsed * 4:
            total += math.log(v) - 1.0 / math.expm1(v)
        x = np.array(parsed) - 1.0
        for i in range(0, x.size, 200):
            pdf = PROBE_GRID ** -1.5
            steps = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(PROBE_GRID)
            cdf = np.concatenate([[0.0], np.cumsum(steps)])
            drawn = np.sort(np.log(np.interp(x[i:i + 200], cdf / cdf[-1], PROBE_GRID)))
            if not 0.0 <= drawn[0] <= drawn[-1] <= math.log(2.0):
                raise RuntimeError("speed probe computed a wrong result")
    if parsed != PROBE_VALUES or not math.isfinite(total):
        raise RuntimeError("speed probe computed a wrong result")
    return time.perf_counter() - start


def probed(sample: dict) -> dict:
    """Add to a timed sample the times of speed_probe() run right after it,
    one per PROBE_EVERY_S of the sample's wall time."""
    repeats = max(1, round(sample["wall_s"] / PROBE_EVERY_S))
    sample["probe_s"] = [speed_probe() for _ in range(repeats)]
    return sample


def run_command(main, argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this command, not the whole run
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return {"argv": argv, "exit_code": code, "wall_s": wall,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import tailest.cli

    tracer = tracing.Tracer() if job["trace"] else None
    traced_main = tracer.wrap(tracing.ROOT, tailest.cli.main) if tracer else None
    commands, setup = [], []
    start, paused = time.perf_counter(), 0.0  # time spent on set-up and probes is paused

    def elapsed():
        return time.perf_counter() - start - paused

    while not commands or elapsed() < job["seconds"] or (tracer and len(commands) < 2):
        if not tracer and elapsed() >= len(setup) * job["seconds"] / SETUP_RUNS:
            before = time.perf_counter()
            setup.append(probed({"wall_s": measure_setup(job["src"])}))
            paused += time.perf_counter() - before
        index = len(commands)
        out_dir = os.path.join(job["workdir"], "cmd-%03d" % index)
        argv = [a.replace("{out}", out_dir) for a in job["argv"]]
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.command = index
            tracer.install()
            try:
                record = run_command(traced_main, argv)
            finally:
                tracer.uninstall()
        else:
            record = run_command(tailest.cli.main, argv)
        if not tracer:
            before = time.perf_counter()
            probed(record)
            paused += time.perf_counter() - before
        record.update(index=index, out_dir=out_dir, traced=traced)
        commands.append(record)
    while not tracer and len(setup) < SETUP_RUNS:
        setup.append(probed({"wall_s": measure_setup(job["src"])}))

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    if tracer:
        tracer.write(job["spans_path"])
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "setup": setup, "peak_rss_mb": peak_kb / 1024.0,
                   "tailest_file": tailest.cli.__file__}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
