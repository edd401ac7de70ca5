"""Stage timings and peak memory of three fixed-seed sweep cells, as one JSON record.

Runs `harness.run_cell` on the p=10, k=3 smoke cell, the p=20, k=4 headline
cell and the p=30, k=4 cell (master seed 0, default SweepConfig otherwise).
Each repetition of a cell runs in a fresh process, so it builds its own
covariance, and its peak resident memory (`ru_maxrss`) is its own.  For each
cell and repetition the record holds the total seconds (time.perf_counter),
the seconds of each stage that run_cell times, the peak memory in MB and
the cell's counters, which include each stage's memory mark
(`stage_peak_mb`).  The Monte Carlo oracle is timed by etabench's
`eta_oracle` workload.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_sweep.py BENCH_<n>.json --repeat 3

`--threads N` gives the information pass of `PosteriorModel` N threads
instead of one per core, and `--before` embeds an earlier record, such as the
previous BENCH file, so one file holds both sides of a comparison.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from etalab import estimators, harness

CELLS = ((10, 3.0), (20, 4.0), (30, 4.0))


def git_sha() -> str | None:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("-dirty" if dirty else "")


def run_one(p: int, k: float, threads: int | None) -> dict:
    """One repetition of a cell in this process, which should be fresh."""
    if threads is not None:
        estimators._set_threads(threads)
    cfg = harness.SweepConfig(master_seed=0, grid_sizes=(p,), exponents=(k,), workers=1)
    start = time.perf_counter()
    row = harness.run_cell(cfg, p, k)
    return {"total_s": time.perf_counter() - start, "stages_s": row.stages,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "counters": row.counters}


def time_cell(p: int, k: float, repeat: int, threads: int | None) -> dict:
    """`repeat` repetitions of a cell, each in a fresh child process."""
    cmd = [sys.executable, __file__, "--one", f"{p}:{k}"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    runs = [json.loads(subprocess.run(cmd, capture_output=True, text=True,
                                      check=True).stdout) for _ in range(repeat)]
    return {
        "p": p, "k": k, "n_trips": math.ceil(p ** k),
        "n_predict": harness.SweepConfig().n_predict,
        "median_total_s": statistics.median(r["total_s"] for r in runs),
        "median_stages_s": {name: statistics.median(r["stages_s"][name] for r in runs)
                            for name in runs[0]["stages_s"]},
        "median_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "counters": runs[0]["counters"],
        "runs": [{key: r[key] for key in ("total_s", "stages_s", "peak_rss_mb")}
                 for r in runs],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="path of the JSON record to write")
    parser.add_argument("--repeat", type=int, default=3, help="repetitions per cell")
    parser.add_argument("--threads", type=int, help="threads of the information pass")
    parser.add_argument("--before", help="an earlier record to embed under 'before'")
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        # a child: one repetition of one cell, printed as JSON
        p, k = args.one.split(":")
        print(json.dumps(run_one(int(p), float(k), args.threads)))
        return
    if args.out is None:
        parser.error("the output path is required")
    record = {
        "git_sha": git_sha(),
        "cores": len(os.sched_getaffinity(0)),
        "threads": args.threads,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cells": [time_cell(p, k, args.repeat, args.threads) for p, k in CELLS],
    }
    if args.before:
        with open(args.before) as fh:
            record["before"] = json.load(fh)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for cell in record["cells"]:
        stages = ", ".join(f"{k} {v:.2f}" for k, v in cell["median_stages_s"].items())
        print(f"p={cell['p']} k={cell['k']}: {cell['median_total_s']:.2f} s, "
              f"{cell['median_peak_rss_mb']:.0f} MB ({stages})")


if __name__ == "__main__":
    main()
