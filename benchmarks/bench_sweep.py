"""Stage timings of two fixed-seed sweep cells, written as one JSON record.

Runs `harness.run_cell` in this process on the p=10, k=3 smoke cell and the
p=20, k=4 headline cell (master seed 0, default SweepConfig otherwise) and
records, for each cell and repetition, the total seconds (time.perf_counter)
and the seconds of each stage that run_cell times.  The covariance cache is
cleared before every repetition, so each one builds its covariance and
precision.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_sweep.py BENCH_<n>.json --repeat 3

`--before` embeds an earlier record, such as the previous BENCH file, so one
file holds both sides of a comparison.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import time

import numpy as np

from etalab import harness

CELLS = ((10, 3.0), (20, 4.0))


def git_sha() -> str | None:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("-dirty" if dirty else "")


def time_cell(p: int, k: float, repeat: int) -> dict:
    cfg = harness.SweepConfig(master_seed=0, grid_sizes=(p,), exponents=(k,), workers=1)
    runs = []
    for _ in range(repeat):
        harness._sweep_covariance.cache_clear()
        start = time.perf_counter()
        row = harness.run_cell(cfg, p, k)
        runs.append({"total_s": time.perf_counter() - start, "stages_s": row.stages})
    return {
        "p": p, "k": k, "n_trips": math.ceil(p ** k), "n_predict": cfg.n_predict,
        "median_total_s": statistics.median(r["total_s"] for r in runs),
        "median_stages_s": {name: statistics.median(r["stages_s"][name] for r in runs)
                            for name in runs[0]["stages_s"]},
        "runs": runs,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON record to write")
    parser.add_argument("--repeat", type=int, default=3, help="repetitions per cell")
    parser.add_argument("--before", help="an earlier record to embed under 'before'")
    args = parser.parse_args()
    record = {
        "git_sha": git_sha(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cells": [time_cell(p, k, args.repeat) for p, k in CELLS],
    }
    if args.before:
        with open(args.before) as fh:
            record["before"] = json.load(fh)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for cell in record["cells"]:
        stages = ", ".join(f"{k} {v:.2f}" for k, v in cell["median_stages_s"].items())
        print(f"p={cell['p']} k={cell['k']}: {cell['median_total_s']:.2f} s ({stages})")


if __name__ == "__main__":
    main()
