"""One benchmark repetition in a fresh process; prints one JSON record.

Set-up (interpreter start, ``import etalab``, a p=2 warm-up of the workload's
entry point) ends at ``t_ready``; the work runs from ``t_start`` to ``t_end``.
Times are CLOCK_MONOTONIC readings, so the parent, which noted when it
spawned this process, derives the set-up time from ``t_ready``.

    PYTHONPATH=src python3 etabench/child.py --workload sweep_dense --seed 0 --size full --mode run

run.py starts it with that environment and the BLAS thread cap.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback

import numpy as np
import scipy

import etalab
from spans import Tracer, now
from spec import WORKLOADS
import workloads


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": etalab.kernel_backend,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--mode", choices=("run", "traced"), required=True)
    args = ap.parse_args(argv)

    workloads.warm_up(args.workload, args.seed)
    rec = {"t_ready": now(), "env": environment()}
    tracer = Tracer() if args.mode == "traced" else None
    rec["t_start"] = now()
    try:
        rec["outputs"] = workloads.run(args.workload, args.seed, args.size, tracer)
    except Exception:  # reported as failed outputs by the parent
        rec["error"] = traceback.format_exc()
    rec["t_end"] = now()
    if tracer is not None:
        rec["spans"] = tracer.spans
        rec["counters"] = tracer.counters
    rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
