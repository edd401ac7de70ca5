"""Benchmark of etalab: two sweep cells and the Monte Carlo ETA oracle.

Run from the repository root.  One workload, one seed, one trace mode:

    python3 etabench/run.py --workload sweep_dense --seed 0 --seconds 60 --trace 0

Every workload with a summary (the default), and the fast self-check that runs
every workload untraced and traced on p <= 4 grids:

    python3 etabench/run.py
    python3 etabench/run.py --selfcheck

Each repetition runs in a fresh child process (child.py), so the harness's
covariance cache and the precision's cached property never carry over and
peak memory is per repetition.  Children get the BLAS thread count capped at
the core count; this process's own environment is left alone.

Untraced (--trace 0), the last stdout line reports the end-to-end metrics:
wall_s, the median seconds of a repetition's work; setup_s, the median
seconds from spawning a repetition's child through ``import etalab`` and a
p=2 warm-up; peak_rss_mb, the median peak resident memory of a repetition.
Repetitions start until the next one would end past --seconds, so a 60 s
run of a 15-25 s workload takes the median of two or three.  Traced
(--trace 1), it runs one untraced and one span-instrumented repetition and
reports per-layer seconds and counters from the second: a stage's seconds
are the summed durations of its spans, a layer's ``self_s`` its spans minus
their children, ``harness.unattributed_s`` the traced total minus all layer
spans, and ``harness.trace_overhead_ratio`` the traced total over the
untraced wall_s.  Lines before the last print every metric with its unit,
every span total, and failed_frac: outputs that raised, were non-finite or
failed a check, over outputs attempted.  Each run writes its samples,
environment, checks and spans to .etabench/.

Checks, for every output: finite values, lb <= Bayes-optimal <= every other
estimator, Monte Carlo |z| <= spec.Z_MAX; at the reference seed, closed forms
within spec.TOL of reference.json; traced, the replica's closed forms within
spec.TOL of the untraced run's.

Exit code 1 means an output failed its check; 2 means the repository's
sources (src/etalab) are not in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import spec
from spans import now, summarize

HERE = Path(__file__).resolve().parent
SRC = Path("src")
OUT_DIR = Path(".etabench")
REFERENCE = HERE / "reference.json"
RUN_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def host_environment() -> dict:
    sha = None
    if Path(".git").exists():  # an exported checkout has no history to name
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "etalab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0))}


def spawn(workload: str, seed: int, size: str, mode: str, deadline: float) -> dict:
    """One repetition in a fresh child process; its record plus parent-side times."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode]
    t0 = now()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child exceeded the {RUN_LIMIT_S:.0f} s run limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["t_ready"] - t0
    rec["spawn_s"] = now() - t0
    rec["wall_s"] = rec["t_end"] - rec["t_start"]
    return rec


def check(workload: str, size: str, rec: dict, expected: list | None) -> tuple[int, list]:
    """(failed outputs, problems) of one repetition, against `expected` if given."""
    n = spec.n_outputs(workload, size)
    if "error" in rec:
        return n, [rec["error"]]
    outs = rec["outputs"]
    problems = [] if len(outs) == n else [f"expected {n} outputs, got {len(outs)}"]
    failed = n - min(n, len(outs))
    for i, out in enumerate(outs[:n]):
        found = spec.check_output(workload, out)
        why = spec.mismatch(workload, out, expected[i] if expected else None)
        if why:
            found.append(why)
        failed += bool(found)
        problems += [f"output {i}: {p}" for p in found]
    return failed, problems


def load_reference(workload: str, size: str, seed: int) -> tuple[list | None, dict]:
    """Reference closed forms (only at the reference seed) and their environment."""
    ref = json.loads(REFERENCE.read_text())
    outputs = ref["outputs"][f"{size}/{workload}"] if seed == spec.REFERENCE_SEED else None
    return outputs, ref["env"]


def layer_metrics(traced: dict, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced repetition, and the detail behind them."""
    s = summarize(traced["spans"])
    stage, calls, self_s = s["stage_s"], s["calls"], s["layer_self_s"]
    counters = traced["counters"]
    sizes = counters.get("trips.neighborhood_size", [])
    n_trips = sum(counters["trips.n_trips"])
    values = {
        "covariance.n_segments": max(counters["covariance.n_segments"]),
        "trips.pair_counts_calls": calls.get("trips.pair_counts", 0),
        "trips.neighborhood_size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "trips.neighborhood_empty_frac": (sum(v == 0 for v in sizes) / len(sizes)
                                          if sizes else 0.0),
        "trips.n_trips": n_trips,
        "trips.distinct_route_ratio": sum(counters["trips.distinct_routes"]) / n_trips,
        "harness.unattributed_s": s["traced_total_s"] - s["layer_spans_s"],
        "harness.traced_total_s": s["traced_total_s"],
        "harness.trace_overhead_ratio": s["traced_total_s"] / untraced_wall,
    }
    for name in spec.PER_LAYER:
        if name in values:
            continue
        if name.endswith(".self_s"):
            values[name] = self_s.get(name.split(".")[0], 0.0)
        else:
            values[name] = stage.get(name[:-len("_s")], 0.0)
    values = {name: values[name] for name in spec.PER_LAYER}
    detail = {"stage_s": stage, "calls": calls, "layer_self_s": self_s}
    if "risk.mc" in stage:
        detail["risk.mc_replicates_per_s"] = sum(counters["risk.mc_replicates"]) / stage["risk.mc"]
        detail["estimators.active_coef_frac"] = (sum(counters["estimators.active_coef_vectors"])
                                                 / sum(counters["estimators.coef_vectors"]))
    return values, detail


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 deadline: float) -> dict:
    def run(mode: str) -> dict:
        return spawn(workload, seed, size, mode, deadline)

    reference, ref_env = load_reference(workload, size, seed)
    start = now()
    reps = []
    while True:
        reps.append(run("run"))
        if trace or now() - start + reps[-1]["spawn_s"] > seconds:
            break
    checked = [check(workload, size, r, reference) for r in reps]
    if trace:
        traced = run("traced")
        base = reps[0].get("outputs")
        # the traced replica must reproduce the untraced run's outputs
        expected = spec.expected_from(workload, base) if base else reference
        checked.append(check(workload, size, traced, expected))
    failed = sum(f for f, _ in checked)
    result = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "attempted": spec.n_outputs(workload, size) * len(checked), "failed": failed,
        "problems": [p for _, ps in checked for p in ps],
        "env": {**host_environment(), **reps[0]["env"]},
        "reference_checked": reference is not None,
        "samples": {"setup_s": [r["setup_s"] for r in reps],
                    "wall_s": [r["wall_s"] for r in reps],
                    "peak_rss_mb": [r["rss_mb"] for r in reps]},
    }
    # results from another kernel backend do not compare with the recorded ones
    result["comparable"] = ref_env["kernel_backend"] == result["env"]["kernel_backend"]
    samples = result["samples"]
    if trace:
        # a traced repetition that raised has no complete spans or counters
        values, detail = ({}, {}) if "error" in traced else layer_metrics(
            traced, statistics.median(samples["wall_s"]))
        result["units"] = spec.PER_LAYER
        result["detail"] = detail
        result["spans"] = traced["spans"]
    else:
        values = {k: statistics.median(samples[k]) for k in spec.END_TO_END}
        result["units"] = spec.END_TO_END
    result["metrics"] = values
    return result


def write_result(result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"{result['workload']}-{result['size']}-seed{result['seed']}"
                      f"-trace{int(result['trace'])}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def print_summary(result: dict) -> None:
    w = result["workload"]
    counts = {k: len(v) for k, v in result["samples"].items()}
    for name, value in result["metrics"].items():
        n = f"  (median of {counts[name]})" if name in counts else ""
        print(f"{w:<12} {name:<32} {value:>14.6g} {result['units'][name]}{n}")
    for name, value in sorted(result.get("detail", {}).get("stage_s", {}).items()):
        print(f"{w:<12} {'span ' + name:<32} {value:>14.6g} s")
    for name in ("risk.mc_replicates_per_s", "estimators.active_coef_frac"):
        if name in result.get("detail", {}):
            print(f"{w:<12} {name:<32} {result['detail'][name]:>14.6g}")
    print(f"{w:<12} {'failed_frac':<32} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} outputs)")
    if not result["comparable"]:
        print(f"{w:<12} NOT COMPARABLE: kernel backend {result['env']['kernel_backend']} "
              "differs from the reference's")
    for p in result["problems"]:
        print(f"{w:<12} FAILED CHECK {p}")


def record_reference(seed: int) -> None:
    """Re-record reference.json from the sources in the working directory."""
    deadline = now() + 10 * RUN_LIMIT_S
    outputs, env = {}, None
    for size in ("full", "tiny"):
        for w in spec.WORKLOADS:
            rec = spawn(w, seed, size, "run", deadline)
            outputs[f"{size}/{w}"] = spec.expected_from(w, rec["outputs"])
            env = rec["env"]
    payload = {"seed": seed, "tolerance": spec.TOL, "env": env, "outputs": outputs}
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=spec.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=spec.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=60.0,
                    help="measure repetitions until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="p <= 4 grids, every workload path traced and untraced")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the current sources at --seed")
    args = ap.parse_args(argv)

    if not (SRC / "etalab" / "__init__.py").is_file():
        print(f"etabench: no {SRC / 'etalab'} here; run from the repository root",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(args.seed)
        return 0
    size = "tiny" if args.selfcheck else "full"
    names = spec.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.selfcheck else (bool(args.trace),)
    single = len(names) == 1 and len(traces) == 1
    deadline = now() + (RUN_LIMIT_S if single else RUN_LIMIT_S * len(names) * len(traces))
    results = []
    for w in names:
        for trace in traces:
            try:
                result = run_workload(w, args.seed, args.seconds, trace, size, deadline)
            except ChildFailed as e:
                print(f"etabench: {w}: {e}", file=sys.stderr)
                return 1
            write_result(result)
            print_summary(result)
            results.append(result)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        prefix = "" if single else f"{r['workload']}.trace{int(r['trace'])}."
        metrics.update({prefix + k: {"value": v, "unit": r["units"][k]}
                        for k, v in r["metrics"].items()})
    all_ok = failed == 0 and not any(r["problems"] for r in results)
    print(json.dumps({"correct": all_ok,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
