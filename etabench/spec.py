"""What each workload computes, which metrics it reports, and how outputs are checked.

Standard library only: the parent process checks outputs and aggregates
metrics without importing numpy or etalab.

Workloads (all single-process, ``workers=1``):

* ``sweep_dense``: ``run_sweep`` on the p=20, k=4 cell, 160 000 trips on
  1 680 segments.  Loads the trip, kernel and posterior paths; barely
  touches dense n x n algebra.
* ``sweep_wide``: ``run_sweep`` on p=30, k in (1.5, 2.0), 165 and 900 trips
  on 3 720 segments.  Bypasses trip-side work; dominated by the covariance
  eigendecomposition, precision and Cholesky.  Both cells share the
  harness's cached covariance, so cross-cell reuse shows here.
* ``eta_oracle``: the public estimator API on synthesized times (p=10,
  k=3.5, 3 163 trips, 20 predicting routes).  The only workload that builds
  affine ``Prediction`` objects and runs the Monte Carlo oracle.

BENCHMARK.json gates ``sweep_dense`` and ``eta_oracle`` only.  Each
repetition of a workload takes about 20 s, and on a shared 2-core host the
machine's speed drifts by tens of percent, so a run takes the median of
two or three repetitions, which needs 60 s; the time allowed for all gated
runs fits two such workloads, not three.  ``sweep_wide`` runs by hand (``--workload
sweep_wide``, or every workload by default); its covariance layer is also
measured on the gated sweep, at 1 680 segments.

An output is a sweep-cell row or one predicting route of ``eta_oracle``.
"""

from __future__ import annotations

import math

WORKLOADS = ("sweep_dense", "sweep_wide", "eta_oracle")

# SweepConfig fields per workload; every other field keeps its default.
SWEEPS = {
    "full": {
        "sweep_dense": {"grid_sizes": (20,), "exponents": (4.0,), "n_predict": 100},
        "sweep_wide": {"grid_sizes": (30,), "exponents": (1.5, 2.0), "n_predict": 100},
    },
    "tiny": {
        "sweep_dense": {"grid_sizes": (4,), "exponents": (3.0,), "n_predict": 10},
        "sweep_wide": {"grid_sizes": (4,), "exponents": (1.0, 1.5), "n_predict": 10},
    },
    "warmup": {"grid_sizes": (2,), "exponents": (1.0,), "n_predict": 2},
}

# eta_oracle: grid size p, sample-size exponent k (ceil(p**k) trips), predicting
# routes, Monte Carlo replicates per prediction, and the mc_risk batch size.
# A 250-replicate batch of the dense Bayes prediction at p=10 is about 46 MB;
# mc_risk's default of 20 000 would be about 3.7 GB.
ORACLE = {
    "full": {"p": 10, "k": 3.5, "n_routes": 20, "replicates": 1000, "batch_size": 250},
    "tiny": {"p": 4, "k": 2.0, "n_routes": 4, "replicates": 400, "batch_size": 200},
    "warmup": {"p": 2, "k": 1.0, "n_routes": 2, "replicates": 10, "batch_size": 10},
}
ESTIMATORS = ("segment", "gseg", "route", "bayes")

# Reference outputs in reference.json were recorded at this seed.
REFERENCE_SEED = 0
# |actual - expected| <= TOL * max(1, |expected|): relative above 1, absolute
# below.  Reordered float sums move results by about 3.5e-11; a wrong formula
# moves them by far more than 1e-9.  The same slack applies to the ordering
# checks lb <= bayes <= every other estimator.
TOL = 1e-9
# Monte Carlo |z| = |mc mean - closed form| / se.  With 80 estimates per run a
# correct closed form exceeds 5 with probability about 5e-5.
Z_MAX = 5.0

# harness.CSV_COLUMNS, the order of SweepRow.as_tuple()
SWEEP_COLUMNS = ("grid_size", "alpha", "seg_simple", "route", "route_grow",
                 "bayes_optimal", "lb")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Every time here is nonzero on every workload.  Stages only eta_oracle runs
# (trips.synthesize, estimators.{seg,gseg}_weights and predict_*, risk.gseg,
# risk.mc) count in their layer's self_s and are listed per span, with
# risk.mc_replicates_per_s and estimators.active_coef_frac, in the traced
# run's output.  Neighborhood sizes cover every neighborhood resolved: od_exact
# and od_ball_growing in the sweeps, od_ball_growing in eta_oracle.
PER_LAYER = {
    "network.build_s": "s",
    "covariance.build_s": "s",
    "covariance.precision_s": "s",
    "covariance.n_segments": "count",
    "trips.sample_routes_s": "s",
    "trips.dataset_s": "s",
    "trips.pair_counts_s": "s",
    "trips.pair_counts_calls": "count",
    "trips.quadratic_sums_s": "s",
    "trips.neighborhood_s": "s",
    "trips.neighborhood_size_mean": "count",
    "trips.neighborhood_empty_frac": "ratio",
    "trips.n_trips": "count",
    "trips.distinct_route_ratio": "ratio",
    "trips.self_s": "s",
    "estimators.posterior_s": "s",
    "estimators.route_weight_s": "s",
    "estimators.self_s": "s",
    "risk.seg_s": "s",
    "risk.route_s": "s",
    "risk.optimal_s": "s",
    "risk.lower_bound_s": "s",
    "risk.self_s": "s",
    "harness.unattributed_s": "s",
    "harness.traced_total_s": "s",
    "harness.trace_overhead_ratio": "ratio",
}


def n_outputs(workload: str, size: str) -> int:
    if workload == "eta_oracle":
        return ORACLE[size]["n_routes"]
    cfg = SWEEPS[size][workload]
    return len(cfg["grid_sizes"]) * len(cfg["exponents"])


def close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= TOL * max(1.0, abs(expected))


def at_most(a: float, b: float) -> bool:
    return a <= b + TOL * max(1.0, abs(b))


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_sweep_row(row: list) -> list[str]:
    """Problems with one sweep row: non-finite values or a broken bound sandwich."""
    if len(row) != len(SWEEP_COLUMNS) or not _finite(row):
        return [f"row is not {len(SWEEP_COLUMNS)} finite numbers: {row}"]
    vals = dict(zip(SWEEP_COLUMNS, row))
    problems = []
    if not at_most(vals["lb"], vals["bayes_optimal"]):
        problems.append(f"lb {vals['lb']} > bayes_optimal {vals['bayes_optimal']}")
    for col in ("seg_simple", "route", "route_grow"):
        if not at_most(vals["bayes_optimal"], vals[col]):
            problems.append(f"bayes_optimal {vals['bayes_optimal']} > {col} {vals[col]}")
    return problems


def check_oracle_route(rec: dict) -> list[str]:
    """Problems with one eta_oracle route: error, non-finite, ordering or |z|."""
    if "error" in rec:
        return [rec["error"]]
    risk, lb, mc = rec["risk"], rec["lb"], rec["mc"]
    values = [risk[e] for e in ESTIMATORS] + [lb] + [v for e in ESTIMATORS for v in mc[e]]
    if not _finite(values):
        return [f"non-finite value in {rec}"]
    problems = []
    if not at_most(lb, risk["bayes"]):
        problems.append(f"lb {lb} > bayes {risk['bayes']}")
    for e in ESTIMATORS:
        if not at_most(risk["bayes"], risk[e]):
            problems.append(f"bayes {risk['bayes']} > {e} {risk[e]}")
        mean, se = mc[e]
        z = abs(mean - risk[e]) / se if se > 0 else (0.0 if mean == risk[e] else math.inf)
        if z > Z_MAX:
            problems.append(f"{e}: Monte Carlo {mean} vs closed form {risk[e]}, |z| = {z:.2f}")
    return problems


def check_output(workload: str, out) -> list[str]:
    return check_oracle_route(out) if workload == "eta_oracle" else check_sweep_row(out)


def _failed(out) -> bool:
    return isinstance(out, dict) and "error" in out


def closed_forms(workload: str, out) -> list[float]:
    """The deterministic part of an output: what reference and replica must match."""
    if workload == "eta_oracle":
        return [out["risk"][e] for e in ESTIMATORS] + [out["lb"]]
    return list(out)


def mismatch(workload: str, out, expected: list | None) -> str | None:
    """Why `out` differs from the closed forms `expected` beyond TOL, or None.

    None for `expected` means there is nothing to compare against.
    """
    if expected is None or _failed(out):
        return None
    got = closed_forms(workload, out)
    if len(got) != len(expected) or not all(close(a, b) for a, b in zip(got, expected)):
        return f"{got} differs from {expected} beyond {TOL}"
    return None


def expected_from(workload: str, outputs: list) -> list:
    """Closed forms of a run's outputs, None where an output raised."""
    return [None if _failed(o) else closed_forms(workload, o) for o in outputs]
