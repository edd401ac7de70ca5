"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest etabench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def selfcheck():
    return _run(["--selfcheck", "--seconds", "1"])


def test_selfcheck_passes_and_reports_every_metric(selfcheck):
    assert selfcheck.returncode == 0, selfcheck.stdout + selfcheck.stderr
    last = json.loads(selfcheck.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for w in spec.WORKLOADS:
        for trace, names in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            for name, unit in names.items():
                m = last["metrics"][f"{w}.trace{trace}.{name}"]
                assert m["unit"] == unit
                assert isinstance(m["value"], (int, float))
    assert "failed_frac" in selfcheck.stdout


def test_selfcheck_writes_traced_result_files(selfcheck):
    for w in spec.WORKLOADS:
        result = json.loads((ROOT / ".etabench" / f"{w}-tiny-seed0-trace1.json").read_text())
        assert result["reference_checked"] and result["comparable"]
        assert {"git_sha", "nproc", "kernel_backend", "python", "numpy", "scipy",
                "blas", "blas_threads"} <= set(result["env"])
        assert result["spans"] and all(s["end"] >= s["start"] for s in result["spans"])
        # every layer named in the per-layer metrics was entered at least once
        layers = {s["name"].split(".")[0] for s in result["spans"]}
        assert {n.split(".")[0] for n in spec.PER_LAYER} <= layers


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == {"sweep_dense", "eta_oracle"}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.PER_LAYER


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "etabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "sweep_dense", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""


GOOD_ROW = [20, 4.0, -1.7663, 0.8304, 0.7884, -1.7672, -1.8339]


def test_sweep_row_checks_catch_wrong_results():
    assert spec.check_sweep_row(GOOD_ROW) == []
    assert spec.check_sweep_row(GOOD_ROW[:5] + [-1.0, -1.8339])  # bayes above seg
    assert spec.check_sweep_row(GOOD_ROW[:6] + [-1.0])  # lb above bayes
    assert spec.check_sweep_row(GOOD_ROW[:2] + [float("nan")] + GOOD_ROW[3:])
    assert spec.mismatch("sweep_dense", GOOD_ROW, GOOD_ROW) is None
    shifted = GOOD_ROW[:2] + [v + 3.5e-11 for v in GOOD_ROW[2:]]
    assert spec.mismatch("sweep_dense", shifted, GOOD_ROW) is None
    wrong = GOOD_ROW[:2] + [v + 1e-8 for v in GOOD_ROW[2:]]
    assert spec.mismatch("sweep_dense", wrong, GOOD_ROW)


def _route(**mc):
    risk = {"segment": 1.05, "gseg": 1.5, "route": 1.5, "bayes": 1.04}
    return {"risk": risk, "lb": 1.02,
            "mc": {e: mc.get(e, [risk[e], 0.07]) for e in spec.ESTIMATORS}}


def test_oracle_checks_catch_wrong_results():
    assert spec.check_oracle_route(_route()) == []
    assert spec.check_oracle_route(_route(route=[1.5 + 6 * 0.07, 0.07]))
    bad = _route()
    bad["risk"]["bayes"] = 1.06  # above the segment estimator
    assert spec.check_oracle_route(bad)
    assert spec.check_oracle_route({"error": "route 3: LinAlgError()"})
    assert spec.mismatch("eta_oracle", {"error": "x"}, [1.0] * 5) is None


def test_span_self_times_subtract_children():
    tr = Tracer()
    with tr.span("harness.run"):
        with tr.span("trips.sample_routes"):
            pass
        with tr.span("risk.mc"):
            pass
    s = summarize(tr.spans)
    total = tr.spans[0]["end"] - tr.spans[0]["start"]
    assert s["traced_total_s"] == pytest.approx(total)
    assert sum(s["layer_self_s"].values()) == pytest.approx(total)
    assert s["calls"] == {"harness.run": 1, "trips.sample_routes": 1, "risk.mc": 1}
