import csv
import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest

from etalab import fixtures as fx, harness
from etalab.estimators import PosteriorModel
from etalab.harness import (
    CSV_COLUMNS,
    ConfigError,
    GoldenRow,
    SweepConfig,
    SweepRow,
    _cell_seed,
    _sweep_covariance,
    emit_csv,
    emit_manifest,
    oracle_cases,
    run_cell,
    run_examples,
    run_sweep,
)
from etalab.covariance import _OrbitTable, diffusion_covariance
from etalab.estimators import (optimal_gseg_weights, optimal_route_weight, optimal_seg_weights,
                               predict_gseg, predict_route, predict_segment)
from etalab.network import AdjacencyRule, build_grid, segment_graph
from etalab.risk import (lower_bound, mc_risk, risk_gseg, risk_optimal, risk_route,
                         risk_seg)
from etalab.trips import (NeighborhoodSpec, ODLaw, PriorSpec, resolve_neighborhood,
                          sample_routes, sample_trips, synthesize_times)


def _tiny_config(**over):
    base = dict(master_seed=5, grid_sizes=(3,), exponents=(1.0,),
                n_predict=4, workers=1)
    base.update(over)
    return SweepConfig(**base)


def test_config_defaults_valid():
    cfg = SweepConfig()
    assert cfg.grid_sizes == (10, 15, 20, 25, 30)
    assert cfg.exponents == (1.0, 2.0, 3.0, 4.0)
    assert cfg.tau2 == 0.5
    assert cfg.n_predict == 100


@pytest.mark.parametrize("bad", [
    {"grid_sizes": ()},
    {"grid_sizes": (0,)},
    {"exponents": ()},
    {"n_predict": 0},
    {"tau2": 0.0},
    {"od_alpha": -1.0},
    {"workers": 0},
    {"u": -0.5},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        _tiny_config(**bad)


@pytest.mark.parametrize("exponents", [(1.0, 1.0004), (2.0, 2.0)])
def test_config_rejects_colliding_exponent_seeds(exponents):
    # cells are seeded from round(1000 * k), so these would share one seed
    with pytest.raises(ConfigError, match="exponents must differ"):
        _tiny_config(exponents=exponents)
    _tiny_config(exponents=(1.0, 1.001))


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        SweepConfig.from_dict({"grid_sizes": [3], "typo_key": 1})


def test_config_json_roundtrip(tmp_path):
    cfg = _tiny_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = SweepConfig.from_json(path)
    assert again == cfg


def test_emit_csv_header_only():
    buf = io.StringIO()
    emit_csv([], buf)
    assert buf.getvalue().strip() == ",".join(CSV_COLUMNS)


def test_emit_csv_roundtrip():
    row = SweepRow(3, 1.0, -0.5, 0.25, 0.125, -0.75, -1.0)
    buf = io.StringIO()
    emit_csv([row], buf)
    buf.seek(0)
    parsed = list(csv.DictReader(buf))
    assert len(parsed) == 1
    assert tuple(parsed[0]) == CSV_COLUMNS
    assert float(parsed[0]["seg_simple"]) == -0.5
    assert float(parsed[0]["lb"]) == -1.0


def test_run_sweep_deterministic_and_seed_sensitive():
    rows_a = run_sweep(_tiny_config())
    rows_b = run_sweep(_tiny_config())
    rows_c = run_sweep(_tiny_config(master_seed=6))
    assert [r.as_tuple() for r in rows_a] == [r.as_tuple() for r in rows_b]
    assert [r.as_tuple() for r in rows_a] != [r.as_tuple() for r in rows_c]


def test_run_sweep_worker_count_invariant():
    serial = run_sweep(_tiny_config(grid_sizes=(3, 4), exponents=(1.0, 2.0)))
    parallel = run_sweep(_tiny_config(grid_sizes=(3, 4), exponents=(1.0, 2.0),
                                      workers=3))
    buf_a, buf_b = io.StringIO(), io.StringIO()
    emit_csv(serial, buf_a)
    emit_csv(parallel, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_run_cell_records_stage_seconds():
    row = run_cell(_tiny_config(), 3, 1.0)
    assert set(row.stages) == {"covariance", "sampling", "posterior", "precision",
                               "pair_counts", "neighborhoods", "risks"}
    assert all(v >= 0.0 for v in row.stages.values())
    # the timings are not part of the row's value or of its CSV line
    assert row == dataclasses.replace(row, stages={})
    assert "stages" not in repr(row)


def test_sweep_row_count_matches_grid():
    rows = run_sweep(_tiny_config(grid_sizes=(3, 4), exponents=(1.0, 2.0)))
    assert len(rows) == 4
    assert [(r.grid_size, r.alpha) for r in rows] == \
        [(3, 1.0), (3, 2.0), (4, 1.0), (4, 2.0)]


def test_sweep_ordering_lb_bayes_seg():
    for row in run_sweep(_tiny_config(grid_sizes=(3, 4), n_predict=6)):
        assert row.lb <= row.bayes_optimal + 1e-12
        assert row.bayes_optimal <= row.seg_simple + 1e-12


def test_emit_manifest(tmp_path):
    cfg = _tiny_config()
    path = tmp_path / "manifest.json"
    emit_manifest(cfg, path, wall_time_s=1.25)
    payload = json.loads(path.read_text())
    assert payload["seed"] == 5
    assert payload["config"]["grid_sizes"] == [3]
    assert payload["kernel_backend"] == "numpy"
    assert payload["wall_time_s"] == 1.25
    assert payload["code_version"]


def test_manifest_records_cell_stages_and_counters(tmp_path):
    cfg = _tiny_config(grid_sizes=(3, 4), n_predict=6)
    rows = run_sweep(cfg)
    for row in rows:
        assert row.counters["n_hist"] == math.ceil(row.grid_size ** row.alpha)
        for name in ("route", "route_grow"):
            c = row.counters[name]
            assert set(c) == {"neighborhood_mean", "neighborhood_min", "prior_fallbacks"}
            assert 0 <= c["neighborhood_min"] <= c["neighborhood_mean"]
            assert 0 <= c["prior_fallbacks"] <= cfg.n_predict
        # the counters are not part of the row's value, repr or CSV line
        assert row == dataclasses.replace(row, counters={})
        assert "counters" not in repr(row)
    bare = [dataclasses.replace(r, stages={}, counters={}) for r in rows]
    buf_a, buf_b = io.StringIO(), io.StringIO()
    emit_csv(rows, buf_a)
    emit_csv(bare, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    path = tmp_path / "manifest.json"
    emit_manifest(cfg, path, wall_time_s=0.5, rows=rows)
    cells = json.loads(path.read_text())["cells"]
    assert [(c["grid_size"], c["alpha"]) for c in cells] == \
        [(r.grid_size, r.alpha) for r in rows]
    assert [c["stages"] for c in cells] == [r.stages for r in rows]
    assert [c["counters"] for c in cells] == [r.counters for r in rows]
    for row in rows:
        # one memory mark per timed stage, MB or None where /proc is missing
        peaks = row.counters["stage_peak_mb"]
        assert set(peaks) == set(row.stages)
        assert all(v is None or v > 0.0 for v in peaks.values())
        if os.path.exists("/proc/self/status"):
            # VmHWM never falls: the stages that run once read rising marks
            marks = [peaks[name] for name in ("covariance", "sampling", "posterior", "precision")]
            assert marks == sorted(marks)


def test_peak_rss_mb_reads_vmhwm(tmp_path):
    status = tmp_path / "status"
    status.write_text("Name:\tpython3\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\n")
    assert harness._peak_rss_mb(str(status)) == 2.0
    status.write_text("Name:\tpython3\n")
    assert harness._peak_rss_mb(str(status)) is None
    assert harness._peak_rss_mb(str(tmp_path / "missing")) is None


@pytest.mark.parametrize("v", [1.0, 0.0])
def test_run_cell_reads_precision_blocks_only(v):
    """A diffusion cell reads the lower bound's precision blocks from the
    covariance's orbit table and never forms the n x n precision; with v = 0
    the covariance has no table, and the dense precision serves."""
    _sweep_covariance.cache_clear()
    cfg = _tiny_config(grid_sizes=(4,), v=v)
    run_cell(cfg, 4, 1.0)
    cov = _sweep_covariance(4, cfg.u, cfg.v, cfg.white, cfg.adjacency_rule)
    assert (cov._precision_table is None) == (v == 0.0)
    assert ("precision" in cov.__dict__) == (v == 0.0)
    assert ("sigma" in cov.__dict__) == (v == 0.0)


def _gathered_tables(monkeypatch) -> list:
    """The orbit tables whose dense matrix is gathered from now on."""
    gathered = []
    dense = _OrbitTable.dense
    monkeypatch.setattr(_OrbitTable, "dense", lambda table: gathered.append(table) or dense(table))
    return gathered


def test_run_cell_forms_no_dense_sigma(monkeypatch):
    """Every sigma read of a cell is a gather from the covariance's orbit
    table: a p=10 cell gathers neither the dense sigma nor the precision."""
    _sweep_covariance.cache_clear()
    gathered = _gathered_tables(monkeypatch)
    cfg = SweepConfig(master_seed=0, grid_sizes=(10,), exponents=(3.0,))
    run_cell(cfg, 10, 3.0)
    cov = _sweep_covariance(10, cfg.u, cfg.v, cfg.white, cfg.adjacency_rule)
    assert cov._table is not None and "sigma" not in cov.__dict__
    assert gathered == []


def _turn_partition(net, ids):
    """An L-shaped route's two straight legs (one block if straight)."""
    for i in range(1, len(ids)):
        if net.segment(ids[i]).direction != net.segment(ids[i - 1]).direction:
            return [ids[:i], ids[i:]]
    return [ids]


def test_oracle_sequence_forms_no_dense_sigma(monkeypatch):
    """The public calls of the ETA oracle benchmark (p=4, 16 trips with
    synthesized times, 4 routes) read sigma through block and entries only;
    only the precision that it asks for is gathered."""
    gathered = _gathered_tables(monkeypatch)
    net = build_grid(4)
    cov = diffusion_covariance(segment_graph(net, rule=AdjacencyRule.CALIBRATED),
                               u=1.0, v=1.0, white=1.0)
    prior, law = PriorSpec(mu=1.0, tau2=0.5), ODLaw(4, 1.0)
    rng = np.random.default_rng(0)
    hist, predicting = sample_routes(law, net, rng, 16), sample_routes(law, net, rng, 4)
    ds = synthesize_times(net, hist, cov, prior, rng)
    model = PosteriorModel(ds, cov, prior)
    q_all = ds.quadratic_sums(cov)
    cov.precision
    for y in predicting:
        part = _turn_partition(net, y.segment_ids)
        pair = ds.pair_counts(y.segment_ids)
        nb = resolve_neighborhood(ds, y, NeighborhoodSpec.od_ball_growing(0.1))
        phis = optimal_seg_weights(ds, y, cov, prior)
        pg = optimal_gseg_weights(ds, y, part, cov, prior)
        phi = optimal_route_weight(ds, y, nb, cov, prior, q_all=q_all)
        preds = (predict_segment(ds, y, phis, prior), predict_gseg(ds, y, part, pg, prior),
                 predict_route(ds, y, nb, phi, prior), model.predict(y))
        risk_seg(ds, y, phis, cov, prior, pair=pair)
        risk_gseg(ds, y, part, pg, cov, prior)
        risk_route(ds, y, nb, phi, cov, prior, q_all=q_all)
        risk_optimal(ds, y, cov, prior, model=model)
        lower_bound(ds, y, cov, prior, pair=pair)
        for pred in preds:
            mc_risk(pred, ds, cov, prior, replicates=400, seed=rng, batch_size=200)
    assert "sigma" not in cov.__dict__
    assert [table is cov._precision_table for table in gathered] == [True]


def _route_key(net, ids):
    """A brute-force family key: for at most one turn, the first segment, the
    start P of the last straight run and the segment at P; else the route."""
    heading = [net.segment(s).direction for s in ids]
    turns = [i for i in range(1, len(ids)) if heading[i] != heading[i - 1]]
    if len(turns) > 1:
        return ("route", ids)
    start = turns[-1] if turns else 0
    return (ids[0], start, ids[start])


def test_run_cell_reports_condition_numbers():
    cfg = _tiny_config(master_seed=3, exponents=(2.5,))
    row = run_cell(cfg, 4, 2.5)
    cov = _sweep_covariance(4, cfg.u, cfg.v, cfg.white, cfg.adjacency_rule)
    assert row.counters["sigma_condition"] == pytest.approx(np.linalg.cond(cov.sigma),
                                                            rel=1e-10)
    hist_ss, _ = _cell_seed(cfg, 4, 2.5).spawn(2)
    ds = sample_trips(ODLaw(4, cfg.od_alpha), build_grid(4), np.random.default_rng(hist_ss),
                      math.ceil(4 ** 2.5))
    chol = np.tril(PosteriorModel(ds, cov, PriorSpec(cfg.mu, cfg.tau2))._cho[0])
    exact = 1.0 / np.linalg.cond(chol @ chol.T, 1)
    assert exact / 10.0 <= row.counters["q_rcond"] <= exact * 10.0


def test_run_cell_counts_distinct_routes_and_families():
    cfg = _tiny_config(master_seed=3, exponents=(2.5,))
    row = run_cell(cfg, 4, 2.5)
    hist_ss, _ = _cell_seed(cfg, 4, 2.5).spawn(2)
    net = build_grid(4)
    ds = sample_trips(ODLaw(4, cfg.od_alpha), net, np.random.default_rng(hist_ss),
                      math.ceil(4 ** 2.5))
    routes = {r.segment_ids for r in ds.routes}
    assert row.counters["distinct_routes"] == len(routes)
    assert row.counters["route_families"] == len({_route_key(net, r) for r in routes})
    assert row.counters["route_families"] < row.counters["distinct_routes"] < ds.n_trips


def test_golden_row_formatting():
    ok = GoldenRow("g", "x", 1.0, 1.0001, 5e-4)
    miss = GoldenRow("g", "x", 1.0, 2.0, 5e-4, advisory=True)
    fail = GoldenRow("g", "x", 1.0, 2.0, 5e-4)
    assert "PASS" in ok.format()
    assert "MISS (advisory)" in miss.format()
    assert "FAIL" in fail.format()
    assert ok.ok and not miss.ok and not fail.ok
    assert "off by 1.0e+00" in fail.format() and "off by" not in ok.format()


def test_run_examples_failures_confined_to_bayes_table():
    report = run_examples()
    assert len(report.rows) > 40
    # every strict row passes, in every group
    assert not report.strict_failures
    assert report.passed
    # outside the bayes table the one miss is negcov_seg's advisory bias2,
    # which the table gives as its rounded total minus its rounded variance
    misses = [(r.group, r.name) for r in report.rows
              if not r.ok and r.group != "bayes_table"]
    assert misses == [("negcov_seg", "bias2")]
    seg = fx.NEGCOV_SEG
    assert seg["bias2"] == round(seg["total"] - seg["variance"], 3)
    table = [r for r in report.rows if r.group == "bayes_table"]
    assert len(table) == 19
    assert all(r.advisory for r in table)
    # the reason the published table is advisory: it breaks the intercept
    # identity of every posterior mean by more than its rounding slack; a
    # corrected table fails this and should gate again
    mu = fx.reference_prior().mu
    coef_sum = sum(sum(row) for row in fx.REFERENCE_COEFFICIENTS)
    forced = mu * (len(fx.reference_route()) - coef_sum)
    assert abs(fx.REFERENCE_INTERCEPT - forced) > 15 * fx.GOLDEN_TOL
    assert report.notes == [fx.INCONSISTENCY_NOTE]


def test_oracle_cases_shapes():
    assert [name for name, _, _ in oracle_cases("reference")] == \
        ["seg_optimal", "gseg_whole_optimal", "route_optimal", "bayes_optimal"]
    assert len(oracle_cases("negcov")) == 2
    assert len(oracle_cases("merge")) == 2
    with pytest.raises(ConfigError):
        oracle_cases("nope")
    for name, pred, closed in oracle_cases("reference"):
        assert closed > 0.0
        assert pred.route
