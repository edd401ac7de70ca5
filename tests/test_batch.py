"""The batched evaluation of a sweep cell's predicting routes.

`harness._route_risks` evaluates a store of predicting routes at once: one
neighborhood resolution per method and array formulas for the route risks,
with the Bayes risks from one solve per batch (`harness._bayes_risks`).  It is held to the per-route public functions, one route at a
time, at 1e-12 relative; `resolve_neighborhood` is held to the L1
definitions in `NeighborhoodSpec`'s docstring by brute force.
"""
import math
import weakref

import numpy as np
import pytest

from etalab import harness
from etalab.covariance import CovarianceModel
from etalab.estimators import PosteriorModel, WeightRule, optimal_route_weight
from etalab.network import build_grid
from etalab.risk import lower_bound, risk_optimal, risk_route, risk_seg
from etalab.trips import (NeighborhoodKind, NeighborhoodSpec, ODLaw, PriorSpec,
                          TripDataset, resolve_neighborhood, resolve_neighborhoods,
                          sample_trips)

RTOL = 1e-12


def _cell(cfg, p, k):
    """run_cell's dataset, predicting store and posterior for one cell."""
    net = build_grid(p)
    cov = harness._sweep_covariance(p, cfg.u, cfg.v, cfg.white, cfg.adjacency_rule)
    prior = PriorSpec(mu=cfg.mu, tau2=cfg.tau2)
    law = ODLaw(p, cfg.od_alpha)
    hist_ss, pred_ss = harness._cell_seed(cfg, p, k).spawn(2)
    ds = sample_trips(law, net, np.random.default_rng(hist_ss), math.ceil(p ** k))
    predicting = sample_trips(law, net, np.random.default_rng(pred_ss), cfg.n_predict)
    return ds, predicting, PosteriorModel(ds, cov, prior)


def _route_risks(cfg, model, predicting, stages):
    """harness._route_risks on the model's parts, as run_cell calls it."""
    return harness._route_risks(cfg, model.ds, model.cov, model.prior,
                                harness._bayes_risks(model, predicting), predicting, stages,
                                {})


def _per_route(cfg, model, predicting):
    """The five risks and two neighborhood sizes of each route, one route at a time."""
    ds, cov, prior = model.ds, model.cov, model.prior
    rule = WeightRule.ratio(cfg.ratio_lam)
    specs = (NeighborhoodSpec.od_exact(),
             NeighborhoodSpec.od_ball_growing(cfg.growing_fraction))
    risks, sizes = [], []
    for y in predicting.routes:
        nbs = [resolve_neighborhood(ds, y, spec) for spec in specs]
        risks.append([risk_seg(ds, y, rule, cov, prior).total,
                      *[risk_route(ds, y, nb, optimal_route_weight(ds, y, nb, cov, prior),
                                   cov, prior).total for nb in nbs],
                      risk_optimal(ds, y, cov, prior, model=model).total,
                      lower_bound(ds, y, cov, prior)])
        sizes.append([nb.size for nb in nbs])
    return np.array(risks).T, np.array(sizes).T


# (case, config fields, p, k): each case names the situation it covers
CELLS = [
    ("p1", dict(master_seed=3, n_predict=7), 1, 2.0),
    ("p2", dict(master_seed=4, n_predict=12), 2, 2.0),
    ("p3", dict(master_seed=5, n_predict=15), 3, 2.5),
    ("p4", dict(master_seed=6, n_predict=20, od_alpha=0.4), 4, 2.0),
    ("mostly_empty_od_exact", dict(master_seed=7, n_predict=30), 4, 1.0),
    ("zero_support_segments", dict(master_seed=8, n_predict=25), 6, 1.0),
    ("clipped_growing_ball", dict(master_seed=9, n_predict=25, growing_fraction=1.0), 3, 2.0),
    ("half_grid_ball", dict(master_seed=10, n_predict=25, growing_fraction=0.5), 5, 2.0),
    ("smoke_p10_k3", dict(master_seed=0), 10, 3.0),
]


@pytest.mark.parametrize("case, fields, p, k", CELLS, ids=[c[0] for c in CELLS])
def test_batched_cell_matches_per_route_functions(case, fields, p, k):
    cfg = harness.SweepConfig(grid_sizes=(p,), exponents=(k,), **fields)
    ds, predicting, model = _cell(cfg, p, k)
    risks, sizes = _route_risks(cfg, model, predicting, {})
    expect, expect_sizes = _per_route(cfg, model, predicting)
    np.testing.assert_allclose(risks, expect, rtol=RTOL, atol=0)
    assert np.array_equal(sizes, expect_sizes)
    # the situation each case names does occur
    if case == "mostly_empty_od_exact":
        assert (sizes[0] == 0).mean() > 0.5
    if case == "zero_support_segments":
        assert (ds.n_s[predicting.flat] == 0).any()
    if case == "clipped_growing_ball":
        # c = p: every endpoint's diamond reaches past the border on every side
        od = predicting.od_array
        assert (np.maximum(od, p - od) < math.ceil(cfg.growing_fraction * p) + 1).all()
    # run_cell averages the same per-route risks and counts the same sizes
    row = harness.run_cell(cfg, p, k)
    np.testing.assert_allclose(10.0 ** np.array(row.as_tuple()[2:]), risks.mean(axis=1),
                               rtol=RTOL, atol=0)
    assert row.counters["n_hist"] == ds.n_trips
    for name, size in zip(("route", "route_grow"), sizes):
        assert row.counters[name] == {"neighborhood_mean": float(size.mean()),
                                      "neighborhood_min": int(size.min()),
                                      "prior_fallbacks": int((size == 0).sum())}


def test_route_batches_do_not_change_the_risks(monkeypatch):
    cfg = harness.SweepConfig(master_seed=11, grid_sizes=(4,), exponents=(2.0,),
                              n_predict=10)
    _, predicting, model = _cell(cfg, 4, 2.0)
    whole, whole_sizes = _route_risks(cfg, model, predicting, {})
    monkeypatch.setattr(harness, "_ROUTE_BATCH", 3)
    stages = {}
    parts, part_sizes = _route_risks(cfg, model, predicting, stages)
    np.testing.assert_allclose(parts, whole, rtol=RTOL, atol=0)
    assert np.array_equal(part_sizes, whole_sizes)
    assert set(stages) == {"pair_counts", "neighborhoods", "risks"}


def test_run_cell_frees_the_posterior_before_the_pair_counts(monkeypatch):
    """The model's n x n Cholesky factor is gone before the incidence is built."""
    models = []

    class Tracked(PosteriorModel):
        def __init__(self, *args):
            super().__init__(*args)
            models.append(weakref.ref(self))

    alive = []
    pair_counts = TripDataset.pair_counts

    def watched(ds, y):
        alive.append(models[0]() is not None)
        return pair_counts(ds, y)

    monkeypatch.setattr(harness, "PosteriorModel", Tracked)
    monkeypatch.setattr(TripDataset, "pair_counts", watched)
    cfg = harness.SweepConfig(master_seed=12, grid_sizes=(4,), exponents=(2.0,), n_predict=5)
    harness.run_cell(cfg, 4, 2.0)
    assert len(models) == 1
    assert alive == [False] * 5


def test_lower_bound_from_kernels_matches_dense_precision():
    """The cell's lower bounds read precision blocks from the diffusion
    covariance's orbit table; each stays within 1e-12 relative of the bound
    from the n x n precision of the dense sigma (dpotri)."""
    cfg = harness.SweepConfig(master_seed=0, grid_sizes=(10,), exponents=(3.0,))
    ds, predicting, model = _cell(cfg, 10, 3.0)
    cov, prior = model.cov, model.prior
    assert cov._precision_table is not None
    precision = CovarianceModel(cov.sigma).precision
    for y in np.split(predicting.flat, predicting.offsets[1:-1]):
        psi = precision[np.ix_(y, y)]
        dense = y.size ** 2 / (float((ds.pair_counts(y) * psi).sum()) + y.size / prior.tau2)
        assert lower_bound(ds, y, cov, prior) == pytest.approx(dense, rel=RTOL, abs=0)


# ---------------------------------------------------------------------------
# neighborhoods against their L1 definitions


def _brute_members(ds, y, spec):
    """NeighborhoodSpec's definitions, one trip at a time."""
    if spec.kind == NeighborhoodKind.EXACT_ROUTE:
        return [n for n, r in enumerate(ds.routes) if r.segment_ids == y.segment_ids]
    c = math.ceil(spec.fraction * ds.network.p)
    out = []
    for n, (oi, oj, di, dj) in enumerate(ds.od_array.tolist()):
        d_o = abs(oi - y.origin[0]) + abs(oj - y.origin[1])
        d_d = abs(di - y.destination[0]) + abs(dj - y.destination[1])
        if spec.kind == NeighborhoodKind.OD_EXACT:
            near = d_o == 0 and d_d == 0
        elif spec.kind == NeighborhoodKind.OD_BALL:
            near = d_o + d_d <= 2 * spec.radius
        else:
            near = d_o <= c and d_d <= c
        if near:
            out.append(n)
    return out


SPECS = [NeighborhoodSpec.exact_route(), NeighborhoodSpec.od_exact(),
         NeighborhoodSpec.od_ball(0), NeighborhoodSpec.od_ball(1),
         NeighborhoodSpec.od_ball(3), NeighborhoodSpec.od_ball(50),
         NeighborhoodSpec.od_ball_growing(0.0), NeighborhoodSpec.od_ball_growing(0.1),
         NeighborhoodSpec.od_ball_growing(0.5), NeighborhoodSpec.od_ball_growing(1.0)]


@pytest.mark.parametrize("seed", range(6))
def test_resolve_neighborhood_matches_l1_definitions(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 7))
    net = build_grid(p)
    law = ODLaw(p, float(rng.choice([0.3, 1.0, 3.0])))
    # few OD cells for many trips on small grids, mostly single trips on larger ones
    ds = sample_trips(law, net, rng, int(rng.integers(0, 300)))
    # fresh routes, and historical ones, which are their own neighbors
    for routes in (sample_trips(law, net, rng, 12), ds._slice(slice(0, 12))):
        for spec in SPECS:
            batch = resolve_neighborhoods(ds, routes, spec)
            assert batch.shape == (routes.n_trips, ds.n_trips)
            for r, y in enumerate(routes.routes):
                expect = _brute_members(ds, y, spec)
                assert resolve_neighborhood(ds, y, spec).members.tolist() == expect, (spec, y)
                assert batch[r].indices.tolist() == expect


def test_resolve_neighborhoods_of_an_empty_store():
    net = build_grid(3)
    ds = sample_trips(ODLaw(3, 1.0), net, np.random.default_rng(0), 20)
    empty = TripDataset(net, [])
    for spec in SPECS:
        assert resolve_neighborhoods(ds, empty, spec).shape == (0, 20)
        assert resolve_neighborhoods(empty, ds, spec).nnz == 0
