"""The etalab side of each workload: untraced runs, traced replicas, warm-up.

Untraced, the sweeps call ``run_sweep`` itself.  Traced, they run
``traced_sweep``, a replica of ``harness.run_cell`` that wraps each call into
a layer in a span; the parent checks that its rows agree with ``run_sweep``'s,
so the replica cannot drift from the harness silently.  ``eta_oracle`` is the
benchmark's own sequence of public API calls, so one function serves both modes.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from etalab import (AdjacencyRule, NeighborhoodSpec, ODLaw, PosteriorModel,
                    PriorSpec, SweepConfig, TripDataset, WeightRule,
                    build_grid, diffusion_covariance, lower_bound, mc_risk,
                    optimal_gseg_weights, optimal_route_weight,
                    optimal_seg_weights, predict_gseg, predict_route,
                    predict_segment, resolve_neighborhood, risk_gseg,
                    risk_optimal, risk_route, risk_seg, run_sweep,
                    sample_routes, segment_graph, synthesize_times)

from spec import ORACLE, SWEEPS


def _no_span(name, tag=None):
    return nullcontext()


def sweep_config(seed: int, fields: dict) -> SweepConfig:
    return SweepConfig(master_seed=seed, workers=1, **fields)


def run(workload: str, seed: int, size: str, tracer=None) -> list:
    """Outputs of one workload: sweep rows, or one record per predicting route."""
    if workload == "eta_oracle":
        return eta_oracle(seed, ORACLE[size], tracer)
    cfg = sweep_config(seed, SWEEPS[size][workload])
    if tracer is None:
        return [list(row.as_tuple()) for row in run_sweep(cfg)]
    return traced_sweep(cfg, tracer)


def warm_up(workload: str, seed: int) -> None:
    """One tiny call of the workload's entry point on a p=2 grid."""
    if workload == "eta_oracle":
        eta_oracle(seed, ORACLE["warmup"])
    else:
        run_sweep(sweep_config(seed, SWEEPS["warmup"]))


# ---------------------------------------------------------------------------
# sweeps


def traced_sweep(cfg: SweepConfig, tr) -> list:
    covs = {}  # harness._sweep_covariance caches the covariance per grid size
    with tr.span("harness.run"):
        return [_traced_cell(cfg, p, k, tr, covs)
                for p in cfg.grid_sizes for k in cfg.exponents]


def _traced_cell(cfg: SweepConfig, p: int, k: float, tr, covs: dict) -> list:
    """harness.run_cell with a span around each call into a layer."""
    span = tr.span
    with span("harness.cell", tag=f"p={p},k={k}"):
        with span("network.build"):
            net = build_grid(p)
        cov = covs.get(p)
        if cov is None:
            with span("network.build"):
                graph = segment_graph(build_grid(p), rule=cfg.adjacency_rule)
            with span("covariance.build"):
                cov = covs[p] = diffusion_covariance(graph, u=cfg.u, v=cfg.v,
                                                     white=cfg.white)
        prior = PriorSpec(mu=cfg.mu, tau2=cfg.tau2)
        law = ODLaw(p, cfg.od_alpha)
        # harness._cell_seed
        seed_seq = np.random.SeedSequence([cfg.master_seed, int(p), int(round(k * 1000))])
        hist_ss, pred_ss = seed_seq.spawn(2)
        n_hist = int(math.ceil(p ** k))
        with span("trips.sample_routes"):
            hist = sample_routes(law, net, np.random.default_rng(hist_ss), n_hist)
        with span("trips.dataset"):
            ds = _dataset(TripDataset(net, hist))
        with span("trips.sample_routes"):
            predicting = sample_routes(law, net, np.random.default_rng(pred_ss),
                                       cfg.n_predict)
        with span("estimators.posterior"):
            model = PosteriorModel(ds, cov, prior)
        with span("trips.quadratic_sums"):
            q_all = ds.quadratic_sums(cov)
        with span("covariance.precision"):
            cov.precision
        _count_dataset(tr, ds, cov)
        rule = WeightRule.ratio(cfg.ratio_lam)
        spec_exact = NeighborhoodSpec.od_exact()
        spec_grow = NeighborhoodSpec.od_ball_growing(cfg.growing_fraction)
        acc = np.zeros(5)
        for i, y in enumerate(predicting):
            with span("harness.route", tag=f"p={p},k={k},route={i}"):
                with span("trips.pair_counts"):
                    pair = ds.pair_counts(y.segment_ids)
                with span("risk.seg"):
                    acc[0] += risk_seg(ds, y, rule, cov, prior, pair=pair).total
                for slot, spec in ((1, spec_exact), (2, spec_grow)):
                    with span("trips.neighborhood"):
                        nb = resolve_neighborhood(ds, y, spec)
                    tr.count("trips.neighborhood_size", nb.size)
                    with span("estimators.route_weight"):
                        phi = optimal_route_weight(ds, y, nb, cov, prior, q_all=q_all)
                    with span("risk.route"):
                        acc[slot] += risk_route(ds, y, nb, phi, cov, prior,
                                                q_all=q_all).total
                with span("risk.optimal"):
                    acc[3] += risk_optimal(ds, y, cov, prior, model=model).total
                with span("risk.lower_bound"):
                    acc[4] += lower_bound(ds, y, cov, prior, pair=pair)
        logs = np.log10(acc / cfg.n_predict)
        return [p, float(k), *[float(v) for v in logs]]


def _dataset(ds: TripDataset) -> TripDataset:
    """Force the dataset's lazily built flat arrays and traversal counts."""
    ds.flat, ds.offsets, ds.n_s
    return ds


def _count_dataset(tr, ds: TripDataset, cov) -> None:
    tr.count("trips.n_trips", ds.n_trips)
    tr.count("trips.distinct_routes", len({r.segment_ids for r in ds.routes}))
    tr.count("covariance.n_segments", cov.n_segments)


# ---------------------------------------------------------------------------
# eta_oracle


def eta_oracle(seed: int, size: dict, tr=None) -> list:
    """Four estimators per predicting route: weights, prediction, exact risk, MC risk.

    Data: a p-grid diffusion covariance (u = v = white = 1), prior mu = 1,
    tau2 = 0.5, ceil(p**k) uniform-OD trips with synthesized times.
    """
    span = tr.span if tr else _no_span
    hist_ss, pred_ss, time_ss, mc_ss = np.random.SeedSequence(seed).spawn(4)
    out = []
    with span("harness.run"):
        with span("network.build"):
            net = build_grid(size["p"])
            graph = segment_graph(net, rule=AdjacencyRule.CALIBRATED)
        with span("covariance.build"):
            cov = diffusion_covariance(graph, u=1.0, v=1.0, white=1.0)
        prior = PriorSpec(mu=1.0, tau2=0.5)
        law = ODLaw(size["p"], 1.0)
        with span("trips.sample_routes"):
            hist = sample_routes(law, net, np.random.default_rng(hist_ss),
                                 int(math.ceil(size["p"] ** size["k"])))
            predicting = sample_routes(law, net, np.random.default_rng(pred_ss),
                                       size["n_routes"])
        with span("trips.synthesize"):
            ds = synthesize_times(net, hist, cov, prior, np.random.default_rng(time_ss))
        with span("trips.dataset"):
            _dataset(ds)
        with span("estimators.posterior"):
            model = PosteriorModel(ds, cov, prior)
        with span("trips.quadratic_sums"):
            q_all = ds.quadratic_sums(cov)
        with span("covariance.precision"):
            cov.precision
        if tr:
            _count_dataset(tr, ds, cov)
        nb_spec = NeighborhoodSpec.od_ball_growing(0.1)

        def one_route(y, rng) -> dict:
            ids = y.segment_ids
            part = turn_partition(net, ids)
            with span("trips.pair_counts"):
                pair = ds.pair_counts(ids)
            with span("trips.neighborhood"):
                nb = resolve_neighborhood(ds, y, nb_spec)
            with span("estimators.seg_weights"):
                phis = optimal_seg_weights(ds, y, cov, prior)
            with span("estimators.gseg_weights"):
                pg = optimal_gseg_weights(ds, y, part, cov, prior)
            with span("estimators.route_weight"):
                phi = optimal_route_weight(ds, y, nb, cov, prior, q_all=q_all)
            with span("estimators.predict_segment"):
                p_seg = predict_segment(ds, y, phis, prior)
            with span("estimators.predict_gseg"):
                p_gseg = predict_gseg(ds, y, part, pg, prior)
            with span("estimators.predict_route"):
                p_route = predict_route(ds, y, nb, phi, prior)
            with span("estimators.predict_bayes"):
                p_bayes = model.predict(y)
            with span("risk.seg"):
                r_seg = risk_seg(ds, y, phis, cov, prior, pair=pair).total
            with span("risk.gseg"):
                r_gseg = risk_gseg(ds, y, part, pg, cov, prior).total
            with span("risk.route"):
                r_route = risk_route(ds, y, nb, phi, cov, prior, q_all=q_all).total
            with span("risk.optimal"):
                r_bayes = risk_optimal(ds, y, cov, prior, model=model).total
            with span("risk.lower_bound"):
                lb = lower_bound(ds, y, cov, prior, pair=pair)
            preds = {"segment": p_seg, "gseg": p_gseg, "route": p_route, "bayes": p_bayes}
            mc = {}
            for name, pred in preds.items():
                with span("risk.mc"):
                    est = mc_risk(pred, ds, cov, prior, replicates=size["replicates"],
                                  seed=rng, batch_size=size["batch_size"])
                mc[name] = [est.mean, est.se]
                if tr:
                    tr.count("risk.mc_replicates", est.replicates)
                    tr.count("estimators.coef_vectors", len(pred.coefficients))
                    tr.count("estimators.active_coef_vectors", _active(pred, ds))
            if tr:
                tr.count("trips.neighborhood_size", nb.size)
            return {"risk": {"segment": r_seg, "gseg": r_gseg, "route": r_route,
                             "bayes": r_bayes},
                    "lb": lb, "mc": mc}

        for i, (y, mc_seed) in enumerate(zip(predicting, mc_ss.spawn(len(predicting)))):
            with span("harness.route", tag=f"route={i}"):
                try:
                    out.append(one_route(y, np.random.default_rng(mc_seed)))
                except Exception as e:  # a raising route is a failed output; the rest still run
                    out.append({"error": f"route {i}: {e!r}"})
    return out


def turn_partition(net, ids: tuple) -> list:
    """Split an L-shaped route into its two straight legs (one block if straight)."""
    for i in range(1, len(ids)):
        if net.segment(ids[i]).direction != net.segment(ids[i - 1]).direction:
            return [ids[:i], ids[i:]]
    return [ids]


def _active(pred, ds) -> int:
    """Coefficient vectors with a nonzero entry (one vector per trip)."""
    nonzero = np.concatenate(pred.coefficients) != 0.0
    return int(np.count_nonzero(np.add.reduceat(nonzero, ds.offsets[:-1])))
