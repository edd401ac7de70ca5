"""Trip counters and the information matrix against plain-loop references.

Every counter is derived from the sparse trip x segment incidence matrix; the
references below loop over `ds.routes` one trip and one segment at a time.
The trips' covariance blocks come from one chunked generator; its consumers
are held to references that gather each whole route-length group at once.
The information pass and the quadratic sums work one route family at a time;
they are held to per-trip inverses and block sums.
"""
import os
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import random_fixture
from etalab import estimators, harness, trips
from etalab.covariance import CovarianceModel, diffusion_covariance, gram_covariance
from etalab.estimators import (PosteriorModel, predict_bayes_optimal, predict_route,
                               predict_segment)
from etalab.network import AdjacencyRule, build_grid, segment_graph
from etalab.risk import _error_terms, mc_risk, risk_optimal
from etalab.trips import (NeighborhoodSpec, ODLaw, PriorSpec, Route, TripDataset,
                          resolve_neighborhood, sample_routes, sample_trips,
                          synthesize_times)

# far above any fixture's largest route-length group
_WHOLE_GROUPS = 2 ** 40


def _fixture(seed):
    return random_fixture(seed, cov_kind="diffusion", n_trips=40)


def _loop_counts(ds, trips):
    out = np.zeros(ds.network.n_segments, dtype=np.int64)
    for n in trips:
        for s in ds.routes[n].segment_ids:
            out[s] += 1
    return out


def _loop_pair_counts(ds, y, trips):
    out = np.zeros((len(y), len(y)), dtype=np.int64)
    for n in trips:
        present = [i for i, s in enumerate(y) if s in ds.routes[n].segment_ids]
        for a in present:
            for b in present:
                out[a, b] += 1
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_n_s_matches_loop(seed):
    ds = _fixture(seed).ds
    assert np.array_equal(ds.n_s, _loop_counts(ds, range(ds.n_trips)))


@pytest.mark.parametrize("seed", [3, 4])
def test_subset_counts_match_loop(seed):
    fx = _fixture(seed)
    ds = fx.ds
    for members in (np.arange(0, ds.n_trips, 2),
                    np.sort(fx.rng.choice(ds.n_trips, 7, replace=False)),
                    np.array([5, 1, 5]), np.empty(0, dtype=np.int64)):
        # the per-segment counts of the members: pair_counts' diagonal over every segment
        counts = np.diag(ds.pair_counts(np.arange(ds.network.n_segments), members))
        assert np.array_equal(counts, _loop_counts(ds, members))


@pytest.mark.parametrize("seed", [5, 6])
def test_pair_counts_match_loop(seed):
    fx = _fixture(seed)
    ds = fx.ds
    for y in (fx.y.segment_ids, ds.routes[0].segment_ids):
        assert np.array_equal(ds.pair_counts(y), _loop_pair_counts(ds, y, range(ds.n_trips)))
        members = np.sort(fx.rng.choice(ds.n_trips, 9, replace=False))
        assert np.array_equal(ds.pair_counts(y, members=members),
                              _loop_pair_counts(ds, y, members))
        assert ds.pair_counts(y, members=np.empty(0, dtype=np.int64)).sum() == 0


@pytest.mark.parametrize("repeats", [300, 40_000])
def test_counts_pass_the_incidence_dtype(repeats):
    """The incidence stores int8 ones; counts past int8 (300) and int16
    (40 000) must come out exact from every consumer of it."""
    net = build_grid(4)
    y = net.path_segments([(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)])
    other = net.path_segments([(0, 1), (0, 2), (0, 3)])  # shares y's second segment
    flat = np.concatenate([np.tile(y, repeats), other, other])
    offsets = np.r_[np.arange(repeats + 1) * len(y), len(y) * repeats + np.array([2, 4])]
    ds = TripDataset._from_arrays(net, flat, offsets)
    expect = np.full((len(y), len(y)), repeats, dtype=np.int64)
    expect[1, 1] += 2
    assert ds.pair_counts(y).dtype == np.int64
    assert np.array_equal(ds.pair_counts(y), expect)
    members = np.arange(0, repeats, 2)
    assert np.array_equal(ds.pair_counts(y, members=members),
                          np.full((len(y), len(y)), members.size))
    assert ds.n_subset(y) == repeats
    assert ds.n_subset([y[1]]) == repeats + 2
    assert np.array_equal(ds.trips_containing_all(y[:2]), np.arange(repeats))
    # one block per leg of y: y's trips cover both, other's trips neither whole
    cover = ds.block_cover([y[:2], y[2:]])
    assert np.diff(cover.indptr).tolist() == [repeats, repeats]
    joint = (cover.T @ cover).toarray()
    assert joint.dtype == np.int64
    assert joint.tolist() == [[repeats, repeats], [repeats, repeats]]


@pytest.mark.parametrize("seed", [11, 12])
def test_n_subset_matches_loop(seed):
    fx = _fixture(seed)
    ds = fx.ds
    ids = ds.routes[0].segment_ids
    for subset in (ids[:1], ids[:2], ids, ids[::2] + ids[:1], fx.y.segment_ids, ()):
        brute = [n for n, r in enumerate(ds.routes) if set(subset) <= set(r.segment_ids)]
        assert ds.n_subset(subset) == len(brute)
        assert ds.trips_containing_all(subset).tolist() == brute


def _random_partition(ids, rng):
    """The route cut into random contiguous blocks, listed in random order."""
    cuts = rng.choice(np.arange(1, len(ids)), size=rng.integers(0, len(ids)), replace=False)
    bounds = [0, *sorted(cuts.tolist()), len(ids)]
    blocks = [tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:])]
    return [blocks[i] for i in rng.permutation(len(blocks))]


def test_block_cover_matches_set_check(tmp_path):
    """The cover, its column counts and J = C'C against a per-trip check that
    a block's segments are a subset of the trip's; the cross sums S against
    sums of sigma over block pairs."""
    rng = np.random.default_rng(0)
    for _, ds, cov in _stores(tmp_path):
        sets = [set(r.segment_ids) for r in ds.routes]
        ys = [ds.routes[n].segment_ids for n in rng.choice(ds.n_trips, 4)]
        ys += [r.segment_ids for r in sample_routes(ODLaw(ds.network.p, 1.0), ds.network,
                                                    rng, 4)]
        for y in ys:
            for blocks in ([(s,) for s in y], [y], _random_partition(y, rng)):
                brute = np.array([[set(b) <= t for b in blocks] for t in sets], dtype=np.int64)
                cover = ds.block_cover(blocks)
                assert cover.dtype == np.int64
                assert np.array_equal(cover.toarray(), brute)
                assert np.array_equal(np.diff(cover.indptr), brute.sum(axis=0))
                assert np.array_equal((cover.T @ cover).toarray(), brute.T @ brute)
                joint, cross = estimators._block_moments(ds, y, blocks, cov)
                assert np.array_equal(joint, brute.T @ brute)
                assert np.allclose(cross, [[cov.sigma[np.ix_(a, b)].sum() for b in blocks]
                                           for a in blocks], rtol=0, atol=1e-12)
        # duplicated ids, and no ids at all
        y = ys[0]
        twice = [y[0], *y, y[-1]]
        assert np.array_equal(ds.trips_containing_all(twice),
                              [n for n, t in enumerate(sets) if set(y) <= t])
        assert np.array_equal(ds.block_cover([twice, y[:1] * 3]).toarray(),
                              ds.block_cover([y, y[:1]]).toarray())
        assert np.array_equal(ds.trips_containing_all(()), np.arange(ds.n_trips))
        assert ds.n_subset(()) == ds.n_trips
        with pytest.raises(ValueError, match="nonempty blocks"):
            ds.block_cover([y, ()])


def test_predict_segment_transients_stay_small():
    """predict_segment keeps one flat-sized array, its coefficients; besides
    them it passes over flat with a one-byte mask and holds arrays over the
    route's entries only.  So under tracemalloc it allocates less than 1.5x
    the int64 flat, with no trip x block array and no per-block scan."""
    net, law = build_grid(12), ODLaw(12, 1.0)
    ds = sample_trips(law, net, np.random.default_rng(1), 50_000)
    ds.incidence
    prior = PriorSpec(mu=1.0, tau2=0.5)
    for y in sample_routes(law, net, np.random.default_rng(2), 5):
        tracemalloc.start()
        try:
            predict_segment(ds, y, np.full(len(y), 0.5), prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ds.flat.nbytes


def test_predict_route_transients_stay_small():
    """predict_route keeps one flat-sized array, its coefficients, and places
    phi / M over the members' ranges of flat.  So under tracemalloc it
    allocates less than 1.5x the int64 flat, and it leaves no per-entry trip
    index cached on the store."""
    net, law = build_grid(12), ODLaw(12, 1.0)
    ds = sample_trips(law, net, np.random.default_rng(1), 50_000)
    prior = PriorSpec(mu=1.0, tau2=0.5)
    for y in sample_routes(law, net, np.random.default_rng(2), 5):
        nb = resolve_neighborhood(ds, y, NeighborhoodSpec.od_ball_growing(0.1))
        assert nb.size > 0
        tracemalloc.start()
        try:
            pred = predict_route(ds, y, nb, 0.5, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ds.flat.nbytes
        assert np.count_nonzero(pred.coef) == ds.offsets[nb.members + 1].sum() - \
            ds.offsets[nb.members].sum()
    assert "trip_of" not in ds.__dict__


def test_resolve_neighborhood_takes_segment_ids():
    """Like every other per-route call, resolve_neighborhood takes a Route or
    its segment ids, which it validates as a path."""
    fx = _many_trips(5)
    for spec in (NeighborhoodSpec.exact_route(), NeighborhoodSpec.od_exact(),
                 NeighborhoodSpec.od_ball(1), NeighborhoodSpec.od_ball_growing(0.3)):
        for y in fx.ds.routes[:10]:
            by_route = resolve_neighborhood(fx.ds, y, spec)
            by_ids = resolve_neighborhood(fx.ds, list(y.segment_ids), spec)
            assert np.array_equal(by_ids.members, by_route.members)
            assert by_ids.route == y
    with pytest.raises(ValueError, match="route breaks"):
        resolve_neighborhood(fx.ds, [0, 0], NeighborhoodSpec.od_exact())


@pytest.mark.parametrize("seed", [9, 10])
def test_quadratic_sums_match_loop(seed):
    fx = _fixture(seed)
    ds, sigma = fx.ds, fx.cov.sigma
    expect = [sum(sigma[a, b] for a in r.segment_ids for b in r.segment_ids)
              for r in ds.routes]
    assert np.allclose(ds.quadratic_sums(fx.cov), expect, rtol=0, atol=1e-12)


def _loop_information(ds, sigma):
    """W = sum over trips of inv(sigma[r, r]) scattered into (r, r), one entry at a time."""
    out = np.zeros_like(sigma)
    for r in ds.routes:
        inv = np.linalg.inv(sigma[np.ix_(r.segment_ids, r.segment_ids)])
        for a, s in enumerate(r.segment_ids):
            for b, t in enumerate(r.segment_ids):
                out[s, t] += inv[a, b]
    return out


def _factored_q(model):
    """L L' from the model's Cholesky factor of Q = W + I/tau2."""
    chol = np.tril(model._cho[0])
    return chol @ chol.T


@pytest.mark.parametrize("seed", [7, 8])
def test_information_matrix_matches_loop(seed):
    fx = _fixture(seed)
    ds, sigma = fx.ds, fx.cov.sigma
    expect = _loop_information(ds, sigma) + np.eye(len(sigma)) / fx.prior.tau2
    got = _factored_q(PosteriorModel(ds, fx.cov, fx.prior))
    assert np.allclose(got, expect, rtol=0, atol=1e-10)
    # a budget below one block gives one-trip chunks, and one-family chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trips, "_BLOCK_BYTES", 1)
        mp.setattr(trips, "_FAMILY_BYTES", 1)
        assert all(t.size == 1 for t, *_ in ds._sigma_blocks(fx.cov))
        assert all(ids.shape[0] == 1 for *_, ids in ds._family_chunks())
        got = _factored_q(PosteriorModel(ds, fx.cov, fx.prior))
    assert np.allclose(got, expect, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", [7, 8])
def test_q_rcond_estimates_the_condition_of_q(seed):
    fx = _fixture(seed)
    q = _loop_information(fx.ds, fx.cov.sigma) + np.eye(fx.net.n_segments) / fx.prior.tau2
    exact = 1.0 / np.linalg.cond(q, 1)
    rcond = PosteriorModel(fx.ds, fx.cov, fx.prior).q_rcond
    assert exact / 10.0 <= rcond <= exact * 10.0


def test_posterior_keeps_one_square_matrix():
    fx = _fixture(13)
    model = PosteriorModel(fx.ds, fx.cov, fx.prior)
    n = fx.net.n_segments
    square = []
    for name, v in vars(model).items():
        if name in ("ds", "cov"):
            continue
        for i, a in enumerate(v if isinstance(v, tuple) else (v,)):
            if isinstance(a, np.ndarray) and a.shape == (n, n):
                square.append(f"{name}[{i}]" if isinstance(v, tuple) else name)
    assert square == ["_cho[0]"]
    assert model._cho[0].flags.f_contiguous


@pytest.mark.parametrize("seed", [14, 15])
def test_bayes_risks_match_dense_solve(seed):
    fx = _fixture(seed)
    ds, sigma, tau2 = fx.ds, fx.cov.sigma, fx.prior.tau2
    q = _loop_information(ds, sigma) + np.eye(len(sigma)) / tau2
    routes = TripDataset(fx.net, sample_routes(ODLaw(fx.net.p, 1.0), fx.net, fx.rng, 12))
    model = PosteriorModel(ds, fx.cov, fx.prior)
    g, total, bias2 = model._terms(routes)
    for r, y in enumerate(routes.routes):
        e = np.zeros(len(sigma))
        e[list(y.segment_ids)] = 1.0
        expect = e @ np.linalg.solve(q, e)
        assert total[r] == pytest.approx(expect, rel=1e-12, abs=0)
        variance, b2 = model.risk_terms(y)
        assert (variance + b2) == pytest.approx(expect, rel=1e-12, abs=0)
        assert abs(risk_optimal(ds, y, fx.cov, fx.prior, model=model).total
                   - total[r]) <= np.spacing(total[r])
        assert b2 == pytest.approx(g[:, r] @ g[:, r] / tau2, rel=1e-12, abs=0)
        # the variance that the solve implies is g' W g
        assert variance == pytest.approx(g[:, r] @ (q @ g[:, r]) - b2, rel=0,
                                         abs=1e-12 * expect)


def test_prior_only_bayes_variance_is_unclamped():
    """With no trips Q = I/tau2, so g = tau2 e and the variance is 0 in exact
    arithmetic; read as total - bias2 it is the rounding of the solve, a few
    ulp of the total of either sign, and nothing clamps it."""
    fx = _fixture(0)
    ds, prior = TripDataset(fx.net, []), PriorSpec(mu=fx.prior.mu, tau2=0.5)
    routes = TripDataset(fx.net, sample_routes(ODLaw(fx.net.p, 1.0), fx.net, fx.rng, 12))
    model = PosteriorModel(ds, fx.cov, prior)
    _, total, bias2 = model._terms(routes)
    assert np.allclose(total, np.diff(routes.offsets) * prior.tau2, rtol=1e-15, atol=0)
    assert np.all(np.abs(total - bias2) <= 4 * np.spacing(total))
    for r, y in enumerate(routes.routes):
        variance, b2 = model.risk_terms(y)
        assert (variance, b2) == (total[r] - bias2[r], bias2[r])
        detail = model.predict(y).detail
        assert (detail["variance"], detail["risk"]) == (variance, total[r])
        # RiskReport.total adds the split back: the total to within 1 ulp
        report = risk_optimal(ds, y, fx.cov, prior, model=model)
        assert abs(report.total - total[r]) <= np.spacing(total[r])


def test_empty_inputs():
    fx = _fixture(0)
    ds = TripDataset(fx.net, [])
    n = fx.net.n_segments
    y = fx.y.segment_ids
    assert ds.incidence.shape == (0, n)
    assert np.array_equal(ds.n_s, np.zeros(n))
    assert np.array_equal(ds.pair_counts(y, np.empty(0, dtype=np.int64)),
                          np.zeros((len(y), len(y))))
    assert np.array_equal(ds.pair_counts(y), np.zeros((len(y), len(y))))
    assert ds.n_subset(y) == 0
    assert ds.quadratic_sums(fx.cov).size == 0
    assert list(ds._sigma_blocks(fx.cov)) == []
    n = fx.net.n_segments
    empty = _factored_q(PosteriorModel(ds, fx.cov, fx.prior))
    assert np.allclose(empty, np.eye(n) / fx.prior.tau2, rtol=1e-15, atol=0)
    for spec in (NeighborhoodSpec.exact_route(), NeighborhoodSpec.od_exact()):
        assert resolve_neighborhood(ds, fx.y, spec).size == 0


def test_neighborhoods_match_dict_reference():
    # 3 000 trips on a 4-grid repeat each route and each OD pair many times
    net = build_grid(4)
    law = ODLaw(4, 1.0)
    rng = np.random.default_rng(2024)
    ds = TripDataset(net, sample_routes(law, net, rng, 3000))
    by_route: dict[tuple, list[int]] = {}
    by_od: dict[tuple, list[int]] = {}
    for n, r in enumerate(ds.routes):
        by_route.setdefault(r.segment_ids, []).append(n)
        by_od.setdefault((*r.origin, *r.destination), []).append(n)
    assert sum(len(v) for v in by_route.values() if len(v) > 1) > 2500
    for y in sample_routes(law, net, rng, 60):
        exact = resolve_neighborhood(ds, y, NeighborhoodSpec.exact_route())
        assert exact.members.tolist() == by_route.get(y.segment_ids, [])
        od = resolve_neighborhood(ds, y, NeighborhoodSpec.od_exact())
        assert od.members.tolist() == by_od.get((*y.origin, *y.destination), [])


def test_backend_name_exported():
    import etalab
    assert etalab.kernel_backend == "numpy"


def _many_trips(seed, n_trips=400):
    return random_fixture(seed, cov_kind="diffusion", p=4, n_trips=n_trips, with_times=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_information_pass_independent_of_threads(seed, monkeypatch):
    fx = _many_trips(seed)
    monkeypatch.setattr(trips, "_FAMILY_BYTES", 1024)
    assert sum(1 for _ in fx.ds._family_chunks()) > 20
    models = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(estimators, "_THREADS", threads)
        models.append(PosteriorModel(fx.ds, fx.cov, fx.prior))
    for m in models[1:]:
        assert np.array_equal(m.quadratic_sums, models[0].quadratic_sums)
        assert np.array_equal(m._cho[0], models[0]._cho[0])
    assert np.array_equal(models[0].quadratic_sums, fx.ds.quadratic_sums(fx.cov))


@pytest.mark.parametrize("budget", [1, 300, 2048, 5000, _WHOLE_GROUPS])
def test_sigma_blocks_cover_each_trip_once(budget, monkeypatch):
    fx = _many_trips(3)
    ds, sigma = fx.ds, fx.cov.sigma
    monkeypatch.setattr(trips, "_BLOCK_BYTES", budget)
    seen, lengths = [], []
    for chunk, pos, ids, blocks in ds._sigma_blocks(fx.cov):
        length = ids.shape[1]
        assert blocks.nbytes <= budget or chunk.size == 1
        assert blocks.shape == (chunk.size, length, length)
        assert np.array_equal(pos, ds.offsets[chunk, None] + np.arange(length))
        assert np.array_equal(ids, ds.flat[pos])
        for t, block in zip(chunk, blocks):
            r = ds.routes[t].segment_ids
            assert np.array_equal(block, sigma[np.ix_(r, r)])
        seen.extend(chunk.tolist())
        lengths.append(length)
    assert sorted(seen) == list(range(ds.n_trips))
    assert lengths == sorted(lengths)


def _whole_groups(ds):
    """Per route length L: the (n_L, L) flat positions and segment ids of its trips."""
    lens = np.diff(ds.offsets)
    for length in np.unique(lens):
        pos = ds.offsets[np.flatnonzero(lens == length), None] + np.arange(length)
        yield pos, ds.flat[pos]


def _predict_by_groups(model, y):
    """PosteriorModel.predict's coefficients, one batched solve per whole length group."""
    ds, sigma = model.ds, model.cov.sigma
    g = model._weights(TripDataset._one_route(ds.network, y.segment_ids))[:, 0]
    coef = np.zeros(ds.flat.size)
    for pos, ids in _whole_groups(ds):
        blocks = sigma[ids[:, :, None], ids[:, None, :]]
        coef[pos] = np.linalg.solve(blocks, g[ids][..., None])[..., 0]
    return coef


def _times_by_groups(net, routes, cov, prior, rng):
    """synthesize_times' draws, one batched eigh per whole length group."""
    theta = prior.mu + np.sqrt(prior.tau2) * rng.standard_normal(net.n_segments)
    ds = TripDataset(net, routes)
    z = rng.standard_normal(ds.flat.size)
    times = theta[ds.flat]
    for pos, ids in _whole_groups(ds):
        evals, evecs = np.linalg.eigh(cov.sigma[ids[:, :, None], ids[:, None, :]])
        factors = evecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]
        times[pos] += np.einsum("nij,nj->ni", factors, z[pos])
    return times


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_block_consumers_match_whole_group_references(seed, monkeypatch):
    fx = _many_trips(seed, n_trips=150)
    ds, cov, prior = fx.ds, fx.cov, fx.prior
    routes = ds.routes
    expect_times = _times_by_groups(fx.net, routes, cov, prior, np.random.default_rng(seed))
    model = PosteriorModel(ds, cov, prior)
    expect_coef = _predict_by_groups(model, fx.y)
    results = {}
    for budget in (_WHOLE_GROUPS, 1, 700):
        monkeypatch.setattr(trips, "_BLOCK_BYTES", budget)
        pred = model.predict(fx.y)
        assert np.array_equal(pred.coef, expect_coef)
        timed = synthesize_times(fx.net, routes, cov, prior, np.random.default_rng(seed))
        assert np.array_equal(timed.times, expect_times)
        results[budget] = (pred.intercept, pred.value,
                           mc_risk(pred, ds, cov, prior, replicates=300, seed=seed))
    assert results[1] == results[700] == results[_WHOLE_GROUPS]


@pytest.mark.parametrize("seed", range(4, 24))
def test_noise_variances_independent_of_block_chunks(seed, monkeypatch):
    """_error_terms reads the summed noise variance from one sparse Gram
    product, which no block budget touches; it equals the sum of c' sigma_r c
    over the blocks _sigma_blocks gathers, in one-trip chunks, partial chunks
    or whole route-length groups."""
    fx = _many_trips(seed)
    pred = PosteriorModel(fx.ds, fx.cov, fx.prior).predict(fx.y)
    variance = _error_terms(pred, fx.ds, fx.cov)[2]
    for budget in (_WHOLE_GROUPS, 1, 700):
        monkeypatch.setattr(trips, "_BLOCK_BYTES", budget)
        walk = 0.0
        for _, pos, _, blocks in fx.ds._sigma_blocks(fx.cov):
            c = pred.coef[pos]
            walk += float(((blocks @ c[..., None])[..., 0] * c).sum())
        assert abs(variance - walk) <= 1e-14 * max(1.0, walk)


def test_sweep_workers_share_the_cores(monkeypatch):
    """Each of run_sweep's worker processes gives the information pass
    cores // workers threads; a single-process sweep gives it every core."""
    sizes = []

    class SpyPool(estimators.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=1)

    class InlineProcessPool:
        """Runs the tasks in this process, after the pool's initializer."""

        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(estimators, "ThreadPoolExecutor", SpyPool)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineProcessPool)
    monkeypatch.setattr(estimators, "_THREADS", None)
    cfg = dict(master_seed=1, grid_sizes=(3,), exponents=(1.0, 2.0), n_predict=2)
    single = harness.run_sweep(harness.SweepConfig(workers=1, **cfg))
    assert sizes == [4, 4]
    sizes.clear()
    assert harness.run_sweep(harness.SweepConfig(workers=4, **cfg)) == single
    assert sizes == [1, 1]


def _first_singular(ds, singular):
    """The first trip with a singular block in _sigma_blocks' order: by route
    length, then by id."""
    lengths = np.diff(ds.offsets)
    return min((int(lengths[t]), t) for t in range(ds.n_trips) if singular(ds.routes[t]))


def test_singular_trip_block_names_the_trip():
    net = build_grid(3)
    ds = sample_trips(ODLaw(3, 1.0), net, np.random.default_rng(0), 30)
    prior = PriorSpec(1.0, 0.5)
    y = ds.routes[0]
    # rank 3: every block of a route longer than 3 is singular
    gram = gram_covariance(net.n_segments, 3)
    # two perfectly correlated segments: only the routes through both are singular
    s, t = ds.routes[14].segment_ids[:2]
    sigma = np.eye(net.n_segments)
    sigma[s, t] = sigma[t, s] = 1.0
    pair = CovarianceModel(sigma)
    for cov, singular in ((gram, lambda r: len(r) > 3),
                          (pair, lambda r: {s, t} <= set(r.segment_ids))):
        length, trip = _first_singular(ds, singular)
        assert trip not in (0, 14)
        match = (rf"sigma block of trip {trip} \(route length {length}\) is "
                 rf"singular: covariance rank {cov.rank} of {net.n_segments}")
        with pytest.raises(np.linalg.LinAlgError, match=match):
            risk_optimal(ds, y, cov, prior)
        with pytest.raises(np.linalg.LinAlgError, match=match):
            predict_bayes_optimal(ds, y, cov, prior)


@pytest.mark.parametrize("seed", [500, 515])
def test_route_longer_than_rank_raises(seed):
    # Gram covariances of rank 4 and 3 with longer routes: np.linalg.inv takes
    # some of their singular blocks without raising
    fx = random_fixture(seed, with_times=True)
    length, trip = _first_singular(fx.ds, lambda r: len(r) > fx.cov.rank)
    match = (rf"sigma block of trip {trip} \(route length {length}\) is "
             rf"singular: covariance rank {fx.cov.rank} of {fx.net.n_segments}")
    with pytest.raises(np.linalg.LinAlgError, match=match):
        risk_optimal(fx.ds, fx.y, fx.cov, fx.prior)
    with pytest.raises(np.linalg.LinAlgError, match=match):
        predict_bayes_optimal(fx.ds, fx.y, fx.cov, fx.prior)


def test_indefinite_information_matrix_names_the_rank(monkeypatch):
    fx = random_fixture(500, with_times=True)
    monkeypatch.setattr(CovarianceModel, "rank", property(lambda self: self.n_segments))
    n = fx.net.n_segments
    # without the rank check, the family factors still reject seed 500's
    # singular blocks and name the first such trip
    match = rf"sigma block of trip \d+ \(route length \d+\) is singular: covariance rank {n} of {n}"
    with pytest.raises(np.linalg.LinAlgError, match=match):
        PosteriorModel(fx.ds, fx.cov, fx.prior)
    # an indefinite Q from the pass is named by cho_factor's re-raise
    monkeypatch.setattr(estimators, "_information",
                        lambda ds, cov, tau2: (-np.eye(n, order="F"), np.zeros(ds.n_trips)))
    match = rf"W \+ I/tau2 is not positive definite \(.*\): covariance rank {n} of {n}"
    with pytest.raises(np.linalg.LinAlgError, match=match):
        PosteriorModel(fx.ds, fx.cov, fx.prior)


# ---------------------------------------------------------------------------
# route families


def _two_turn_store(tmp_path):
    """A JSONL store on a 4-grid: two two-turn paths A and B with the same
    first segment, P = 4 and segment at P, a copy of A, an L that A's first
    four segments nest, a prefix of that L and a straight prefix."""
    net = build_grid(4)
    paths = [
        [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 3)],  # A: R R D D R
        [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)],  # B: R D R D R
        [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 3)],  # A again
        [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)],          # R R D D
        [(0, 0), (0, 1), (0, 2), (1, 2)],                  # R R D
        [(0, 0), (0, 1), (0, 2)],                          # R R
    ]
    path = tmp_path / "trips.jsonl"
    TripDataset(net, [Route.from_vertices(net, v) for v in paths]).to_jsonl(path)
    return TripDataset.from_jsonl(net, path)


def _family_of(fam):
    """Per trip, its family."""
    family = np.empty(fam.order.size, dtype=np.int64)
    family[fam.order] = np.repeat(np.arange(fam.n_families), np.diff(fam.bounds))
    return family


def _stores(tmp_path):
    sampled = _many_trips(0)
    yield "sampled", sampled.ds, sampled.cov
    fx = _fixture(7)
    yield "fixture", fx.ds, fx.cov
    jsonl = _two_turn_store(tmp_path)
    graph = segment_graph(jsonl.network, rule=AdjacencyRule.CALIBRATED)
    yield "jsonl", jsonl, diffusion_covariance(graph, u=1.0, v=1.0, white=0.5)


def test_family_members_are_prefixes_of_the_longest(tmp_path):
    for _, ds, _ in _stores(tmp_path):
        fam = ds._families
        family = _family_of(fam)
        assert sorted(fam.order.tolist()) == list(range(ds.n_trips))
        for trip, route in enumerate(ds.routes):
            longest = ds.routes[fam.longest[family[trip]]].segment_ids
            assert longest[:len(route)] == route.segment_ids
        # each family lists its members longest first, ties in id order
        lengths = np.diff(ds.offsets)
        for f in range(fam.n_families):
            members = fam.order[fam.bounds[f]:fam.bounds[f + 1]]
            assert np.all(family[members] == f)
            assert [(-lengths[t], t) for t in members] == sorted(
                (-lengths[t], t) for t in members)


def test_distinct_routes_are_family_length_pairs(tmp_path):
    for _, ds, _ in _stores(tmp_path):
        assert ds._families.n_routes == len({r.segment_ids for r in ds.routes})
    ds = sample_trips(ODLaw(6, 0.7), build_grid(6), np.random.default_rng(11), 5000)
    routes = {r.segment_ids for r in ds.routes}
    assert ds._families.n_routes == len(routes) < ds.n_trips


def test_two_turn_paths_keep_their_own_families(tmp_path):
    ds = _two_turn_store(tmp_path)
    family = _family_of(ds._families)
    a, b, a_again, l_shape, l_prefix, straight = family
    assert a != b
    assert a == a_again
    assert l_shape == l_prefix
    assert len({a, b, l_shape, straight}) == 4
    assert ds._families.n_families == 4


def _loop_families(ds):
    """(order, bounds, n_routes) of `ds._families`, one trip at a time: the
    turns of each route, its key and its family."""
    net, routes = ds.network, [r.segment_ids for r in ds.routes]
    n_seg = net.n_segments
    top = max((len(r) for r in routes), default=1) * n_seg
    keys = []
    for r in routes:
        heading = [net.segment(s).direction for s in r]
        turns = [i for i in range(1, len(r)) if heading[i] != heading[i - 1]]
        if len(turns) <= 1:
            last = turns[-1] if turns else 0
            keys.append(r[0] * top + last * n_seg + r[last])
        else:
            keys.append(top * n_seg + routes.index(r))
    families = {}
    for trip, key in enumerate(keys):
        families.setdefault(key, []).append(trip)
    ranked = sorted(families.items(),
                    key=lambda kv: (max(len(routes[t]) for t in kv[1]), kv[0]))
    order, bounds = [], [0]
    for _, members in ranked:
        order += sorted(members, key=lambda t: (-len(routes[t]), t))
        bounds.append(len(order))
    return order, bounds, len({(key, len(r)) for key, r in zip(keys, routes)})


def _boundary_store():
    """A 4-grid store whose trips change direction across most trip
    boundaries, with one-segment trips among them.  Trips 1 and 5 (D D R)
    start down after a trip that ends right, and share a family with trip 3
    (D D R R), which starts down after a trip that ends down."""
    net = build_grid(4)
    paths = [
        [(0, 0), (0, 1), (0, 2)],                          # R R
        [(0, 0), (1, 0), (2, 0), (2, 1)],                  # D D R
        [(0, 1), (1, 1)],                                  # D
        [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)],          # D D R R
        [(1, 1), (1, 2)],                                  # R
        [(0, 0), (1, 0), (2, 0), (2, 1)],                  # D D R again
        [(3, 0), (3, 1), (2, 1)],                          # R U
        [(2, 3), (2, 2)],                                  # L
    ]
    return TripDataset(net, [Route.from_vertices(net, v) for v in paths])


def test_family_index_matches_per_trip_turns(tmp_path):
    net = build_grid(4)
    boundary = _boundary_store()
    stores = [ds for _, ds, _ in _stores(tmp_path)] + [
        boundary, boundary._slice(1, 2), boundary._slice(2, 3), TripDataset(net, [])]
    for ds in stores:
        fam = ds._families
        order, bounds, n_routes = _loop_families(ds)
        assert fam.order.tolist() == order
        assert fam.bounds.tolist() == bounds
        assert fam.n_routes == n_routes
    family = _family_of(boundary._families)
    assert family[1] == family[3] == family[5]
    assert boundary._families.n_routes == 7


def test_family_chunks_cover_each_trip_once(tmp_path, monkeypatch):
    for budget in (1, 1024, _WHOLE_GROUPS):
        monkeypatch.setattr(trips, "_FAMILY_BYTES", budget)
        for _, ds, _ in _stores(tmp_path):
            seen, lengths = [], []
            for members, lens, local, ids in ds._family_chunks():
                assert ids.shape[0] * ids.shape[1] ** 2 * 8 <= budget or ids.shape[0] == 1
                assert np.array_equal(lens, np.diff(ds.offsets)[members])
                # every member travels a prefix of its row's route
                for t, row in zip(members, local):
                    r = ds.routes[t].segment_ids
                    assert tuple(ids[row, :len(r)]) == r
                assert np.array_equal(np.unique(local), np.arange(ids.shape[0]))
                seen.extend(members.tolist())
                lengths.append(ids.shape[1])
            assert sorted(seen) == list(range(ds.n_trips))
            assert lengths == sorted(lengths)


def _per_trip_information(ds, cov, tau2):
    """Q = sum over trips of inv(sigma[r, r]) in (r, r), plus I/tau2, and the
    per-trip block sums, one trip at a time."""
    q = np.eye(cov.n_segments) / tau2
    sums = np.zeros(ds.n_trips)
    for t, r in enumerate(ds.routes):
        block = cov.block(r.segment_ids)
        q[np.ix_(r.segment_ids, r.segment_ids)] += np.linalg.inv(block)
        sums[t] = block.sum()
    return q, sums


def test_family_pass_matches_per_trip_inverses(tmp_path):
    tau2 = 0.7
    for name, ds, cov in _stores(tmp_path):
        expect_q, expect_sums = _per_trip_information(ds, cov, tau2)
        q, sums = estimators._information(ds, cov, tau2)
        assert np.max(np.abs(q - expect_q)) <= 1e-13 * np.max(np.abs(expect_q)), name
        assert np.max(np.abs(sums - expect_sums)) <= 1e-15 * np.max(np.abs(expect_sums)), name
        assert np.array_equal(ds.quadratic_sums(cov), sums)
