"""Trip counters and the information matrix against plain-loop references.

Every counter is derived from the sparse trip x segment incidence matrix; the
references below loop over `ds.routes` one trip and one segment at a time.
The trips' covariance blocks come from one chunked generator; its consumers
are held to references that gather each whole route-length group at once.
"""
import os
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import random_fixture
from etalab import estimators, harness, trips
from etalab.covariance import CovarianceModel, gram_covariance
from etalab.estimators import PosteriorModel, predict_bayes_optimal
from etalab.network import build_grid
from etalab.risk import mc_risk, risk_optimal
from etalab.trips import (NeighborhoodSpec, ODLaw, PriorSpec, TripDataset,
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
        assert np.array_equal(ds.subset_counts(members), _loop_counts(ds, members))


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


@pytest.mark.parametrize("seed", [11, 12])
def test_n_subset_matches_loop(seed):
    fx = _fixture(seed)
    ds = fx.ds
    ids = ds.routes[0].segment_ids
    for subset in (ids[:1], ids[:2], ids, ids[::2] + ids[:1], fx.y.segment_ids, ()):
        brute = [n for n, r in enumerate(ds.routes) if set(subset) <= set(r.segment_ids)]
        assert ds.n_subset(subset) == len(brute)
        assert ds.trips_containing_all(subset).tolist() == brute


@pytest.mark.parametrize("seed", [9, 10])
def test_quadratic_sums_match_loop(seed):
    fx = _fixture(seed)
    ds, sigma = fx.ds, fx.cov.sigma
    expect = [sum(sigma[a, b] for a in r.segment_ids for b in r.segment_ids)
              for r in ds.routes]
    assert np.allclose(ds.quadratic_sums(fx.cov), expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [7, 8])
def test_information_matrix_matches_loop(seed):
    fx = _fixture(seed)
    ds, sigma = fx.ds, fx.cov.sigma
    expect = np.zeros_like(sigma)
    for r in ds.routes:
        inv = np.linalg.inv(sigma[np.ix_(r.segment_ids, r.segment_ids)])
        for a, s in enumerate(r.segment_ids):
            for b, t in enumerate(r.segment_ids):
                expect[s, t] += inv[a, b]
    got = PosteriorModel(ds, fx.cov, fx.prior).w
    assert np.allclose(got, expect, rtol=0, atol=1e-10)
    # a budget below one block gives one-trip chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trips, "_BLOCK_BYTES", 1)
        assert all(t.size == 1 for t, *_ in ds._sigma_blocks(fx.cov))
        got = PosteriorModel(ds, fx.cov, fx.prior).w
    assert np.allclose(got, expect, rtol=0, atol=1e-10)


def test_empty_inputs():
    fx = _fixture(0)
    ds = TripDataset(fx.net, [])
    n = fx.net.n_segments
    y = fx.y.segment_ids
    assert ds.incidence.shape == (0, n)
    assert np.array_equal(ds.n_s, np.zeros(n))
    assert np.array_equal(ds.subset_counts(np.empty(0, dtype=np.int64)), np.zeros(n))
    assert np.array_equal(ds.pair_counts(y), np.zeros((len(y), len(y))))
    assert ds.n_subset(y) == 0
    assert ds.quadratic_sums(fx.cov).size == 0
    assert list(ds._sigma_blocks(fx.cov)) == []
    assert not PosteriorModel(ds, fx.cov, fx.prior).w.any()
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
    monkeypatch.setattr(trips, "_BLOCK_BYTES", 2048)
    monkeypatch.setattr(estimators, "_INV_BYTES", 1024)
    assert sum(1 for _ in fx.ds._sigma_blocks(fx.cov)) > 20
    models = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(estimators, "_THREADS", threads)
        models.append(PosteriorModel(fx.ds, fx.cov, fx.prior))
    for m in models[1:]:
        assert np.array_equal(m.w, models[0].w)
        assert np.array_equal(m.quadratic_sums, models[0].quadratic_sums)
        assert np.array_equal(m._cho[0], models[0]._cho[0])
    assert np.array_equal(models[0].quadratic_sums, fx.ds.quadratic_sums(fx.cov))


@pytest.mark.parametrize("budget", [1, 300, 2048, 5000, _WHOLE_GROUPS])
def test_sigma_blocks_cover_each_trip_once(budget, monkeypatch):
    fx = _many_trips(3)
    ds, sigma = fx.ds, fx.cov.sigma
    monkeypatch.setattr(trips, "_BLOCK_BYTES", budget)
    select = fx.rng.random(ds.n_trips) < 0.3
    for mask in (None, select):
        seen, lengths = [], []
        for chunk, pos, ids, blocks in ds._sigma_blocks(fx.cov, select=mask):
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
        expect = np.arange(ds.n_trips) if mask is None else np.flatnonzero(mask)
        assert sorted(seen) == expect.tolist()
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
    g = model.weight_vector(y)
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
    # without the rank check, seed 500's inverted blocks make Q indefinite
    fx = random_fixture(500, with_times=True)
    monkeypatch.setattr(CovarianceModel, "rank", property(lambda self: self.n_segments))
    n = fx.net.n_segments
    match = rf"W \+ I/tau2 is not positive definite \(.*\): covariance rank {n} of {n}"
    with pytest.raises(np.linalg.LinAlgError, match=match):
        PosteriorModel(fx.ds, fx.cov, fx.prior)
