"""Trip counters and the information matrix against plain-loop references.

Every counter is derived from the sparse trip x segment incidence matrix; the
references below loop over `ds.routes` one trip and one segment at a time.
"""
import numpy as np
import pytest

from conftest import random_fixture
from etalab.estimators import PosteriorModel
from etalab.network import build_grid
from etalab.trips import (NeighborhoodSpec, ODLaw, TripDataset,
                          resolve_neighborhood, sample_routes)


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
    assert ds.length_groups() == {}
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
