import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_fixture
import etalab
from etalab import trips
from etalab.covariance import PSD_RTOL, CovarianceModel, diffusion_covariance, gram_covariance
from etalab.fixtures import (
    GOLDEN_COUNTERS,
    reference_dataset,
    reference_route,
    reference_route_neighborhood,
)
from etalab.network import build_grid, segment_graph
from etalab.trips import (
    NeighborhoodSpec,
    ODLaw,
    PriorSpec,
    Route,
    TripDataset,
    resolve_neighborhood,
    sample_route,
    sample_routes,
    sample_trips,
    synthesize_times,
)


def test_route_from_segments_validation(grid3):
    ids = grid3.path_segments([(1, 0), (1, 1), (1, 2)])
    r = Route.from_segments(grid3, ids)
    assert r.origin == (1, 0)
    assert r.destination == (1, 2)
    assert len(r) == 2
    with pytest.raises(ValueError):
        Route.from_segments(grid3, [])
    # broken chain
    broken = grid3.path_segments([(0, 0), (0, 1)]) + grid3.path_segments([(2, 2), (2, 3)])
    with pytest.raises(ValueError):
        Route.from_segments(grid3, broken)
    # repeated segment
    back_forth = [ids[0], grid3.reverse_id(ids[0]), ids[0]]
    with pytest.raises(ValueError):
        Route.from_segments(grid3, back_forth)


@pytest.mark.parametrize("bad", [-1, 48, 1.7, True, np.float64(2.0)], ids=repr)
def test_route_from_segments_rejects_bad_ids(grid3, bad):
    message = f"segment id {bad!r} is not an integer in [0, 48)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Route.from_segments(grid3, [bad])


@pytest.mark.parametrize("bad", [-1, 48, 1.7, True])
def test_from_jsonl_rejects_bad_segment_id(grid3, tmp_path, bad):
    # outside input: a -1 would read as the last segment and fail later in n_s
    path = tmp_path / "trips.jsonl"
    path.write_text(json.dumps({"route": [bad]}) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"segment id {bad!r} is not an integer")):
        TripDataset.from_jsonl(grid3, path)


def test_prior_spec_validation():
    PriorSpec(mu=0.0, tau2=0.5)
    with pytest.raises(ValueError):
        PriorSpec(mu=0.0, tau2=0.0)
    with pytest.raises(ValueError):
        PriorSpec(mu=0.0, tau2=-1.0)
    for mu in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="mu must be finite"):
            PriorSpec(mu=mu, tau2=0.5)
    for tau2 in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau2 must be finite and positive"):
            PriorSpec(mu=0.0, tau2=tau2)


def test_route_rejects_revisited_vertex(grid3):
    # a closed loop: every segment is distinct, but the origin comes back
    with pytest.raises(ValueError, match="revisits a vertex"):
        Route.from_vertices(grid3, [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)])
    # a loop back to the origin in the middle of an open path
    with pytest.raises(ValueError, match="revisits a vertex"):
        Route.from_vertices(grid3, [(0, 1), (0, 0), (1, 0), (1, 1), (0, 1), (0, 2)])
    # a loop back to a later vertex
    with pytest.raises(ValueError, match="revisits a vertex"):
        Route.from_vertices(grid3, [(2, 0), (1, 0), (0, 0), (0, 1), (1, 1), (1, 0)])


def test_from_jsonl_rejects_revisited_vertex(grid3, tmp_path):
    loop = grid3.path_segments([(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)])
    path = tmp_path / "trips.jsonl"
    path.write_text(json.dumps({"route": list(loop)}) + "\n")
    with pytest.raises(ValueError, match="revisits a vertex"):
        TripDataset.from_jsonl(grid3, path)


def test_od_pmf_normalizes():
    for p, alpha in [(2, 0.5), (3, 1.0), (10, 0.25), (10, 3.0)]:
        law = ODLaw(p, alpha)
        assert abs(law.pmf(np.arange(p + 1)).sum() - 1.0) <= 1e-12


def test_od_pmf_uniform_at_alpha_one():
    law = ODLaw(4, 1.0)
    assert np.allclose(law.pmf(np.arange(5)), np.full(5, 1.0 / 5.0), atol=1e-12)


def test_od_pmf_symmetric():
    law = ODLaw(2, 0.5)
    assert law.pmf(0) == pytest.approx(law.pmf(2), abs=1e-14)


def test_od_pmf_corner_heavy():
    law = ODLaw(10, 0.25)
    # corner-to-center ratio of the two-coordinate law
    assert (law.pmf(0) / law.pmf(5)) ** 2 > 50.0


@pytest.mark.parametrize("p, alpha, name", [
    (2.7, 1.0, "p"),
    (True, 1.0, "p"),
    (0, 1.0, "p"),
    (-2, 1.0, "p"),
    (3, float("nan"), "alpha"),
    (3, float("inf"), "alpha"),
    (3, 0.0, "alpha"),
    (3, -0.5, "alpha"),
])
def test_od_law_validation(p, alpha, name):
    with pytest.raises(ValueError, match=rf"\b{name} must be"):
        ODLaw(p, alpha)


def test_import_leaves_out_scipy_stats():
    # importing scipy.stats costs every process most of a second; the OD law
    # needs only scipy.special
    env = dict(os.environ, PYTHONPATH=str(Path(etalab.__file__).parents[1]))
    code = "import sys, etalab; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def _betabinom_sample_od(dist, rng, size):
    """sample_od's rejection loop over scipy's own betabinom draws."""
    out = np.empty((size, 4), dtype=np.int64)
    need = np.arange(size)
    while need.size:
        out[need] = dist.rvs(size=(need.size, 4), random_state=rng)
        need = need[(out[need, 0] == out[need, 2]) & (out[need, 1] == out[need, 3])]
    return out


@pytest.mark.parametrize("p", [1, 2, 3, 5, 10, 20, 30])
def test_od_law_is_scipy_betabinom(p):
    from scipy import stats

    for alpha in (0.3, 0.5, 1.0, 1.7, 4.0):
        law, dist = ODLaw(p, alpha), stats.betabinom(p, alpha, alpha)
        assert np.array_equal(law.pmf(np.arange(p + 1)), dist.pmf(np.arange(p + 1)))
        for k in (-1, p + 1, 1.5):
            assert law.pmf(k) == dist.pmf(k) == 0.0
        for seed in range(3):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(law.sample_od(rng, 300), _betabinom_sample_od(dist, ref, 300))
            assert rng.bit_generator.state == ref.bit_generator.state


def test_sampling_rejects_a_law_for_another_grid():
    net, rng = build_grid(3), np.random.default_rng(0)
    state = rng.bit_generator.state
    for sample in (lambda: sample_trips(ODLaw(4, 1.0), net, rng, 1),
                   lambda: sample_routes(ODLaw(4, 1.0), net, rng, 5),
                   lambda: sample_route(ODLaw(2, 1.0), net, rng)):
        with pytest.raises(ValueError, match=r"OD law is for a \d-grid, network is a 3-grid"):
            sample()
    assert rng.bit_generator.state == state


def test_a_store_rejects_a_route_the_network_does_not_make():
    # unchecked, the p=5 route (1,0)->(1,1)->(1,2) was held on the p=3 grid as
    # its segments 17 and 21, which do not meet, with routes[0] reading
    # origin (1, 2) and destination (0, 3)
    net = build_grid(3)
    cov = diffusion_covariance(segment_graph(net), u=1.0, v=1.0, white=1.0)
    good = Route.from_vertices(net, [(0, 0), (0, 1)])
    other_grid = Route.from_vertices(build_grid(5), [(1, 0), (1, 1), (1, 2)])
    forged = Route(net.path_segments([(1, 0), (1, 1), (1, 2)]), (0, 0), (1, 2))
    for bad, message in ((other_grid, r"route breaks at \(0, 2\) -> \(1, 3\)"),
                         (forged, "is not a route of a p=3 grid")):
        with pytest.raises(ValueError, match=f"^trip 1: .*{message}"):
            TripDataset(net, [good, bad])
        with pytest.raises(ValueError, match=f"^trip 1: .*{message}"):
            synthesize_times(net, [good, bad], cov, PriorSpec(1.0, 0.5),
                             np.random.default_rng(0))
    assert TripDataset(net, [good, good]).routes == (good, good)


def test_a_store_checks_its_routes_in_one_pass(monkeypatch, tmp_path):
    # the store checks every route at once: it never builds a Route per trip,
    # and from_jsonl checks each route once
    net = build_grid(5)
    cov = diffusion_covariance(segment_graph(net), u=1.0, v=1.0, white=1.0)
    routes = sample_routes(ODLaw(5, 1.0), net, np.random.default_rng(0), 50)
    TripDataset(net, routes).to_jsonl(tmp_path / "trips.jsonl")
    checks = []
    route_fault = trips._route_fault
    monkeypatch.setattr(trips, "_route_fault",
                        lambda *args: checks.append(args) or route_fault(*args))
    monkeypatch.setattr(Route, "from_segments", None)
    for build in (lambda: TripDataset(net, routes),
                  lambda: synthesize_times(net, routes, cov, PriorSpec(1.0, 0.5),
                                           np.random.default_rng(0)),
                  lambda: TripDataset.from_jsonl(net, tmp_path / "trips.jsonl")):
        checks.clear()
        assert build().routes == tuple(routes)
        assert len(checks) == 1 and len(checks[0][1]) == sum(map(len, routes))


@pytest.mark.parametrize("n", [-1, 2.5, True, "3"], ids=repr)
def test_sampling_rejects_a_bad_trip_count(n):
    net, rng = build_grid(3), np.random.default_rng(0)
    state = rng.bit_generator.state
    message = f"trip count n must be an integer >= 0, got {n!r}"
    for sample in (lambda: sample_trips(ODLaw(3, 1.0), net, rng, n),
                   lambda: sample_routes(ODLaw(3, 1.0), net, rng, n)):
        with pytest.raises(ValueError, match=re.escape(message)):
            sample()
    assert rng.bit_generator.state == state
    assert sample_trips(ODLaw(3, 1.0), net, rng, 0).n_trips == 0


def test_sample_od_never_degenerate():
    law = ODLaw(2, 0.6)
    rng = np.random.default_rng(0)
    od = law.sample_od(rng, 500)
    assert od.shape == (500, 4)
    assert np.all((od >= 0) & (od <= 2))
    same = (od[:, 0] == od[:, 2]) & (od[:, 1] == od[:, 3])
    assert not same.any()


def test_sample_od_above_a_million_trips():
    # the rejection rounds are bounded, not the draws, so any size runs, and the
    # stream is the unbounded rejection loop's
    from scipy import stats

    law, n = ODLaw(30, 1.0), 1_100_000
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    od = law.sample_od(rng, n)
    assert np.array_equal(od, _betabinom_sample_od(stats.betabinom(30, 1.0, 1.0), ref, n))
    assert rng.bit_generator.state == ref.bit_generator.state


class _RejectingGenerator(np.random.Generator):
    """Draws every coordinate as 0, so every origin equals its destination."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.rounds = 0

    def binomial(self, n, p, size=None):
        self.rounds += 1
        return np.zeros(size, dtype=np.int64)


def test_sample_od_stops_on_a_law_that_rejects_every_draw(monkeypatch):
    monkeypatch.setattr(trips, "_RESAMPLE_ROUNDS", 5)
    rng = _RejectingGenerator(0)
    with pytest.raises(RuntimeError, match="left 10 draws rejected after 5 rounds"):
        ODLaw(3, 1.0).sample_od(rng, 10)
    assert rng.rounds == 5


def test_sample_route_straight_when_aligned():
    net = build_grid(3)
    law = ODLaw(3, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(200):
        r = sample_route(law, net, rng)
        o, d = r.origin, r.destination
        assert len(r) == abs(o[0] - d[0]) + abs(o[1] - d[1])
        if o[0] == d[0] or o[1] == d[1]:
            dirs = {net.segment(s).direction for s in r.segment_ids}
            assert len(dirs) == 1


def test_sample_route_coin_is_fair():
    net = build_grid(3)
    law = ODLaw(3, 1.0)
    rng = np.random.default_rng(7)
    n = 10 ** 4
    corner_first = 0
    diagonal = 0
    for r in sample_routes(law, net, rng, n):
        o, d = r.origin, r.destination
        if o[0] == d[0] or o[1] == d[1]:
            continue
        diagonal += 1
        first = net.segment(r.segment_ids[0]).direction
        corner_first += int(first[0] != 0)
    freq = corner_first / diagonal
    se = 0.5 / np.sqrt(diagonal)
    assert abs(freq - 0.5) <= 3.0 * se


def test_sample_route_distribution_matches_enumeration():
    p = 2
    net = build_grid(p)
    law = ODLaw(p, 1.0)
    pmf = law.pmf(np.arange(p + 1))

    def vertex_prob(v):
        return pmf[v[0]] * pmf[v[1]]

    support = {}
    total = 0.0
    verts = [(i, j) for i in range(p + 1) for j in range(p + 1)]
    for o, d in itertools.product(verts, verts):
        if o == d:
            continue
        w = vertex_prob(o) * vertex_prob(d)
        total += w
        if o[0] == d[0] or o[1] == d[1]:
            keys = [_route_between(net, o, d, True).segment_ids]
        else:
            keys = [_route_between(net, o, d, True).segment_ids,
                    _route_between(net, o, d, False).segment_ids]
        for k in keys:
            support[k] = support.get(k, 0.0) + w / len(keys)
    for k in support:
        support[k] /= total

    rng = np.random.default_rng(11)
    n = 20000
    seen = {}
    for r in sample_routes(law, net, rng, n):
        seen[r.segment_ids] = seen.get(r.segment_ids, 0) + 1
    assert set(seen) <= set(support)
    for k, prob in support.items():
        freq = seen.get(k, 0) / n
        se = np.sqrt(prob * (1.0 - prob) / n)
        assert abs(freq - prob) <= 4.0 * se + 1e-12


def _route_between(network, origin, destination, vertical_first: bool) -> Route:
    oi, oj = origin
    di, dj = destination
    verts = [(oi, oj)]
    legs = ((di, oj), (di, dj)) if vertical_first else ((oi, dj), (di, dj))
    for ti, tj in legs:
        ci, cj = verts[-1]
        while (ci, cj) != (ti, tj):
            if ci != ti:
                ci += 1 if ti > ci else -1
            else:
                cj += 1 if tj > cj else -1
            verts.append((ci, cj))
    return Route.from_vertices(network, verts)


def _reference_routes(law, network, rng, n) -> list[Route]:
    """The per-trip sampler: one vertex walk and one validated Route per trip."""
    od = law.sample_od(rng, n)
    coins = rng.integers(0, 2, size=n)
    routes = []
    for row, coin in zip(od, coins):
        origin = (int(row[0]), int(row[1]))
        dest = (int(row[2]), int(row[3]))
        aligned = origin[0] == dest[0] or origin[1] == dest[1]
        vertical_first = bool(coin) if not aligned else True
        routes.append(_route_between(network, origin, dest, vertical_first))
    return routes


@pytest.mark.parametrize("n", [0, 1, 500])
@pytest.mark.parametrize("alpha", [0.4, 1.0, 2.5])
@pytest.mark.parametrize("p", [1, 2, 3, 7])
def test_sample_trips_matches_per_trip_reference(p, alpha, n):
    net, law = build_grid(p), ODLaw(p, alpha)
    for seed in range(3):
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _reference_routes(law, net, rng_ref, n)
        ds = sample_trips(law, net, rng, n)
        # same draws in the same order: both generators end in the same state
        assert rng.random() == rng_ref.random()
        assert ds.flat.dtype == ds.offsets.dtype == np.int64
        assert np.array_equal(ds.offsets, np.cumsum([0] + [len(r) for r in expected]))
        assert np.array_equal(ds.flat, [s for r in expected for s in r.segment_ids])
        od = np.array([(*r.origin, *r.destination) for r in expected], dtype=np.int64)
        assert np.array_equal(ds.od_array, od.reshape(-1, 4))
        assert sample_routes(law, net, np.random.default_rng(seed), n) == expected
        for r in ds.routes:
            assert r == Route.from_segments(net, r.segment_ids)


def test_sampling_and_incidence_transients_stay_small():
    """Under tracemalloc, sample_trips holds at most about two flat-sized
    int64 arrays at once, and the int8 incidence allocates less than 1.5x the
    int64 flat it indexes (the CSR and the CSC of it are both held while the
    CSC is built)."""
    net, law = build_grid(12), ODLaw(12, 1.0)
    sample_trips(law, net, np.random.default_rng(0), 10)
    tracemalloc.start()
    try:
        ds = sample_trips(law, net, np.random.default_rng(1), 50_000)
        _, sampling_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        ds.incidence
        _, incidence_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sampling_peak <= 3.5 * ds.flat.nbytes
    assert incidence_peak - before <= 1.5 * ds.flat.nbytes


# ---------------------------------------------------------------------------
# synthesized times


def test_synthesize_degenerate_noise_returns_theta(grid3):
    graph = segment_graph(grid3)
    cov = diffusion_covariance(graph, u=0.0, v=0.0, white=0.0)
    rng = np.random.default_rng(3)
    law = ODLaw(3, 1.0)
    routes = sample_routes(law, grid3, rng, 10)
    prior = PriorSpec(mu=1.0, tau2=0.4)
    ds = synthesize_times(grid3, routes, cov, prior, rng)
    for r, t in zip(ds.routes, np.split(ds.times, ds.offsets[1:-1])):
        assert np.array_equal(t, ds.theta[list(r.segment_ids)])


def test_synthesize_matches_per_trip_loop():
    net = build_grid(4)
    cov = diffusion_covariance(segment_graph(net), u=0.7, v=1.1, white=0.2)
    prior = PriorSpec(mu=1.5, tau2=0.4)
    routes = sample_routes(ODLaw(4, 0.8), net, np.random.default_rng(2), 60)
    ds = synthesize_times(net, routes, cov, prior, np.random.default_rng(11))
    # reference: theta first, then one factor and one draw per trip in trip order
    rng = np.random.default_rng(11)
    theta = prior.mu + np.sqrt(prior.tau2) * rng.standard_normal(net.n_segments)
    assert np.array_equal(ds.theta, theta)
    for r, t in zip(routes, np.split(ds.times, ds.offsets[1:-1])):
        ids = np.asarray(r.segment_ids)
        evals, evecs = np.linalg.eigh(cov.sigma[np.ix_(ids, ids)])
        factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
        expected = theta[ids] + factor @ rng.standard_normal(len(ids))
        np.testing.assert_allclose(t, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_synthesize_on_rank_deficient_gram(rank):
    # routes longer than the rank have singular sigma blocks; the noise
    # factor clips their negative eigenvalues, which interlacing keeps
    # within the tolerance CovarianceModel accepts
    net = build_grid(4)
    cov = gram_covariance(net.n_segments, m=rank, seed=rank)
    assert cov.rank == rank
    routes = sample_routes(ODLaw(4, 1.0), net, np.random.default_rng(rank), 200)
    ds = synthesize_times(net, routes, cov, PriorSpec(mu=1.0, tau2=0.5),
                          np.random.default_rng(rank))
    assert np.diff(ds.offsets).max() > rank
    assert ds.times.shape == ds.flat.shape and np.all(np.isfinite(ds.times))
    floor = -PSD_RTOL * max(1.0, float(cov.eigenvalues[-1]))
    for _, _, _, blocks in ds._sigma_blocks(cov):
        assert np.linalg.eigvalsh(blocks)[:, 0].min() >= floor


def test_synthesize_moments(grid3):
    graph = segment_graph(grid3)
    cov = diffusion_covariance(graph, u=0.8, v=1.0, white=0.1)
    rng = np.random.default_rng(5)
    y = reference_route()
    routes = [y] * (10 ** 5)
    prior = PriorSpec(mu=1.0, tau2=0.3)
    ds = synthesize_times(grid3, routes, cov, prior, rng)
    t = ds.times.reshape(len(routes), len(y))
    s1, s2 = y.segment_ids
    sd1 = np.sqrt(cov.sigma[s1, s1])
    assert abs(t[:, 0].mean() - ds.theta[s1]) <= 3.0 * sd1 / np.sqrt(len(routes))
    centered = t - t.mean(axis=0)
    emp_cov = float((centered[:, 0] * centered[:, 1]).mean())
    # crude but sufficient s.e. for a Gaussian product moment
    se = np.sqrt((cov.sigma[s1, s1] * cov.sigma[s2, s2] +
                  cov.sigma[s1, s2] ** 2) / len(routes))
    assert abs(emp_cov - cov.sigma[s1, s2]) <= 3.0 * se


# ---------------------------------------------------------------------------
# counters


def test_reference_counters():
    ds = reference_dataset()
    s1, s2 = reference_route().segment_ids
    assert ds.n_s[s1] == GOLDEN_COUNTERS["n_first"]
    assert ds.n_s[s2] == GOLDEN_COUNTERS["n_second"]
    assert ds.n_subset([s1, s2]) == GOLDEN_COUNTERS["n_joint"]
    assert ds.trips_containing_all([s1]).tolist() == [0, 3, 4]
    assert ds.trips_containing_all([s2]).tolist() == [1, 2, 3]


def test_empty_dataset_counters(grid3):
    for ds in (TripDataset(grid3, []),
               sample_trips(ODLaw(3, 1.0), grid3, np.random.default_rng(0), 0)):
        assert ds.n_trips == 0
        assert ds.routes == ()
        assert ds.n_s.sum() == 0
        y = reference_route()
        assert np.array_equal(ds.pair_counts(y.segment_ids), np.zeros((2, 2)))
        assert ds.n_subset(y.segment_ids) == 0


def test_dataset_from_routes_matches_sample_trips():
    net, law = build_grid(4), ODLaw(4, 0.8)
    for seed in range(5):
        routes = _reference_routes(law, net, np.random.default_rng(seed), 200)
        built = TripDataset(net, routes)
        sampled = sample_trips(law, net, np.random.default_rng(seed), 200)
        for name in ("flat", "offsets", "od_array"):
            assert np.array_equal(getattr(built, name), getattr(sampled, name)), name
        assert built.routes == sampled.routes == tuple(routes)
        assert (built.incidence != sampled.incidence).nnz == 0


def test_counter_invariants_random():
    for seed in range(25):
        fx = random_fixture(seed)
        ds = fx.ds
        ids = fx.y.segment_ids
        pair = ds.pair_counts(ids)
        assert np.array_equal(pair, pair.T)
        diag = np.diag(pair)
        assert np.array_equal(diag, ds.n_s[list(ids)])
        assert np.all(pair <= np.minimum.outer(diag, diag))
        # brute force cross-check
        brute = np.zeros_like(pair)
        for r in ds.routes:
            present = [i for i, s in enumerate(ids) if s in set(r.segment_ids)]
            for a in present:
                for b in present:
                    brute[a, b] += 1
        assert np.array_equal(pair, brute)


def test_n_subset_matches_brute_force():
    fx = random_fixture(41, n_trips=15)
    ds = fx.ds
    ids = fx.y.segment_ids[:2]
    brute = sum(1 for r in ds.routes if set(ids) <= set(r.segment_ids))
    assert ds.n_subset(ids) == brute
    assert ds.n_subset(ids) <= min(ds.n_s[list(ids)]) if len(ids) else True


# each call with one bad argument; unchecked, on this p=3 store of 200 trips,
# pair_counts([-1]) returned segment 47's count [[14]], [0.7] read segment 0,
# n_subset([True]) read segment 1, members=[-1] read the last trip, and id 48
# raised a bare IndexError
_BAD_COUNTER_CALLS = {
    "pair_counts[-1]": (lambda ds: ds.pair_counts([-1]), "segment id -1 "),
    "pair_counts[0.7]": (lambda ds: ds.pair_counts([0, 0.7]), "segment id 0.7 "),
    "pair_counts[48]": (lambda ds: ds.pair_counts(np.array([48])), "segment id 48 "),
    "pair_counts(members=[-1])": (lambda ds: ds.pair_counts([0], members=[-1]),
                                  "members must be ids of the store's 200 trips"),
    "pair_counts(members=[200])": (lambda ds: ds.pair_counts([0], members=np.array([200])),
                                   "members must be ids of the store's 200 trips"),
    "pair_counts(members=[0.7])": (lambda ds: ds.pair_counts([0], members=[0.7]),
                                   "members must be ids of the store's 200 trips"),
    "n_subset[True]": (lambda ds: ds.n_subset([True]), "segment id True "),
    "n_subset[-1]": (lambda ds: ds.n_subset((5, -1)), "segment id -1 "),
    "trips_containing_all[48]": (lambda ds: ds.trips_containing_all([48]), "segment id 48 "),
    "block_cover[0.7]": (lambda ds: ds.block_cover([[0], [0.7]]), "segment id 0.7 "),
}


@pytest.mark.parametrize("call, message", _BAD_COUNTER_CALLS.values(),
                         ids=_BAD_COUNTER_CALLS.keys())
def test_counters_reject_bad_ids(call, message):
    ds = sample_trips(ODLaw(3, 1.0), build_grid(3), np.random.default_rng(0), 200)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(ds)


def test_counters_take_integer_ids_of_any_type():
    ds = sample_trips(ODLaw(3, 1.0), build_grid(3), np.random.default_rng(0), 200)
    y = ds.routes[0].segment_ids
    expect = ds.pair_counts(y)
    for ids in (list(y), np.array(y, dtype=np.int32), [np.int64(s) for s in y]):
        assert np.array_equal(ds.pair_counts(ids), expect)
        assert ds.n_subset(ids) == int(expect.min())
    members = ds.trips_containing_all(y)
    for m in (members.tolist(), members.astype(np.int32), []):
        assert np.array_equal(ds.pair_counts(y, members=m), ds.pair_counts(y, np.asarray(
            m, dtype=np.int64)))


def test_quadratic_sums_match_pair_sum():
    fx = random_fixture(77, n_trips=12, cov_kind="diffusion")
    ds, cov = fx.ds, fx.cov
    q = ds.quadratic_sums(cov)
    for n in range(ds.n_trips):
        ids = list(ds.routes[n].segment_ids)
        assert q[n] == pytest.approx(cov.pair_sum(ids, ids), rel=1e-12)


def test_jsonl_roundtrip(tmp_path):
    fx = random_fixture(13, with_times=True)
    ds = fx.ds
    path = tmp_path / "trips.jsonl"
    ds.to_jsonl(path)
    again = TripDataset.from_jsonl(fx.net, path)
    assert again.n_trips == ds.n_trips
    assert np.array_equal(again.flat, ds.flat)
    assert np.array_equal(again.offsets, ds.offsets)
    assert again.times.dtype == np.float64
    assert np.array_equal(again.times, ds.times)
    # written again, the file is byte-identical
    again.to_jsonl(tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_jsonl_bytes_are_one_record_per_trip(grid3, tmp_path):
    routes = [reference_route(), Route.from_vertices(grid3, [(0, 0), (0, 1)])]
    path = tmp_path / "trips.jsonl"
    TripDataset(grid3, routes, times=[0.5, 1.0 / 3.0, 2.0]).to_jsonl(path)
    ids = [list(r.segment_ids) for r in routes]
    assert path.read_text() == (f'{{"route": {ids[0]}, "times": [0.5, 0.3333333333333333]}}\n'
                                f'{{"route": {ids[1]}, "times": [2.0]}}\n')


def test_dataset_times_must_align_with_flat(grid3):
    routes = [reference_route(), reference_route()]
    assert TripDataset(grid3, routes, times=np.ones(4)).times.shape == (4,)
    for times in (np.ones(3), np.ones(5), np.ones((2, 2)), [np.ones(2), np.ones(2)]):
        with pytest.raises(ValueError, match="shape of flat"):
            TripDataset(grid3, routes, times=times)


def test_from_jsonl_checks_each_record(grid3, tmp_path):
    two = list(reference_route().segment_ids)
    path = tmp_path / "trips.jsonl"

    def write(*recs):
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))

    # one time short: the total is short as well
    write({"route": two, "times": [1.0]})
    with pytest.raises(ValueError, match="trip 0 needs one time per segment"):
        TripDataset.from_jsonl(grid3, path)
    # one short and one long record: the total is right, the alignment is not
    write({"route": two, "times": [1.0, 2.0]}, {"route": two, "times": [1.0]},
          {"route": two, "times": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError, match="trip 1 needs one time per segment"):
        TripDataset.from_jsonl(grid3, path)
    write({"route": two, "times": 1.0})
    with pytest.raises(ValueError, match="trip 0 needs one time per segment"):
        TripDataset.from_jsonl(grid3, path)
    write({"route": two, "times": [1.0, 2.0]}, {"route": two})
    with pytest.raises(ValueError, match="either every trip or no trip"):
        TripDataset.from_jsonl(grid3, path)
    write({"route": two}, {"route": two})
    assert TripDataset.from_jsonl(grid3, path).times is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dataset_rejects_non_finite_times(grid3, bad):
    # a NaN time would turn every prediction's value into NaN without a word
    routes = [reference_route(), reference_route(), reference_route()]
    times = np.ones(6)
    times[3] = times[5] = bad
    with pytest.raises(ValueError, match="trip 1 has a non-finite observed time"):
        TripDataset(grid3, routes, times=times)


@pytest.mark.parametrize("bad", ["null", "NaN", "Infinity", "-Infinity"])
def test_from_jsonl_rejects_non_finite_times(grid3, tmp_path, bad):
    two = list(reference_route().segment_ids)
    path = tmp_path / "trips.jsonl"
    # json.dumps cannot write null where a float goes, so the lines are spelled out
    path.write_text(f'{{"route": {two}, "times": [1.0, 2.0]}}\n'
                    f'{{"route": {two}, "times": [1.0, {bad}]}}\n')
    with pytest.raises(ValueError, match="trip 1 has a non-finite observed time"):
        TripDataset.from_jsonl(grid3, path)


@pytest.mark.parametrize("record", ["[1, 2]", "{}", '{"route": 5}', '{"times": [1.0]}',
                                    '"route"', "null", '{"route": {"0": 1}}'])
def test_from_jsonl_rejects_malformed_records(grid3, tmp_path, record):
    two = list(reference_route().segment_ids)
    path = tmp_path / "trips.jsonl"
    path.write_text(f'{{"route": {two}}}\n\n{record}\n')
    with pytest.raises(ValueError, match=re.escape(
            "line 3: a trip record must be an object with a list 'route'")):
        TripDataset.from_jsonl(grid3, path)


@pytest.mark.parametrize("times", ["[true, false]", '["1.5", "2"]', '[1.0, [2.0]]',
                                   '[{"t": 1.0}, 2.0]'])
def test_from_jsonl_rejects_times_that_are_not_numbers(grid3, tmp_path, times):
    two = list(reference_route().segment_ids)
    path = tmp_path / "trips.jsonl"
    path.write_text(f'{{"route": {two}, "times": [1.0, 2.0]}}\n'
                    f'{{"route": {two}, "times": {times}}}\n')
    with pytest.raises(ValueError, match=re.escape("line 2: times must be JSON numbers")):
        TripDataset.from_jsonl(grid3, path)


def test_from_jsonl_names_the_line_of_broken_json(grid3, tmp_path):
    two = list(reference_route().segment_ids)
    path = tmp_path / "trips.jsonl"
    path.write_text(f'{{"route": {two}}}\n{{"route": [1, 2\n')
    with pytest.raises(ValueError, match=r"^line 2: not a JSON record \(.* at column 16\)$"):
        TripDataset.from_jsonl(grid3, path)


# ---------------------------------------------------------------------------
# neighborhoods


def test_neighborhood_spec_validation():
    with pytest.raises(ValueError):
        NeighborhoodSpec("nearest", radius=1)
    with pytest.raises(ValueError):
        NeighborhoodSpec.od_ball(-1)
    with pytest.raises(ValueError):
        NeighborhoodSpec.od_ball_growing(1.5)
    for radius in (1.5, 1.0, True):
        message = f"radius must be an integer >= 0, got {radius!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            NeighborhoodSpec.od_ball(radius)


@pytest.mark.parametrize("fraction", [True, "0.5", float("nan"), None, -0.1], ids=repr)
def test_growing_ball_fraction_must_be_a_real_number(fraction):
    # unchecked, True was read as the fraction 1 and "0.5" raised a raw TypeError
    message = f"fraction must be a real number in [0, 1], got {fraction!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        NeighborhoodSpec.od_ball_growing(fraction)
    assert NeighborhoodSpec.od_ball_growing(np.float64(0.5)).fraction == 0.5


def test_reference_ball_members():
    ds = reference_dataset()
    nb = resolve_neighborhood(ds, reference_route(), reference_route_neighborhood())
    assert sorted(nb.members.tolist()) == [3, 4]
    assert nb.size == 2


def test_exact_route_neighborhood_counters():
    ds = reference_dataset()
    y = ds.routes[3]  # identical to the predicting route
    nb = resolve_neighborhood(ds, y, NeighborhoodSpec.exact_route())
    assert nb.size == 1
    # the member's counts: nb.size on every segment of y and pair of them, 0 off y
    ids = y.segment_ids
    assert np.array_equal(ds.pair_counts(ids, nb.members), np.full((len(ids),) * 2, nb.size))
    n = ds.network.n_segments
    on_y = np.isin(np.arange(n), ids)
    assert np.array_equal(np.diag(ds.pair_counts(np.arange(n), nb.members)), nb.size * on_y)


def test_neighborhood_nesting_random():
    for seed in range(20):
        fx = random_fixture(seed + 100)
        exact = set(resolve_neighborhood(fx.ds, fx.y, NeighborhoodSpec.exact_route())
                    .members.tolist())
        od = set(resolve_neighborhood(fx.ds, fx.y, NeighborhoodSpec.od_exact())
                 .members.tolist())
        ball0 = set(resolve_neighborhood(fx.ds, fx.y, NeighborhoodSpec.od_ball(0))
                    .members.tolist())
        ball2 = set(resolve_neighborhood(fx.ds, fx.y, NeighborhoodSpec.od_ball(2))
                    .members.tolist())
        assert exact <= od == ball0 <= ball2


def test_growing_ball_radius_tracks_grid():
    fx = random_fixture(55, p=4)
    spec = NeighborhoodSpec.od_ball_growing(0.3)  # c = ceil(1.2) = 2
    nb = resolve_neighborhood(fx.ds, fx.y, spec)
    od = fx.ds.od_array
    key = np.asarray((*fx.y.origin, *fx.y.destination))
    d_o = np.abs(od[:, 0] - key[0]) + np.abs(od[:, 1] - key[1])
    d_d = np.abs(od[:, 2] - key[2]) + np.abs(od[:, 3] - key[3])
    mask = (d_o <= 2) & (d_d <= 2)
    assert np.array_equal(nb.members, np.flatnonzero(mask))
