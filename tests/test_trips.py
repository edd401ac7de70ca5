import itertools
import json

import numpy as np
import pytest

from conftest import random_fixture
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


def test_prior_spec_validation():
    PriorSpec(mu=0.0, tau2=0.5)
    with pytest.raises(ValueError):
        PriorSpec(mu=0.0, tau2=0.0)
    with pytest.raises(ValueError):
        PriorSpec(mu=0.0, tau2=-1.0)


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
        assert abs(law.pmf_vector().sum() - 1.0) <= 1e-12


def test_od_pmf_uniform_at_alpha_one():
    law = ODLaw(4, 1.0)
    assert np.allclose(law.pmf_vector(), np.full(5, 1.0 / 5.0), atol=1e-12)


def test_od_pmf_symmetric():
    law = ODLaw(2, 0.5)
    assert law.pmf(0) == pytest.approx(law.pmf(2), abs=1e-14)


def test_od_pmf_corner_heavy():
    law = ODLaw(10, 0.25)
    # corner-to-center ratio of the two-coordinate law
    assert (law.pmf(0) / law.pmf(5)) ** 2 > 50.0


def test_od_law_validation():
    with pytest.raises(ValueError):
        ODLaw(3, 0.0)
    with pytest.raises(ValueError):
        ODLaw(0, 1.0)


def test_sample_od_never_degenerate():
    law = ODLaw(2, 0.6)
    rng = np.random.default_rng(0)
    od = law.sample_od(rng, 500)
    assert od.shape == (500, 4)
    assert np.all((od >= 0) & (od <= 2))
    same = (od[:, 0] == od[:, 2]) & (od[:, 1] == od[:, 3])
    assert not same.any()


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
    pmf = law.pmf_vector()

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
    assert sorted(ds.trips_containing(s1).tolist()) == [0, 3, 4]
    assert sorted(ds.trips_containing(s2).tolist()) == [1, 2, 3]


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


def test_subset_counts_and_quadratic_sums():
    fx = random_fixture(77, n_trips=12, cov_kind="diffusion")
    ds, cov = fx.ds, fx.cov
    members = np.array([0, 2, 5], dtype=np.int64)
    sub = ds.subset_counts(members)
    brute = np.zeros(ds.network.n_segments)
    for n in members:
        for s in ds.routes[n].segment_ids:
            brute[s] += 1
    assert np.array_equal(sub, brute)
    q = ds.quadratic_sums(cov)
    for n in range(ds.n_trips):
        ids = list(ds.routes[n].segment_ids)
        assert q[n] == pytest.approx(cov.pair_sum(ids, ids), rel=1e-12)


def test_segment_time_sums(grid3):
    fx = random_fixture(9, p=3, n_trips=8, with_times=True)
    ds = fx.ds
    for center in (0.0, 0.7):
        sums = ds.segment_time_sums(center)
        brute = np.zeros(ds.network.n_segments)
        for r, t in zip(ds.routes, np.split(ds.times, ds.offsets[1:-1])):
            for s, v in zip(r.segment_ids, t):
                brute[s] += v - center
        assert np.allclose(sums, brute, atol=1e-12)


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


# ---------------------------------------------------------------------------
# neighborhoods


def test_neighborhood_spec_validation():
    with pytest.raises(ValueError):
        NeighborhoodSpec("nearest", radius=1)
    with pytest.raises(ValueError):
        NeighborhoodSpec.od_ball(-1)
    with pytest.raises(ValueError):
        NeighborhoodSpec.od_ball_growing(1.5)


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
    sub = ds.subset_counts(nb.members)
    for s in range(ds.network.n_segments):
        expected = nb.size if s in set(y.segment_ids) else 0
        assert sub[s] == expected


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
