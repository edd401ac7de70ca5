"""Property-based checks for the algebraic invariants."""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_fixture
from etalab.estimators import WeightRule, predict_gseg, predict_segment
from etalab.network import build_grid
from etalab.trips import ODLaw, Route, TripDataset, sample_routes, sample_trips

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@SETTINGS
@given(n=st.integers(0, 2000), lam=st.floats(0.05, 50.0))
def test_ratio_weight_bounded_and_monotone(n, lam):
    rule = WeightRule.ratio(lam)
    phi = rule.value(n)
    assert 0.0 <= phi < 1.0
    assert rule.value(n + 1) >= phi
    if n == 0:
        assert phi == 0.0


@SETTINGS
@given(n=st.integers(0, 50), k=st.integers(1, 6),
       noise=st.floats(1e-6, 100.0), tau2=st.floats(1e-3, 10.0))
def test_indep_weight_in_unit_interval(n, k, noise, tau2):
    phi = WeightRule.indep_optimal().value(n, group_size=k, noise=noise, tau2=tau2)
    assert 0.0 <= phi < 1.0
    assert (phi == 0.0) == (n == 0)


@SETTINGS
@given(p=st.integers(1, 20), alpha=st.floats(0.05, 5.0))
def test_od_pmf_is_a_distribution(p, alpha):
    vec = ODLaw(p, alpha).pmf(np.arange(p + 1))
    assert np.all(vec >= 0.0)
    assert abs(vec.sum() - 1.0) <= 1e-10
    # symmetric law
    assert np.allclose(vec, vec[::-1], atol=1e-12)


@SETTINGS
@given(seed=st.integers(0, 10 ** 6))
def test_sampled_route_invariants(seed):
    net = build_grid(4)
    law = ODLaw(4, 0.7)
    rng = np.random.default_rng(seed)
    r = sample_routes(law, net, rng, 1)[0]
    o, d = r.origin, r.destination
    assert len(r) == abs(o[0] - d[0]) + abs(o[1] - d[1])
    assert len(set(r.segment_ids)) == len(r.segment_ids)
    # reconstructing from the segment ids is the identity
    again = Route.from_segments(net, r.segment_ids)
    assert again.segment_ids == r.segment_ids
    assert (again.origin, again.destination) == (o, d)
    # at most one change of direction
    dirs = [net.segment(s).direction for s in r.segment_ids]
    changes = sum(1 for a, b in zip(dirs, dirs[1:]) if a != b)
    assert changes <= 1


@SETTINGS
@given(seed=st.integers(0, 10 ** 4), sa=st.integers(0, 39), sb=st.integers(0, 39))
def test_pair_sum_symmetry_and_counter_bounds(seed, sa, sb):
    f = random_fixture(seed % 400, cov_kind="gram", p=4)
    cov, ds = f.cov, f.ds
    assert cov.pair_sum([sa], [sb]) == cov.pair_sum([sb], [sa])
    pair = ds.pair_counts((sa, sb) if sa != sb else (sa,))
    assert np.array_equal(pair, pair.T)
    assert np.all(pair <= np.minimum.outer(np.diag(pair), np.diag(pair)))


@SETTINGS
@given(seed=st.integers(0, 10 ** 4), lam=st.floats(0.1, 10.0))
def test_gseg_reduces_to_segment_on_singletons(seed, lam):
    f = random_fixture(seed % 200, with_times=True)
    rule = WeightRule.ratio(lam)
    a = predict_segment(f.ds, f.y, rule, f.prior)
    b = predict_gseg(f.ds, f.y, [(s,) for s in f.y.segment_ids], rule, f.prior)
    assert a.value == b.value


@SETTINGS
@given(seed=st.integers(0, 10 ** 4))
def test_prediction_is_affine_evaluation(seed):
    f = random_fixture(seed % 200, with_times=True)
    pred = predict_segment(f.ds, f.y, WeightRule.ratio(1.0), f.prior)
    assert abs(pred.evaluate(f.ds.times) - pred.value) <= 1e-10


def _corrupted(net, ids: list, kind: str, draw) -> list:
    """Route ids made invalid in one way."""
    at = draw(st.integers(0, len(ids) - 1))
    if kind == "out_of_range":
        return ids[:at] + [draw(st.sampled_from([-1, net.n_segments]))] + ids[at + 1:]
    if kind == "not_an_integer":
        bad = draw(st.sampled_from([ids[at] + 0.5, str(ids[at]), True]))
        return ids[:at] + [bad] + ids[at + 1:]
    if kind == "repeat":
        return ids[:at + 1] + ids[at:]
    if kind == "break":
        # a segment that does not leave the route's last vertex
        ends = net.endpoints
        away = np.flatnonzero(np.any(ends[:, :2] != ends[ids[-1], 2:], axis=1))
        return ids + [int(draw(st.sampled_from([s for s in away.tolist() if s not in ids])))]
    if kind == "revisit":
        return ids + [net.reverse_id(ids[-1])]  # a U-turn back to the last tail
    return []


@SETTINGS
@given(p=st.sampled_from([3, 5]), seed=st.integers(0, 10 ** 4), n=st.integers(2, 40),
       kind=st.sampled_from(["out_of_range", "not_an_integer", "repeat", "break", "revisit",
                             "empty"]),
       data=st.data())
def test_store_check_agrees_with_the_one_route_check(p, seed, n, kind, data):
    net = build_grid(p)
    sampled = sample_trips(ODLaw(p, 1.0), net, np.random.default_rng(seed), n)
    routes = list(sampled.routes)
    ds = TripDataset(net, routes)
    assert np.array_equal(ds.flat, sampled.flat) and np.array_equal(ds.offsets, sampled.offsets)
    assert ds.routes == sampled.routes
    k = data.draw(st.integers(1, n - 1))
    ids = _corrupted(net, list(routes[k].segment_ids), kind, data.draw)
    with pytest.raises(ValueError) as alone:
        Route.from_segments(net, ids)
    message = f"trip {k}: {alone.value}"
    routes[k] = Route(tuple(ids), routes[k].origin, routes[k].destination)
    with pytest.raises(ValueError) as err:
        TripDataset(net, routes)
    assert str(err.value) == message
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trips.jsonl"
        path.write_text("".join(json.dumps({"route": list(r.segment_ids)}) + "\n"
                                for r in routes))
        with pytest.raises(ValueError) as err:
            TripDataset.from_jsonl(net, path)
    assert str(err.value) == message


def _reference_route(net, values):
    """Route.from_segments as a loop over the ids: the Route, or the message."""
    ids = list(values)
    for i in ids:
        if not (isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                and 0 <= i < net.n_segments):
            return f"segment id {i!r} is not an integer in [0, {net.n_segments})"
    ids = [int(i) for i in ids]
    if len(set(ids)) < len(ids):
        return f"route {ids} repeats a segment"
    if not ids:
        return "a route needs at least one segment"
    ends = [tuple(map(int, net.endpoints[s])) for s in ids]
    for (_, _, hi, hj), (ti, tj, _, _) in zip(ends, ends[1:]):
        if (hi, hj) != (ti, tj):
            return f"route breaks at {(hi, hj)} -> {(ti, tj)}"
    if len({ends[0][:2], *(e[2:] for e in ends)}) < len(ids) + 1:
        return "route revisits a vertex"
    return Route(tuple(ids), ends[0][:2], ends[-1][2:])


@SETTINGS
@given(p=st.integers(1, 3), data=st.data())
def test_route_check_matches_a_loop_over_the_ids(p, data):
    net = build_grid(p)
    # a walk from a random vertex, so that most lists are paths or nearly so
    ids, at = [], data.draw(st.integers(0, (p + 1) ** 2 - 1))
    for _ in range(data.draw(st.integers(0, 6))):
        out = net.segment_table[at][net.segment_table[at] >= 0].tolist()
        ids.append(data.draw(st.sampled_from(out)))
        at = int(net.endpoints[ids[-1], 2] * (p + 1) + net.endpoints[ids[-1], 3])
    ids = data.draw(st.one_of(st.just(ids), st.permutations(ids),
                              st.lists(st.integers(-1, net.n_segments), max_size=6)))
    if ids and data.draw(st.booleans()):
        ids[data.draw(st.integers(0, len(ids) - 1))] = data.draw(st.sampled_from(
            [1.5, True, "3", None, 2 ** 70, np.int64(2), np.float64(1.0)]))
    expected = _reference_route(net, ids)
    if isinstance(expected, Route):
        assert Route.from_segments(net, ids) == expected
    else:
        with pytest.raises(ValueError) as err:
            Route.from_segments(net, ids)
        assert str(err.value) == expected
