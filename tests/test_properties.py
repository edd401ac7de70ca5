"""Property-based checks for the algebraic invariants."""
import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_fixture
from etalab.estimators import WeightRule, predict_gseg, predict_segment
from etalab.network import build_grid
from etalab.trips import ODLaw, Route, sample_routes

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
