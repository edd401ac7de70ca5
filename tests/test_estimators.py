import numpy as np
import pytest
import scipy.linalg

from conftest import random_fixture
from etalab.estimators import (
    PosteriorModel,
    WeightRule,
    optimal_gseg_weights,
    optimal_route_weight,
    optimal_seg_weights,
    predict_bayes_optimal,
    predict_gseg,
    predict_route,
    predict_segment,
    validate_partition,
)
from etalab.fixtures import (
    GOLDEN_TOL,
    MERGE_GSEG,
    MERGE_SEG,
    NEGCOV_ROUTE,
    NEGCOV_SEG,
    REFERENCE_GSEG_WHOLE,
    REFERENCE_ROUTE,
    REFERENCE_SEG,
    merge_covariance,
    merge_partition,
    merge_prior,
    merge_route,
    negcov_covariance,
    negcov_prior,
    reference_covariance,
    reference_dataset,
    reference_prior,
    reference_route,
    reference_route_neighborhood,
)
from etalab.trips import (
    NeighborhoodSpec,
    PriorSpec,
    TripDataset,
    resolve_neighborhood,
    synthesize_times,
)


def _timed_reference(seed=0):
    base = reference_dataset()
    return synthesize_times(base.network, base.routes, reference_covariance(),
                            reference_prior(), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# weight rules


def test_weight_rule_values():
    ratio = WeightRule.ratio(1.0)
    assert ratio.value(0) == 0.0
    assert ratio.value(3) == pytest.approx(0.75)
    thr = WeightRule.threshold(2)
    assert thr.value(0) == 0.0
    assert thr.value(1) == 0.0
    assert thr.value(2) == 1.0
    indep = WeightRule.indep_optimal()
    assert indep.value(0) == 0.0
    assert indep.value(2, group_size=1, noise=1.0, tau2=1.0) == pytest.approx(2.0 / 3.0)


def test_weight_rule_validation():
    for lam in (0.0, -1.0, float("nan"), float("inf"), True, "2"):
        with pytest.raises(ValueError, match="finite lam > 0"):
            WeightRule.ratio(lam)
        # the dataclass constructor makes the same checks as the factories
        with pytest.raises(ValueError, match="finite lam > 0"):
            WeightRule(WeightRule.RATIO, lam=lam)
    with pytest.raises(ValueError):
        WeightRule.indep_optimal().value(1)
    for kind in ("softmax", "bogus"):
        with pytest.raises(ValueError, match="unknown weight rule"):
            WeightRule(kind)
    # a zero threshold still means "needs at least one observation"
    assert WeightRule.threshold(0).value(0) == 0.0
    assert WeightRule.threshold(0).value(1) == 1.0
    assert WeightRule.threshold(np.int64(2)).value(2) == 1.0


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -3, True, False, 1.5, "2"])
def test_threshold_rule_rejects_a_c_that_is_not_a_count(c):
    # each of these would give one weight at every n: 0 for nan and inf, 1 for -3 and True
    with pytest.raises(ValueError, match="integer c >= 0"):
        WeightRule.threshold(c)
    with pytest.raises(ValueError, match="integer c >= 0"):
        WeightRule(WeightRule.THRESHOLD, c=c)


# ---------------------------------------------------------------------------
# point predictions on the bundled history


def test_segment_prediction_is_traversal_average():
    ds = _timed_reference()
    y = reference_route()
    pred = predict_segment(ds, y, WeightRule.threshold(1), reference_prior())
    s1, s2 = y.segment_ids
    brute = 0.0
    per_trip = np.split(ds.times, ds.offsets[1:-1])
    for s in (s1, s2):
        vals = [t[list(r.segment_ids).index(s)]
                for r, t in zip(ds.routes, per_trip) if s in r.segment_ids]
        brute += float(np.mean(vals))
    assert pred.value == pytest.approx(brute, abs=1e-12)
    assert pred.evaluate(ds.times) == pytest.approx(pred.value, abs=1e-12)


def test_segment_prediction_empty_dataset(grid3):
    ds = TripDataset(grid3, [], times=[])
    prior = PriorSpec(mu=1.3, tau2=0.5)
    pred = predict_segment(ds, reference_route(), WeightRule.ratio(1.0), prior)
    assert pred.value == pytest.approx(2 * 1.3, abs=1e-14)
    assert pred.coef.sum() == 0.0


def test_gseg_whole_route_single_containing_trip():
    ds = _timed_reference()
    y = reference_route()
    pred = predict_gseg(ds, y, [y.segment_ids], WeightRule.threshold(1),
                        reference_prior())
    # only the trip with the identical sub-path covers both segments
    t4 = ds.times[ds.offsets[3]:ds.offsets[4]]
    ids4 = list(ds.routes[3].segment_ids)
    brute = t4[ids4.index(y.segment_ids[0])] + t4[ids4.index(y.segment_ids[1])]
    assert pred.value == pytest.approx(float(brute), abs=1e-12)


def test_gseg_singletons_equal_segment():
    for seed in (0, 1, 2):
        fx = random_fixture(seed, with_times=True)
        rule = WeightRule.ratio(1.5)
        singles = [(s,) for s in fx.y.segment_ids]
        a = predict_segment(fx.ds, fx.y, rule, fx.prior)
        b = predict_gseg(fx.ds, fx.y, singles, rule, fx.prior)
        assert a.value == b.value
        assert a.intercept == b.intercept


def test_route_prediction_ball_average():
    ds = _timed_reference()
    y = reference_route()
    nb = resolve_neighborhood(ds, y, reference_route_neighborhood())
    pred = predict_route(ds, y, nb, WeightRule.threshold(1), reference_prior())
    brute = ds.times[ds.offsets[3]:ds.offsets[5]].sum() / 2.0
    assert pred.value == pytest.approx(float(brute), abs=1e-12)


def test_route_prediction_empty_neighborhood():
    ds = _timed_reference()
    y = reference_route()
    spec = NeighborhoodSpec.exact_route()
    # a route nobody drove: reverse of the predicting route
    rev = type(y).from_vertices(ds.network, [(1, 2), (1, 1), (1, 0)])
    nb = resolve_neighborhood(ds, rev, spec)
    assert nb.size == 0
    pred = predict_route(ds, rev, nb, WeightRule.threshold(1), reference_prior())
    assert pred.value == pytest.approx(2 * reference_prior().mu, abs=1e-14)


def test_route_prediction_resolves_weights_like_one_block():
    # predict_route reads its weight from _resolve_weights with the
    # neighborhood as the one block: a rule on M, an explicit phi zeroed on
    # an empty neighborhood, and indep_optimal refused without a covariance
    ds, y, prior = _timed_reference(), reference_route(), reference_prior()
    nb = resolve_neighborhood(ds, y, reference_route_neighborhood())
    assert predict_route(ds, y, nb, WeightRule.ratio(2.0), prior).detail["weight"] == 0.5
    assert predict_route(ds, y, nb, 0.25, prior).detail["weight"] == 0.25
    rev = type(y).from_vertices(ds.network, [(1, 2), (1, 1), (1, 0)])
    none = resolve_neighborhood(ds, rev, NeighborhoodSpec.exact_route())
    assert predict_route(ds, rev, none, 0.25, prior).detail["weight"] == 0.0
    for route, n in ((y, nb), (rev, none)):
        with pytest.raises(ValueError, match="indep_optimal"):
            predict_route(ds, route, n, WeightRule.indep_optimal(), prior)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_explicit_weights_are_rejected(bad):
    # an explicit weight that is not finite is refused, on a supported block
    # and on an empty one alike, instead of turning the intercept into NaN
    ds, prior = _timed_reference(), merge_prior()
    y, part = merge_route(), merge_partition()
    with pytest.raises(ValueError, match="weights must be finite"):
        predict_gseg(ds, y, part, [bad, 0.5], prior)
    with pytest.raises(ValueError, match="weights must be finite"):
        predict_segment(ds, y, [0.5] * (len(y) - 1) + [bad], prior)
    nb = resolve_neighborhood(ds, y, reference_route_neighborhood())
    rev = type(y).from_vertices(ds.network, [(1, 2), (1, 1), (1, 0)])
    none = resolve_neighborhood(ds, rev, NeighborhoodSpec.exact_route())
    assert none.size == 0
    for route, n in ((y, nb), (rev, none)):
        with pytest.raises(ValueError, match="weights must be finite"):
            predict_route(ds, route, n, bad, prior)


def test_route_prediction_exact_single_member():
    ds = _timed_reference()
    y = ds.routes[3]
    nb = resolve_neighborhood(ds, y, NeighborhoodSpec.exact_route())
    assert nb.size == 1
    pred = predict_route(ds, y, nb, WeightRule.threshold(1), reference_prior())
    assert pred.value == pytest.approx(float(ds.times[ds.offsets[3]:ds.offsets[4]].sum()),
                                       abs=1e-12)


def test_partition_validation(grid3):
    y = merge_route()
    s3, s4, s5 = y.segment_ids
    validate_partition(y.segment_ids, [(s3,), (s4, s5)])
    validate_partition(y.segment_ids, [(s4, s5), (s3,)])  # order normalized
    with pytest.raises(ValueError):
        validate_partition(y.segment_ids, [(s3,), (s4,)])  # not covering
    with pytest.raises(ValueError):
        validate_partition(y.segment_ids, [(s3, s4), (s4, s5)])  # overlap
    with pytest.raises(ValueError):
        validate_partition(y.segment_ids, [(s3, s5), (s4,)])  # not contiguous
    with pytest.raises(ValueError):
        validate_partition(y.segment_ids, [(s3,), (s4, s5), (0,)])  # foreign id


# ---------------------------------------------------------------------------
# optimal weights


def test_optimal_seg_weights_reference():
    ds = reference_dataset()
    w = optimal_seg_weights(ds, reference_route(), reference_covariance(),
                            reference_prior())
    for got, exp in zip(w, REFERENCE_SEG["weights"]):
        assert got == pytest.approx(exp, abs=GOLDEN_TOL)


def test_optimal_seg_weights_negcov():
    ds = reference_dataset()
    w = optimal_seg_weights(ds, reference_route(), negcov_covariance(),
                            negcov_prior())
    for got, exp in zip(w, NEGCOV_SEG["weights"]):
        assert got == pytest.approx(exp, abs=GOLDEN_TOL)


def test_optimal_seg_weights_merge():
    ds = reference_dataset()
    w = optimal_seg_weights(ds, merge_route(), merge_covariance(), merge_prior())
    for got, exp in zip(w, MERGE_SEG["weights"]):
        assert got == pytest.approx(exp, abs=GOLDEN_TOL)


def test_optimal_gseg_weights_merge_partition():
    ds = reference_dataset()
    w = optimal_gseg_weights(ds, merge_route(), merge_partition(),
                             merge_covariance(), merge_prior())
    for got, exp in zip(w, MERGE_GSEG["weights"]):
        assert got == pytest.approx(exp, abs=GOLDEN_TOL)


def test_optimal_gseg_whole_route_reference():
    ds = reference_dataset()
    y = reference_route()
    w = optimal_gseg_weights(ds, y, [y.segment_ids], reference_covariance(),
                             reference_prior())
    assert w[0] == pytest.approx(REFERENCE_GSEG_WHOLE["weight"], abs=GOLDEN_TOL)


def test_optimal_seg_weights_satisfy_linear_system():
    for seed in range(10):
        fx = random_fixture(seed + 300, cov_kind="diffusion")
        ids = fx.y.segment_ids
        w = optimal_seg_weights(fx.ds, fx.y, fx.cov, fx.prior)
        pair = fx.ds.pair_counts(ids)
        n = np.diag(pair).astype(float)
        for i, s in enumerate(ids):
            if n[i] == 0:
                assert w[i] == 0.0
                continue
            resid = (w[i] - 1.0) * fx.prior.tau2
            for j, t in enumerate(ids):
                if n[j] == 0:
                    continue
                resid += (pair[i, j] / (n[i] * n[j])) * w[j] * fx.cov.sigma[s, t]
            assert abs(resid) <= 1e-10


def test_optimal_route_weight_reference():
    ds = reference_dataset()
    y = reference_route()
    nb = resolve_neighborhood(ds, y, reference_route_neighborhood())
    phi = optimal_route_weight(ds, y, nb, reference_covariance(), reference_prior())
    assert phi == pytest.approx(REFERENCE_ROUTE["weight"], abs=GOLDEN_TOL)


def test_optimal_route_weight_negcov_exact():
    ds = reference_dataset()
    y = reference_route()
    nb = resolve_neighborhood(ds, y, NeighborhoodSpec.exact_route())
    phi = optimal_route_weight(ds, y, nb, negcov_covariance(), negcov_prior())
    assert phi == pytest.approx(NEGCOV_ROUTE["weight"], abs=GOLDEN_TOL)


def test_optimal_route_weight_empty_neighborhood():
    ds = reference_dataset()
    y = reference_route()
    rev = type(y).from_vertices(ds.network, [(1, 2), (1, 1), (1, 0)])
    nb = resolve_neighborhood(ds, rev, NeighborhoodSpec.exact_route())
    phi = optimal_route_weight(ds, rev, nb, reference_covariance(), reference_prior())
    assert phi == 0.0


# ---------------------------------------------------------------------------
# Bayes-optimal estimator


def test_bayes_empty_dataset(grid3):
    ds = TripDataset(grid3, [], times=[])
    prior = PriorSpec(mu=0.7, tau2=0.3)
    pred = predict_bayes_optimal(ds, reference_route(), reference_covariance(), prior)
    assert pred.value == pytest.approx(2 * 0.7, abs=1e-12)
    assert pred.coef.sum() == pytest.approx(0.0, abs=1e-12)


def test_bayes_intercept_identity():
    # any posterior-mean affine estimator satisfies
    # intercept = mu * (|y| - sum of coefficients)
    ds = _timed_reference()
    y = reference_route()
    pred = predict_bayes_optimal(ds, y, reference_covariance(), reference_prior())
    mu = reference_prior().mu
    assert pred.intercept == pytest.approx(
        mu * (len(y) - pred.coef.sum()), abs=1e-10)


def test_bayes_predict_runs_one_cholesky_solve(monkeypatch):
    model = PosteriorModel(reference_dataset(), reference_covariance(), reference_prior())
    y = reference_route()
    calls = []
    real = scipy.linalg.cho_solve
    monkeypatch.setattr(scipy.linalg, "cho_solve",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    pred = model.predict(y)
    assert len(calls) == 1
    # the risk it carries is the one risk_terms solves for again
    assert (pred.detail["variance"], pred.detail["bias2"]) == model.risk_terms(y)


def test_bayes_weight_vector_solves_q():
    ds = reference_dataset()
    cov = reference_covariance()
    prior = reference_prior()
    model = PosteriorModel(ds, cov, prior)
    y = reference_route()
    g = model._weights(TripDataset._one_route(ds.network, y.segment_ids))[:, 0]
    # rebuild Q densely from scratch
    n = cov.n_segments
    w = np.zeros((n, n))
    for r in ds.routes:
        ids = np.asarray(r.segment_ids, dtype=np.intp)
        w[np.ix_(ids, ids)] += np.linalg.inv(cov.sigma[np.ix_(ids, ids)])
    q = w + np.eye(n) / prior.tau2
    e_y = np.zeros(n)
    e_y[list(y.segment_ids)] = 1.0
    assert np.allclose(q @ g, e_y, atol=1e-9)


def test_bayes_matches_indep_segment_on_diagonal_cov():
    for seed in (0, 1, 2, 3):
        fx = random_fixture(seed + 600, cov_kind="diag", with_times=True)
        bayes = predict_bayes_optimal(fx.ds, fx.y, fx.cov, fx.prior)
        seg = predict_segment(fx.ds, fx.y, WeightRule.indep_optimal(), fx.prior,
                              cov=fx.cov)
        assert bayes.value == pytest.approx(seg.value, abs=1e-10)


def test_estimators_affine_in_times_and_mu():
    fx = random_fixture(901, with_times=True, cov_kind="diffusion")
    doubled = TripDataset(fx.net, fx.ds.routes, times=2.0 * fx.ds.times)
    prior2 = PriorSpec(mu=2.0 * fx.prior.mu, tau2=fx.prior.tau2)
    rule = WeightRule.ratio(1.0)
    a = predict_segment(fx.ds, fx.y, rule, fx.prior)
    b = predict_segment(doubled, fx.y, rule, prior2)
    assert b.value == pytest.approx(2.0 * a.value, rel=1e-12)
    ba = predict_bayes_optimal(fx.ds, fx.y, fx.cov, fx.prior)
    bb = predict_bayes_optimal(doubled, fx.y, fx.cov, prior2)
    assert bb.value == pytest.approx(2.0 * ba.value, rel=1e-12)

