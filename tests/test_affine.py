"""The flat affine Prediction and the exact affine risk.

Every estimator stores one coefficient per entry of `TripDataset.flat`; the
references below rebuild the per-trip coefficients one trip and one segment at
a time.  `risk_affine` is the exact expectation that `mc_risk` samples, so it
must reproduce every closed-form risk to rounding.
"""
import numpy as np
import pytest

from conftest import random_fixture
from etalab import fixtures as fx
from etalab.covariance import FeatureLaw, gram_covariance
from etalab.estimators import (
    PosteriorModel,
    WeightRule,
    optimal_gseg_weights,
    optimal_route_weight,
    optimal_seg_weights,
    predict_gseg,
    predict_route,
    predict_segment,
)
from etalab.harness import ORACLE_FIXTURES, _fixture_setting, oracle_cases
from etalab.network import build_grid
from etalab.risk import (
    _error_terms,
    mc_risk,
    risk_affine,
    risk_gseg,
    risk_optimal,
    risk_route,
    risk_seg,
)
from etalab.trips import (
    NeighborhoodSpec,
    ODLaw,
    PriorSpec,
    TripDataset,
    _noise_factors,
    resolve_neighborhood,
    sample_routes,
)


def _halves(ids):
    """A two-block partition of a route (one block when it has one segment)."""
    cut = max(1, len(ids) // 2)
    return [ids[:cut], ids[cut:]] if len(ids) > 1 else [ids]


def _loop_gseg(ds, blocks, phis):
    coefs = [np.zeros(len(r)) for r in ds.routes]
    for b, phi in zip(blocks, phis):
        members = [n for n, r in enumerate(ds.routes) if set(b) <= set(r.segment_ids)]
        if not members or phi == 0.0:
            continue
        w = phi / len(members)
        for n in members:
            for pos, s in enumerate(ds.routes[n].segment_ids):
                if s in b:
                    coefs[n][pos] += w
    return coefs


def _loop_route(ds, members, phi):
    coefs = [np.zeros(len(r)) for r in ds.routes]
    for n in members:
        coefs[n][:] = phi / len(members)
    return coefs


def _loop_bayes(ds, cov, g):
    coefs = []
    for r in ds.routes:
        ridx = np.asarray(r.segment_ids)
        coefs.append(np.linalg.solve(cov.sigma[np.ix_(ridx, ridx)], g[ridx]))
    return coefs


def _same_coefficients(pred, ds, expected, rtol=0.0):
    got = pred.coefficients
    assert len(got) == ds.n_trips
    assert pred.coef.shape == ds.flat.shape
    for c, e in zip(got, expected):
        np.testing.assert_allclose(c, e, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("seed", range(6))
def test_block_coefficients_match_loop(seed):
    f = random_fixture(seed + 3100, n_trips=int(15 + seed))
    ds, y, prior = f.ds, f.y, f.prior
    ids = y.segment_ids
    for blocks, rule in (([(s,) for s in ids], WeightRule.ratio(0.8)),
                         (_halves(ids), WeightRule.threshold(2)),
                         (_halves(ids), optimal_gseg_weights(ds, y, _halves(ids), f.cov, prior))):
        pred = predict_gseg(ds, y, blocks, rule, prior)
        _same_coefficients(pred, ds, _loop_gseg(ds, blocks, pred.detail["weights"]))
        w = [phi / n if n else 0.0 for phi, n in zip(pred.detail["weights"],
                                                     pred.detail["counts"])]
        intercept = len(ids) * prior.mu - sum(
            wb * n * len(b) * prior.mu for wb, n, b in zip(w, pred.detail["counts"], blocks))
        assert pred.intercept == pytest.approx(intercept, rel=1e-12, abs=1e-12)
    seg = predict_segment(ds, y, WeightRule.ratio(0.8), prior)
    _same_coefficients(seg, ds, _loop_gseg(ds, [(s,) for s in ids], seg.detail["weights"]))


@pytest.mark.parametrize("seed", range(4))
def test_route_coefficients_match_loop(seed):
    f = random_fixture(seed + 3200, n_trips=20)
    ds, y = f.ds, f.y
    for spec in (NeighborhoodSpec.od_ball(1), NeighborhoodSpec.od_ball_growing(0.5)):
        nb = resolve_neighborhood(ds, y, spec)
        phi = optimal_route_weight(ds, y, nb, f.cov, f.prior)
        pred = predict_route(ds, y, nb, phi, f.prior)
        _same_coefficients(pred, ds, _loop_route(ds, nb.members, pred.detail["weight"]))


@pytest.mark.parametrize("seed", range(4))
def test_bayes_coefficients_match_loop(seed):
    f = random_fixture(seed + 3300, cov_kind="diffusion", n_trips=25)
    model = PosteriorModel(f.ds, f.cov, f.prior)
    pred = model.predict(f.y)
    g = model._weights(TripDataset._one_route(f.ds.network, f.y.segment_ids))[:, 0]
    expected = _loop_bayes(f.ds, f.cov, g)
    _same_coefficients(pred, f.ds, expected, rtol=1e-12)


def test_prediction_on_empty_dataset(grid3):
    ds = TripDataset(grid3, [], times=[])
    prior = PriorSpec(mu=1.0, tau2=0.5)
    y = fx.reference_route()
    for pred in (predict_segment(ds, y, WeightRule.ratio(1.0), prior),
                 predict_gseg(ds, y, [y.segment_ids], WeightRule.ratio(1.0), prior)):
        assert pred.coefficients == ()
        assert pred.coef.size == 0
        assert pred.value == pred.intercept == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# risk_affine against every closed form


def _agrees(report, pred, ds, cov, prior):
    exact = risk_affine(pred, ds, cov, prior)
    for part in ("total", "variance", "bias2"):
        closed = getattr(report, part)
        assert abs(getattr(exact, part) - closed) <= 1e-12 * max(1.0, abs(closed)), \
            (pred.estimator, part, closed, getattr(exact, part))


@pytest.mark.parametrize("seed", range(15))
def test_risk_affine_matches_closed_forms(seed):
    kind = ("gram", "diffusion", "diag")[seed % 3]
    f = random_fixture(seed + 3400, cov_kind=kind)
    ds, y, cov, prior = f.ds, f.y, f.cov, f.prior
    ids = y.segment_ids
    for rule in (optimal_seg_weights(ds, y, cov, prior), WeightRule.ratio(0.6)):
        _agrees(risk_seg(ds, y, rule, cov, prior), predict_segment(ds, y, rule, prior),
                ds, cov, prior)
    part = _halves(ids)
    for rule in (optimal_gseg_weights(ds, y, part, cov, prior), WeightRule.indep_optimal()):
        _agrees(risk_gseg(ds, y, part, rule, cov, prior),
                predict_gseg(ds, y, part, rule, prior, cov=cov), ds, cov, prior)
    for spec in (NeighborhoodSpec.od_ball(1), NeighborhoodSpec.exact_route()):
        nb = resolve_neighborhood(ds, y, spec)
        phi = optimal_route_weight(ds, y, nb, cov, prior)
        _agrees(risk_route(ds, y, nb, phi, cov, prior),
                predict_route(ds, y, nb, phi, prior), ds, cov, prior)
    if kind != "gram":
        # low-rank Gram blocks are singular; the roadmap item "A defined
        # contract for singular and ill-conditioned covariances" owns them
        model = PosteriorModel(ds, cov, prior)
        _agrees(risk_optimal(ds, y, cov, prior, model=model), model.predict(y),
                ds, cov, prior)


@pytest.mark.parametrize("fixture", list(ORACLE_FIXTURES))
def test_risk_affine_matches_oracle_fixtures(fixture):
    ds, cov, prior, _ = _fixture_setting(fixture)
    for name, pred, closed in oracle_cases(fixture):
        exact = risk_affine(pred, ds, cov, prior).total
        assert abs(exact - closed) <= 1e-12 * max(1.0, abs(closed)), name


def _eigh_fold_scales(pred, ds, cov):
    """|F_n' c_n| per trip, with F_n an eigh factor of trip n's own block."""
    out = np.zeros(ds.n_trips)
    for n, c in enumerate(pred.coefficients):
        r = ds.flat[ds.offsets[n]:ds.offsets[n + 1]]
        factor = _noise_factors(cov.sigma[np.ix_(r, r)][None])[0]
        out[n] = np.linalg.norm(factor.T @ c)
    return out


def _check_scales_against_eigh_fold(pred, ds, cov):
    """The root of _error_terms' summed variance equals the norm of the
    per-trip eigh folds, and its live trips are those with a nonzero
    coefficient; returns the fold."""
    live, _, variance = _error_terms(pred, ds, cov)
    expect = _eigh_fold_scales(pred, ds, cov)
    assert np.array_equal(live, [np.any(c != 0.0) for c in pred.coefficients])
    assert np.all(expect[~live] == 0.0)
    norm = float(np.linalg.norm(expect))
    assert abs(np.sqrt(variance) - norm) <= 1e-12 * max(1.0, norm), pred.estimator
    return expect


def _shared_predictions(ds, y, cov, prior):
    """Segment, grouped-segment and route predictions of y."""
    nb = resolve_neighborhood(ds, y, NeighborhoodSpec.od_ball(1))
    return [predict_segment(ds, y, optimal_seg_weights(ds, y, cov, prior), prior),
            predict_gseg(ds, y, _halves(y.segment_ids), WeightRule.ratio(0.7), prior),
            predict_route(ds, y, nb, optimal_route_weight(ds, y, nb, cov, prior), prior)]


@pytest.mark.parametrize("seed", range(6))
def test_noise_scales_sum_to_affine_variance(seed):
    # each live trip's noise has standard deviation sqrt(c' sigma c); an eigh
    # factor of each block is an independent route to it, and its squares
    # add up to the exact noise part of the risk
    f = random_fixture(seed + 3500, cov_kind=("diffusion", "diag")[seed % 2],
                       n_trips=30)
    ds, y, cov, prior = f.ds, f.y, f.cov, f.prior
    if not ds.n_s[list(y.segment_ids)].any():
        # no trip covers the sampled route (seed 3): predict a driven one instead
        y = ds.routes[0]
    preds = _shared_predictions(ds, y, cov, prior) + [PosteriorModel(ds, cov, prior).predict(y)]
    assert any(np.any(pred.coef != 0.0) for pred in preds), "no prediction has an active trip"
    for pred in preds:
        expect = _check_scales_against_eigh_fold(pred, ds, cov)
        variance = risk_affine(pred, ds, cov, prior).variance
        assert abs(float(expect @ expect) - variance) <= 1e-12 * max(1.0, variance), \
            pred.estimator


def test_noise_scales_match_eigh_fold_on_rank_deficient_gram():
    # Gram covariances of rank 2-4 leave most trip blocks singular; the
    # fixture's own covariance is replaced, only its trips and prior are used
    for seed in range(25):
        f = random_fixture(seed + 3600, cov_kind="diag", n_trips=30)
        ds, y, prior = f.ds, f.y, f.prior
        cov = gram_covariance(ds.network.n_segments, m=2 + seed % 3,
                              law=FeatureLaw.UNIF_NEG1_1, seed=seed)
        for pred in _shared_predictions(ds, y, cov, prior):
            _check_scales_against_eigh_fold(pred, ds, cov)
            est = mc_risk(pred, ds, cov, prior, replicates=200, seed=seed)
            assert np.isfinite(est.mean) and np.isfinite(est.se)


# ---------------------------------------------------------------------------
# grouped-segment normal equations without a fallback


def _loop_gseg_system(ds, blocks, cov, prior):
    members = [{n for n, r in enumerate(ds.routes) if set(b) <= set(r.segment_ids)}
               for b in blocks]
    live = [i for i, m in enumerate(members) if m]
    a = np.zeros((len(live), len(live)))
    rhs = np.array([len(blocks[i]) * prior.tau2 for i in live])
    for ii, i in enumerate(live):
        a[ii, ii] += rhs[ii]
        for jj, j in enumerate(live):
            joint = len(members[i] & members[j])
            a[ii, jj] += joint / (len(members[i]) * len(members[j])) \
                * cov.pair_sum(blocks[i], blocks[j])
    return live, a, rhs


def test_optimal_gseg_weights_rank_deficient_gram():
    net = build_grid(3)
    cov = gram_covariance(net.n_segments, 3, seed=0)
    prior = PriorSpec(mu=1.0, tau2=0.5)
    rng = np.random.default_rng(0)
    ds = TripDataset(net, sample_routes(ODLaw(3, 1.0), net, rng, 30))
    for y in sample_routes(ODLaw(3, 1.0), net, rng, 10):
        ids = y.segment_ids
        for blocks in ([(s,) for s in ids], _halves(ids), [ids]):
            phis = optimal_gseg_weights(ds, y, blocks, cov, prior)
            assert np.all(np.isfinite(phis))
            live, a, rhs = _loop_gseg_system(ds, blocks, cov, prior)
            expected = np.zeros(len(blocks))
            if live:
                expected[live] = np.linalg.solve(a, rhs)
            np.testing.assert_allclose(phis, expected, rtol=1e-10, atol=1e-12)
