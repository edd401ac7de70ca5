"""Exact and Monte Carlo risk evaluation for route travel-time estimators.

Risk is mean squared prediction error for the total time of a fixed route y,
averaged over the segment-time prior and the observation noise.  The
grouped-segment and whole-route estimators admit closed forms in the
traversal counters and covariance sums; the Bayes-optimal risk comes from
the posterior machinery; a Gaussian information bound caps everything from
below.  risk_affine gives the exact risk of any affine Prediction, the
deterministic reference for every closed form.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse

from .covariance import CovarianceModel
from .estimators import (PosteriorModel, Prediction, _block_moments, _checked_shape,
                         _NeighborhoodMoments, _one_route_moments, _optimal_block_weights,
                         _resolve_weights, _route_weights, validate_partition)
from .trips import (Neighborhood, PriorSpec, TripDataset, _checked_neighborhood,
                    _checked_route, _ranges)

__all__ = [
    "RiskReport",
    "MCRisk",
    "risk_gseg",
    "risk_seg",
    "risk_route",
    "risk_optimal",
    "risk_affine",
    "lower_bound",
    "mc_risk",
    "check_nb_condition",
    "dominance_audit",
]


@dataclass(frozen=True)
class RiskReport:
    """Variance / squared-bias decomposition of one estimator's exact risk."""

    estimator: str
    route: tuple[int, ...]
    variance: float
    bias2: float
    breakdown: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.variance + self.bias2


def _risk_blocks(estimator: str, ids: tuple[int, ...], blocks: Sequence[Sequence[int]],
                 rule, joint: np.ndarray, cross: np.ndarray, cov: CovarianceModel,
                 prior: PriorSpec) -> RiskReport:
    """Exact grouped-segment risk from a partition's J and S (`_block_moments`):
    variance r'(J o S)r, r = phi / n, plus (1 - phi)^2 * |S| * tau2 of bias per block."""
    counts = np.diag(joint).astype(np.float64)
    phis = _resolve_weights(rule, counts, blocks, prior, cov)
    ratio = phis / np.where(counts > 0, counts, 1.0)
    variance = float(ratio @ (joint * cross) @ ratio)
    sizes = np.array([len(b) for b in blocks], dtype=np.float64)
    bias2 = float(((1.0 - phis) ** 2 * sizes).sum() * prior.tau2)
    return RiskReport(estimator, ids, variance, bias2,
                      breakdown={"weights": phis.tolist(),
                                 "counts": counts.astype(int).tolist()})


def risk_gseg(ds: TripDataset, y, partition: Sequence[Sequence[int]], rule,
              cov: CovarianceModel, prior: PriorSpec) -> RiskReport:
    """Exact risk of the grouped-segment estimator.

    variance couples blocks through joint support counts and covariance
    cross sums; each block also contributes (1 - phi)^2 * |S| * tau2 of
    shrinkage bias.  Blocks with no support always carry weight zero.
    """
    ids = _checked_route(ds, y, cov).segment_ids
    blocks = validate_partition(ids, partition)
    return _risk_blocks("gseg", ids, blocks, rule, *_block_moments(ds, ids, blocks, cov), cov,
                        prior)


def risk_seg(ds: TripDataset, y, rule, cov: CovarianceModel,
             prior: PriorSpec, pair: np.ndarray | None = None) -> RiskReport:
    """Exact risk of the per-segment estimator (singleton partition).

    `pair` optionally supplies the joint traversal counts of y
    (`TripDataset.pair_counts`, shape (|y|, |y|)), which are the singleton
    blocks' joint support counts, so they can be shared with `lower_bound`.
    """
    ids = _checked_route(ds, y, cov).segment_ids
    pair = _checked_shape("pair", pair, (len(ids), len(ids)))
    blocks = [(s,) for s in ids]
    joint, cross = _block_moments(ds, ids, blocks, cov, pair)
    return _risk_blocks("segment", ids, blocks, rule, joint, cross, cov, prior)


def risk_route(ds: TripDataset, y, nbhd: Neighborhood, phi: float,
               cov: CovarianceModel, prior: PriorSpec,
               q_all: np.ndarray | None = None) -> RiskReport:
    """Exact risk of the whole-route estimator at shrinkage weight phi.

    Breakdown terms: noise variance of the pooled average, squared bias from
    neighbor-length mismatch, prior mass leaked onto segments outside y, and
    prior mass not recovered on y itself.  An empty neighborhood forces
    phi = 0 and the report reduces to the prior risk |y| * tau2; a non-finite
    phi raises ValueError.  This is the one-route case of `_route_risk_terms`.
    The noise variance reads the quadratic sums of the neighborhood's members
    only, unless `q_all` overrides them, as in `optimal_route_weight`.
    """
    ids = _checked_neighborhood(ds, y, nbhd, cov).segment_ids
    q_all = _checked_shape("q_all", q_all, (ds.n_trips,))
    return _route_report(ids, nbhd, _one_route_moments(ds, ids, nbhd, cov, q_all), phi, prior)


def _route_report(ids: tuple[int, ...], nbhd: Neighborhood, mom: _NeighborhoodMoments,
                  phi: float, prior: PriorSpec) -> RiskReport:
    """`risk_route` of checked ids from their neighborhood's moments."""
    phi = float(_resolve_weights([phi], np.array([nbhd.size]), [ids], prior, None)[0])
    variance, bias_length, bias_off, bias_on = (
        float(v[0]) for v in _route_risk_terms(mom, np.array([phi]), prior))
    return RiskReport("route", ids, variance, bias_length + bias_off + bias_on,
                      breakdown={"weight": phi, "neighborhood_size": nbhd.size,
                                 "bias_length": bias_length,
                                 "bias_off_route": bias_off,
                                 "bias_on_route": bias_on})


def _route_risk_terms(mom: _NeighborhoodMoments, phi: np.ndarray, prior: PriorSpec
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per route of a store, the whole-route risk at weights phi:
    (variance, bias_length, bias_off, bias_on).

    With s = phi / M, the variance is s^2 q_sum; the estimator puts
    s N^d_t on every segment t, so the latent bias splits into the prior
    mass leaked off the route, tau2 (s^2 sum N^d^2 - sum_y (s N^d)^2), and
    the mass missed on it, tau2 sum_y (1 - s N^d)^2.  A route with an empty
    neighborhood gets the prior risk |y| tau2 whatever its phi.
    """
    scale = phi / np.maximum(mom.size, 1)
    on_route = scale[mom.route_of] * mom.n_on
    n_routes = phi.size
    on_sq = np.bincount(mom.route_of, weights=on_route ** 2, minlength=n_routes)
    missed = np.bincount(mom.route_of, weights=(1.0 - on_route) ** 2, minlength=n_routes)
    return (scale ** 2 * mom.q_sum,
            (phi * mom.length_gap * prior.mu) ** 2,
            (scale ** 2 * mom.n_sq - on_sq) * prior.tau2,
            missed * prior.tau2)


def risk_optimal(ds: TripDataset, y, cov: CovarianceModel, prior: PriorSpec,
                 model: PosteriorModel | None = None) -> RiskReport:
    """Exact risk of the Bayes-optimal affine estimator.

    `model` optionally supplies the `PosteriorModel` of this very store and
    covariance (the same objects) and an equal prior; any other raises
    ValueError.
    """
    ids = _checked_route(ds, y, cov).segment_ids
    if model is None:
        model = PosteriorModel(ds, cov, prior)
    elif not (model.ds is ds and model.cov is cov and model.prior == prior):
        raise ValueError("risk_optimal's model must be built on this store and covariance "
                         "with this prior")
    _, total, bias2 = model._terms(TripDataset._one_route(ds.network, ids))
    return RiskReport("bayes_optimal", ids, float(total[0] - bias2[0]), float(bias2[0]))


def lower_bound(ds: TripDataset, y, cov: CovarianceModel, prior: PriorSpec,
                pair: np.ndarray | None = None) -> float:
    """Gaussian information lower bound on the risk of any estimator for y.

    |y|^2 over the observed plus prior information about the route total,
    using y's block of the full-network precision matrix
    (`CovarianceModel.precision_block`).  With no data it equals the prior
    risk |y| * tau2.  `pair` is as in `risk_seg`.
    """
    ids = _checked_route(ds, y, cov).segment_ids
    pair = _checked_shape("pair", pair, (len(ids), len(ids)))
    if pair is None:
        pair = ds.pair_counts(ids)
    psi = cov.precision_block(ids)
    info = float((pair * psi).sum()) + len(ids) / prior.tau2
    return len(ids) ** 2 / info


def risk_affine(pred: Prediction, ds: TripDataset, cov: CovarianceModel,
                prior: PriorSpec) -> RiskReport:
    """Exact risk of any affine prediction: the expectation mc_risk estimates.

    With a the intercept, c_n trip n's coefficients and d the coefficients
    scattered onto the segments minus the indicator of y, the error is
    a + d . theta + sum_n c_n . eps_n, so the risk is
    (a + mu * sum d)^2 + tau2 |d|^2 (bias2, the latent part) plus
    max(sum_n c_n' sigma[r_n, r_n] c_n, 0) (variance, the noise part; see
    _error_terms).
    """
    _, d, variance = _error_terms(pred, ds, cov)
    bias2 = (pred.intercept + prior.mu * float(d.sum())) ** 2 + prior.tau2 * float(d @ d)
    return RiskReport(pred.estimator, pred.route, variance, bias2)


@dataclass(frozen=True)
class MCRisk:
    mean: float
    se: float
    replicates: int


# bytes of standard normals that one mc_risk batch draws (replicates x (segments
# involved + 1) float64s): far above any batch of the tests or benchmarks, and
# above a dense prediction's default batch at p=20, k=4 (20 000 replicates x
# 1 681 = 269 MB), which it splits into five
_MC_BYTES = 64 * 2 ** 20


def _error_terms(pred: Prediction, ds: TripDataset, cov: CovarianceModel
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """The error a + d . theta + sum_n c_n . eps_n of an affine prediction.

    Returns a boolean per trip, marking the live trips (any nonzero
    coefficient); d, the coefficients summed onto every segment minus the
    indicator of the route; and the noise variance sum_n c_n' sigma[r_n, r_n] c_n
    (c_n trip n's coefficients, r_n its route), which is <sigma, C'C> for C the
    live trip x segment matrix of the coefficients: one sparse Gram product.
    Its clamp at 0 acts only within the tolerance the covariance accepts
    (CovarianceModel rejects lambda_min < -PSD_RTOL * scale).  A prediction
    scored against a store other than its own raises ValueError.
    """
    if not np.array_equal(pred.offsets, ds.offsets):
        raise ValueError(f"a prediction over {pred.offsets.size - 1} trips cannot be scored "
                         f"against a dataset of {ds.n_trips} trips with other routes")
    _checked_route(ds, pred.route, cov)
    n = ds.network.n_segments
    starts, lengths = ds.offsets[:-1], np.diff(ds.offsets)
    live = np.logical_or.reduceat(pred.coef != 0.0, starts)
    d = np.bincount(ds.flat, weights=pred.coef, minlength=n) - np.isin(np.arange(n), pred.route)
    pos = _ranges(starts[live], lengths[live])
    c = scipy.sparse.csr_matrix((pred.coef[pos], ds.flat[pos], np.r_[0, np.cumsum(lengths[live])]),
                                shape=(int(live.sum()), n))
    gram = (c.T @ c).tocoo()
    return live, d, max(float(cov.entries(gram.row, gram.col) @ gram.data), 0.0)


def mc_risk(pred: Prediction, ds: TripDataset, cov: CovarianceModel,
            prior: PriorSpec, replicates: int = 10 ** 5,
            seed: int | np.random.Generator = 0,
            batch_size: int = 20000) -> MCRisk:
    """Monte Carlo risk of an affine prediction, with a standard error.

    Each replicate redraws the latent segment times and every trip's noise
    while keeping the historical routes fixed, then scores the squared error
    of the affine rule against the fresh route total.

    The latent times are drawn per segment.  A trip's noise enters the error
    only as c_n . eps_n, which is Normal(0, c_n' sigma[r_n, r_n] c_n) and
    independent across trips and of the latent times, so their sum is
    Normal(0, sum_n c_n' sigma[r_n, r_n] c_n).  Each replicate therefore
    draws one standard normal for the summed trip noise, scaled by the root
    of the summed variance of _error_terms, which factors no block: the
    error has exactly the law of the per-entry draw, and a replicate costs
    one normal per segment involved plus one, whatever the trip count.  A
    batch holds at most `batch_size` replicates, and fewer when its draws
    (replicates x (segments involved + 1) float64s) would pass _MC_BYTES; a
    batch of one replicate may.
    `replicates` and `batch_size` must be integers (not bools) of at least 1.
    """
    for name, value in (("replicates", replicates), ("batch_size", batch_size)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"mc_risk needs {name} to be an integer >= 1, got {value!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    live, d, variance = _error_terms(pred, ds, cov)
    # the segments involved: the route's and those of the live trips
    used = np.union1d(pred.route, ds.flat[np.repeat(live, np.diff(ds.offsets))])
    d = d[used]
    # the summed trip noise is one normal per replicate at this scale
    noise_sd = float(np.sqrt(variance))
    # replicates per batch whose float64 draws fit the budget
    rows = max(1, _MC_BYTES // (8 * (used.size + 1)))
    total = total_sq = 0.0
    done = 0
    while done < replicates:
        b = min(batch_size, rows, replicates - done)
        theta = prior.mu + np.sqrt(prior.tau2) * rng.standard_normal((b, used.size))
        err = pred.intercept + theta @ d
        if live.any():
            err = err + noise_sd * rng.standard_normal(b)
        sq = err ** 2
        total += float(sq.sum())
        total_sq += float((sq ** 2).sum())
        done += b
    mean = total / replicates
    var = max(total_sq / replicates - mean ** 2, 0.0)
    return MCRisk(mean, float(np.sqrt(var / replicates)), replicates)


def check_nb_condition(ds: TripDataset, y, nbhd: Neighborhood) -> bool:
    """Neighborhood-balance condition behind the segment-vs-route comparison.

    For all segment pairs s, t of y the joint counts must satisfy
    N_{s,t} * N^d_s * N^d_t <= N^d_{s,t} * N_s * N_t, where the d quantities
    count only neighborhood members.  Exact-route neighborhoods satisfy it
    automatically.
    """
    ids = _checked_neighborhood(ds, y, nbhd).segment_ids
    return _nb_condition(ds.pair_counts(ids), ds.pair_counts(ids, members=nbhd.members))


def _nb_condition(pair_all: np.ndarray, pair_delta: np.ndarray) -> bool:
    """`check_nb_condition` from y's joint counts over all trips and the members."""
    n_all = np.diag(pair_all)
    n_delta = np.diag(pair_delta)
    lhs = pair_all * np.outer(n_delta, n_delta)
    rhs = pair_delta * np.outer(n_all, n_all)
    return bool(np.all(lhs <= rhs))


def dominance_audit(ds: TripDataset, y, nbhd: Neighborhood, cov: CovarianceModel,
                    prior: PriorSpec) -> dict:
    """Compare optimally weighted segment and route estimators on one route.

    Under an elementwise-nonnegative covariance block and the neighborhood
    balance condition the segment estimator cannot lose; outside those
    conditions a reversal is possible and is reported, not raised.  The block
    counts as nonnegative when no entry is below -n * eps * max|sigma|, the
    rounding scale that CovarianceModel.rank also allows: a diffusion sigma,
    nonnegative in exact arithmetic, holds entries down to -3.1e-16 at p=20.
    For a PSD sigma, |sigma_st| <= sqrt(sigma_ss sigma_tt), so max|sigma| is
    its largest diagonal entry, one gather of n cells.
    """
    ids = _checked_neighborhood(ds, y, nbhd, cov).segment_ids
    blocks = [(s,) for s in ids]
    joint, cross = _block_moments(ds, ids, blocks, cov)
    phis = _optimal_block_weights(blocks, joint, cross, prior)
    seg = _risk_blocks("segment", ids, blocks, phis, joint, cross, cov, prior)
    mom = _one_route_moments(ds, ids, nbhd, cov, None)
    phi_r = float(_route_weights(mom, prior)[0])
    route = _route_report(ids, nbhd, mom, phi_r, prior)
    diag = np.arange(cov.n_segments)
    tol = cov.n_segments * np.finfo(np.float64).eps * float(cov.entries(diag, diag).max())
    nonneg = bool(np.all(cov.block(ids) >= -tol))
    # the singleton blocks' J is ds.pair_counts(ids)
    condition = _nb_condition(joint, ds.pair_counts(ids, members=nbhd.members))
    dominated = seg.total <= route.total + 1e-12
    out = {
        "segment_risk": seg.total,
        "route_risk": route.total,
        "segment_weights": phis.tolist(),
        "route_weight": phi_r,
        "nonneg_covariance_block": nonneg,
        "nb_condition": condition,
        "segment_dominates": dominated,
    }
    if nonneg and condition and not dominated:
        out["note"] = "unexpected reversal: conditions hold but the segment estimator lost"
    elif not dominated:
        out["note"] = "reversal consistent with violated conditions"
    return out
