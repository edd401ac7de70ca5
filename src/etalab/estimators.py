"""Travel-time estimators: per-segment, grouped-segment, whole-route, Bayes.

Every estimator here is affine in the observed trip times.  Predictions are
returned with their full affine representation (an intercept plus one
coefficient per entry of TripDataset.flat), which is what the exact and Monte
Carlo risk checkers consume; the point prediction is evaluated on top when
the dataset carries observed times.

Shrinkage weights phi map a support count n to [0, 1] and always satisfy
phi(0) = 0, so estimators with no support fall back to the prior mean.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .covariance import CovarianceModel
from .trips import Neighborhood, PriorSpec, Route, TripDataset, _ranges

__all__ = [
    "WeightRule",
    "Prediction",
    "predict_segment",
    "predict_gseg",
    "predict_route",
    "predict_bayes_optimal",
    "optimal_seg_weights",
    "optimal_gseg_weights",
    "optimal_route_weight",
    "validate_partition",
    "PosteriorModel",
]


@dataclass(frozen=True)
class WeightRule:
    """A named shrinkage rule phi(n).

    * ratio(lam): phi(n) = n / (n + lam).
    * threshold(c): phi(n) = 1 when n >= max(c, 1), else 0.
    * indep_optimal: the weight that would be exactly optimal if segment
      times were uncorrelated, n * k * tau2 / (n * k * tau2 + noise) with k
      the group size and noise the covariance mass of the group's block.
    """

    kind: str
    lam: float = 1.0
    c: int = 1

    RATIO = "ratio"
    THRESHOLD = "threshold"
    INDEP_OPTIMAL = "indep_optimal"

    @classmethod
    def ratio(cls, lam: float = 1.0) -> "WeightRule":
        if lam <= 0:
            raise ValueError("ratio rule needs lam > 0")
        return cls(cls.RATIO, lam=lam)

    @classmethod
    def threshold(cls, c: int = 1) -> "WeightRule":
        return cls(cls.THRESHOLD, c=c)

    @classmethod
    def indep_optimal(cls) -> "WeightRule":
        return cls(cls.INDEP_OPTIMAL)

    def value(self, n: int, group_size: int = 1, noise: float | None = None,
              tau2: float | None = None) -> float:
        if n <= 0:
            return 0.0
        if self.kind == self.RATIO:
            return n / (n + self.lam)
        if self.kind == self.THRESHOLD:
            return 1.0 if n >= max(self.c, 1) else 0.0
        if self.kind == self.INDEP_OPTIMAL:
            if noise is None or tau2 is None:
                raise ValueError("indep_optimal weights need a covariance and prior")
            signal = n * group_size * tau2
            return signal / (signal + noise)
        raise ValueError(f"unknown weight rule {self.kind!r}")


@dataclass
class Prediction:
    """An affine prediction: intercept + coef . times.

    `coef` is aligned with TripDataset.flat, like TripDataset.times: trip n
    owns coef[offsets[n]:offsets[n + 1]], one entry per segment of its route.
    """

    estimator: str
    route: tuple[int, ...]
    intercept: float
    coef: np.ndarray
    offsets: np.ndarray
    value: float | None = None
    detail: dict = field(default_factory=dict)

    @property
    def coefficients(self) -> tuple[np.ndarray, ...]:
        """Per-trip views of `coef`, one array per trip."""
        return tuple(self.coef[a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:]))

    def evaluate(self, times: np.ndarray) -> float:
        """The prediction at observed times aligned with `coef` (TripDataset.times)."""
        return self.intercept + float(self.coef @ times)

    def coefficient_sum(self) -> float:
        return float(self.coef.sum())

    def explain(self) -> dict:
        """JSON-ready breakdown: intercept plus per-trip nonzero coefficients."""
        trips = []
        for n, c in enumerate(self.coefficients):
            if np.any(c != 0.0):
                trips.append({"trip": n, "coefficients": [float(v) for v in c]})
        return {
            "estimator": self.estimator,
            "route": list(self.route),
            "intercept": self.intercept,
            "value": self.value,
            "trips": trips,
            **{k: v for k, v in self.detail.items() if _jsonable(v)},
        }


def _jsonable(v) -> bool:
    return isinstance(v, (int, float, str, bool, list, dict, type(None)))


def _finish(pred: Prediction, ds: TripDataset) -> Prediction:
    if ds.times is not None:
        pred.value = pred.evaluate(ds.times)
    return pred


def _route_ids(y) -> tuple[int, ...]:
    if isinstance(y, Route):
        return y.segment_ids
    return tuple(int(s) for s in y)


def validate_partition(y, partition: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Check that partition blocks are contiguous sub-paths tiling the route."""
    ids = _route_ids(y)
    blocks = [tuple(int(s) for s in b) for b in partition]
    for b in blocks:
        if not b:
            raise ValueError("empty partition block")
    pos = {s: i for i, s in enumerate(ids)}
    try:
        blocks_sorted = sorted(blocks, key=lambda b: pos[b[0]])
    except KeyError as e:
        raise ValueError(f"partition uses segment {e.args[0]} outside the route") from None
    tiled = tuple(s for b in blocks_sorted for s in b)
    if tiled != ids:
        raise ValueError("partition blocks must tile the route as contiguous sub-paths")
    return blocks


def _resolve_weights(rule, counts: np.ndarray, blocks: Sequence[Sequence[int]],
                     prior: PriorSpec, cov: CovarianceModel | None) -> np.ndarray:
    """Per-block shrinkage weights from a WeightRule or an explicit array."""
    if isinstance(rule, WeightRule):
        phis = np.empty(len(blocks))
        for i, b in enumerate(blocks):
            noise = None
            if rule.kind == WeightRule.INDEP_OPTIMAL:
                if cov is None:
                    raise ValueError("indep_optimal weights need a covariance")
                noise = cov.pair_sum(b, b)
            phis[i] = rule.value(int(counts[i]), group_size=len(b), noise=noise,
                                 tau2=prior.tau2)
        return phis
    phis = np.asarray(rule, dtype=np.float64)
    if phis.shape != (len(blocks),):
        raise ValueError("need one weight per partition block")
    # no-support blocks cannot use data regardless of the requested weight
    return np.where(counts > 0, phis, 0.0)


def _membership(ids: Sequence[int], blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """(|y|, k) 0/1 matrix M with M[i, j] = 1 when ids[i] lies in block j.

    The blocks are a partition of ids (`validate_partition`).
    """
    pos = {s: i for i, s in enumerate(ids)}
    member = np.zeros((len(ids), len(blocks)))
    for j, b in enumerate(blocks):
        member[[pos[s] for s in b], j] = 1.0
    return member


def _block_cover(ds: TripDataset, ids: Sequence[int], member: np.ndarray) -> np.ndarray:
    """(n_trips, k) 0/1 matrix C with C[n, j] = 1 when trip n covers all of block j."""
    hits = ds.incidence[:, list(ids)] @ member
    return (hits == member.sum(axis=0)).astype(np.float64)


def _block_moments(ds: TripDataset, ids: Sequence[int], blocks: Sequence[Sequence[int]],
                   cov: CovarianceModel,
                   joint: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Joint support counts J and covariance cross sums S of a route partition.

    J = C'C counts the trips covering both block i and block j (its diagonal
    holds each block's support) and S = M' sigma[y, y] M sums sigma over
    block i x block j.  `joint` optionally supplies J; for singleton blocks
    it is TripDataset.pair_counts.
    """
    member = _membership(ids, blocks)
    if joint is None:
        cover = _block_cover(ds, ids, member)
        joint = cover.T @ cover
    return joint, member.T @ cov.sigma[np.ix_(ids, ids)] @ member


def predict_gseg(ds: TripDataset, y, partition: Sequence[Sequence[int]], rule,
                 prior: PriorSpec, cov: CovarianceModel | None = None) -> Prediction:
    """Grouped-segment estimator: one shrunk group-total per partition block.

    Each block S pools the trips whose route covers all of S, shrinking the
    average observed block total toward its prior mean |S| * mu.  `rule` is a
    WeightRule or an explicit per-block weight array.
    """
    ids = _route_ids(y)
    blocks = validate_partition(ids, partition)
    member = _membership(ids, blocks)
    cover = _block_cover(ds, ids, member)
    counts = cover.sum(axis=0).astype(np.int64)
    phis = _resolve_weights(rule, counts, blocks, prior, cov)
    trip_of = ds.trip_of
    coef = np.zeros(ds.flat.size)
    intercept = float(len(ids)) * prior.mu
    for j, (b, n_b, phi) in enumerate(zip(blocks, counts, phis)):
        if n_b == 0 or phi == 0.0:
            continue
        w = phi / float(n_b)
        coef[(cover[trip_of, j] > 0) & np.isin(ds.flat, b)] += w
        intercept -= w * n_b * len(b) * prior.mu
    pred = Prediction("gseg", ids, intercept, coef, ds.offsets,
                      detail={"weights": [float(v) for v in phis],
                              "counts": [int(v) for v in counts],
                              "blocks": [list(b) for b in blocks]})
    return _finish(pred, ds)


def predict_segment(ds: TripDataset, y, rule, prior: PriorSpec,
                    cov: CovarianceModel | None = None) -> Prediction:
    """Per-segment estimator: the singleton-partition grouped estimator."""
    ids = _route_ids(y)
    pred = predict_gseg(ds, ids, [(s,) for s in ids], rule, prior, cov=cov)
    pred.estimator = "segment"
    return pred


def predict_route(ds: TripDataset, y, nbhd: Neighborhood, rule,
                  prior: PriorSpec) -> Prediction:
    """Whole-route estimator: shrunk average of neighbor trips' raw totals.

    With weight phi on a neighborhood of M trips, predicts
    (1 - phi) * |y| * mu + phi * (average total time over the neighborhood).
    `rule` is a WeightRule on M or an explicit phi value, resolved by
    `_resolve_weights` with the neighborhood as the one block.
    """
    ids = _route_ids(y)
    m = nbhd.size
    weights = rule if isinstance(rule, WeightRule) else [rule]
    phi = float(_resolve_weights(weights, np.array([m]), [ids], prior, None)[0])
    coef = np.zeros(ds.flat.size)
    intercept = (1.0 - phi) * len(ids) * prior.mu
    if m > 0 and phi != 0.0:
        in_nbhd = np.zeros(ds.n_trips, dtype=bool)
        in_nbhd[nbhd.members] = True
        coef[in_nbhd[ds.trip_of]] = phi / float(m)
    pred = Prediction("route", ids, intercept, coef, ds.offsets,
                      detail={"weight": float(phi), "neighborhood_size": int(m),
                              "neighborhood": nbhd.spec.kind})
    return _finish(pred, ds)


# ---------------------------------------------------------------------------
# optimal shrinkage weights


def optimal_gseg_weights(ds: TripDataset, y, partition: Sequence[Sequence[int]],
                         cov: CovarianceModel, prior: PriorSpec) -> np.ndarray:
    """Risk-minimizing per-block weights for the grouped-segment estimator.

    Solves the normal equations coupling blocks through their joint support
    counts J and covariance cross sums S.  Blocks with no support are pinned
    to weight zero and dropped from the system.
    """
    ids = _route_ids(y)
    blocks = validate_partition(ids, partition)
    joint, cross = _block_moments(ds, ids, blocks, cov)
    counts = np.diag(joint)
    phis = np.zeros(len(blocks))
    live = np.flatnonzero(counts > 0)
    if not live.size:
        return phis
    n = counts[live]
    signal = np.array([len(blocks[i]) for i in live], dtype=np.float64) * prior.tau2
    # diag(|S| tau2) plus (J o S) / (n n'), a Schur product of two PSD
    # matrices under a congruence: positive definite for any accepted sigma
    a = joint[np.ix_(live, live)] / np.outer(n, n) * cross[np.ix_(live, live)]
    a[np.diag_indices_from(a)] += signal
    phis[live] = scipy.linalg.solve(a, signal, assume_a="pos")
    return phis


def optimal_seg_weights(ds: TripDataset, y, cov: CovarianceModel,
                        prior: PriorSpec) -> np.ndarray:
    """Risk-minimizing per-segment weights (singleton partition)."""
    ids = _route_ids(y)
    return optimal_gseg_weights(ds, ids, [(s,) for s in ids], cov, prior)


@dataclass(frozen=True)
class _NeighborhoodMoments:
    """The neighborhood counters that the whole-route weight and risk read,
    for every route of a store.

    Per route: `size` M (member trips), `q_sum` (the members' summed
    covariance mass), `length_gap` (mean member route length minus the
    route's length, 0 when M = 0) and `n_sq` (sum over all segments of
    N^d_s^2).  Per entry of the store's `flat`: `n_on`, N^d of that segment
    of its route; `route_of` names the entry's route.
    """

    size: np.ndarray
    q_sum: np.ndarray
    length_gap: np.ndarray
    n_sq: np.ndarray
    n_on: np.ndarray
    route_of: np.ndarray


def _neighborhood_moments(ds: TripDataset, routes: TripDataset,
                          members: scipy.sparse.csr_matrix, cov: CovarianceModel,
                          q_all: np.ndarray | None) -> _NeighborhoodMoments:
    """Moments of the neighborhoods `members` (a route x trip CSR matrix,
    `resolve_neighborhoods`) of the routes of a store.

    N^d is one count of (route, segment) pairs over the members' entries of
    `flat`, kept sparse: only the segments some member traverses.
    """
    q = ds.quadratic_sums(cov) if q_all is None else q_all
    n_routes, n_seg = routes.n_trips, ds.network.n_segments
    size = np.diff(members.indptr)
    owner = np.repeat(np.arange(n_routes), size)
    trip = members.indices
    lens = ds.offsets[trip + 1] - ds.offsets[trip]
    pairs = np.repeat(owner, lens) * n_seg + ds.flat[_ranges(ds.offsets[trip], lens)]
    cells, n_delta = np.unique(pairs, return_counts=True)
    # N^d at each route entry: its (route, segment) cell, or 0 past the last
    key = routes.trip_of * n_seg + routes.flat
    cells = np.append(cells, np.iinfo(np.int64).max)
    at = np.searchsorted(cells, key)
    n_on = np.where(cells[at] == key, np.append(n_delta, 0)[at], 0).astype(np.float64)
    safe = np.maximum(size, 1)
    mean_len = np.bincount(owner, weights=lens, minlength=n_routes) / safe
    return _NeighborhoodMoments(
        size=size,
        q_sum=np.bincount(owner, weights=q[trip], minlength=n_routes),
        length_gap=np.where(size > 0, mean_len - np.diff(routes.offsets), 0.0),
        n_sq=np.bincount(cells[:-1] // n_seg, weights=n_delta.astype(np.float64) ** 2,
                         minlength=n_routes),
        n_on=n_on, route_of=routes.trip_of)


def _route_weights(mom: _NeighborhoodMoments, prior: PriorSpec) -> np.ndarray:
    """Risk-minimizing whole-route weights, one per route; 0 on an empty
    neighborhood or a zero denominator."""
    m = mom.size
    safe = np.maximum(m, 1)
    num = np.bincount(mom.route_of, weights=mom.n_on, minlength=m.size) * prior.tau2
    den = (mom.n_sq * prior.tau2 / safe + mom.q_sum / safe
           + m * (prior.mu * mom.length_gap) ** 2)
    ok = (m > 0) & (den != 0.0)
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


def _one_route_moments(ds: TripDataset, y, nbhd: Neighborhood, cov: CovarianceModel,
                       q_all: np.ndarray | None) -> _NeighborhoodMoments:
    """The moments of one route's neighborhood: the batch of one."""
    m = nbhd.size
    members = scipy.sparse.csr_matrix((np.ones(m), nbhd.members, [0, m]),
                                      shape=(1, ds.n_trips))
    one = TripDataset._one_route(ds.network, _route_ids(y))
    return _neighborhood_moments(ds, one, members, cov, q_all)


def optimal_route_weight(ds: TripDataset, y, nbhd: Neighborhood,
                         cov: CovarianceModel, prior: PriorSpec,
                         q_all: np.ndarray | None = None) -> float:
    """Risk-minimizing shrinkage weight for the whole-route estimator.

    q_all optionally supplies precomputed per-trip covariance masses (from
    TripDataset.quadratic_sums) to avoid recomputation across many routes.
    """
    mom = _one_route_moments(ds, y, nbhd, cov, q_all)
    return float(_route_weights(mom, prior)[0])


# ---------------------------------------------------------------------------
# Bayes-optimal affine estimator


class PosteriorModel:
    """Gaussian-model posterior machinery shared across predicting routes.

    Accumulates the information matrix W once (the expensive part), factors
    Q = W + I / tau2, and then serves per-route weight vectors, predictions,
    and exact risks with cheap triangular solves.

    W is the sum over trips of inv(sigma[r, r]) scattered into the (r, r)
    positions of trip route r.  One pass over the trips' sigma blocks
    (`TripDataset._sigma_blocks`) builds it together with
    `quadratic_sums`, the per-trip sums of sigma[r, r] that
    `TripDataset.quadratic_sums` also gives: a thread pool inverts and sums
    each chunk of blocks, and this thread adds the chunks into W in chunk
    order, so W does not depend on the thread count.  The pool has one
    thread per core, or its share of the cores inside run_sweep's worker
    processes.
    """

    def __init__(self, ds: TripDataset, cov: CovarianceModel, prior: PriorSpec):
        self.ds = ds
        self.cov = cov
        self.prior = prior
        n = ds.network.n_segments
        w = np.zeros(n * n)
        self.quadratic_sums = np.zeros(ds.n_trips)
        threads = _THREADS or len(os.sched_getaffinity(0))
        pending: deque = deque()

        def add_oldest() -> None:
            trips, cells, invs, sums = pending.popleft()
            self.quadratic_sums[trips] = sums.result()
            np.add.at(w, cells.ravel(), invs.ravel())

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for trips, _, ids, blocks in ds._sigma_blocks(cov):
                cells = np.empty(blocks.shape, dtype=np.int64)
                pending.append((trips, cells, blocks, pool.submit(
                    _invert_chunk, cov, trips, ids, blocks, cells)))
                if len(pending) > threads:
                    add_oldest()
            while pending:
                add_oldest()
        self.w = w.reshape(n, n)
        # Q in Fortran order, so that cho_factor overwrites it instead of copying
        q = self.w.copy(order="F")
        q[np.diag_indices(n)] += 1.0 / prior.tau2
        try:
            self._cho = scipy.linalg.cho_factor(q, lower=True, overwrite_a=True,
                                                check_finite=False)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(
                f"W + I/tau2 is not positive definite ({err}): covariance rank "
                f"{cov.rank} of {n}") from None

    def weight_vector(self, y) -> np.ndarray:
        """g solving (W + I / tau2) g = indicator(y)."""
        return self._weights(TripDataset._one_route(self.ds.network, _route_ids(y)))[:, 0]

    def _weights(self, routes: TripDataset) -> np.ndarray:
        """G = (W + I / tau2)^-1 E, E the segment x route indicator of a store:
        one multi-RHS solve, one column per route."""
        e = np.zeros((self.ds.network.n_segments, routes.n_trips))
        e[routes.flat, routes.trip_of] = 1.0
        return scipy.linalg.cho_solve(self._cho, e, check_finite=False)

    def risk_terms(self, y) -> tuple[float, float]:
        """(variance, squared bias) of the Bayes-optimal prediction for y."""
        one = TripDataset._one_route(self.ds.network, _route_ids(y))
        variance, bias2 = self._risk_terms(one)
        return float(variance[0]), float(bias2[0])

    def _risk_terms(self, routes: TripDataset) -> tuple[np.ndarray, np.ndarray]:
        """Per route of a store: (variance, squared bias) of its prediction."""
        return self._terms(self._weights(routes))

    def _terms(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per column g_r of G = `_weights(routes)`: variance g_r' W g_r and
        squared bias g_r' g_r / tau2.  G and WG are segments x routes arrays."""
        return (np.einsum("sr,sr->r", g, self.w @ g),
                np.einsum("sr,sr->r", g, g) / self.prior.tau2)

    def predict(self, y) -> Prediction:
        """Per trip, coefficients sigma[r, r]^-1 g[r]: one batched solve per
        route length, after the one Cholesky solve for g, which also gives the risk."""
        ids = _route_ids(y)
        g = self._weights(TripDataset._one_route(self.ds.network, ids))
        variance, bias2 = (float(v[0]) for v in self._terms(g))
        flat = self.ds.flat
        coef = np.zeros(flat.size)
        for _, pos, seg, blocks in self.ds._sigma_blocks(self.cov):
            coef[pos] = np.linalg.solve(blocks, g[seg])[..., 0]
        intercept = self.prior.mu * (len(ids) - float(coef.sum()))
        pred = Prediction("bayes_optimal", ids, intercept, coef, self.ds.offsets,
                          detail={"variance": variance, "bias2": bias2,
                                  "risk": variance + bias2})
        return _finish(pred, self.ds)


# bytes of blocks per np.linalg.inv call in the information pass
_INV_BYTES = 2 ** 16

# threads of the information pass; None means one per core.  run_sweep's
# worker processes set it so that its workers do not oversubscribe the cores.
_THREADS: int | None = None


def _set_threads(threads: int) -> None:
    global _THREADS
    _THREADS = threads


def _invert_chunk(cov: CovarianceModel, trips: np.ndarray, ids: np.ndarray,
                  blocks: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """One chunk's share of the information pass, run in a worker thread.

    Fills `cells` with the flat positions in W of the blocks' entries,
    overwrites `blocks` with their inverses and returns their sums.  Worker
    threads allocate from malloc arenas of their own, which keep freed memory
    resident, so the large arrays come from the caller and the inverses are
    taken _INV_BYTES of blocks at a time.
    """
    n = cov.n_segments
    # a principal block longer than sigma's rank is singular, though inv may
    # return huge entries for it instead of raising
    if blocks.shape[1] > cov.rank:
        raise _singular_block(cov, trips[0], blocks.shape[1])
    sums = blocks.sum(axis=(1, 2))
    np.add(ids[:, :, None] * n, ids[:, None, :], out=cells)
    rows = max(1, _INV_BYTES // blocks[0].nbytes)
    for a in range(0, len(blocks), rows):
        part = blocks[a:a + rows]
        try:
            part[...] = np.linalg.inv(part)
        except np.linalg.LinAlgError:
            # name the first trip whose block alone is rejected
            for trip, block in zip(trips[a:a + rows], part):
                try:
                    np.linalg.inv(block)
                except np.linalg.LinAlgError:
                    raise _singular_block(cov, trip, len(block)) from None
            raise
    return sums


def _singular_block(cov: CovarianceModel, trip: int, length: int) -> np.linalg.LinAlgError:
    """The error for a trip whose route's sigma block is singular."""
    return np.linalg.LinAlgError(
        f"sigma block of trip {trip} (route length {length}) is "
        f"singular: covariance rank {cov.rank} of {cov.n_segments}")


def predict_bayes_optimal(ds: TripDataset, y, cov: CovarianceModel,
                          prior: PriorSpec) -> Prediction:
    """Posterior-mean route prediction under the Gaussian working model."""
    return PosteriorModel(ds, cov, prior).predict(y)
