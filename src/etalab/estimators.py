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

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .covariance import CovarianceModel
from .trips import (Neighborhood, PriorSpec, Route, TripDataset, _check_covariance,
                    _checked_neighborhood, _checked_route, _is_count, _is_finite,
                    _id_array, _leading_sums, _ranges)

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

    def __post_init__(self):
        if self.kind not in (self.RATIO, self.THRESHOLD, self.INDEP_OPTIMAL):
            raise ValueError(f"unknown weight rule {self.kind!r}")
        if not (_is_finite(self.lam) and self.lam > 0):
            raise ValueError(f"ratio rule needs a finite lam > 0, got {self.lam!r}")
        if not _is_count(self.c):
            raise ValueError(f"threshold rule needs an integer c >= 0, got {self.c!r}")

    @classmethod
    def ratio(cls, lam: float = 1.0) -> "WeightRule":
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
        if noise is None or tau2 is None:
            raise ValueError("indep_optimal weights need a covariance and prior")
        signal = n * group_size * tau2
        return signal / (signal + noise)


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


def _finish(pred: Prediction, ds: TripDataset) -> Prediction:
    if ds.times is not None:
        pred.value = pred.evaluate(ds.times)
    return pred


def validate_partition(y, partition: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Check that partition blocks are contiguous sub-paths tiling the route.
    With no store, y is checked only for distinct integer ids >= 0."""
    parts = [y.segment_ids if isinstance(y, Route) else y, *partition]
    flat, fault = _id_array([*chain.from_iterable(parts)], math.inf)
    if fault:
        raise ValueError(fault)
    ends = np.cumsum([0, *map(len, parts)]).tolist()
    ids, *blocks = (tuple(flat[a:b].tolist()) for a, b in zip(ends, ends[1:]))
    if len(set(ids)) < len(ids):
        raise ValueError(f"route {list(ids)} repeats a segment")
    if not all(blocks):
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
    """Per-block shrinkage weights from a WeightRule or a finite explicit array."""
    if isinstance(rule, WeightRule):
        indep = rule.kind == WeightRule.INDEP_OPTIMAL
        if indep and cov is None:
            raise ValueError("indep_optimal weights need a covariance")
        return np.array([rule.value(int(n), group_size=len(b), tau2=prior.tau2,
                                    noise=cov.pair_sum(b, b) if indep else None)
                         for n, b in zip(counts, blocks)], dtype=np.float64)
    phis = np.asarray(rule, dtype=np.float64)
    if phis.shape != (len(blocks),):
        raise ValueError("need one weight per partition block")
    if not np.isfinite(phis).all():
        raise ValueError(f"weights must be finite, got {phis.tolist()}")
    # no-support blocks cannot use data regardless of the requested weight
    return np.where(counts > 0, phis, 0.0)


def _segment_blocks(ds: TripDataset, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """The block of every network segment under a route partition, -1 off the route."""
    lookup = np.full(ds.network.n_segments, -1)
    lookup[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    return lookup


def _checked_shape(name: str, value, shape: tuple[int, ...]):
    """value, unless it is given with a shape other than `shape` (ValueError)."""
    if value is not None and np.shape(value) != shape:
        raise ValueError(f"{name} must have shape {shape}, got {np.shape(value)}")
    return value


def _block_moments(ds: TripDataset, ids: Sequence[int], blocks: Sequence[Sequence[int]],
                   cov: CovarianceModel,
                   joint: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Joint support counts J and covariance cross sums S of a route partition.

    J = C'C, C = `ds.block_cover(blocks)`, counts the trips covering both
    block i and block j (its diagonal holds each block's support) and S = M'
    sigma[y, y] M sums sigma over block i x block j.  `joint` optionally
    supplies J; for singleton blocks it is TripDataset.pair_counts.
    """
    if joint is None:
        cover = ds.block_cover(blocks)
        joint = (cover.T @ cover).toarray()
    member = np.eye(len(blocks))[_segment_blocks(ds, blocks)[list(ids)]]
    return joint, member.T @ cov.block(ids) @ member


def _predict_blocks(estimator: str, ds: TripDataset, ids: tuple[int, ...],
                    blocks: Sequence[Sequence[int]], rule, prior: PriorSpec,
                    cov: CovarianceModel | None) -> Prediction:
    """`predict_gseg` of checked ids under a checked partition."""
    cover = ds.block_cover(blocks)
    counts = np.diff(cover.indptr)
    phis = _resolve_weights(rule, counts, blocks, prior, cov)
    w = phis / np.maximum(counts, 1)
    lookup = _segment_blocks(ds, blocks)
    on = np.flatnonzero((lookup >= 0)[ds.flat])
    block = lookup[ds.flat[on]]
    at = block * ds.n_trips + np.searchsorted(ds.offsets, on, side="right") - 1
    cells = np.append(np.repeat(np.arange(len(blocks)), counts) * ds.n_trips + cover.indices,
                      np.iinfo(np.int64).max)
    coef = np.zeros(ds.flat.size)
    coef[on] = np.where(cells[np.searchsorted(cells, at)] == at, w[block], 0.0)
    intercept = float(len(ids)) * prior.mu
    for w_b, n_b, b in zip(w, counts, blocks):
        intercept -= w_b * n_b * len(b) * prior.mu
    pred = Prediction(estimator, ids, float(intercept), coef, ds.offsets,
                      detail={"weights": [float(v) for v in phis],
                              "counts": [int(v) for v in counts],
                              "blocks": [list(b) for b in blocks]})
    return _finish(pred, ds)


def predict_gseg(ds: TripDataset, y, partition: Sequence[Sequence[int]], rule,
                 prior: PriorSpec, cov: CovarianceModel | None = None) -> Prediction:
    """Grouped-segment estimator: one shrunk group-total per partition block.

    Each block S pools the trips whose route covers all of S, shrinking the
    average observed block total toward its prior mean |S| * mu.  `rule` is a
    WeightRule or an explicit per-block weight array.  Block j's w = phi/n
    goes to the entries of `flat` on j whose trip covers j: one pass over
    `flat` finds the entries on y, then a search of the cover's sorted cells.
    """
    ids = _checked_route(ds, y, cov).segment_ids
    return _predict_blocks("gseg", ds, ids, validate_partition(ids, partition), rule, prior,
                           cov)


def predict_segment(ds: TripDataset, y, rule, prior: PriorSpec,
                    cov: CovarianceModel | None = None) -> Prediction:
    """Per-segment estimator: the singleton-partition grouped estimator."""
    ids = _checked_route(ds, y, cov).segment_ids
    return _predict_blocks("segment", ds, ids, [(s,) for s in ids], rule, prior, cov)


def predict_route(ds: TripDataset, y, nbhd: Neighborhood, rule,
                  prior: PriorSpec) -> Prediction:
    """Whole-route estimator: shrunk average of neighbor trips' raw totals.

    With weight phi on a neighborhood of M trips, predicts
    (1 - phi) * |y| * mu + phi * (average total time over the neighborhood).
    `rule` is a WeightRule on M or an explicit phi value, resolved by
    `_resolve_weights` with the neighborhood as the one block.  nbhd must be
    resolved for y's route on ds (`_checked_neighborhood`).
    """
    ids = _checked_neighborhood(ds, y, nbhd).segment_ids
    m = nbhd.size
    weights = rule if isinstance(rule, WeightRule) else [rule]
    phi = float(_resolve_weights(weights, np.array([m]), [ids], prior, None)[0])
    coef = np.zeros(ds.flat.size)
    intercept = (1.0 - phi) * len(ids) * prior.mu
    if m > 0 and phi != 0.0:
        starts = ds.offsets[nbhd.members]
        coef[_ranges(starts, ds.offsets[nbhd.members + 1] - starts)] = phi / float(m)
    pred = Prediction("route", ids, intercept, coef, ds.offsets,
                      detail={"weight": float(phi), "neighborhood_size": int(m),
                              "neighborhood": nbhd.spec.kind})
    return _finish(pred, ds)


# ---------------------------------------------------------------------------
# optimal shrinkage weights


def _optimal_block_weights(blocks: Sequence[Sequence[int]], joint: np.ndarray,
                           cross: np.ndarray, prior: PriorSpec) -> np.ndarray:
    """Risk-minimizing per-block weights from a partition's `_block_moments`."""
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


def optimal_gseg_weights(ds: TripDataset, y, partition: Sequence[Sequence[int]],
                         cov: CovarianceModel, prior: PriorSpec) -> np.ndarray:
    """Risk-minimizing per-block weights for the grouped-segment estimator.

    Solves the normal equations coupling blocks through their joint support
    counts J and covariance cross sums S.  Blocks with no support are pinned
    to weight zero and dropped from the system.
    """
    ids = _checked_route(ds, y, cov).segment_ids
    blocks = validate_partition(ids, partition)
    return _optimal_block_weights(blocks, *_block_moments(ds, ids, blocks, cov), prior)


def optimal_seg_weights(ds: TripDataset, y, cov: CovarianceModel,
                        prior: PriorSpec) -> np.ndarray:
    """Risk-minimizing per-segment weights (singleton partition)."""
    ids = _checked_route(ds, y, cov).segment_ids
    blocks = [(s,) for s in ids]
    return _optimal_block_weights(blocks, *_block_moments(ds, ids, blocks, cov), prior)


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


def _one_route_moments(ds: TripDataset, ids: tuple[int, ...], nbhd: Neighborhood,
                       cov: CovarianceModel, q_all: np.ndarray | None) -> _NeighborhoodMoments:
    """The moments of one checked route's neighborhood: the batch of one."""
    m = nbhd.size
    members = scipy.sparse.csr_matrix((np.ones(m), nbhd.members, [0, m]),
                                      shape=(1, ds.n_trips))
    one = TripDataset._one_route(ds.network, ids)
    return _neighborhood_moments(ds, one, members, cov, q_all)


def optimal_route_weight(ds: TripDataset, y, nbhd: Neighborhood,
                         cov: CovarianceModel, prior: PriorSpec,
                         q_all: np.ndarray | None = None) -> float:
    """Risk-minimizing shrinkage weight for the whole-route estimator.

    q_all optionally supplies precomputed per-trip covariance masses (from
    TripDataset.quadratic_sums, shape (ds.n_trips,)) to avoid recomputation
    across many routes.
    """
    ids = _checked_neighborhood(ds, y, nbhd, cov).segment_ids
    q_all = _checked_shape("q_all", q_all, (ds.n_trips,))
    mom = _one_route_moments(ds, ids, nbhd, cov, q_all)
    return float(_route_weights(mom, prior)[0])


# ---------------------------------------------------------------------------
# Bayes-optimal affine estimator


class PosteriorModel:
    """Gaussian-model posterior machinery shared across predicting routes.

    Accumulates Q = W + I / tau2 once (the expensive part; no W is kept),
    factors it in place, and then serves per-route weight vectors,
    predictions, and exact risks with cheap triangular solves.

    W is the sum over trips of inv(sigma[r, r]) scattered into the (r, r)
    positions of trip route r.  It is built one route family at a time
    (`_information`), and the same pass gives `quadratic_sums`, the per-trip
    sums of sigma[r, r], equal to `TripDataset.quadratic_sums`.
    `q_rcond` is LAPACK's estimate of 1 / cond_1(Q), from Q's Cholesky factor.
    """

    def __init__(self, ds: TripDataset, cov: CovarianceModel, prior: PriorSpec):
        _check_covariance(ds.network, cov)
        self.ds = ds
        self.cov = cov
        self.prior = prior
        q, self.quadratic_sums = _information(ds, cov, prior.tau2)
        # Q's 1-norm before cho_factor overwrites it; Q is in Fortran order,
        # so dlange reads it in place
        q_norm = scipy.linalg.lapack.dlange("1", q)
        try:
            self._cho = scipy.linalg.cho_factor(q, lower=True, overwrite_a=True,
                                                check_finite=False)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(
                f"W + I/tau2 is not positive definite ({err}): covariance rank "
                f"{cov.rank} of {cov.n_segments}") from None
        rcond, info = scipy.linalg.lapack.dpocon(self._cho[0], q_norm, uplo="L")
        if info != 0:
            raise np.linalg.LinAlgError(f"dpocon failed with info {info}")
        self.q_rcond = float(rcond)

    def _weights(self, routes: TripDataset) -> np.ndarray:
        """G = (W + I / tau2)^-1 E, E the segment x route indicator of a store:
        one multi-RHS solve, one column per route."""
        e = np.zeros((self.ds.network.n_segments, routes.n_trips))
        e[routes.flat, routes.trip_of] = 1.0
        return scipy.linalg.cho_solve(self._cho, e, check_finite=False)

    def risk_terms(self, y) -> tuple[float, float]:
        """(variance, squared bias) of the Bayes-optimal prediction for y."""
        ids = _checked_route(self.ds, y).segment_ids
        _, total, bias2 = self._terms(TripDataset._one_route(self.ds.network, ids))
        return float(total[0] - bias2[0]), float(bias2[0])

    def _terms(self, routes: TripDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per route of a store, from one solve G = `_weights(routes)`: (G, risk
        e_r' g_r, squared bias g_r' g_r / tau2).  Q g_r = e_r makes the variance
        g_r' W g_r = e_r' g_r - g_r' g_r / tau2 their difference."""
        g = self._weights(routes)
        total = np.bincount(routes.trip_of, weights=g[routes.flat, routes.trip_of],
                            minlength=routes.n_trips)
        return g, total, np.einsum("sr,sr->r", g, g) / self.prior.tau2

    def predict(self, y) -> Prediction:
        """Per trip, coefficients sigma[r, r]^-1 g[r]: one batched solve per
        route length, after the one Cholesky solve for g, which also gives the risk."""
        ids = _checked_route(self.ds, y).segment_ids
        g, total, bias2 = self._terms(TripDataset._one_route(self.ds.network, ids))
        risk, bias2 = float(total[0]), float(bias2[0])
        flat = self.ds.flat
        coef = np.zeros(flat.size)
        for _, pos, seg, blocks in self.ds._sigma_blocks(self.cov):
            coef[pos] = np.linalg.solve(blocks, g[seg])[..., 0]
        intercept = self.prior.mu * (len(ids) - float(coef.sum()))
        pred = Prediction("bayes_optimal", ids, intercept, coef, self.ds.offsets,
                          detail={"variance": risk - bias2, "bias2": bias2,
                                  "risk": risk})
        return _finish(pred, self.ds)


# threads of the information pass; None means one per core.  run_sweep's
# worker processes set it so that its workers do not oversubscribe the cores.
_THREADS: int | None = None


def _set_threads(threads: int) -> None:
    global _THREADS
    _THREADS = threads


def _information(ds: TripDataset, cov: CovarianceModel,
                 tau2: float) -> tuple[np.ndarray, np.ndarray]:
    """Q = W + I / tau2 in Fortran order, and the trips' quadratic sums.

    A family whose longest route s has block S = sigma[s, s] = L L' gives
    each member of length l the inverse sum_{i<l} u_i u_i', u_i the rows of
    U = L^-1.  So the family adds U' diag(w) U into Q[s, s], w_i counting
    its members longer than i, and its members' quadratic sums are S's
    leading-block sums.  A thread pool works the chunks of
    `TripDataset._family_chunks`; this thread adds them into Q with
    np.add.at in chunk order, so Q does not depend on the thread count.  The
    pool has one thread per core, or its share of the cores inside
    run_sweep's worker processes.
    """
    n = cov.n_segments
    # a principal block longer than sigma's rank is singular, though its
    # Cholesky factor may come out without an error
    if np.diff(ds.offsets).max(initial=0) > cov.rank:
        raise _first_singular(ds, cov)
    # Q through its flat view: cho_factor overwrites it in place
    q_flat = np.zeros(n * n)
    sums = np.empty(ds.n_trips)
    threads = _THREADS or len(os.sched_getaffinity(0))
    pending: deque = deque()

    def add_oldest() -> None:
        members, cells, blocks, done = pending.popleft()
        sums[members] = done.result()
        np.add.at(q_flat, cells.ravel(), blocks.ravel())

    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for members, lengths, local, ids in ds._family_chunks():
                # the arrays that outlive the call come from this thread
                cells = np.empty(ids.shape + ids.shape[1:], dtype=np.int64)
                blocks = np.empty(cells.shape)
                pending.append((members, cells, blocks, pool.submit(
                    _family_chunk, cov, lengths, local, ids, cells, blocks)))
                if len(pending) > threads:
                    add_oldest()
            while pending:
                add_oldest()
    except np.linalg.LinAlgError as err:
        raise _first_singular(ds, cov) or err from None
    q = q_flat.reshape(n, n, order="F")
    q[np.diag_indices(n)] += 1.0 / tau2
    return q, sums


def _family_chunk(cov: CovarianceModel, lengths: np.ndarray, local: np.ndarray,
                  ids: np.ndarray, cells: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """One chunk of families' share of the information pass, run in a worker thread.

    Gathers the blocks S = sigma[ids, ids] into `blocks` (one flat take,
    `CovarianceModel.entries`), overwrites them with U' diag(w) U, U =
    chol(S)^-1, fills `cells` with the flat cells ids[a] * n + ids[b] of the
    blocks' entries (a, b) in Q, and returns the members' quadratic sums,
    read off S's leading-block sums.  In the Fortran-ordered Q the same cells
    are the transposed entries, which a symmetric product leaves alone.  Worker
    threads allocate from malloc arenas of their own, which keep freed memory
    resident, so the chunks are small.
    """
    m, length = ids.shape
    cov.entries(ids[:, :, None], ids[:, None, :], out=blocks)
    np.add(ids[:, :, None] * cov.n_segments, ids[:, None, :], out=cells)
    sums = _leading_sums(blocks)[local, lengths - 1]
    # w[f, i]: the members of family f longer than i, a suffix sum of their lengths
    ends = np.bincount(local * (length + 1) + lengths, minlength=m * (length + 1))
    w = np.cumsum(ends.reshape(m, length + 1)[:, ::-1], axis=1)[:, -2::-1]
    u = np.linalg.inv(np.linalg.cholesky(blocks))
    np.matmul(u.transpose(0, 2, 1) * w[:, None, :], u, out=blocks)
    return sums


def _first_singular(ds: TripDataset, cov: CovarianceModel) -> np.linalg.LinAlgError | None:
    """The error naming the first trip, by route length and then id, whose
    sigma block is singular, or None when no block is.

    A block is singular when its route is longer than cov.rank or when the
    Cholesky factorisation (LAPACK dpotrf) of its family's block fails at or
    before its length.
    """
    rank = cov.rank
    bad_trips, bad_lengths = [], []
    for members, lengths, local, ids in ds._family_chunks():
        ids = ids[:, :rank]
        fail = np.full(ids.shape[0], rank + 1)
        for f, block in enumerate(cov.block(ids)):
            info = scipy.linalg.lapack.dpotrf(block, lower=1)[1]
            if info > 0:
                fail[f] = info
        bad = lengths >= fail[local]
        bad_trips.append(members[bad])
        bad_lengths.append(lengths[bad])
    trips, lengths = np.concatenate(bad_trips), np.concatenate(bad_lengths)
    if not trips.size:
        return None
    first = np.lexsort((trips, lengths))[0]
    return _singular_block(cov, int(trips[first]), int(lengths[first]))


def _singular_block(cov: CovarianceModel, trip: int, length: int) -> np.linalg.LinAlgError:
    """The error for a trip whose route's sigma block is singular."""
    return np.linalg.LinAlgError(
        f"sigma block of trip {trip} (route length {length}) is "
        f"singular: covariance rank {cov.rank} of {cov.n_segments}")


def predict_bayes_optimal(ds: TripDataset, y, cov: CovarianceModel,
                          prior: PriorSpec) -> Prediction:
    """Posterior-mean route prediction under the Gaussian working model."""
    return PosteriorModel(ds, cov, prior).predict(y)
