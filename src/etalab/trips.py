"""Trip generation: origin-destination law, route law, and trip datasets.

A trip is a simple directed route (a contiguous segment path) plus, when
synthesized, one observed travel time per traversed segment.  Datasets keep
routes in flattened arrays and a sparse trip x segment incidence matrix,
from which every traversal counter the estimators use is derived.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse
from scipy.special import betaln

from .covariance import CovarianceModel
from .network import DIRECTIONS, RoadNetwork

__all__ = [
    "PriorSpec",
    "Route",
    "ODLaw",
    "sample_route",
    "sample_routes",
    "sample_trips",
    "synthesize_times",
    "TripDataset",
    "NeighborhoodKind",
    "NeighborhoodSpec",
    "Neighborhood",
    "resolve_neighborhood",
    "resolve_neighborhoods",
]

# rejection rounds after which ODLaw.sample_od gives up: a round rejects a draw
# with probability (sum_k pmf(k)^2)^2 <= 1/4, so a working law clears 10^9 draws
# in about 15 rounds, and only a law that rejects (almost) everything reaches 64
_RESAMPLE_ROUNDS = 64

# bytes of covariance blocks that TripDataset._sigma_blocks gathers at once:
# small enough that a few chunks in flight stay far below the n x n arrays
_BLOCK_BYTES = 4 * 2 ** 20

# bytes of family blocks per chunk of TripDataset._family_chunks: the
# information pass's worker threads keep each chunk's transients in malloc
# arenas of their own, so the chunks stay small
_FAMILY_BYTES = 2 ** 18


@dataclass(frozen=True)
class PriorSpec:
    """Independent segment-time prior: theta_s ~ Normal(mu, tau2)."""

    mu: float
    tau2: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"prior mean mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.tau2) and self.tau2 > 0):
            raise ValueError(f"prior variance tau2 must be finite and positive, got {self.tau2!r}")


@dataclass(frozen=True)
class Route:
    """A simple directed path through the network."""

    segment_ids: tuple[int, ...]
    origin: tuple[int, int]
    destination: tuple[int, int]

    @classmethod
    def from_segments(cls, network: RoadNetwork, segment_ids: Sequence[int]) -> "Route":
        """ValueError unless the ids are distinct segments of a simple path
        (`_route_fault` on a batch of one)."""
        ids, fault = _route_fault(network, segment_ids)
        if fault:
            raise ValueError(fault[1])
        (oi, oj, _, _), (_, _, di, dj) = network.endpoints[ids[[0, -1]]].tolist()
        return cls(tuple(ids.tolist()), (oi, oj), (di, dj))

    @classmethod
    def from_vertices(cls, network: RoadNetwork, vertices: Sequence[tuple[int, int]]) -> "Route":
        return cls.from_segments(network, network.path_segments(vertices))

    def __len__(self) -> int:
        return len(self.segment_ids)


def _checked_route(ds: "TripDataset", y, cov: CovarianceModel | None = None) -> Route:
    """The gate of every public call on (ds, y): y's ids must make a Route of
    `ds.network`, equal to y if y is one, and cov must fit that network."""
    if cov is not None:
        _check_covariance(ds.network, cov)
    route = Route.from_segments(ds.network, y.segment_ids if isinstance(y, Route) else y)
    if isinstance(y, Route) and y != route:
        raise ValueError(f"{y} is not a route of a p={ds.network.p} grid")
    return route


def _checked_neighborhood(ds: "TripDataset", y, nbhd: "Neighborhood",
                          cov: CovarianceModel | None = None) -> Route:
    """`_checked_route` for a call that also pools a neighborhood: ValueError
    unless nbhd is for the route y makes and every member is a trip of ds."""
    route = _checked_route(ds, y, cov)
    if nbhd.route != route:
        raise ValueError(f"the neighborhood is for route {list(nbhd.route.segment_ids)}, "
                         f"not {list(route.segment_ids)}")
    members = nbhd.members
    if members.size and not (np.issubdtype(members.dtype, np.integer) and members.ndim == 1
                             and 0 <= members.min() and members.max() < ds.n_trips):
        raise ValueError(f"neighborhood members must be ids of the store's "
                         f"{ds.n_trips} trips")
    return route


def _check_covariance(network: RoadNetwork, cov: CovarianceModel) -> None:
    """ValueError unless cov has one row per segment of the network."""
    if cov.n_segments != network.n_segments:
        raise ValueError(f"a covariance over {cov.n_segments} segments does not fit a "
                         f"network of {network.n_segments} segments")


class ODLaw:
    """Origin-destination sampling law on a p-grid.

    All four endpoint coordinates are iid beta-binomial(p, alpha, alpha)
    draws, which concentrates trips near the grid edges for alpha < 1 and is
    uniform at alpha = 1.  Each coordinate is drawn as scipy's betabinom
    draws it, a beta(alpha, alpha) probability and then a binomial count.
    Draws with origin equal to destination are rejected and resampled.
    """

    def __init__(self, p: int, alpha: float):
        if not isinstance(p, numbers.Integral) or isinstance(p, bool) or p < 1:
            raise ValueError(f"grid size p must be an integer >= 1, got {p!r}")
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
        self.p = int(p)
        self.alpha = float(alpha)

    def pmf(self, k) -> np.ndarray | float:
        """P(coordinate = k) by scipy's betabinom formula; 0 off the integers 0..p."""
        k = np.asarray(k, dtype=np.float64)
        inside = (k >= 0) & (k <= self.p) & (k == np.floor(k))
        k = np.where(inside, k, 0.0)  # keep betaln's arguments valid off the support
        n, a = self.p, self.alpha
        log_pmf = (-np.log(n + 1) - betaln(n - k + 1, k + 1)
                   + betaln(k + a, n - k + a) - betaln(a, a))
        return np.where(inside, np.exp(log_pmf), 0.0)[()]

    def sample_od(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, 4) array of [oi, oj, di, dj] rows with origin != destination.

        Each round redraws the rejected rows; RuntimeError if rows are still
        rejected after _RESAMPLE_ROUNDS rounds, whatever the size.
        """
        out = np.empty((size, 4), dtype=np.int64)
        need = np.arange(size)
        for _ in range(_RESAMPLE_ROUNDS):
            if not need.size:
                break
            shape = (need.size, 4)
            out[need] = rng.binomial(self.p, rng.beta(self.alpha, self.alpha, shape), shape)
            same = (out[need, 0] == out[need, 2]) & (out[need, 1] == out[need, 3])
            need = need[same]
        if need.size:
            raise RuntimeError(f"origin-destination rejection sampling left {need.size} "
                               f"draws rejected after {_RESAMPLE_ROUNDS} rounds")
        return out


def sample_route(law: ODLaw, network: RoadNetwork, rng: np.random.Generator) -> Route:
    """Draw one trip route; the route law is the one of `sample_trips`."""
    return sample_routes(law, network, rng, 1)[0]


def sample_routes(law: ODLaw, network: RoadNetwork, rng: np.random.Generator,
                  n: int) -> list[Route]:
    """Draw n trip routes, as `sample_trips` does, as Route objects."""
    return list(sample_trips(law, network, rng, n).routes)


def sample_trips(law: ODLaw, network: RoadNetwork, rng: np.random.Generator,
                 n: int) -> TripDataset:
    """Draw n trips: endpoints from the OD law, then a shortest path each.

    Endpoints sharing a row or column give the unique straight route.
    Otherwise the two single-turn L-shaped shortest routes are equally
    likely, chosen by an explicit coin flip; a coin of 1 moves along the
    first coordinate (i) first.  The draws are `law.sample_od(rng, n)`, then
    `rng.integers(0, 2, size=n)`, in that order.  An n that is not an
    integer >= 0, or a law for another grid size, raises ValueError before
    any draw.
    """
    if not _is_count(n):
        raise ValueError(f"trip count n must be an integer >= 0, got {n!r}")
    if law.p != network.p:
        raise ValueError(f"OD law is for a {law.p}-grid, network is a {network.p}-grid")
    width = network.p + 1
    steps, codes, jump = _legs(law.sample_od(rng, n), rng.integers(0, 2, size=n), width)
    offsets = np.r_[0, np.cumsum(steps.sum(axis=1))]
    # at most two flat-sized int64 arrays are alive at once; the direction
    # codes are int8
    code = np.repeat(codes.ravel(), steps.ravel())
    del steps, codes
    move = np.array([a * width + b for a, b in DIRECTIONS])
    # one running sum of the vertex moves gives every step's head, once each
    # trip's first move also jumps from the previous destination to its origin
    vertex = move[code]
    vertex[offsets[:-1]] += jump
    np.cumsum(vertex, out=vertex)
    vertex -= move[code]  # now the tail of each step
    # segment_table[vertex, code], read from the raveled table
    vertex *= len(DIRECTIONS)
    vertex += code
    return TripDataset._from_arrays(network, np.take(network.segment_table.ravel(), vertex),
                                    offsets)


def _legs(od: np.ndarray, coins: np.ndarray, width: int
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per trip of `sample_trips`: its two straight legs in travel order, as
    (n, 2) step counts and int8 codes into DIRECTIONS, and the vertex jump
    from the previous trip's destination to its origin (vertex (i, j) is
    i * width + j).  An aligned trip has an empty leg, so its coin is moot.
    """
    oi, oj, di, dj = od.T
    steps = np.column_stack((np.abs(di - oi), np.abs(dj - oj)))
    codes = np.column_stack((np.where(di > oi, np.int8(3), np.int8(0)),
                             np.where(dj > oj, np.int8(2), np.int8(1))))
    j_first = coins == 0
    steps[j_first] = steps[j_first, ::-1]
    codes[j_first] = codes[j_first, ::-1]
    return steps, codes, (oi * width + oj) - np.r_[0, (di * width + dj)[:-1]]


@dataclass(frozen=True)
class _RouteFamilies:
    """Trips grouped into families of nested routes (`TripDataset._families`).

    Every member of a family travels a leading prefix of the family's longest
    route.  `order` lists the trips by family, and within a family from the
    longest route down, ties in id order; family f's members are
    order[bounds[f]:bounds[f + 1]], so its first member is its longest.  The
    families are numbered by the length of their longest route, then by key.
    A distinct route is a (family, length) pair, and there are `n_routes`.
    """

    order: np.ndarray
    bounds: np.ndarray
    n_routes: int

    @property
    def n_families(self) -> int:
        return self.bounds.size - 1

    @property
    def longest(self) -> np.ndarray:
        """Per family, its longest member (the lowest id among the longest)."""
        return self.order[self.bounds[:-1]]


def _leading_sums(blocks: np.ndarray) -> np.ndarray:
    """(m, L) sums of the leading principal blocks of symmetric (m, L, L)
    blocks B: entry l - 1 is 1' B[:l, :l] 1, the running sum over i < l of
    B[i, i] + 2 sum_{j<i} B[i, j]."""
    diag = np.arange(blocks.shape[-1])
    rows = np.cumsum(blocks, axis=2)[:, diag, diag]
    return np.cumsum(2.0 * rows - blocks[:, diag, diag], axis=1)


class TripDataset:
    """Historical trips over one network, with counters for the estimators.

    The routes are stored back to back: trip n traverses the segment ids
    flat[offsets[n]:offsets[n + 1]].  `times`, like prediction coefficients,
    is one float64 array aligned with `flat`, or None for a routes-only store.
    Route objects are built from these arrays only when `routes` is first read.
    A Route that the network does not make (`Route.from_segments`) raises
    ValueError naming its trip.
    """

    def __init__(self, network: RoadNetwork, routes: Sequence[Route],
                 times: np.ndarray | None = None):
        routes = tuple(routes)
        offsets = np.cumsum([0, *(len(r.segment_ids) for r in routes)], dtype=np.int64)
        flat, fault = _route_fault(network, [*chain.from_iterable(r.segment_ids for r in routes)],
                                   offsets)
        # the trips before the first bad one hold routes: one comparison holds
        # each of their Routes' ends to the ends its ids make
        good = fault[0] if fault else len(routes)
        oi, oj, di, dj = self._from_arrays(network, flat, offsets[:good + 1]).od_array.T.tolist()
        forged = np.flatnonzero(np.fromiter(zip(zip(oi, oj), zip(di, dj)), object, good)
                                != np.fromiter(((r.origin, r.destination) for r in routes),
                                               object, good))
        if forged.size:
            fault = (forged[0], f"{routes[forged[0]]} is not a route of a p={network.p} grid")
        if fault:
            raise ValueError("trip %d: %s" % fault)
        self._store(network, flat, offsets, times)

    def _store(self, network: RoadNetwork, flat: np.ndarray, offsets: np.ndarray,
               times: np.ndarray | None = None) -> None:
        self.network, self.flat, self.offsets = network, flat, offsets
        if times is not None:
            times = np.asarray(times, dtype=np.float64)
            if times.shape != self.flat.shape:
                raise ValueError(f"times must have the shape of flat, not {times.shape}")
            bad = np.flatnonzero(~np.isfinite(times))
            if bad.size:
                trip = int(np.searchsorted(self.offsets, bad[0], side="right")) - 1
                raise ValueError(f"trip {trip} has a non-finite observed time")
        self.times = times
        self.theta = None  # the latent segment times, set by synthesize_times

    @classmethod
    def _from_arrays(cls, network: RoadNetwork, flat: np.ndarray, offsets: np.ndarray,
                     times: np.ndarray | None = None) -> "TripDataset":
        """A dataset over arrays that already hold valid paths (`times` as in
        the constructor)."""
        ds = cls.__new__(cls)
        ds._store(network, flat, offsets, times)
        return ds

    @classmethod
    def _one_route(cls, network: RoadNetwork, y: Sequence[int]) -> "TripDataset":
        """The one-trip store of route y, the batch kernels' batch of one."""
        flat = np.asarray(y, dtype=np.int64)
        return cls._from_arrays(network, flat, np.array([0, flat.size]))

    def _slice(self, a: int, b: int) -> "TripDataset":
        """The routes-only store of trips a to b - 1."""
        offsets = self.offsets[a:b + 1]
        return self._from_arrays(self.network, self.flat[offsets[0]:offsets[-1]],
                                 offsets - offsets[0])

    @property
    def n_trips(self) -> int:
        return self.offsets.size - 1

    @cached_property
    def routes(self) -> tuple[Route, ...]:
        """One Route per trip, built from flat/offsets on first access.

        The arrays hold valid paths (tested against `Route.from_segments`).
        """
        flat, bounds = self.flat.tolist(), self.offsets.tolist()
        return tuple(Route(tuple(flat[a:b]), (oi, oj), (di, dj)) for a, b, (oi, oj, di, dj)
                     in zip(bounds, bounds[1:], self.od_array.tolist()))

    @cached_property
    def incidence(self) -> scipy.sparse.csc_matrix:
        """Trip x segment 0/1 matrix A (CSC, int8 ones, int32 indices): row n
        marks the segments of trip n.

        Column s lists the trips through segment s, so the joint counts over
        a route y, A[:, y]' A[:, y], read only y's columns.  A count can pass
        127, so a product of two slices of A is taken in int64 (`pair_counts`).
        """
        ones = np.ones(self.flat.size, dtype=np.int8)
        return scipy.sparse.csr_matrix(
            (ones, self.flat, self.offsets),
            shape=(self.n_trips, self.network.n_segments)).tocsc()

    @cached_property
    def n_s(self) -> np.ndarray:
        """Traversal count N_s for every segment."""
        return np.bincount(self.flat, minlength=self.network.n_segments)

    @cached_property
    def od_array(self) -> np.ndarray:
        """Rows [oi, oj, di, dj]: the tail of each trip's first segment, the head of its last."""
        ends = self.network.endpoints
        return np.hstack((ends[self.flat[self.offsets[:-1]], :2],
                          ends[self.flat[self.offsets[1:] - 1], 2:]))

    @cached_property
    def trip_of(self) -> np.ndarray:
        """The trip of every entry of `flat` (read on predicting-route stores only)."""
        return np.repeat(np.arange(self.n_trips), np.diff(self.offsets))

    @cached_property
    def _od_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Trips sorted by OD cell: (sorted cell keys, trip ids in that order).

        A trip's key is origin * V + destination, with V the grid's vertex
        count and vertex (i, j) numbered i * (p + 1) + j, as in
        `resolve_neighborhoods`.  Within a cell the trips keep id order.
        """
        width = self.network.p + 1
        od = self.od_array
        keys = (od[:, 0] * width + od[:, 1]) * width ** 2 + od[:, 2] * width + od[:, 3]
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    @cached_property
    def _families(self) -> _RouteFamilies:
        """The trips' route families, derived from `flat` and `offsets`.

        A route with at most one turn is keyed by its first segment, the
        position P where its final straight run starts (0 for a straight
        route) and the segment at P.  The key fixes the route up to P and the
        direction after it, so routes with one key are prefixes of one
        another.  A route with two or more turns (only a store read from
        JSONL has one) has no such key: its family holds the trips of that
        very route.  Directions come from one int8 per entry of `flat`; only
        the turns' positions are kept as integers.
        """
        flat, offsets, n_seg = self.flat, self.offsets, self.network.n_segments
        n = self.n_trips
        length = np.diff(offsets)
        # the direction code of each segment: ids run over the table row-major
        heading = np.nonzero(self.network.segment_table >= 0)[1].astype(np.int8)
        # the turns: step i compares entries i and i + 1, except from one
        # trip's last entry to the next's first
        step = np.diff(heading[flat])
        step[offsets[1:-1] - 1] = 0
        turn = np.flatnonzero(step)
        del step
        turn += 1
        trip = np.searchsorted(offsets, turn, side="right")
        trip -= 1
        turn -= offsets[trip]
        last = np.zeros(n, dtype=np.int64)
        np.maximum.at(last, trip, turn)
        multi = np.flatnonzero(np.bincount(trip, minlength=n) >= 2)
        del turn, trip
        top = int(length.max(initial=1)) * n_seg
        key = flat[offsets[:-1] + last]
        last *= n_seg
        key += last
        del last
        key += flat[offsets[:-1]] * top
        if multi.size:
            # past every one-turn key: one key per distinct route, its first trip
            seen: dict[bytes, int] = {}
            first = [seen.setdefault(flat[offsets[t]:offsets[t + 1]].tobytes(), t)
                     for t in multi.tolist()]
            key[multi] = top * n_seg + np.array(first)
        # by key, then longest first, then id
        order = np.lexsort((-length, key))
        key = key[order]
        new_family = np.ones(n, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new_family[1:])
        del key
        # a distinct route starts at the first trip and wherever the family or
        # the length changes
        sorted_length = length[order]
        new_route = sorted_length[1:] != sorted_length[:-1]
        del sorted_length
        new_route |= new_family[1:]
        n_routes = int(np.count_nonzero(new_route)) + min(n, 1)
        # renumber the families by the length of their longest route, then by key
        starts = np.flatnonzero(new_family)
        size = np.diff(np.r_[starts, n])
        by_length = np.argsort(length[order[starts]], kind="stable")
        order = order[_ranges(starts[by_length], size[by_length])]
        return _RouteFamilies(order=order, bounds=np.r_[0, np.cumsum(size[by_length])],
                              n_routes=n_routes)

    def _family_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray,
                                               np.ndarray]]:
        """Families in chunks: (members, lengths, local, ids).

        Per chunk of m families whose longest routes have one length L: the
        (m, L) segment ids `ids` of those routes, the families' member trips
        in `_families.order`, their route lengths, and the row of `ids` that
        each member belongs to (`local`).  Chunks walk the lengths in
        increasing order and the families in order, and hold at most
        _FAMILY_BYTES of float64 (L, L) blocks (one family's when that alone
        is larger).
        """
        fam = self._families
        offsets = self.offsets
        longest = fam.longest
        flen = offsets[longest + 1] - offsets[longest]
        # the families come sorted by flen: one run of families per length
        firsts = np.flatnonzero(np.diff(flen, prepend=0))
        for a, b in zip(firsts, np.r_[firsts[1:], flen.size]):
            length = int(flen[a])
            rows = max(1, _FAMILY_BYTES // (8 * length * length))
            span = np.arange(length)
            for f in range(a, b, rows):
                g = min(f + rows, b)
                members = fam.order[fam.bounds[f]:fam.bounds[g]]
                local = np.repeat(np.arange(g - f), np.diff(fam.bounds[f:g + 1]))
                yield (members, offsets[members + 1] - offsets[members], local,
                       self.flat[offsets[longest[f:g], None] + span])

    def _sigma_blocks(self, cov: CovarianceModel
                      ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Trips' covariance blocks in chunks: (trips, pos, ids, blocks).

        Per chunk of same-length trips: their ids, their (n, L) positions in
        `flat`, the (n, L) segment ids there, and the (n, L, L) blocks
        sigma[r, r] of their routes r.  Chunks walk the route lengths in
        increasing order and the trips in id order, and hold at most
        _BLOCK_BYTES of blocks (one trip's block when that alone is larger).
        """
        lens = np.diff(self.offsets)
        for length in np.unique(lens):
            trips = np.flatnonzero(lens == length)
            pos = self.offsets[trips, None] + np.arange(length)
            rows = max(1, _BLOCK_BYTES // (8 * length * length))
            for a in range(0, trips.size, rows):
                ids = self.flat[pos[a:a + rows]]
                yield trips[a:a + rows], pos[a:a + rows], ids, cov.block(ids)

    def trips_containing_all(self, seg_ids: Sequence[int]) -> np.ndarray:
        """Sorted ids of trips whose route traverses every listed segment (all, for none)."""
        if not len(seg_ids):
            return np.arange(self.n_trips)
        return self.block_cover([seg_ids]).indices.astype(np.int64)

    def block_cover(self, blocks: Sequence[Sequence[int]]) -> scipy.sparse.csc_matrix:
        """Trip x block 0/1 matrix C (CSC, int64, sorted rows): C[n, j] = 1 when
        trip n traverses every segment of the nonempty block j, i.e. when the
        int64 count of its hits in j (through a segment x block membership) is j's length."""
        sizes = np.array([len(b) for b in blocks])
        if not sizes.all():
            raise ValueError("block_cover needs nonempty blocks")
        member = scipy.sparse.csc_matrix((np.ones(sizes.sum(), dtype=np.int64),
                                          np.arange(sizes.sum()), np.r_[0, np.cumsum(sizes)]))
        cover = (self.incidence[:, np.concatenate(blocks).astype(np.int64)] @ member).tocsc()
        cover.data = (cover.data == np.repeat(sizes, np.diff(cover.indptr))).astype(np.int64)
        cover.eliminate_zeros()
        cover.sort_indices()
        return cover

    def n_subset(self, seg_ids: Sequence[int]) -> int:
        """Joint traversal count: trips containing every listed segment."""
        return int(self.trips_containing_all(seg_ids).size)

    def pair_counts(self, y: Sequence[int], members: np.ndarray | None = None) -> np.ndarray:
        """Matrix of joint traversal counts over the segments of one route.

        Entry (i, j) counts trips whose route contains both y[i] and y[j]; the
        diagonal holds the traversal counts of y's segments.  With `members`,
        only the listed trips are counted.
        """
        b = self.incidence[:, np.asarray(y, dtype=np.int64)]
        if members is not None:
            b = b[np.asarray(members, dtype=np.int64)]
        # int64, not the incidence's int8: a count passes 127, and
        # check_nb_condition multiplies three counts together.  The slice is
        # a matrix of its own, so only its data is replaced (astype would
        # also copy its indices)
        b.data = b.data.astype(np.int64)
        return (b.T @ b).toarray()

    def quadratic_sums(self, cov: CovarianceModel) -> np.ndarray:
        """Per-trip sums of covariance entries over the route's segment pairs:
        the leading-block sums of each route family's block.  A covariance
        sized for another network raises ValueError."""
        _check_covariance(self.network, cov)
        out = np.empty(self.n_trips)
        for members, lengths, local, ids in self._family_chunks():
            sums = _leading_sums(cov.block(ids))
            out[members] = sums[local, lengths - 1]
        return out

    # -- serialization: one JSON object per line, {"route": [...], "times": [...]}

    def to_jsonl(self, path) -> None:
        flat, bounds = self.flat.tolist(), self.offsets.tolist()
        with open(path, "w") as fh:
            for a, b in zip(bounds, bounds[1:]):
                rec: dict = {"route": flat[a:b]}
                if self.times is not None:
                    rec["times"] = self.times[a:b].tolist()
                fh.write(json.dumps(rec) + "\n")

    @classmethod
    def from_jsonl(cls, network: RoadNetwork, path) -> "TripDataset":
        """Records are checked as they are read, and then all routes at once."""
        ids, offsets, times, timed = [], [0], [], 0
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                # right-stripped only, so a decode error's column is the file's
                line = line.rstrip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ValueError(f"line {number}: not a JSON record ({err.msg} at "
                                     f"column {err.colno})") from None
                if not (isinstance(rec, dict) and isinstance(rec.get("route"), list)):
                    raise ValueError(f"line {number}: a trip record must be an object "
                                     "with a list 'route'")
                ids.extend(rec["route"])
                offsets.append(len(ids))
                if "times" in rec:
                    # per record: two opposite length errors would cancel in the total
                    t = rec["times"]
                    if not isinstance(t, list) or len(t) != len(rec["route"]):
                        raise ValueError(f"trip {len(offsets) - 2} needs one time per segment")
                    # np.array would read true as 1.0 and "1.5" as 1.5; null
                    # reads as NaN, which the dataset rejects as non-finite
                    if not all(x is None or type(x) in (int, float) for x in t):
                        raise ValueError(f"line {number}: times must be JSON numbers")
                    times.extend(t)
                    timed += 1
        if timed not in (0, len(offsets) - 1):
            raise ValueError("either every trip or no trip may carry times")
        offsets = np.array(offsets, dtype=np.int64)
        flat, fault = _route_fault(network, ids, offsets)
        if fault:
            raise ValueError("trip %d: %s" % fault)
        return cls._from_arrays(network, flat, offsets, times if timed else None)

    def __repr__(self) -> str:
        timed = "timed" if self.times is not None else "routes-only"
        return f"TripDataset(p={self.network.p}, trips={self.n_trips}, {timed})"


def synthesize_times(network: RoadNetwork, routes: Sequence[Route],
                     cov: CovarianceModel, prior: PriorSpec,
                     rng: np.random.Generator) -> TripDataset:
    """Generate observed times: one latent theta draw, then per-trip noise.

    theta_s ~ Normal(mu, tau2) independently per segment, drawn once for the
    whole dataset; each trip observes theta over its route plus a correlated
    Gaussian vector with covariance equal to the route's sigma block.  The
    dataset's `times` is one array aligned with its `flat`.  A covariance
    sized for another network raises ValueError.
    """
    _check_covariance(network, cov)
    n = network.n_segments
    theta = prior.mu + np.sqrt(prior.tau2) * rng.standard_normal(n)
    ds = TripDataset(network, routes)
    # one draw in trip order equals the per-trip draws made one after another
    z = rng.standard_normal(ds.flat.size)
    ds.times = theta[ds.flat]
    for _, pos, _, blocks in ds._sigma_blocks(cov):
        ds.times[pos] += np.einsum("nij,nj->ni", _noise_factors(blocks), z[pos])
    ds.theta = theta
    return ds


def _noise_factors(blocks: np.ndarray) -> np.ndarray:
    """(n, L, L) factors F with F F' = each of the (n, L, L) sigma blocks.

    Negative eigenvalues of a block are clipped to zero, which acts only
    within the tolerance the covariance accepts, as mc_risk's clamp does:
    CovarianceModel rejects sigma with lambda_min < -PSD_RTOL * scale, and by
    interlacing no principal submatrix has a smaller eigenvalue.  Only
    synthesize_times factors blocks; mc_risk and risk_affine read a Gram product.
    """
    evals, evecs = np.linalg.eigh(blocks)
    return evecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]


# ---------------------------------------------------------------------------
# neighborhoods


class NeighborhoodKind:
    EXACT_ROUTE = "exact_route"
    OD_EXACT = "od_exact"
    OD_BALL = "od_ball"
    OD_BALL_GROWING = "od_ball_growing"

    ALL = (EXACT_ROUTE, OD_EXACT, OD_BALL, OD_BALL_GROWING)


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Which historical trips count as similar to a predicting route.

    * exact_route: identical segment sequence.
    * od_exact: identical origin and destination.
    * od_ball: pooled endpoint slack, L1(o, o') + L1(d, d') <= 2 * radius.
    * od_ball_growing: per-endpoint slack, L1(o, o') <= c and L1(d, d') <= c
      with c = ceil(fraction * p); the radius scales with the grid.
    """

    kind: str
    radius: int = 0
    fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in NeighborhoodKind.ALL:
            raise ValueError(f"unknown neighborhood kind {self.kind!r}")
        if not _is_count(self.radius):
            raise ValueError(f"radius must be an integer >= 0, got {self.radius!r}")
        if not (_is_finite(self.fraction) and 0 <= self.fraction <= 1):
            raise ValueError(f"fraction must be a real number in [0, 1], got {self.fraction!r}")

    @classmethod
    def exact_route(cls) -> "NeighborhoodSpec":
        return cls(NeighborhoodKind.EXACT_ROUTE)

    @classmethod
    def od_exact(cls) -> "NeighborhoodSpec":
        return cls(NeighborhoodKind.OD_EXACT)

    @classmethod
    def od_ball(cls, radius: int) -> "NeighborhoodSpec":
        return cls(NeighborhoodKind.OD_BALL, radius=radius)

    @classmethod
    def od_ball_growing(cls, fraction: float = 0.1) -> "NeighborhoodSpec":
        return cls(NeighborhoodKind.OD_BALL_GROWING, fraction=fraction)


@dataclass(frozen=True)
class Neighborhood:
    """Resolved neighborhood: the member trip ids for one predicting route."""

    spec: NeighborhoodSpec
    route: Route
    members: np.ndarray

    @property
    def size(self) -> int:
        return int(self.members.size)


def resolve_neighborhood(ds: TripDataset, y, spec: NeighborhoodSpec) -> Neighborhood:
    """Find the historical trips a route-level estimator may pool for y.

    An empty neighborhood is a valid outcome, not an error; the estimator
    then falls back to the prior.  y is a Route or its segment ids, checked by
    `_checked_route`.  This is the one-route case of `resolve_neighborhoods`.
    """
    y = _checked_route(ds, y)
    members = resolve_neighborhoods(ds, TripDataset._one_route(ds.network, y.segment_ids), spec)
    return Neighborhood(spec, y, members.indices.astype(np.int64))


def resolve_neighborhoods(ds: TripDataset, routes: TripDataset,
                          spec: NeighborhoodSpec) -> scipy.sparse.csr_matrix:
    """Neighborhoods of every route of a store, as a route x trip 0/1 matrix.

    Row r lists, in increasing order, the trips of ds that the route-level
    estimator may pool for route r of `routes`.  The members come from the
    dataset's OD-cell index, never from a scan of all trips: each route
    lists the OD cells within its radius (per endpoint, the grid vertices
    within L1 distance, clipped at the grid border) and reads their trips.
    Exact-route members are the od_exact members with the same segments.
    The work grows with the OD cells the routes admit (at most V^2 per route,
    V the grid's vertex count, for a ball that covers the grid), not with
    the trip count.
    """
    net = ds.network
    od = routes.od_array
    n_routes = routes.n_trips
    width = net.p + 1
    vertex = np.arange(width * width)
    # (routes, vertices) L1 distances of every grid vertex to each endpoint
    dist_o = (np.abs(vertex // width - od[:, :1]) + np.abs(vertex % width - od[:, 1:2]))
    dist_d = (np.abs(vertex // width - od[:, 2:3]) + np.abs(vertex % width - od[:, 3:]))
    growing = spec.kind == NeighborhoodKind.OD_BALL_GROWING
    if growing:
        slack = int(np.ceil(spec.fraction * net.p))
    else:
        # od_exact and exact_route start from the ball of radius zero
        slack = 2 * spec.radius if spec.kind == NeighborhoodKind.OD_BALL else 0
    route, origin = np.nonzero(dist_o <= slack)
    # the destination's slack: its own for the growing ball, what the origin
    # left of the pooled slack otherwise
    reach = slack if growing else slack - dist_o[route, origin]
    # the destinations within `reach` of route r are a prefix of its vertices
    # sorted by distance; within[r, t] counts the vertices at distance <= t
    by_dist = np.argsort(dist_d, axis=1, kind="stable")
    far = 2 * net.p  # the largest L1 distance on the grid
    within = np.zeros((n_routes, far + 1), dtype=np.int64)
    np.add.at(within, (np.arange(n_routes)[:, None], dist_d), 1)
    np.cumsum(within, axis=1, out=within)
    take = within[route, np.minimum(reach, far)]
    route, origin = np.repeat(route, take), np.repeat(origin, take)
    dest = by_dist[route, _ranges(np.zeros(take.size, dtype=np.int64), take)]
    # every trip of each cell
    keys, order = ds._od_index
    cell = origin * vertex.size + dest
    lo = np.searchsorted(keys, cell, side="left")
    count = np.searchsorted(keys, cell, side="right") - lo
    route, trip = np.repeat(route, count), order[_ranges(lo, count)]
    if spec.kind == NeighborhoodKind.EXACT_ROUTE:
        route, trip = _same_segments(ds, routes, route, trip)
    keep = np.lexsort((trip, route))
    indptr = np.r_[0, np.cumsum(np.bincount(route, minlength=n_routes))]
    return scipy.sparse.csr_matrix((np.ones(keep.size), trip[keep], indptr),
                                   shape=(n_routes, ds.n_trips))


def _same_segments(ds: TripDataset, routes: TripDataset, route: np.ndarray,
                   trip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (route, trip) pairs whose trip traverses exactly the route's segments."""
    lens = routes.offsets[route + 1] - routes.offsets[route]
    same = lens == ds.offsets[trip + 1] - ds.offsets[trip]
    route, trip, lens = route[same], trip[same], lens[same]
    differ = (ds.flat[_ranges(ds.offsets[trip], lens)]
              != routes.flat[_ranges(routes.offsets[route], lens)])
    pair = np.repeat(np.arange(route.size), lens)
    same = np.bincount(pair, weights=differ, minlength=route.size) == 0
    return route[same], trip[same]


def _id_array(values: Sequence, n_segments: float) -> tuple[np.ndarray, str | None]:
    """The values as int64 ids up to the first that is not an integer in
    [0, n_segments), and the message naming it (None if every one is)."""
    values = values if isinstance(values, (list, tuple, np.ndarray)) else list(values)
    # int and numpy integer ids convert as one array; any other type is a bad id
    if all(t is int or issubclass(t, np.integer) for t in set(map(type, values))):
        with suppress(OverflowError):  # past int64, and so past every segment id
            ids = np.array(values, dtype=np.int64)
            if not np.count_nonzero((ids < 0) | (ids >= n_segments)):
                return ids, None
    first = next(k for k, v in enumerate(values)
                 if not (_is_count(v) and v < n_segments and v < 2 ** 63))
    return (np.array(values[:first], dtype=np.int64),
            f"segment id {values[first]!r} is not an integer in [0, {n_segments})")


def _route_fault(network: RoadNetwork, values: Sequence,
                 offsets: np.ndarray | None = None) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The ids of routes stored back to back, route k at
    values[offsets[k]:offsets[k + 1]] (one route if offsets is None), as one
    int64 array up to any bad id, and the first route that is not a simple
    path of the network with its first fault, in this order: an id that is
    not an integer in [0, n), a repeated segment, a break, a revisited vertex,
    no segment at all (None if every route is a path).
    """
    flat, id_fault = _id_array(values, network.n_segments)
    if offsets is None:  # one route, which holds the bad id if there is one
        offsets = np.array([0, flat.size + (id_fault is not None)])
    cut = np.minimum(offsets, flat.size)
    route = np.searchsorted(cut, np.arange(flat.size), "right") - 1
    q = network.p + 1  # vertex (i, j) is i * q + j
    tails, heads = (network.endpoints.reshape(-1, 2, 2) @ (q, 1))[flat].T
    breaks = np.flatnonzero((heads[:-1] != tails[1:]) & (route[:-1] == route[1:]))
    # a connected path is simple when its heads and its first tail are all
    # distinct; a repeated segment breaks the path or revisits a vertex
    key = route * (q * q)
    starts = cut[:-1][cut[:-1] < cut[1:]]
    first = key[starts] + tails[starts]
    key += heads
    visits = np.concatenate((key, first))
    visits.sort()
    revisits = visits[1:][visits[1:] == visits[:-1]] // (q * q)
    id_route = np.searchsorted(offsets, flat.size, "right") - 1 if id_fault else cut.size - 1
    k = int(min([id_route, *np.flatnonzero(offsets[1:] == offsets[:-1])[:1],
                 *route[breaks[:1]], *revisits[:1]]))
    if k == cut.size - 1:
        return flat, None
    ids = flat[cut[k]:cut[k + 1]].tolist()
    if k == id_route:
        fault = id_fault
    elif len(set(ids)) < len(ids):
        fault = f"route {ids} repeats a segment"
    elif breaks.size and route[breaks[0]] == k:  # no earlier route breaks
        fault = (f"route breaks at {divmod(int(heads[breaks[0]]), q)} -> "
                 f"{divmod(int(tails[breaks[0] + 1]), q)}")
    else:
        fault = "route revisits a vertex" if ids else "a route needs at least one segment"
    return flat, (k, fault)


def _is_finite(value) -> bool:
    """A finite real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_count(value) -> bool:
    """An integer >= 0 that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges [starts[i], starts[i] + counts[i])."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)
