"""Trip generation: origin-destination law, route law, and trip datasets.

A trip is a simple directed route (a contiguous segment path) plus, when
synthesized, one observed travel time per traversed segment.  Datasets keep
routes in flattened arrays and a sparse trip x segment incidence matrix,
from which every traversal counter the estimators use is derived.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse
from scipy import stats

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

_RESAMPLE_CAP = 10 ** 6

# bytes of covariance blocks that TripDataset._sigma_blocks gathers at once:
# small enough that a few chunks in flight stay far below the n x n arrays
_BLOCK_BYTES = 4 * 2 ** 20


@dataclass(frozen=True)
class PriorSpec:
    """Independent segment-time prior: theta_s ~ Normal(mu, tau2)."""

    mu: float
    tau2: float

    def __post_init__(self) -> None:
        if self.tau2 <= 0:
            raise ValueError("prior variance tau2 must be positive")


@dataclass(frozen=True)
class Route:
    """A simple directed path through the network."""

    segment_ids: tuple[int, ...]
    origin: tuple[int, int]
    destination: tuple[int, int]

    @classmethod
    def from_segments(cls, network: RoadNetwork, segment_ids: Sequence[int]) -> "Route":
        ids = tuple(int(i) for i in segment_ids)
        if not ids:
            raise ValueError("a route needs at least one segment")
        segs = [network.segment(i) for i in ids]
        for a, b in zip(segs, segs[1:]):
            if a.head != b.tail:
                raise ValueError(f"route breaks at {a.head} -> {b.tail}")
        # a connected path is simple when its heads and its first tail are all
        # distinct (a repeated segment repeats its head)
        heads = {s.head for s in segs}
        if len(heads) != len(segs) or segs[0].tail in heads:
            raise ValueError("route revisits a vertex")
        return cls(ids, segs[0].tail, segs[-1].head)

    @classmethod
    def from_vertices(cls, network: RoadNetwork, vertices: Sequence[tuple[int, int]]) -> "Route":
        return cls.from_segments(network, network.path_segments(vertices))

    def __len__(self) -> int:
        return len(self.segment_ids)


class ODLaw:
    """Origin-destination sampling law on a p-grid.

    All four endpoint coordinates are iid beta-binomial(p, alpha, alpha)
    draws, which concentrates trips near the grid edges for alpha < 1 and is
    uniform at alpha = 1.  Draws with origin equal to destination are
    rejected and resampled.
    """

    def __init__(self, p: int, alpha: float):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if p < 1:
            raise ValueError("grid size p must be at least 1")
        self.p = int(p)
        self.alpha = float(alpha)
        self._dist = stats.betabinom(self.p, self.alpha, self.alpha)

    def pmf(self, k) -> np.ndarray | float:
        return self._dist.pmf(k)

    def pmf_vector(self) -> np.ndarray:
        return self._dist.pmf(np.arange(self.p + 1))

    def sample_od(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, 4) array of [oi, oj, di, dj] rows with origin != destination."""
        out = np.empty((size, 4), dtype=np.int64)
        need = np.arange(size)
        drawn = 0
        while need.size:
            drawn += need.size
            if drawn > _RESAMPLE_CAP:
                raise RuntimeError("origin-destination rejection sampling exceeded cap")
            block = self._dist.rvs(size=(need.size, 4), random_state=rng)
            out[need] = block
            same = (out[need, 0] == out[need, 2]) & (out[need, 1] == out[need, 3])
            need = need[same]
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
    `rng.integers(0, 2, size=n)`, in that order.
    """
    od = law.sample_od(rng, n)
    coins = rng.integers(0, 2, size=n)
    oi, oj, di, dj = od.T
    # each trip's two straight legs in travel order: step counts and codes
    # into DIRECTIONS; an aligned trip has an empty leg, so its coin is moot
    steps = np.column_stack((np.abs(di - oi), np.abs(dj - oj)))
    codes = np.column_stack((np.where(di > oi, 3, 0), np.where(dj > oj, 2, 1)))
    j_first = coins == 0
    steps[j_first] = steps[j_first, ::-1]
    codes[j_first] = codes[j_first, ::-1]
    offsets = np.r_[0, np.cumsum(steps.sum(axis=1))]
    code = np.repeat(codes.ravel(), steps.ravel())
    width = network.p + 1
    move = np.array([a * width + b for a, b in DIRECTIONS])[code]
    # one running sum of the vertex moves gives every step's head, once each
    # trip's first move also jumps from the previous destination to its origin
    vertex = move.copy()
    vertex[offsets[:-1]] += (oi * width + oj) - np.r_[0, (di * width + dj)[:-1]]
    np.cumsum(vertex, out=vertex)
    vertex -= move  # now the tail of each step
    return TripDataset._from_arrays(network, network.segment_table[vertex, code], offsets)


class TripDataset:
    """Historical trips over one network, with counters for the estimators.

    The routes are stored back to back: trip n traverses the segment ids
    flat[offsets[n]:offsets[n + 1]].  `times`, like prediction coefficients,
    is one float64 array aligned with `flat`, or None for a routes-only store.
    Route objects are built from these arrays only when `routes` is first read.
    """

    def __init__(self, network: RoadNetwork, routes: Sequence[Route],
                 times: np.ndarray | None = None):
        routes = tuple(routes)
        self.network = network
        self.offsets = np.cumsum([0] + [len(r) for r in routes], dtype=np.int64)
        self.flat = np.fromiter((s for r in routes for s in r.segment_ids),
                                dtype=np.int64, count=int(self.offsets[-1]))
        if times is not None:
            times = np.asarray(times, dtype=np.float64)
            if times.shape != self.flat.shape:
                raise ValueError(f"times must have the shape of flat, not {times.shape}")
        self.times = times
        self.theta = None  # the latent segment times, set by synthesize_times

    @classmethod
    def _from_arrays(cls, network: RoadNetwork, flat: np.ndarray,
                     offsets: np.ndarray) -> "TripDataset":
        """A routes-only dataset over arrays that already hold valid paths."""
        ds = cls(network, ())
        ds.flat, ds.offsets = flat, offsets
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
        """Trip x segment 0/1 matrix A (CSC, int32): row n marks the segments of trip n.

        Column s lists the trips through segment s, so the joint counts over
        a route y, A[:, y]' A[:, y], read only y's columns.
        """
        ones = np.ones(self.flat.size, dtype=np.int32)
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
        """The trip of every entry of `flat`, for arrays aligned with it."""
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

    def _sigma_blocks(self, cov: CovarianceModel, select: np.ndarray | None = None
                      ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Trips' covariance blocks in chunks: (trips, pos, ids, blocks).

        Per chunk of same-length trips: their ids, their (n, L) positions in
        `flat`, the (n, L) segment ids there, and the (n, L, L) blocks
        sigma[r, r] of their routes r.  Chunks walk the route lengths in
        increasing order and the trips in id order, and hold at most
        _BLOCK_BYTES of blocks (one trip's block when that alone is larger).
        `select`, a boolean per trip, keeps only the marked trips.
        """
        sigma = cov.sigma
        lens = np.diff(self.offsets)
        for length in np.unique(lens):
            trips = np.flatnonzero((lens == length) & (True if select is None else select))
            pos = self.offsets[trips, None] + np.arange(length)
            rows = max(1, _BLOCK_BYTES // (sigma.itemsize * length * length))
            for a in range(0, trips.size, rows):
                ids = self.flat[pos[a:a + rows]]
                yield (trips[a:a + rows], pos[a:a + rows], ids,
                       sigma[ids[:, :, None], ids[:, None, :]])

    def trips_containing(self, seg_id: int) -> np.ndarray:
        """Sorted ids of trips whose route traverses the segment."""
        return self.trips_containing_all([seg_id])

    def trips_containing_all(self, seg_ids: Sequence[int]) -> np.ndarray:
        """Sorted ids of trips whose route traverses every listed segment."""
        ids = np.unique(np.asarray(seg_ids, dtype=np.int64))
        hits = np.asarray(self.incidence[:, ids].sum(axis=1)).ravel()
        return np.flatnonzero(hits == ids.size)

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
        # int64: check_nb_condition multiplies three counts together
        return (b.T @ b).toarray().astype(np.int64)

    def subset_counts(self, members: np.ndarray) -> np.ndarray:
        """Per-segment traversal counts restricted to the listed trips."""
        members = np.asarray(members, dtype=np.int64)
        starts = self.offsets[members]
        entries = _ranges(starts, self.offsets[members + 1] - starts)
        return np.bincount(self.flat[entries], minlength=self.network.n_segments)

    def quadratic_sums(self, cov: CovarianceModel) -> np.ndarray:
        """Per-trip sums of covariance entries over the route's segment pairs."""
        out = np.zeros(self.n_trips)
        for trips, _, _, blocks in self._sigma_blocks(cov):
            out[trips] = blocks.sum(axis=(1, 2))
        return out

    def segment_time_sums(self, center: float = 0.0) -> np.ndarray:
        """Per-segment sums of the observed times minus `center`: one bincount over `flat`."""
        if self.times is None:
            raise ValueError("dataset has no observed times")
        return np.bincount(self.flat, weights=self.times - center,
                           minlength=self.network.n_segments)

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
        routes, times, timed = [], [], 0
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                routes.append(Route.from_segments(network, rec["route"]))
                if "times" in rec:
                    # per record: two opposite length errors would cancel in the total
                    t = rec["times"]
                    if not isinstance(t, list) or len(t) != len(routes[-1]):
                        raise ValueError(f"trip {len(routes) - 1} needs one time per segment")
                    times.extend(t)
                    timed += 1
        if timed not in (0, len(routes)):
            raise ValueError("either every trip or no trip may carry times")
        return cls(network, routes, np.array(times, dtype=np.float64) if timed else None)

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
    dataset's `times` is one array aligned with its `flat`.
    """
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
    synthesize_times factors blocks; mc_risk and risk_affine read c' sigma c.
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
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if not (0 <= self.fraction <= 1):
            raise ValueError("fraction must lie in [0, 1]")

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


def resolve_neighborhood(ds: TripDataset, y: Route, spec: NeighborhoodSpec) -> Neighborhood:
    """Find the historical trips a route-level estimator may pool for y.

    An empty neighborhood is a valid outcome, not an error; the estimator
    then falls back to the prior.  This is the one-route case of
    `resolve_neighborhoods`.
    """
    members = resolve_neighborhoods(ds, TripDataset._one_route(ds.network, y.segment_ids),
                                    spec)
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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges [starts[i], starts[i] + counts[i])."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)
