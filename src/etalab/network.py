"""Directed grid road networks and segment adjacency graphs.

A network is a p x p block grid: (p+1)^2 vertices at integer coordinates
(i, j) with 0 <= i, j <= p, and one directed segment for each ordered pair
of horizontally or vertically adjacent vertices.  Both directions of every
undirected edge are distinct segments, so there are 4*p*(p+1) segments in
total.  Segments are indexed lexicographically by (tail_i, tail_j, head_i,
head_j), and that index is the canonical segment id used everywhere else.
"""

from __future__ import annotations

import json
import numbers
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse

__all__ = [
    "Segment",
    "RoadNetwork",
    "SegmentGraph",
    "AdjacencyRule",
    "PAIR_CLASSES",
    "CALIBRATED_CLASS_WEIGHTS",
    "SYMMETRIES",
    "build_grid",
    "classify_pair",
    "segment_graph",
]


@dataclass(frozen=True, order=True)
class Segment:
    """One directed road segment between two adjacent grid vertices."""

    tail: tuple[int, int]
    head: tuple[int, int]

    def __post_init__(self) -> None:
        di, dj = self.direction
        if abs(di) + abs(dj) != 1:
            raise ValueError(f"segment endpoints must be grid-adjacent: {self.tail}->{self.head}")

    @property
    def direction(self) -> tuple[int, int]:
        return (self.head[0] - self.tail[0], self.head[1] - self.tail[1])


# Step directions (di, dj), in the canonical order of a vertex's outgoing segments.
DIRECTIONS = ((-1, 0), (0, -1), (0, 1), (1, 0))

# The grid's three commuting involutions, in the row order of
# `RoadNetwork.symmetries`; every adjacency rule is invariant under each.
SYMMETRIES = ("reflection in i", "reflection in j", "reversal")


class RoadNetwork:
    """Immutable directed grid network with canonical segment indexing.

    `endpoints` holds one row [tail_i, tail_j, head_i, head_j] per segment
    id.  `segment_table[i*(p+1) + j, d]` is the id of the segment leaving
    vertex (i, j) in direction DIRECTIONS[d], or -1 at the grid's edge.
    Segment objects are built from `endpoints` on the first read of `segments`.
    """

    def __init__(self, p: int):
        if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 1:
            raise ValueError(f"grid size p must be an integer >= 1, got {p!r}")
        self.p = int(p)
        width = self.p + 1
        vi, vj = np.divmod(np.arange(width * width), width)
        steps = np.array(DIRECTIONS)
        hi, hj = vi[:, None] + steps[:, 0], vj[:, None] + steps[:, 1]
        inside = (hi >= 0) & (hi <= self.p) & (hj >= 0) & (hj <= self.p)
        # row-major order over (tail vertex, direction) is the canonical order
        self.segment_table = np.full(inside.shape, -1, dtype=np.int64)
        self.segment_table[inside] = np.arange(np.count_nonzero(inside))
        tail = np.nonzero(inside)[0]
        self.endpoints = np.column_stack((vi[tail], vj[tail], hi[inside], hj[inside]))

    @property
    def n_segments(self) -> int:
        return len(self.endpoints)

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(Segment((ti, tj), (hi, hj)) for ti, tj, hi, hj in self.endpoints.tolist())

    @cached_property
    def symmetries(self) -> np.ndarray:
        """(3, n_segments) segment-id permutations, one per name in SYMMETRIES.

        Row k maps each segment id to the id of its image under the k-th
        involution of the grid; each row is one `segment_table` lookup.
        """
        ti, tj, hi, hj = self.endpoints.T
        direction = np.nonzero(self.segment_table >= 0)[1]
        width = self.p + 1
        # reflection in i swaps DIRECTIONS 0 and 3, reflection in j swaps 1
        # and 2, and the reverse leaves the head in direction 3 - d
        return np.stack((
            self.segment_table[(self.p - ti) * width + tj, np.array([3, 1, 2, 0])[direction]],
            self.segment_table[ti * width + self.p - tj, np.array([0, 2, 1, 3])[direction]],
            self.segment_table[hi * width + hj, 3 - direction]))

    def segment(self, seg_id: int) -> Segment:
        return self.segments[seg_id]

    def segment_id(self, tail: tuple[int, int], head: tuple[int, int]) -> int:
        step = Segment(tuple(tail), tuple(head)).direction  # ValueError unless grid-adjacent
        if not all(isinstance(c, numbers.Integral) and 0 <= c <= self.p for c in (*tail, *head)):
            raise KeyError(f"no segment {tuple(tail)}->{tuple(head)} in a p={self.p} grid")
        return int(self.segment_table[tail[0] * (self.p + 1) + tail[1], DIRECTIONS.index(step)])

    def reverse_id(self, seg_id: int) -> int:
        return int(self.symmetries[2][seg_id])

    def path_segments(self, vertices: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """Segment ids for a walk given as a vertex sequence."""
        verts = [tuple(v) for v in vertices]
        if len(verts) < 2:
            raise ValueError("a path needs at least two vertices")
        return tuple(self.segment_id(a, b) for a, b in zip(verts, verts[1:]))

    def to_json(self) -> str:
        return json.dumps({"p": self.p, "segments": self.endpoints.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "RoadNetwork":
        payload = json.loads(text)
        net = cls(payload["p"])
        if payload["segments"] != net.endpoints.tolist():
            raise ValueError("segments must be the full grid segment set in canonical order")
        return net

    def __eq__(self, other) -> bool:
        return isinstance(other, RoadNetwork) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("RoadNetwork", self.p))

    def __repr__(self) -> str:
        return f"RoadNetwork(p={self.p}, segments={self.n_segments})"


def build_grid(p: int) -> RoadNetwork:
    """Build the canonical p x p grid network."""
    return RoadNetwork(p)


def _is_count(value) -> bool:
    """An integer >= 0 that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def _id_array(values, n_segments: float) -> tuple[np.ndarray, str | None]:
    """The values as int64 ids up to the first that is not an integer in
    [0, n_segments), and the message naming it (None if every one is).  An
    integer array of any shape is checked by its min and max alone."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu" and (values.min(initial=0) >= 0
                                          and values.max(initial=0) < n_segments):
            return values.astype(np.int64, copy=False), None
        values = values.ravel().tolist()
    values = values if isinstance(values, (list, tuple)) else list(values)
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


def _checked_ids(values, n_segments: float) -> np.ndarray:
    """`_id_array`'s ids, or its message as a ValueError."""
    ids, fault = _id_array(values, n_segments)
    if fault:
        raise ValueError(fault)
    return ids


# ---------------------------------------------------------------------------
# segment adjacency


PAIR_CLASSES = (
    "straight",
    "turn",
    "parallel_collinear",
    "parallel_perpendicular",
    "reverse",
)

# Anisotropic coupling strengths for the default adjacency rule.  "straight"
# is the reference class; the remaining weights were tuned so that the
# diffusion covariance on the p=3 grid reproduces the bundled reference
# fixture values (see fixtures.py).
CALIBRATED_CLASS_WEIGHTS: Mapping[str, float] = {
    "straight": 1.0,
    "turn": 0.202852439,
    "parallel_collinear": 0.815495406,
    "parallel_perpendicular": 0.062859409,
    "reverse": 2.06929348,
}


class AdjacencyRule:
    """Named rules for which segment pairs count as adjacent, and how strongly."""

    SHARE_ANY_ENDPOINT = "share_any_endpoint"
    HEAD_TO_TAIL_CHAIN = "head_to_tail_chain"
    UNDIRECTED_EDGE_INCIDENCE = "undirected_edge_incidence"
    CALIBRATED = "calibrated"

    ALL = (SHARE_ANY_ENDPOINT, HEAD_TO_TAIL_CHAIN, UNDIRECTED_EDGE_INCIDENCE, CALIBRATED)

    @staticmethod
    def class_weights(rule: str) -> Mapping[str, float]:
        if rule == AdjacencyRule.SHARE_ANY_ENDPOINT:
            return {c: 1.0 for c in PAIR_CLASSES}
        if rule == AdjacencyRule.HEAD_TO_TAIL_CHAIN:
            return {
                "straight": 1.0,
                "turn": 1.0,
                "parallel_collinear": 0.0,
                "parallel_perpendicular": 0.0,
                "reverse": 1.0,
            }
        if rule == AdjacencyRule.UNDIRECTED_EDGE_INCIDENCE:
            return {
                "straight": 1.0,
                "turn": 1.0,
                "parallel_collinear": 1.0,
                "parallel_perpendicular": 1.0,
                "reverse": 0.0,
            }
        if rule == AdjacencyRule.CALIBRATED:
            return dict(CALIBRATED_CLASS_WEIGHTS)
        raise ValueError(f"unknown adjacency rule {rule!r}")


def classify_pair(a: Segment, b: Segment) -> str | None:
    """Classify how two distinct segments relate at their shared endpoint(s).

    Returns one of PAIR_CLASSES, or None when the segments share no endpoint.
    Classes are mutually exclusive; chained pairs (head of one meets tail of
    the other) are split into straight continuations and turns, endpoint-
    sharing non-chained pairs into collinear and perpendicular, and the two
    orientations of one undirected edge form the reverse class.  This is the
    one-pair case of `_pair_classes`.
    """
    if a == b:
        raise ValueError("classify_pair expects two distinct segments")
    k = _pair_classes(np.array([[*a.tail, *a.head]]), np.array([[*b.tail, *b.head]]))[0]
    return PAIR_CLASSES[k] if k >= 0 else None


def _pair_classes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """PAIR_CLASSES index of each pair of distinct segments, -1 where they share no endpoint.

    `a` and `b` hold one [tail_i, tail_j, head_i, head_j] row per pair, as `endpoints` does.
    """
    into_b = np.all(a[:, 2:] == b[:, :2], axis=1)
    into_a = np.all(b[:, 2:] == a[:, :2], axis=1)
    shared_end = np.all(a[:, :2] == b[:, :2], axis=1) | np.all(a[:, 2:] == b[:, 2:], axis=1)
    va, vb = a[:, 2:] - a[:, :2], b[:, 2:] - b[:, :2]
    collinear = va[:, 0] * vb[:, 1] == va[:, 1] * vb[:, 0]
    chained = into_a | into_b
    # first match wins: reverse, straight, turn, parallel_collinear, parallel_perpendicular
    return np.select([into_a & into_b, chained & np.all(va == vb, axis=1), chained,
                      shared_end & collinear, shared_end], [4, 0, 1, 2, 3], -1)


class SegmentGraph:
    """Weighted adjacency over the segments of a network, as a CSR matrix."""

    def __init__(self, network: RoadNetwork, rule: str = AdjacencyRule.CALIBRATED):
        self.network = network
        self.rule = rule
        self.weights = AdjacencyRule.class_weights(rule)
        self.adjacency = _class_adjacency(network, self.weights)

    def __repr__(self) -> str:
        return f"SegmentGraph(p={self.network.p}, rule={self.rule!r})"


def _class_adjacency(network: RoadNetwork,
                     weights: Mapping[str, float]) -> scipy.sparse.csr_matrix:
    """Sparse weighted adjacency, built from the segments incident to each vertex.

    Every related pair shares at least one vertex, so classifying the pairs
    among each vertex's (at most eight) incident segments visits every pair,
    in one pass over `endpoints` whatever the grid size.  A reverse pair
    shares both its vertices and is met twice; it is kept once, and a class
    of weight 0 is not stored.
    """
    ends, table = network.endpoints, network.segment_table
    # the segments entering a vertex are the reverses of those leaving it
    reverse = network.symmetries[2]
    incident = np.hstack((table, np.where(table >= 0, reverse[table], -1)))
    x, y = np.triu_indices(incident.shape[1], k=1)
    i, j = incident[:, x].ravel(), incident[:, y].ravel()
    both = (i >= 0) & (j >= 0)
    i, j = i[both], j[both]
    k = _pair_classes(ends[i], ends[j])
    w = np.array([weights[c] for c in PAIR_CLASSES])[k]
    keep = (w != 0) & ((k != PAIR_CLASSES.index("reverse")) | (i < j))
    # each pair is stored in one orientation, so adding the transpose mirrors it
    half = scipy.sparse.csr_matrix((w[keep], (i[keep], j[keep])), shape=(len(ends),) * 2)
    return half + half.T


def segment_graph(network: RoadNetwork, rule: str = AdjacencyRule.CALIBRATED) -> SegmentGraph:
    """Build the segment adjacency graph for a network under a named rule."""
    return SegmentGraph(network, rule=rule)
