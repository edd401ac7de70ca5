import json
import re

import numpy as np
import pytest

from etalab.network import (
    PAIR_CLASSES,
    AdjacencyRule,
    CALIBRATED_CLASS_WEIGHTS,
    SYMMETRIES,
    RoadNetwork,
    Segment,
    build_grid,
    classify_pair,
    segment_graph,
)


@pytest.mark.parametrize("p,n_vertices,n_segments", [
    (1, 4, 8),
    (3, 16, 48),
    (30, 961, 3720),
])
def test_grid_counts(p, n_vertices, n_segments):
    net = build_grid(p)
    assert net.n_vertices == n_vertices
    assert net.n_segments == n_segments


@pytest.mark.parametrize("p", [0, -2, 2.7, True, "3"], ids=repr)
def test_grid_size_must_be_a_positive_integer(p):
    message = f"grid size p must be an integer >= 1, got {p!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_grid(p)


def test_segment_requires_grid_adjacency():
    Segment((0, 0), (0, 1))
    Segment((2, 1), (1, 1))
    with pytest.raises(ValueError):
        Segment((0, 0), (1, 1))
    with pytest.raises(ValueError):
        Segment((0, 0), (0, 0))
    with pytest.raises(ValueError):
        Segment((0, 0), (0, 2))


def test_segment_direction_and_reverse():
    s = Segment((1, 0), (1, 1))
    assert s.direction == (0, 1)
    assert Segment(s.head, s.tail).direction == (0, -1)


def test_segment_id_roundtrip(grid3):
    for sid in range(grid3.n_segments):
        seg = grid3.segment(sid)
        assert grid3.segment_id(seg.tail, seg.head) == sid
        rid = grid3.reverse_id(sid)
        assert grid3.segment(rid) == Segment(seg.head, seg.tail)
        assert grid3.reverse_id(rid) == sid


@pytest.mark.parametrize("p", [1, 2, 5])
def test_segment_lookups_roundtrip(p):
    net = build_grid(p)
    for sid in range(net.n_segments):
        seg = net.segment(sid)
        assert net.segment_id(seg.tail, seg.head) == sid
        rid = net.reverse_id(sid)
        assert net.segment(rid) == Segment(seg.head, seg.tail)
        assert net.reverse_id(rid) == sid
    # every segment leaves exactly one vertex, from that vertex's row of the
    # table, and its reverse enters that vertex
    table = net.segment_table
    assert sorted(table[table >= 0].tolist()) == list(range(net.n_segments))
    for v, row in zip(net.vertices(), table):
        assert all(net.segment(s).tail == v for s in row[row >= 0])
        assert all(net.segment(net.reverse_id(s)).head == v for s in row[row >= 0])
    for tail, head in (((p, p), (p + 1, p)), ((0.5, 0), (1.5, 0)), ((0, 0.0), (0, 1.0))):
        with pytest.raises(KeyError):
            net.segment_id(tail, head)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_symmetries_map_segments_to_their_images(p):
    net = build_grid(p)
    images = (lambda a, b: (p - a, b), lambda a, b: (a, p - b))
    for sid, seg in enumerate(net.segments):
        for flip, perm in zip(images, net.symmetries[:2]):
            assert net.segment(perm[sid]) == Segment(flip(*seg.tail), flip(*seg.head))
        assert net.segment(net.symmetries[2][sid]) == Segment(seg.head, seg.tail)
    for perm in net.symmetries:
        assert np.array_equal(perm[perm], np.arange(net.n_segments))
    # the three involutions commute
    for a in net.symmetries:
        for b in net.symmetries:
            assert np.array_equal(a[b], b[a])
    assert len(SYMMETRIES) == len(net.symmetries)


def test_segment_ordering_is_canonical(grid3):
    segs = grid3.segments
    assert list(segs) == sorted(segs, key=lambda s: (s.tail, s.head))


def test_out_in_segments(grid3):
    # a vertex's segments: those leaving it from `endpoints`, and entering it
    ends = grid3.endpoints
    for v in grid3.vertices():
        outs = np.flatnonzero((ends[:, :2] == v).all(axis=1))
        ins = np.flatnonzero((ends[:, 2:] == v).all(axis=1))
        assert len(outs) == len(ins)
        row = grid3.segment_table[v[0] * (grid3.p + 1) + v[1]]
        assert np.array_equal(row[row >= 0], outs)
        assert sorted(grid3.reverse_id(s) for s in outs) == ins.tolist()
    # corner degree 2, edge degree 3, interior degree 4
    degree = (grid3.segment_table >= 0).sum(axis=1).reshape(4, 4)
    assert (degree[0, 0], degree[0, 1], degree[1, 1]) == (2, 3, 4)


def test_path_segments(grid3):
    path = [(1, 0), (1, 1), (2, 1), (3, 1)]
    ids = grid3.path_segments(path)
    assert len(ids) == 3
    for sid, (tail, head) in zip(ids, zip(path, path[1:])):
        seg = grid3.segment(sid)
        assert (seg.tail, seg.head) == (tail, head)
    with pytest.raises(ValueError):
        grid3.path_segments([(0, 0), (1, 1)])


def test_json_roundtrip(grid3):
    text = grid3.to_json()
    again = RoadNetwork.from_json(text)
    assert again == grid3
    assert again.segments == grid3.segments
    assert again.to_json() == text
    payload = json.loads(text)
    assert payload["p"] == 3
    assert len(payload["segments"]) == 48
    # a payload is outside input: only the canonical segment list for p loads
    segs = payload["segments"]
    for bad in ([segs[1], segs[0], *segs[2:]], segs[:17] + segs[18:]):
        with pytest.raises(ValueError, match="canonical order"):
            RoadNetwork.from_json(json.dumps({"p": 3, "segments": bad}))


def test_classify_pair_cases(grid3):
    sid = grid3.segment_id
    seg = grid3.segment

    def cls(a, b):
        return classify_pair(seg(sid(*a)), seg(sid(*b)))

    assert cls(((0, 0), (0, 1)), ((0, 1), (0, 0))) == "reverse"
    assert cls(((0, 0), (0, 1)), ((0, 1), (0, 2))) == "straight"
    assert cls(((0, 0), (0, 1)), ((0, 1), (1, 1))) == "turn"
    assert cls(((0, 1), (0, 0)), ((0, 1), (0, 2))) == "parallel_collinear"
    assert cls(((0, 1), (0, 0)), ((0, 1), (1, 1))) == "parallel_perpendicular"
    assert cls(((0, 0), (0, 1)), ((2, 1), (2, 2))) is None


def test_classify_pair_symmetric(grid3):
    rng = np.random.default_rng(7)
    picks = rng.integers(0, grid3.n_segments, size=(200, 2))
    for a, b in picks:
        if a == b:
            continue
        sa, sb = grid3.segment(int(a)), grid3.segment(int(b))
        assert classify_pair(sa, sb) == classify_pair(sb, sa)


@pytest.mark.parametrize("rule", [
    AdjacencyRule.SHARE_ANY_ENDPOINT,
    AdjacencyRule.HEAD_TO_TAIL_CHAIN,
    AdjacencyRule.UNDIRECTED_EDGE_INCIDENCE,
    AdjacencyRule.CALIBRATED,
])
def test_adjacency_symmetric_zero_diag(grid3, rule):
    g = segment_graph(grid3, rule=rule)
    a = g.adjacency.toarray()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0.0)


def test_share_any_endpoint_min_degree_p1():
    g = segment_graph(build_grid(1), rule=AdjacencyRule.SHARE_ANY_ENDPOINT)
    assert g.adjacency.toarray().sum(axis=1).min() >= 3


def test_rule_class_weights(grid3):
    g = segment_graph(grid3, rule=AdjacencyRule.CALIBRATED)
    rng = np.random.default_rng(11)
    picks = rng.integers(0, grid3.n_segments, size=(300, 2))
    for a, b in picks:
        if a == b:
            continue
        kind = classify_pair(grid3.segment(int(a)), grid3.segment(int(b)))
        expected = CALIBRATED_CLASS_WEIGHTS[kind] if kind else 0.0
        assert g.adjacency[a, b] == pytest.approx(expected, abs=0.0)


def test_undirected_incidence_excludes_reverse(grid3):
    g = segment_graph(grid3, rule=AdjacencyRule.UNDIRECTED_EDGE_INCIDENCE)
    for sid in range(grid3.n_segments):
        assert g.adjacency[sid, grid3.reverse_id(sid)] == 0.0


def test_chain_rule_links_reverse(grid3):
    g = segment_graph(grid3, rule=AdjacencyRule.HEAD_TO_TAIL_CHAIN)
    for sid in range(0, grid3.n_segments, 5):
        assert g.adjacency[sid, grid3.reverse_id(sid)] == 1.0


def test_calibrated_weights_frozen():
    assert set(CALIBRATED_CLASS_WEIGHTS) == set(PAIR_CLASSES)
    assert CALIBRATED_CLASS_WEIGHTS["straight"] == 1.0
    for w in CALIBRATED_CLASS_WEIGHTS.values():
        assert 0.0 < w < 2.5


def _classify_reference(a, b):
    """Scalar pair classification, written out case by case."""
    if a.tail == b.head and a.head == b.tail:
        return "reverse"
    va, vb = a.direction, b.direction
    if a.head == b.tail or b.head == a.tail:
        return "straight" if va == vb else "turn"
    if a.tail == b.tail or a.head == b.head:
        cross = va[0] * vb[1] - va[1] * vb[0]
        return "parallel_collinear" if cross == 0 else "parallel_perpendicular"
    return None


def _adjacency_reference(net, weights):
    """The per-vertex loop: classify every pair of segments incident to a vertex."""
    a = np.zeros((net.n_segments, net.n_segments))
    ends = net.endpoints
    for v in net.vertices():
        ids = np.flatnonzero((ends[:, :2] == v).all(axis=1) | (ends[:, 2:] == v).all(axis=1))
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                i, j = ids[x], ids[y]
                cls = _classify_reference(net.segment(i), net.segment(j))
                if cls is not None:
                    a[i, j] = a[j, i] = weights[cls]
    return a


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("rule", AdjacencyRule.ALL)
def test_adjacency_matches_per_vertex_loop(p, rule):
    net = build_grid(p)
    got = segment_graph(net, rule=rule).adjacency
    reference = _adjacency_reference(net, AdjacencyRule.class_weights(rule))
    assert got.format == "csr" and got.dtype == np.float64
    assert np.array_equal(got.toarray(), reference)
    # no stored zeros (weight-0 classes) and no doubled reverse pairs
    assert got.nnz == np.count_nonzero(reference)


def test_classify_pair_matches_reference_on_every_pair():
    segs = build_grid(2).segments
    for a in segs:
        for b in segs:
            if a != b:
                assert classify_pair(a, b) == _classify_reference(a, b)
