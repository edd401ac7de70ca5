import io
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from etalab.covariance import (
    CovarianceModel,
    FeatureLaw,
    _orbits,
    _symmetry_blocks,
    assumption_diagnostics,
    diffusion_covariance,
    explicit_covariance,
    gram_covariance,
    normalized_laplacian,
)
from etalab.fixtures import (
    CALIBRATED_DIFFUSION,
    merge_covariance,
    negcov_covariance,
    reference_covariance,
    reference_route,
)
from etalab.network import AdjacencyRule, build_grid, segment_graph


class _StubGraph:
    def __init__(self, adjacency):
        self.adjacency = np.asarray(adjacency, dtype=np.float64)


def test_laplacian_two_node_complete():
    graph = _StubGraph([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(normalized_laplacian(graph).toarray(), expected)


def test_laplacian_matches_definition():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 1.0, size=(6, 6))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    graph = _StubGraph(a)
    d = a.sum(axis=1)
    d_inv_half = np.diag(1.0 / np.sqrt(d))
    lap = np.diag(d) - a
    assert np.allclose(normalized_laplacian(graph).toarray(), d_inv_half @ lap @ d_inv_half,
                       atol=1e-12)


def test_laplacian_zero_degree_rejected():
    graph = _StubGraph([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="degree"):
        normalized_laplacian(graph)


def test_laplacian_eigenvalues_bounded(grid3):
    graph = segment_graph(grid3, rule=AdjacencyRule.SHARE_ANY_ENDPOINT)
    lap = normalized_laplacian(graph)
    evals = np.linalg.eigvalsh(lap.toarray())
    assert evals[0] >= -1e-9
    assert evals[-1] <= 2.0 + 1e-9


def test_covariance_model_validation():
    with pytest.raises(ValueError, match="square"):
        CovarianceModel(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceModel(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="min eigenvalue"):
        explicit_covariance(2, {(0, 0): 1.0, (1, 1): 1.0, (0, 1): -1.1})
    for bad in (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.diag([1.0, np.inf]),
                np.diag([-np.inf, 1.0]), np.diag([1.0, 2.0, np.nan])):
        with pytest.raises(ValueError, match="finite entries"):
            CovarianceModel(bad)


def test_explicit_covariance_boundary_psd_accepted():
    # exactly singular 2x2 block on the diagonal still passes
    cov = explicit_covariance(3, {(0, 0): 1.0, (1, 1): 1.0, (0, 1): 1.0})
    assert cov.min_eigenvalue() >= -1e-8
    negcov_covariance()
    merge_covariance()


def test_precision_inverts_sigma():
    cov = reference_covariance()
    eye = cov.precision @ cov.sigma
    assert np.allclose(eye, np.eye(cov.n_segments), atol=1e-8)


def test_pair_sum():
    cov = negcov_covariance()
    y = reference_route().segment_ids
    # 2 unit diagonals plus twice the -0.9 cross term
    assert cov.pair_sum(y, y) == pytest.approx(0.2, abs=1e-12)
    assert cov.pair_sum(y, ()) == 0.0
    s, t = y
    assert cov.pair_sum([s], [t]) == pytest.approx(cov.sigma[s, t])
    rng = np.random.default_rng(5)
    a = list(rng.integers(0, cov.n_segments, size=4))
    b = list(rng.integers(0, cov.n_segments, size=3))
    assert cov.pair_sum(a, b) == pytest.approx(cov.pair_sum(b, a))


def test_diffusion_identity_limit(grid3):
    graph = segment_graph(grid3)
    cov = diffusion_covariance(graph, u=1.0, v=0.0, white=0.25)
    assert np.array_equal(cov.sigma, 1.25 * np.eye(grid3.n_segments))


def test_diffusion_offdiag_nonneg_calibrated():
    cov = reference_covariance()
    assert cov.sigma.min() >= 0.0
    assert CALIBRATED_DIFFUSION["white"] == 0.0


def test_gram_unit_interval_entry():
    cov = gram_covariance(1, m=1, law=FeatureLaw.UNIF_0_1, seed=9)
    v = float(cov.sigma[0, 0])
    assert 0.0 <= v <= 1.0


@pytest.mark.parametrize("law,target,var_prod", [
    (FeatureLaw.UNIF_NEG1_1, 0.0, 1.0 / 9.0),
    (FeatureLaw.UNIF_0_1, 1.0 / 400.0, 7.0 / 144.0),  # 1/(4m)
])
def test_gram_offdiag_mean(law, target, var_prod):
    m = 100
    cov = gram_covariance(40, m=m, law=law, seed=123)
    off = cov.sigma[~np.eye(40, dtype=bool)]
    # entries are correlated, so bound the error of their average by the
    # standard deviation of a single entry: sqrt(m * var_prod) / m^2
    se = np.sqrt(var_prod / m) / m
    assert abs(off.mean() - target) <= 3.0 * se


def test_gram_deterministic_by_seed():
    a = gram_covariance(10, m=7, law=FeatureLaw.UNIF_0_1, seed=42)
    b = gram_covariance(10, m=7, law=FeatureLaw.UNIF_0_1, seed=42)
    c = gram_covariance(10, m=7, law=FeatureLaw.UNIF_0_1, seed=43)
    assert np.array_equal(a.sigma, b.sigma)
    assert not np.array_equal(a.sigma, c.sigma)


def test_gram_psd_and_nonneg():
    cov = gram_covariance(25, m=4, law=FeatureLaw.UNIF_0_1, seed=2)
    assert cov.sigma.min() >= 0.0
    assert cov.min_eigenvalue() >= -1e-12


def test_csv_roundtrip():
    cov = reference_covariance()
    buf = io.StringIO()
    cov.to_csv(buf)
    buf.seek(0)
    again = CovarianceModel.from_csv(buf)
    assert np.array_equal(again.sigma, cov.sigma)


@pytest.mark.parametrize("bad", [-1, 0.7, 48, True, np.float64(2.0)], ids=repr)
def test_a_bad_segment_id_is_rejected_by_both_backends(bad):
    # unchecked, the orbit-table model read -1 as segment 47 and 0.7 as
    # segment 0, and the dense model raised numpy's "invalid entry in
    # coordinates array" for -1 and truncated 0.7
    graph = segment_graph(build_grid(3))
    table = diffusion_covariance(graph, u=1.0, v=1.0, white=1.0)
    dense = CovarianceModel(table.sigma)
    assert table._table is not None and dense._table is None
    message = re.escape(f"segment id {bad!r} is not an integer in [0, 48)")
    for cov in (table, dense):
        for call in (lambda: cov.block([0, bad]), lambda: cov.precision_block([bad]),
                     lambda: cov.pair_sum([0], [bad]), lambda: cov.pair_sum([bad], []),
                     lambda: assumption_diagnostics(cov, routes=[[bad, 0]])):
            with pytest.raises(ValueError, match=message):
                call()
    # unchecked, 0.7 passed the range test and failed inside numpy, and True
    # read as segment 1
    with pytest.raises(ValueError, match=message):
        explicit_covariance(48, {(0, bad): 0.1})


def test_assumption_diagnostics():
    cov = reference_covariance()
    y = reference_route()
    out = assumption_diagnostics(cov, routes=[y.segment_ids])
    assert out["n_routes_checked"] == 1
    assert out["min_diag_sigma"] > 0.0
    assert out["route_block_min_eigenvalue"] > 0.0
    assert out["max_abs_row_sum_sigma"] >= out["min_diag_sigma"]


def test_csv_rejects_non_psd():
    # a CSV is outside input: it is validated like any other matrix
    buf = io.StringIO("0,1\n1.0\n-1.1,1.0\n")
    with pytest.raises(ValueError, match="min eigenvalue"):
        CovarianceModel.from_csv(buf)


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank_lines"])
def test_csv_rejects_empty_file(text):
    with pytest.raises(ValueError, match="empty"):
        CovarianceModel.from_csv(io.StringIO(text))


def _spectrum_cases():
    graph = segment_graph(build_grid(3), rule=AdjacencyRule.SHARE_ANY_ENDPOINT)
    yield "reference", reference_covariance
    for u, v, white in [(1.0, 1.0, 0.0), (2.0, 0.5, 0.3), (0.7, 3.0, 1.0)]:
        yield f"diffusion-{u}-{v}-{white}", lambda u=u, v=v, white=white: \
            diffusion_covariance(graph, u=u, v=v, white=white)
    yield "diffusion-v0", lambda: diffusion_covariance(graph, u=1.0, v=0.0, white=0.25)
    yield "gram-low-rank", lambda: gram_covariance(48, 3)
    yield "gram-full-rank", lambda: gram_covariance(10, 20, law=FeatureLaw.UNIF_0_1, seed=1)
    yield "explicit", negcov_covariance


@pytest.mark.parametrize("name,build", list(_spectrum_cases()),
                         ids=[name for name, _ in _spectrum_cases()])
def test_stored_spectrum_matches_eigvalsh(name, build):
    cov = build()
    for model in (cov, _csv_roundtrip(cov)):
        exact = np.linalg.eigvalsh(model.sigma)
        tol = 1e-12 * max(1.0, float(exact[-1]))
        assert model.eigenvalues.shape == exact.shape
        assert np.all(np.diff(model.eigenvalues) >= 0.0)
        assert np.max(np.abs(model.eigenvalues - exact)) <= tol
        assert model.rank == np.linalg.matrix_rank(model.sigma, hermitian=True)


def _csv_roundtrip(cov):
    buf = io.StringIO()
    cov.to_csv(buf)
    buf.seek(0)
    return CovarianceModel.from_csv(buf)


_EIGEN_SOLVERS = [(np.linalg, "eigvalsh"), (np.linalg, "eigh"), (scipy.linalg, "eigh")]


def _count_calls(monkeypatch):
    calls = []
    for mod, name in _EIGEN_SOLVERS:
        def counted(*args, _orig=getattr(mod, name), _name=name, **kwargs):
            calls.append((_name, np.shape(args[0])))
            return _orig(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_one_eigen_solve_per_construction(monkeypatch):
    graph = segment_graph(build_grid(3))
    n = graph.network.n_segments
    calls = _count_calls(monkeypatch)
    diffusion_covariance(graph, u=1.0, v=1.0, white=0.5)
    # one eigh per symmetry block of the Laplacian, none of them n x n; sigma's
    # spectrum follows from theirs
    assert calls and all(name == "eigh" for name, _ in calls)
    assert all(shape[0] < n for _, shape in calls)
    assert sum(shape[0] for _, shape in calls) == n
    for build in (lambda: gram_covariance(n, 3), negcov_covariance):
        calls.clear()
        build()
        assert calls == [("eigvalsh", (n, n))]
    # at v = 0 sigma is (u + white) I, whose spectrum is its diagonal
    calls.clear()
    cov = diffusion_covariance(graph, u=1.0, v=0.0, white=0.5)
    assert calls == []
    assert np.array_equal(cov.eigenvalues, np.full(n, 1.5))


def test_spectrum_consumers_run_no_eigen_solve(monkeypatch):
    cov = diffusion_covariance(segment_graph(build_grid(3)), u=1.0, v=1.0, white=0.5)
    singular = gram_covariance(48, 3)

    def boom(*args, **kwargs):
        raise AssertionError("second eigen solve of sigma")

    for mod, name in _EIGEN_SOLVERS:
        monkeypatch.setattr(mod, name, boom)
    cov.validate_psd()
    assert cov.min_eigenvalue() == cov.eigenvalues[0]
    assert cov.rank == cov.n_segments
    assert np.allclose(cov.precision @ cov.sigma, np.eye(cov.n_segments), atol=1e-10)
    out = assumption_diagnostics(cov)
    assert out["rank"] == cov.n_segments
    assert out["max_eigenvalue"] == cov.eigenvalues[-1]
    assert out["max_abs_row_sum_precision"] > 0.0
    assert assumption_diagnostics(singular)["max_abs_row_sum_precision"] is None


def test_rank_deficient_precision_raises():
    cov = gram_covariance(48, 3)
    assert cov.rank == 3
    with pytest.raises(np.linalg.LinAlgError, match="rank 3 of 48"):
        cov.precision


@pytest.mark.parametrize("p", [3, 10, 20])
def test_diffusion_sigma_is_exactly_symmetric(p):
    """The orbit table T[h] is a signed sum of exactly symmetric kernels
    M_k = F_k F_k', so the gathered kernel is exactly symmetric and is
    stored as built, with no symmetrising copy."""
    graph = segment_graph(build_grid(p), rule=AdjacencyRule.CALIBRATED)
    sigma = diffusion_covariance(graph, u=1.0, v=1.0, white=1.0).sigma
    assert np.array_equal(sigma, sigma.T)


@pytest.mark.parametrize("p", [20, 30])
def test_diffusion_build_holds_no_dense_array(p):
    """The graph and its Laplacian are sparse, and sigma and its precision
    are kept as orbit tables of about n^2 / 8 entries each, so the build
    forms no n x n array: its traced peak stays under half of one (0.48 at
    p = 20, 0.45 at p = 30; at p = 10 the sparse Laplacian and the tables'
    padding, 8 m^2 = 1.19 n^2 / 8, take it to 0.62)."""
    net = build_grid(p)
    n = net.n_segments
    graph = segment_graph(net)
    tracemalloc.start()
    try:
        cov = diffusion_covariance(graph, u=1.0, v=1.0, white=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * n * n * 8
    assert "sigma" not in cov.__dict__


def _xxt_diffusion(graph, u, v, white):
    """The heat kernel as u X X' + white I with X = [B_k E_k diag(e^{-v
    lambda_k / 2})] over the symmetry blocks: one n x n X and an n^3 product."""
    lap = normalized_laplacian(graph)
    n = lap.shape[0]
    x = np.empty((n, n))
    col = 0
    for block in _symmetry_blocks(_orbits(graph.network.symmetries)):
        b = block.basis
        evals, evecs = np.linalg.eigh((b.T @ lap @ b).toarray())
        x[:, col:col + evals.size] = b @ (evecs * np.sqrt(np.exp(-v * evals)))
        col += evals.size
    sigma = x @ x.T
    sigma *= u
    sigma[np.diag_indices(n)] += white
    return sigma


@pytest.mark.parametrize("p", range(1, 7))
def test_orbit_table_sigma_matches_the_xxt_build(p):
    """Within 1e-15 of sigma's largest entry, about 4 ulp: the two builds
    differ only in how they round the sums.  p=1 has empty blocks and
    stabilisers of every order."""
    net = build_grid(p)
    for rule in AdjacencyRule.ALL:
        graph = segment_graph(net, rule=rule)
        for white in (0.0, 1.0):
            sigma = diffusion_covariance(graph, u=1.0, v=1.0, white=white).sigma
            reference = _xxt_diffusion(graph, 1.0, 1.0, white)
            assert np.max(np.abs(sigma - reference)) <= 1e-15 * np.abs(reference).max()


# the (u, v, white) of the precision tests: white = 0 only at v <= 3, where
# sigma stays well conditioned
_DIFFUSION_PARAMS = [(1.0, 1.0, 0.0), (2.0, 0.5, 0.3), (0.7, 3.0, 0.0), (1.5, 10.0, 1.0)]


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7])
def test_sigma_table_reads_match_the_xxt_build(p):
    """block and entries gather from sigma's orbit table, white noise
    included, within 2e-15 of the X X' build's largest entry (the worst seen
    is 1.3e-15), and form no dense sigma."""
    rng = np.random.default_rng(p)
    for rule in AdjacencyRule.ALL:
        graph = segment_graph(build_grid(p), rule=rule)
        for u, v, white in _DIFFUSION_PARAMS:
            cov = diffusion_covariance(graph, u=u, v=v, white=white)
            reference = _xxt_diffusion(graph, u, v, white)
            tol = 2e-15 * np.abs(reference).max()
            for ids in _precision_id_sets(cov, rng):
                idx = np.asarray(ids, dtype=np.intp)
                block = cov.block(ids)
                assert block.shape == (idx.size, idx.size)
                assert np.all(np.abs(block - reference[np.ix_(idx, idx)]) <= tol)
            s, t = rng.integers(0, cov.n_segments, size=(2, 3, 40))
            assert np.max(np.abs(cov.entries(s, t) - reference[s, t])) <= tol
            assert cov.entries(s[0, 0], t[0, 0]) == cov.entries(s, t)[0, 0]
            assert "sigma" not in cov.__dict__


def test_block_is_the_dense_sigma_block_bit_for_bit():
    """block(ids) equals sigma[np.ix_(ids, ids)] exactly, for a model with an
    orbit table (whose sigma is gathered after the reads) and for dense
    ones; (..., L) ids give each row's block, and entries and pair_sum read
    the same floats."""
    rng = np.random.default_rng(7)
    graph = segment_graph(build_grid(5))
    table = diffusion_covariance(graph, u=1.0, v=1.0, white=0.5)
    copy = _csv_roundtrip(diffusion_covariance(graph, u=1.0, v=1.0, white=0.5))
    for cov in (table, diffusion_covariance(graph, u=1.0, v=0.0, white=0.5),
                gram_covariance(120, 40), copy):
        n = cov.n_segments
        batch = np.array([rng.permutation(n)[:7] for _ in range(6)]).reshape(2, 3, 7)
        blocks = cov.block(batch)
        s, t = rng.integers(0, n, size=(2, 50))
        entries = cov.entries(s[:, None], t)
        assert ("sigma" in cov.__dict__) == (cov is not table)
        assert blocks.shape == (2, 3, 7, 7)
        for ids, block in zip(batch.reshape(-1, 7), blocks.reshape(-1, 7, 7)):
            assert np.array_equal(block, cov.block(ids))
            assert np.array_equal(block, cov.sigma[np.ix_(ids, ids)])
        assert np.array_equal(entries, cov.sigma[np.ix_(s, t)])
        assert cov.pair_sum(s, t) == float(cov.sigma[np.ix_(s, t)].sum())
        assert cov.block([]).shape == (0, 0)
    assert np.array_equal(table.sigma, copy.sigma)


def _dense_diffusion(graph, u, v, white):
    """The heat kernel and its spectrum from one dense eigh of the Laplacian."""
    evals, evecs = np.linalg.eigh(normalized_laplacian(graph).toarray())
    heat = np.exp(-v * evals)
    sigma = u * (evecs * heat) @ evecs.T + white * np.eye(len(evals))
    return sigma, np.sort(u * heat + white)


@pytest.mark.parametrize("p", range(1, 8))
def test_blocked_diffusion_matches_dense_eigh(p):
    net = build_grid(p)
    for rule in AdjacencyRule.ALL:
        graph = segment_graph(net, rule=rule)
        for u, v, white in [(1.0, 1.0, 0.0), (2.0, 0.5, 0.3), (0.7, 3.0, 1.0), (1.5, 10.0, 0.0)]:
            cov = diffusion_covariance(graph, u=u, v=v, white=white)
            sigma, eigenvalues = _dense_diffusion(graph, u, v, white)
            scale = max(1.0, float(np.abs(sigma).max()))
            assert np.max(np.abs(cov.sigma - sigma)) <= 1e-14 * scale
            assert np.max(np.abs(cov.eigenvalues - eigenvalues)) <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 5, 10])
def test_symmetry_basis_is_orthonormal(p):
    net = build_grid(p)
    blocks = [block.basis for block in _symmetry_blocks(_orbits(net.symmetries))]
    basis = scipy.sparse.hstack(blocks).toarray()
    assert basis.shape == (net.n_segments, net.n_segments)
    assert np.max(np.abs(basis.T @ basis - np.eye(net.n_segments))) <= 1e-14
    assert all(np.diff(b.indptr).max() <= 8 for b in blocks)
    # each block is invariant: L maps it into itself
    lap = normalized_laplacian(segment_graph(net))
    for a, b in enumerate(blocks):
        for c in blocks[a + 1:]:
            assert np.max(np.abs(b.T @ (lap @ c.toarray()))) <= 1e-14


def test_edited_adjacency_fails_the_invariance_check():
    net = build_grid(3)
    graph = segment_graph(net)
    s = net.segment_id((0, 0), (0, 1))
    t = net.segment_id((0, 1), (0, 2))
    # one straight pair, doubled in both directions: symmetric, but not
    # matched by its mirror image in i
    graph.adjacency[s, t] = graph.adjacency[t, s] = 2.0
    with pytest.raises(ValueError, match="reflection in i"):
        diffusion_covariance(graph)
    graph.adjacency[s, t] = 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        diffusion_covariance(graph)
    # the same edit at all four mirror images: only the reversal breaks
    graph = segment_graph(net)
    reflect_i, reflect_j, _ = net.symmetries
    for perm in (np.arange(net.n_segments), reflect_i, reflect_j, reflect_i[reflect_j]):
        graph.adjacency[perm[s], perm[t]] = graph.adjacency[perm[t], perm[s]] = 2.0
    with pytest.raises(ValueError, match="reversal"):
        diffusion_covariance(graph)


@pytest.mark.parametrize("p", [2, 5, 20])
def test_laplacian_is_exactly_symmetric(p):
    rng = np.random.default_rng(p)
    a = rng.uniform(0.0, 1.0, size=(40, 40))
    a = np.triu(a, 1)
    a += a.T
    lap = normalized_laplacian(_StubGraph(a)).toarray()
    assert np.array_equal(lap, lap.T)
    for rule in AdjacencyRule.ALL:
        lap = normalized_laplacian(segment_graph(build_grid(p), rule=rule))
        # a CSR matrix with no stored zeros
        assert lap.format == "csr" and lap.nnz == np.count_nonzero(lap.toarray())
        lap = lap.toarray()
        assert np.array_equal(lap, lap.T)


def test_outside_sigma_is_checked_and_symmetrised():
    sigma = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    cov = CovarianceModel(sigma)
    assert np.array_equal(cov.sigma, cov.sigma.T)
    assert cov.sigma[0, 1] == (0.5 + (0.5 + 1e-12)) / 2
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceModel(np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]]))


def _precision_id_sets(cov, rng):
    """Every segment, a shuffled subset, the reversed ids, one id and none."""
    n = cov.n_segments
    return [np.arange(n), rng.permutation(n)[:max(1, n // 3)], np.arange(n)[::-1],
            [n // 2], []]


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7])
def test_precision_block_matches_dense_precision(p):
    """The orbit table's blocks, and the precision gathered from it, against
    the n x n precision of the dense sigma (dpotri, in a model with no
    table), to 1e-12 of the block's largest entry."""
    rng = np.random.default_rng(p)
    for rule in AdjacencyRule.ALL:
        graph = segment_graph(build_grid(p), rule=rule)
        for u, v, white in _DIFFUSION_PARAMS:
            cov = diffusion_covariance(graph, u=u, v=v, white=white)
            assert cov._precision_table is not None
            reference = CovarianceModel(cov.sigma).precision
            for ids in _precision_id_sets(cov, rng):
                idx = np.asarray(ids, dtype=np.intp)
                block = cov.precision_block(ids)
                dense = reference[np.ix_(idx, idx)]
                assert block.shape == dense.shape == (idx.size, idx.size)
                assert np.array_equal(block, cov.precision[np.ix_(idx, idx)])
                if idx.size:
                    assert np.max(np.abs(block - dense)) <= 1e-12 * np.max(np.abs(dense))
                    assert np.array_equal(block, block.T)


def test_precision_block_without_kernels_reads_the_precision():
    """Models with no precision table take the dense path exactly."""
    graph = segment_graph(build_grid(3))
    for cov in (gram_covariance(12, 40), explicit_covariance(5, {(0, 1): 0.4}),
                diffusion_covariance(graph, u=1.0, v=0.0, white=0.5),
                _csv_roundtrip(diffusion_covariance(graph, u=1.0, v=1.0, white=0.5))):
        assert cov._precision_table is None
        ids = [cov.n_segments - 1, 0, 2]
        assert np.array_equal(cov.precision_block(ids), cov.precision[np.ix_(ids, ids)])


def test_precision_block_raises_the_precision_error():
    # heat e^{-40 lambda} leaves 16 of 48 eigenvalues above the rank threshold
    singular = diffusion_covariance(segment_graph(build_grid(3)), u=1.0, v=40.0, white=0.0)
    assert singular.rank == 16
    for cov in (singular, gram_covariance(48, 3)):
        with pytest.raises(np.linalg.LinAlgError) as dense:
            cov.precision
        with pytest.raises(np.linalg.LinAlgError) as block:
            cov.precision_block([0, 1])
        assert str(block.value) == str(dense.value)
    with pytest.raises(np.linalg.LinAlgError, match="rank 16 of 48"):
        singular.precision_block([])


@pytest.mark.parametrize("p", [20, 30])
def test_precision_table_holds_about_an_eighth_of_sigma(p):
    net = build_grid(p)
    cov = diffusion_covariance(segment_graph(net), u=1.0, v=1.0, white=1.0)
    orbits = _orbits(net.symmetries)
    n, m = cov.n_segments, orbits.stabiliser.size
    held = cov._precision_table
    assert np.array_equal(held.orbit, orbits.orbit)
    assert np.array_equal(held.element, orbits.element)
    table = held.table
    assert table.shape == (8, m, m)
    # 8 m^2 floats: 1.098 n^2 / 8 at p = 20 and 1.066 at p = 30
    assert table.size <= 1.1 * n * n / 8
