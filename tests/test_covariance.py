import io

import numpy as np
import pytest
import scipy.linalg

from etalab.covariance import (
    CovarianceModel,
    FeatureLaw,
    LaplacianVariant,
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
    assert np.allclose(normalized_laplacian(graph, LaplacianVariant.SYMMETRIC), expected)
    # degree-1 regular: the similarity-transformed variant coincides
    assert np.allclose(normalized_laplacian(graph, LaplacianVariant.AS_PRINTED), expected)


def test_laplacian_matches_definition():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 1.0, size=(6, 6))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    graph = _StubGraph(a)
    d = a.sum(axis=1)
    d_half = np.diag(np.sqrt(d))
    d_inv_half = np.diag(1.0 / np.sqrt(d))
    lap = np.diag(d) - a
    assert np.allclose(normalized_laplacian(graph, LaplacianVariant.SYMMETRIC),
                       d_inv_half @ lap @ d_inv_half, atol=1e-12)
    assert np.allclose(normalized_laplacian(graph, LaplacianVariant.AS_PRINTED),
                       d_inv_half @ lap @ d_half, atol=1e-12)


def test_laplacian_zero_degree_rejected():
    graph = _StubGraph([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="degree"):
        normalized_laplacian(graph)


def test_laplacian_eigenvalues_bounded(grid3):
    graph = segment_graph(grid3, rule=AdjacencyRule.SHARE_ANY_ENDPOINT)
    lap = normalized_laplacian(graph)
    evals = np.linalg.eigvalsh(lap)
    assert evals[0] >= -1e-9
    assert evals[-1] <= 2.0 + 1e-9


def test_laplacian_unknown_variant(grid3):
    graph = segment_graph(grid3)
    with pytest.raises(ValueError, match="variant"):
        normalized_laplacian(graph, "rw")


def test_covariance_model_validation():
    with pytest.raises(ValueError, match="square"):
        CovarianceModel(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceModel(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="min eigenvalue"):
        explicit_covariance(2, {(0, 0): 1.0, (1, 1): 1.0, (0, 1): -1.1})


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


def test_diffusion_literal_variant_not_psd(grid3):
    # the similarity-transformed normalization yields an asymmetric heat
    # kernel; even after symmetrizing, the result fails PSD validation on
    # this graph, which is why the symmetric normalization is the default
    graph = segment_graph(grid3, rule=AdjacencyRule.SHARE_ANY_ENDPOINT)
    diffusion_covariance(graph, u=1.0, v=1.0, white=0.0,
                         variant=LaplacianVariant.SYMMETRIC).validate_psd()
    with pytest.raises(ValueError, match="min eigenvalue"):
        diffusion_covariance(graph, u=1.0, v=1.0, white=0.0,
                             variant=LaplacianVariant.AS_PRINTED)
    # enough added white noise shifts it back to PSD
    shifted = diffusion_covariance(graph, u=1.0, v=1.0, white=0.01,
                                   variant=LaplacianVariant.AS_PRINTED)
    assert shifted.min_eigenvalue() >= -1e-8


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
    yield "as-printed", lambda: diffusion_covariance(
        graph, u=1.0, v=1.0, white=0.01, variant=LaplacianVariant.AS_PRINTED)
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
    # the Laplacian's eigh is the only solve; sigma's spectrum follows from it
    assert calls == [("eigh", (n, n))]
    for build in (lambda: gram_covariance(n, 3), negcov_covariance,
                  lambda: diffusion_covariance(graph, v=0.0),
                  lambda: diffusion_covariance(graph, white=0.01,
                                               variant=LaplacianVariant.AS_PRINTED)):
        calls.clear()
        build()
        assert calls == [("eigvalsh", (n, n))]


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
