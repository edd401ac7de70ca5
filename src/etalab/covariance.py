"""Segment travel-time covariance models.

All estimators and risk formulas consume a dense symmetric positive
semidefinite matrix sigma over the network's segments, wrapped in
CovarianceModel.  Three constructions are provided:

* diffusion_covariance: heat-kernel smoothing of white noise over a segment
  adjacency graph, sigma = u * exp(-v * L) + white * I with L a normalized
  Laplacian.
* gram_covariance: random Gram matrix K^T K / m^2 from iid feature rows.
* explicit_covariance: sparse hand-specified entries over a default diagonal.
"""

from __future__ import annotations

import io
import math
import numbers
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg

from .network import SegmentGraph

__all__ = [
    "CovarianceModel",
    "normalized_laplacian",
    "diffusion_covariance",
    "gram_covariance",
    "explicit_covariance",
    "assumption_diagnostics",
]

# relative floor for "numerically PSD": eigenvalues down to -PSD_RTOL * scale pass
PSD_RTOL = 1e-8


def normalized_laplacian(graph: SegmentGraph) -> np.ndarray:
    """The symmetric normalized Laplacian D^{-1/2} (D - A) D^{-1/2} of a segment graph."""
    a = graph.adjacency
    d = a.sum(axis=1)
    if np.any(d <= 0):
        bad = int(np.argmin(d))
        raise ValueError(f"segment {bad} has zero adjacency degree; cannot normalize")
    inv_sqrt = 1.0 / np.sqrt(d)
    lap = -a * inv_sqrt[:, None] * inv_sqrt[None, :]
    np.fill_diagonal(lap, 1.0)
    return (lap + lap.T) / 2.0


class CovarianceModel:
    """Dense symmetric PSD covariance over network segments.

    Its ascending eigenvalues are computed once, when the model is built, and
    stored as ``eigenvalues``; validation, ``min_eigenvalue``, ``rank`` and
    ``precision`` read them instead of solving for them again.
    """

    def __init__(self, sigma: np.ndarray, meta: Mapping[str, object] | None = None):
        self._build(sigma, meta, None)

    @classmethod
    def _with_eigenvalues(cls, sigma: np.ndarray, meta: Mapping[str, object],
                          eigenvalues: np.ndarray) -> "CovarianceModel":
        """Wrap an exactly symmetric sigma whose ascending eigenvalues are
        already known: it is stored as it is, with no symmetry check."""
        model = cls.__new__(cls)
        model._build(sigma, meta, eigenvalues)
        return model

    def _build(self, sigma, meta, eigenvalues) -> None:
        sigma = np.ascontiguousarray(np.asarray(sigma, dtype=np.float64))
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square matrix")
        if not np.isfinite(sigma).all():
            raise ValueError("sigma must have finite entries")
        if eigenvalues is None:
            if not np.allclose(sigma, sigma.T, atol=1e-10, rtol=0.0):
                raise ValueError("sigma must be symmetric")
            sigma = (sigma + sigma.T) / 2.0
        self.sigma = sigma
        self.meta = dict(meta or {})
        self.eigenvalues = np.linalg.eigvalsh(self.sigma) if eigenvalues is None else eigenvalues
        self.validate_psd()

    @property
    def n_segments(self) -> int:
        return self.sigma.shape[0]

    def validate_psd(self) -> None:
        eigs = self.eigenvalues
        scale = max(1.0, float(eigs[-1]))
        if eigs[0] < -PSD_RTOL * scale:
            raise ValueError(
                f"covariance is not positive semidefinite: min eigenvalue {eigs[0]:.6e} "
                f"(allowed down to {-PSD_RTOL * scale:.1e})"
            )

    @property
    def rank(self) -> int:
        """Eigenvalues above n * eps * lambda_max, the np.linalg.matrix_rank threshold."""
        eigs = self.eigenvalues
        tol = self.n_segments * np.finfo(np.float64).eps * max(float(eigs[-1]), 0.0)
        return int(np.count_nonzero(eigs > tol))

    @cached_property
    def precision(self) -> np.ndarray:
        """Inverse covariance, from sigma's Cholesky factor (LAPACK dpotri).

        Raises ``np.linalg.LinAlgError`` when sigma is rank-deficient.
        """
        n = self.n_segments
        rank = self.rank
        if rank < n:
            raise np.linalg.LinAlgError(
                f"covariance is singular (rank {rank} of {n}, min eigenvalue "
                f"{self.min_eigenvalue():.6e}); it has no precision matrix")
        c, _ = scipy.linalg.cho_factor(self.sigma, lower=True, check_finite=False)
        psi, info = scipy.linalg.lapack.dpotri(c, lower=1, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpotri failed with info {info}")
        # dpotri fills only the lower triangle; mirror it without an n x n temporary
        for i in range(n - 1):
            psi[i, i + 1:] = psi[i + 1:, i]
        return psi

    def block(self, ids: Sequence[int]) -> np.ndarray:
        idx = np.asarray(ids, dtype=np.intp)
        return self.sigma[np.ix_(idx, idx)]

    def pair_sum(self, s_ids: Sequence[int], t_ids: Sequence[int]) -> float:
        """Sum of sigma entries over the cross product of two id sets."""
        if len(s_ids) == 0 or len(t_ids) == 0:
            return 0.0
        si = np.asarray(s_ids, dtype=np.intp)
        ti = np.asarray(t_ids, dtype=np.intp)
        return float(self.sigma[np.ix_(si, ti)].sum())

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    # -- CSV round trip: header of segment ids, then one lower-triangle row per segment

    def to_csv(self, path_or_buf) -> None:
        buf = io.StringIO()
        n = self.n_segments
        buf.write(",".join(str(i) for i in range(n)) + "\n")
        for i in range(n):
            buf.write(",".join(repr(float(v)) for v in self.sigma[i, : i + 1]) + "\n")
        text = buf.getvalue()
        if hasattr(path_or_buf, "write"):
            path_or_buf.write(text)
        else:
            with open(path_or_buf, "w") as fh:
                fh.write(text)

    @classmethod
    def from_csv(cls, path_or_buf) -> "CovarianceModel":
        if hasattr(path_or_buf, "read"):
            text = path_or_buf.read()
        else:
            with open(path_or_buf) as fh:
                text = fh.read()
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("covariance CSV is empty")
        header = [int(tok) for tok in lines[0].split(",")]
        n = len(header)
        if header != list(range(n)):
            raise ValueError("covariance CSV header must list segment ids 0..S-1 in order")
        if len(lines) != n + 1:
            raise ValueError(f"expected {n} triangle rows, found {len(lines) - 1}")
        sigma = np.zeros((n, n))
        for i, ln in enumerate(lines[1:]):
            vals = [float(tok) for tok in ln.split(",")]
            if len(vals) != i + 1:
                raise ValueError(f"row {i} should carry {i + 1} values, found {len(vals)}")
            sigma[i, : i + 1] = vals
            sigma[: i + 1, i] = vals
        return cls(sigma, meta={"kind": "csv"})

    def __repr__(self) -> str:
        kind = self.meta.get("kind", "raw")
        return f"CovarianceModel(n={self.n_segments}, kind={kind!r})"


def diffusion_covariance(graph: SegmentGraph, u: float = 1.0, v: float = 1.0,
                         white: float = 0.0) -> CovarianceModel:
    """Heat-kernel covariance u * exp(-v * L) + white * I on a segment graph.

    u, v and white must be finite and nonnegative.
    """
    for name, value in (("u", u), ("v", v), ("white", white)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    n = graph.network.n_segments
    meta = {
        "kind": "diffusion",
        "p": graph.network.p,
        "rule": graph.rule,
        "u": float(u),
        "v": float(v),
        "white": float(white),
    }
    if v == 0.0:
        # exp(0) is the identity; keep it bit-exact rather than round-tripped
        # through an eigendecomposition
        return CovarianceModel((u + white) * np.eye(n), meta=meta)
    # sigma is allocated ahead of the eigendecomposition's n x n arrays, so
    # that freeing them leaves no hole in the heap under it: made after them,
    # it kept about 22 MB more resident after a p=20 build
    sigma = np.empty((n, n))
    evals, evecs = np.linalg.eigh(normalized_laplacian(graph))
    heat = np.exp(-v * evals)
    # sigma = V diag(u e^{-v lambda} + white) V', so L's eigh gives its spectrum
    eigenvalues = np.sort(u * heat + white)
    # X = V diag(e^{-v lambda / 2}) in place; numpy runs X @ X.T as one
    # symmetric rank-k update, so the kernel comes out exactly symmetric
    # and CovarianceModel stores it with no symmetrising copy
    evecs *= np.sqrt(heat)
    np.matmul(evecs, evecs.T, out=sigma)
    del evecs
    sigma *= u
    sigma[np.diag_indices(n)] += white
    return CovarianceModel._with_eigenvalues(sigma, meta, eigenvalues)


class FeatureLaw:
    UNIF_NEG1_1 = "unif_neg1_1"
    UNIF_0_1 = "unif_0_1"


def gram_covariance(n_segments: int, m: int, law: str = FeatureLaw.UNIF_NEG1_1,
                    seed: int | np.random.Generator = 0) -> CovarianceModel:
    """Random Gram covariance K^T K / m^2 with K an (m, S) iid feature matrix.

    n_segments S and m must be integers >= 1.
    """
    for name, value in (("n_segments", n_segments), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if law == FeatureLaw.UNIF_NEG1_1:
        k = rng.uniform(-1.0, 1.0, size=(m, n_segments))
    elif law == FeatureLaw.UNIF_0_1:
        k = rng.uniform(0.0, 1.0, size=(m, n_segments))
    else:
        raise ValueError(f"unknown feature law {law!r}")
    sigma = (k.T @ k) / float(m) ** 2
    return CovarianceModel(sigma, meta={"kind": "gram", "m": m, "law": law})


def explicit_covariance(n_segments: int, entries: Mapping[tuple[int, int], float],
                        default_diag: float = 1.0) -> CovarianceModel:
    """Covariance from sparse explicit entries over a constant default diagonal.

    Entries are symmetrized; diagonal entries in the mapping override the
    default.  The assembled matrix must be PSD (boundary cases with an exactly
    singular block are accepted).
    """
    sigma = default_diag * np.eye(n_segments)
    for (s, t), val in entries.items():
        if not (0 <= s < n_segments and 0 <= t < n_segments):
            raise ValueError(f"entry ({s}, {t}) outside segment range 0..{n_segments - 1}")
        sigma[s, t] = val
        sigma[t, s] = val
    return CovarianceModel(sigma, meta={"kind": "explicit", "n_entries": len(entries)})


def assumption_diagnostics(cov: CovarianceModel,
                           routes: Iterable[Sequence[int]] | None = None) -> dict:
    """Summary statistics used to sanity-check covariance regularity.

    Reports sigma's size, rank and extreme eigenvalues from the stored
    spectrum, the largest absolute row sums of sigma and of its precision
    (``None`` when sigma is rank-deficient and has no precision), and, when
    sample routes are supplied, the smallest eigenvalue seen among their
    covariance blocks.
    """
    n = cov.n_segments
    rank = cov.rank
    out = {
        "n_segments": n,
        "rank": rank,
        "min_eigenvalue": cov.min_eigenvalue(),
        "max_eigenvalue": float(cov.eigenvalues[-1]),
        "max_abs_row_sum_sigma": float(np.abs(cov.sigma).sum(axis=1).max()),
        "max_abs_row_sum_precision": (float(np.abs(cov.precision).sum(axis=1).max())
                                      if rank == n else None),
        "min_diag_sigma": float(np.diag(cov.sigma).min()),
    }
    if routes is not None:
        block_min = np.inf
        n_routes = 0
        for route in routes:
            ids = list(route)
            if not ids:
                continue
            block_min = min(block_min, float(np.linalg.eigvalsh(cov.block(ids))[0]))
            n_routes += 1
        out["route_block_min_eigenvalue"] = float(block_min) if n_routes else None
        out["n_routes_checked"] = n_routes
    return out
