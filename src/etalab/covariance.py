"""Segment travel-time covariance models.

All estimators and risk formulas consume a symmetric positive semidefinite
matrix sigma over the network's segments, wrapped in CovarianceModel, which
they read through its `block` and `entries` gathers.  Three constructions
are provided:

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
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .network import SYMMETRIES, SegmentGraph

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

# cells that _OrbitTable.dense gathers at once: its index arrays stay far below n x n
_DENSE_CELLS = 2 ** 18


def normalized_laplacian(graph: SegmentGraph) -> scipy.sparse.csr_matrix:
    """The symmetric normalized Laplacian D^{-1/2} (D - A) D^{-1/2} of a segment graph.

    A sparse matrix, built from A's stored entries: off the diagonal it is
    -(s_i s_j) a_ij, s = d^{-1/2}, and s_i s_j == s_j s_i, so a symmetric A
    gives an exactly symmetric L.  Diagonal entries of A are ignored.
    """
    a = scipy.sparse.coo_matrix(graph.adjacency)
    d = np.bincount(a.row, weights=a.data, minlength=a.shape[0])
    if np.any(d <= 0):
        bad = int(np.argmin(d))
        raise ValueError(f"segment {bad} has zero adjacency degree; cannot normalize")
    inv_sqrt = 1.0 / np.sqrt(d)
    off = a.row != a.col
    i, j = a.row[off], a.col[off]
    lap = scipy.sparse.csr_matrix((-(inv_sqrt[i] * inv_sqrt[j]) * a.data[off], (i, j)), a.shape)
    return lap + scipy.sparse.identity(len(d), format="csr")


class _OrbitTable(NamedTuple):
    """A matrix that commutes with the involutions, kept as its orbit table:
    entry [s, t] is table[element[s] ^ element[t], orbit[s], orbit[t]] (see
    _orbit_table)."""

    table: np.ndarray
    element: np.ndarray
    orbit: np.ndarray

    def entries(self, s: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Entries [s, t] for index arrays s and t that broadcast: one flat
        gather at (g(s) ^ g(t)) m^2 + o(s) m + o(t)."""
        m = self.table.shape[1]
        cells = np.multiply(self.element[s] ^ self.element[t], m * m, dtype=np.intp)
        cells += self.orbit[s] * m
        cells += self.orbit[t]
        # every cell lies in the table, so take need not check or buffer them
        return np.take(self.table.reshape(-1), cells, out=out, mode="clip")

    def dense(self) -> np.ndarray:
        """The n x n matrix, gathered a few rows at a time, so no n x n index
        array is formed."""
        n = self.orbit.size
        out = np.empty((n, n))
        ids = np.arange(n)
        rows = max(1, _DENSE_CELLS // n)
        for a in range(0, n, rows):
            self.entries(ids[a:a + rows, None], ids, out=out[a:a + rows])
        return out


class CovarianceModel:
    """Symmetric PSD covariance over network segments.

    Its ascending eigenvalues are computed once, when the model is built, and
    stored as ``eigenvalues``; validation, ``min_eigenvalue``, ``rank`` and
    ``precision`` read them instead of solving for them again.  A diffusion
    covariance with v > 0 keeps sigma as an orbit table of about n^2 / 8
    floats, and a full-rank one its precision too, so ``block``, ``entries``
    and ``precision_block`` read any entries with one gather and never form
    the n x n matrix; ``sigma`` gathers it on first read.
    """

    def __init__(self, sigma: np.ndarray, meta: Mapping[str, object] | None = None):
        sigma = np.ascontiguousarray(np.asarray(sigma, dtype=np.float64))
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square matrix")
        _check_finite(sigma)
        if not np.allclose(sigma, sigma.T, atol=1e-10, rtol=0.0):
            raise ValueError("sigma must be symmetric")
        sigma = (sigma + sigma.T) / 2.0
        self._build(meta, np.linalg.eigvalsh(sigma), sigma, None)

    @classmethod
    def _with_eigenvalues(cls, meta: Mapping[str, object], eigenvalues: np.ndarray,
                          sigma: np.ndarray | None = None,
                          table: _OrbitTable | None = None) -> "CovarianceModel":
        """Wrap an exactly symmetric sigma, or the orbit table it is gathered
        from, whose ascending eigenvalues are already known: it is stored as
        it is, with no symmetry check."""
        _check_finite(sigma if table is None else table.table)
        model = cls.__new__(cls)
        model._build(meta, eigenvalues, sigma, table)
        return model

    def _build(self, meta, eigenvalues, sigma, table) -> None:
        if sigma is not None:
            self.sigma = sigma
        self._table = table
        self.n_segments = eigenvalues.size
        self.meta = dict(meta or {})
        self.eigenvalues = eigenvalues
        self.validate_psd()
        # set by diffusion_covariance for a full-rank heat kernel; see precision_block
        self._precision_table: _OrbitTable | None = None

    @cached_property
    def sigma(self) -> np.ndarray:
        """The dense n x n covariance.  A model with an orbit table gathers it
        on first read and keeps it; the estimators and the sweep read sigma
        through ``block`` and ``entries`` instead."""
        return self._table.dense()

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
        """Inverse covariance: gathered from the precision's orbit table when
        there is one, else from sigma's Cholesky factor (LAPACK dpotri).

        Raises ``np.linalg.LinAlgError`` when sigma is rank-deficient.
        """
        if self._precision_table is not None:
            return self._precision_table.dense()
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

    def precision_block(self, ids: Sequence[int]) -> np.ndarray:
        """The principal block precision[ids, ids] of the inverse covariance.

        A full-rank diffusion covariance (v > 0) gathers the block from its
        precision's orbit table and never forms the n x n precision.  Any
        other model (gram, explicit, CSV, diffusion with v = 0 or a singular
        one) has no table and reads the block from ``precision``, so a
        rank-deficient sigma raises its ``np.linalg.LinAlgError``.
        """
        idx = np.asarray(ids, dtype=np.intp)
        if self._precision_table is None:
            return self.precision[np.ix_(idx, idx)]
        return self._precision_table.entries(idx[:, None], idx)

    def block(self, ids) -> np.ndarray:
        """The principal blocks sigma[ids, ids] over (..., L) segment ids, as
        (..., L, L) blocks: one gather (see ``entries``)."""
        idx = np.asarray(ids, dtype=np.intp)
        return self.entries(idx[..., :, None], idx[..., None, :])

    def entries(self, s, t, out: np.ndarray | None = None) -> np.ndarray:
        """sigma[s, t] for index arrays s and t that broadcast: one gather from
        the orbit table when there is one, else from the dense sigma."""
        if self._table is not None:
            return self._table.entries(s, t, out)
        cells = np.ravel_multi_index((s, t), self.sigma.shape)
        return np.take(self.sigma.reshape(-1), cells, out=out)

    def pair_sum(self, s_ids: Sequence[int], t_ids: Sequence[int]) -> float:
        """Sum of sigma entries over the cross product of two id sets (0 if one is empty)."""
        si = np.asarray(s_ids, dtype=np.intp)
        ti = np.asarray(t_ids, dtype=np.intp)
        return float(self.entries(si[:, None], ti).sum())

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
        # exp(0) is the identity: sigma and its spectrum are exact, with no eigendecomposition
        diag = np.full(n, u + white)
        return CovarianceModel._with_eigenvalues(meta, diag, sigma=np.diag(diag))
    symmetries = graph.network.symmetries
    _check_invariant(graph.adjacency, symmetries)
    lap = normalized_laplacian(graph)
    orbits = _orbits(symmetries)
    # L commutes with the involutions, so B_j' L B_k = 0 for j != k and
    # L = sum_k B_k E_k diag(lambda_k) E_k' B_k' from one eigh per block.
    # sigma - white I is u times the matrix of weights w_k = e^{-v lambda_k}
    # (see _orbit_table), so sigma's eigenvalues on block k are u w_k + white
    blocks = []
    for block in _symmetry_blocks(orbits):
        evals, evecs = np.linalg.eigh((block.basis.T @ lap @ block.basis).toarray())
        blocks.append((block, evecs, np.exp(-v * evals)))
    eigenvalues = np.sort(np.concatenate([u * heat + white for _, _, heat in blocks]))
    table = _orbit_table(orbits, blocks)
    table *= u
    # the pair (h = 0, o, o) is reached only by s = t, so the white noise is
    # T[0]'s diagonal; sigma is kept as the table and never formed
    m = orbits.stabiliser.size
    table[0][np.diag_indices(m)] += white
    g, o = orbits.element, orbits.orbit
    model = CovarianceModel._with_eigenvalues(meta, eigenvalues, table=_OrbitTable(table, g, o))
    # the precision has the same form with w_k = 1 / (u e^{-v lambda_k} +
    # white); a singular sigma gets no table (u = 0 would divide by zero),
    # and precision_block raises precision's error
    if model.rank == n:
        model._precision_table = _OrbitTable(_orbit_table(orbits, [
            (block, evecs, 1.0 / (u * heat + white)) for block, evecs, heat in blocks]),
            g, o)
    return model


def _orbit_table(orbits: _Orbits, blocks) -> np.ndarray:
    """The (8, m, m) orbit table of sum_k B_k E_k diag(w_k) E_k' B_k', from
    one (block B_k, eigenvectors E_k, weights w_k) triple per symmetry block.

    A segment s's row of B_k holds chi_k(g(s)) c at its orbit o(s), with
    c = |H| / sqrt(8 |H|) for the orbit's stabiliser H, so the matrix's
    entry [s, t] is T[g(s) ^ g(t), o(s), o(t)] over T[h] = sum_k chi_k(h)
    F_k F_k', F_k = diag(c) E_k diag(w_k^{1/2}) padded with zero rows.
    """
    m = orbits.stabiliser.size
    scale = orbits.stabiliser / np.sqrt(8.0 * orbits.stabiliser)
    table = np.zeros((8, m, m))
    for block, evecs, w in blocks:
        f = scale[block.orbits, None] * (evecs * np.sqrt(w))
        # numpy runs F F' as one symmetric rank-k update, so F_k F_k', and
        # with it every T[h], comes out exactly symmetric
        ff = np.zeros((m, m))
        ff[np.ix_(block.orbits, block.orbits)] = f @ f.T
        del f
        for h in range(8):
            if orbits.chi[block.k, h] > 0:
                table[h] += ff
            else:
                table[h] -= ff
    return table


def _check_finite(a: np.ndarray) -> None:
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):  # no temporary of a's size
        raise ValueError("sigma must have finite entries")


def _check_invariant(adjacency: scipy.sparse.csr_matrix, symmetries: np.ndarray) -> None:
    """Raise ValueError unless the sparse adjacency is symmetric and invariant
    under every involution."""
    if (adjacency != adjacency.T).nnz:
        raise ValueError("the segment adjacency is not symmetric")
    for name, perm in zip(SYMMETRIES, symmetries):
        if (adjacency[perm][:, perm] != adjacency).nnz:
            raise ValueError(f"the segment adjacency is not invariant under the grid's "
                             f"{name}, so the symmetry split of its Laplacian does not hold")


class _Orbits(NamedTuple):
    """The segments' orbits under the group Z2^3 that the involutions generate.

    Group element b applies involution t for each bit t set in b.  Orbit j
    holds members[b, j] = b(r_j) for its smallest segment r_j, whose
    stabiliser H_j has `stabiliser[j]` elements.  Segment s lies in orbit
    `orbit[s]`, and `element[s]` is a group element that maps that orbit's
    r_j to s.  chi[k, b] = (-1)^popcount(k & b) is the group's character k,
    and kept[k, j] says whether chi_k is 1 on H_j.
    """

    members: np.ndarray
    stabiliser: np.ndarray
    orbit: np.ndarray
    element: np.ndarray
    chi: np.ndarray
    kept: np.ndarray


def _orbits(symmetries: np.ndarray) -> _Orbits:
    n = symmetries.shape[1]
    images = np.empty((8, n), dtype=np.intp)
    images[0] = np.arange(n)
    for b in range(1, 8):
        top = b.bit_length() - 1
        images[b] = symmetries[top][images[b - (1 << top)]]
    reps = np.unique(images.min(axis=0))
    members = images[:, reps]
    orbit = np.empty(n, dtype=np.intp)
    orbit[members] = np.arange(reps.size)
    # a member reached by several group elements takes any one of them
    element = np.empty(n, dtype=np.int8)
    element[members] = np.arange(8, dtype=np.int8)[:, None]
    parity = np.array([bin(x).count("1") % 2 for x in range(8)])
    chi = 1 - 2 * parity[np.bitwise_and.outer(np.arange(8), np.arange(8))]
    fixed = members == reps
    stabiliser = fixed.sum(axis=0)
    # the sum over H_j of chi_k is |H_j| or 0
    return _Orbits(members, stabiliser, orbit, element, chi, chi @ fixed == stabiliser)


class _SymmetryBlock(NamedTuple):
    """Block B_k of the symmetry basis: its character k, the orbits it has a
    column for, in column order, and the sparse n x m_k basis."""

    k: int
    orbits: np.ndarray
    basis: scipy.sparse.csc_matrix


def _symmetry_blocks(orbits: _Orbits) -> list[_SymmetryBlock]:
    """The nonempty blocks B_k of an orthonormal basis that block-diagonalises
    every matrix commuting with the involutions.

    Block k holds one column per orbit, the projection sum_b chi_k(b)
    e_{b(r)} of the orbit's smallest segment r.  It is zero when chi_k is not
    1 on the stabiliser H of r; otherwise each orbit member gets |H| chi_k(b)
    and the column's norm is sqrt(8 |H|).
    """
    n = orbits.orbit.size
    blocks = []
    for k in range(8):
        keep = np.nonzero(orbits.kept[k])[0]
        if keep.size == 0:
            continue
        values = orbits.chi[k][:, None] / np.sqrt(8.0 * orbits.stabiliser[keep])
        cols = np.broadcast_to(np.arange(keep.size), values.shape)
        # a member reached by several group elements sums their entries
        blocks.append(_SymmetryBlock(k, keep, scipy.sparse.csc_matrix(
            (values.ravel(), (orbits.members[:, keep].ravel(), cols.ravel())),
            shape=(n, keep.size))))
    return blocks


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
