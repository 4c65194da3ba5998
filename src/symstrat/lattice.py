"""Discrete realizations on periodic lattices.

Frozen-coefficient operators are exact Fourier multipliers on the torus
(inverse DFT o multiply o DFT), so products of frozen operators commute
exactly and projection/boundary effects can be studied in isolation.
Sobolev norms are weighted l2 norms of DFT coefficients with weights
(1+|xi|^2)^(s/2).

The half-space boundary model is the truncated convolution (Toeplitz)
operator of a Laurent symbol.  Square truncations always have index zero,
so kernel detection uses rectangular sections (rows N, columns N plus the
symbol bandwidth): genuinely decaying kernel vectors of the semi-infinite
operator show up as left-localized null vectors, while truncation
artifacts concentrate at the right edge and are filtered out by dropping
the edge columns before the rank test.  Counts must agree between section
sizes N and 2N or UnstableRank is raised.

No section is ever dense.  The singular values of a restricted section S
are read off the eigenvalues of its Golub-Kahan matrix [[0, S], [S^H, 0]]:
they are +-sigma_i plus one structural zero per extra row of S.  With row
i of S interleaved next to column i - floor((min_deg + max_deg) / 2), that
matrix is banded with bandwidth at most max_deg - min_deg + 1, so one
scipy.linalg.eigvals_banded call costs O(N^2 b), not the O(N^3) of a
dense SVD.  Unlike S^H S it does not square the singular values, so a
rank tolerance of 1e-8 stays 1e-8.

The essential-norm proxy used by the assembly convergence table is the
operator norm compressed to the upper half of the frequency grid; it is a
proxy (compact parts are suppressed, not subtracted) and is always
reported as such.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvals_banded, toeplitz
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import ArpackError, LinearOperator, svds

from .dsl import eval_on_grid
from .errors import (ConfigError, DuplicateComponentError, EmptyDomainError,
                     MissingPatchError, NormNotConverged, OrderMismatch,
                     SupportOverlapError, UnstableRank, ZeroOnCircle)
from .geometry import (CanonicalDomain, PartitionOfUnity, build_covering,
                       partition_of_unity)
from .laurent import TOL_CIRCLE, LaurentPolynomial, laurent_winding
from .symbols import Symbol

__all__ = [
    "LatticeGrid", "DiscreteSobolevSpace", "DiscreteOperator",
    "lattice_projector", "discretize_symbol_op", "build_paired_operator",
    "toeplitz_sections", "rect_section_matrix", "numerical_index",
    "numerical_index_direct_sum", "IndexEntry", "IndexReport",
    "aggregate_index", "locality_defect", "assemble_operator",
    "assemble_frozen_family", "assembly_convergence", "quantize_full_symbol",
    "operator_norm", "high_frequency_mask", "check_dense_size",
    "export_operator", "import_operator",
]

DENSE_LIMIT = 2048          # max side of a materialized matrix
POWER_STEPS = 500           # power-iteration fallback of operator_norm
# Lanczos basis size of operator_norm's svds.  With scipy's default of 20,
# one in seven assembly-ladder norms needs an extra restart (51 instead of
# 41 products on the 32x32 grid), so a ladder's cost swings with its
# symbol; with 28 nearly all take 43 (57 on the 64x64 grid).
ARPACK_NCV = 28
RANK_TOL = 1e-8
# unit vectors per matvec in DiscreteOperator.block: a sum of assembled
# operators holds every patch window of the whole batch at once
_BLOCK_COLUMNS = 16
_EDGE_PAD = 4               # extra columns in the right-edge window


def check_dense_size(n: int) -> None:
    """Refuse a dense matrix with a side of more than DENSE_LIMIT points."""
    if n > DENSE_LIMIT:
        raise ConfigError(
            f"a dense matrix over {n} points is above the dense limit of "
            f"{DENSE_LIMIT}; use matvec-based routines")


# --------------------------------------------------------------------------
# Grids and spaces

@dataclass(frozen=True)
class LatticeGrid:
    """Uniform periodic lattice: N points per axis (power of two, N >= 8),
    spacing h, physical coordinates origin + n*h on a torus of period N*h."""

    dim: int
    n: int
    h: float
    origin: tuple = None

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {self.n}")
        if self.h <= 0:
            raise ValueError("spacing must be positive")
        if self.origin is None:
            object.__setattr__(self, "origin", (0.0,) * self.dim)
        elif len(self.origin) != self.dim:
            raise ValueError("origin dimension mismatch")

    @property
    def size(self) -> int:
        return self.n ** self.dim

    @property
    def period(self) -> float:
        return self.n * self.h

    @staticmethod
    def centered(dim: int, n: int, h: float) -> "LatticeGrid":
        return LatticeGrid(dim, n, h, (-n * h / 2.0,) * dim)

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def points(self) -> np.ndarray:
        axes = [np.asarray(self.origin)[a] + self.axis_coords()
                for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def frequencies(self) -> np.ndarray:
        """Dual frequencies 2*pi*fftfreq(N, h) per axis, flattened in the
        same C order as the DFT of a reshaped field."""
        ax = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)
        mesh = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def freq_indices(self) -> np.ndarray:
        idx = np.fft.fftfreq(self.n, d=1.0 / self.n)
        mesh = np.meshgrid(*([idx] * self.dim), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def fft_flat(self, u: np.ndarray) -> np.ndarray:
        shape = (self.n,) * self.dim + u.shape[1:]
        return np.fft.fftn(u.reshape(shape), axes=tuple(range(self.dim)),
                           norm="ortho").reshape(u.shape)

    def ifft_flat(self, u: np.ndarray) -> np.ndarray:
        shape = (self.n,) * self.dim + u.shape[1:]
        return np.fft.ifftn(u.reshape(shape), axes=tuple(range(self.dim)),
                            norm="ortho").reshape(u.shape)


@dataclass(frozen=True)
class DiscreteSobolevSpace:
    """Weighted l2 space on the lattice with DFT weights (1+|xi|^2)^(s/2)."""

    grid: LatticeGrid
    s_order: float

    def weights(self) -> np.ndarray:
        xi = self.grid.frequencies()
        return (1.0 + (xi ** 2).sum(axis=1)) ** (self.s_order / 2.0)

    def norm(self, u: np.ndarray) -> float:
        return float(np.linalg.norm(self.weights() * self.grid.fft_flat(u)))


def high_frequency_mask(grid: LatticeGrid) -> np.ndarray:
    """Upper half of the frequency grid: |integer index|_inf >= N/4."""
    idx = grid.freq_indices()
    return np.max(np.abs(idx), axis=1) >= grid.n // 4


# --------------------------------------------------------------------------
# Operators

def _scale_rows(w, v):
    """w times each column of v, for v of shape (P,) or (P, k)."""
    return w * v if v.ndim == 1 else w[:, None] * v


class DiscreteOperator:
    """Linear map between lattice spaces with batched matvec/rmatvec.

    Instances are immutable by convention once built; all combinators
    return new operators.  ``kind`` records the structure for fast paths:
    'multiplier' (diagonal in frequency), 'diag' (diagonal in space),
    'dense', or 'composite'.
    """

    def __init__(self, shape, matvec, rmatvec, src=None, dst=None,
                 kind="composite", data=None, provenance=None, dense=None):
        self.shape = tuple(shape)
        self._matvec = matvec
        self._rmatvec = rmatvec
        self.src = src
        self.dst = dst
        self.kind = kind
        self.data = data
        self.provenance = dict(provenance or {})
        # builds the dense matrix; None means "from unit vectors" (see block)
        self._build_dense = dense

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_matrix(mat, src=None, dst=None, provenance=None):
        mat = np.asarray(mat, dtype=complex)
        return DiscreteOperator(
            mat.shape,
            lambda v: mat @ v,
            lambda v: mat.conj().T @ v,
            src, dst, kind="dense", data=mat, provenance=provenance)

    @staticmethod
    def multiplier(values, src, dst, provenance=None):
        values = np.asarray(values, dtype=complex)
        grid = src.grid
        if values.shape != (grid.size,):
            raise ValueError("multiplier values must live on the dual grid")

        return DiscreteOperator(
            (grid.size, grid.size),
            lambda v: grid.ifft_flat(_scale_rows(values, grid.fft_flat(v))),
            lambda v: grid.ifft_flat(_scale_rows(values.conj(),
                                                 grid.fft_flat(v))),
            src, dst, kind="multiplier", data=values, provenance=provenance)

    @staticmethod
    def diagonal(values, src=None, dst=None, provenance=None):
        values = np.asarray(values, dtype=complex)
        return DiscreteOperator((values.size, values.size),
                                lambda v: _scale_rows(values, v),
                                lambda v: _scale_rows(values.conj(), v),
                                src, dst,
                                kind="diag", data=values,
                                provenance=provenance)

    @staticmethod
    def identity(space):
        vals = np.ones(space.grid.size)
        return DiscreteOperator.diagonal(vals, space, space,
                                         provenance={"construction": "identity"})

    # -- algebra -----------------------------------------------------------

    def matvec(self, v):
        return self._matvec(np.asarray(v, dtype=complex))

    def rmatvec(self, v):
        return self._rmatvec(np.asarray(v, dtype=complex))

    def __matmul__(self, other):
        if self.shape[1] != other.shape[0]:
            raise ValueError("operator shapes do not compose")
        return DiscreteOperator(
            (self.shape[0], other.shape[1]),
            lambda v: self.matvec(other.matvec(v)),
            lambda v: other.rmatvec(self.rmatvec(v)),
            other.src, self.dst, kind="composite",
            provenance={"construction": "compose"})

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("operator shapes do not add")
        return DiscreteOperator(
            self.shape,
            lambda v: self.matvec(v) + other.matvec(v),
            lambda v: self.rmatvec(v) + other.rmatvec(v),
            self.src or other.src, self.dst or other.dst, kind="composite",
            provenance={"construction": "sum"})

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("operator shapes do not subtract")
        return DiscreteOperator(
            self.shape,
            lambda v: self.matvec(v) - other.matvec(v),
            lambda v: self.rmatvec(v) - other.rmatvec(v),
            self.src or other.src, self.dst or other.dst, kind="composite",
            provenance={"construction": "difference"})

    # -- materialization ---------------------------------------------------

    def block(self, rows, cols) -> np.ndarray:
        """The entries A[rows, cols] for integer index arrays, from the
        operator applied to the unit vectors of ``cols``, _BLOCK_COLUMNS
        at a time."""
        out = np.empty((rows.size, cols.size), dtype=complex)
        for start in range(0, cols.size, _BLOCK_COLUMNS):
            part = cols[start:start + _BLOCK_COLUMNS]
            unit = np.zeros((self.shape[1], part.size), dtype=complex)
            unit[part, np.arange(part.size)] = 1.0
            out[:, start:start + part.size] = self.matvec(unit)[rows]
        return out

    def to_dense(self) -> np.ndarray:
        if self.kind == "dense":
            return self.data
        n_dst, n_src = self.shape
        check_dense_size(max(n_dst, n_src))
        if self._build_dense is not None:
            return self._build_dense()
        return self.block(np.arange(n_dst), np.arange(n_src))


def lattice_projector(mask, space=None) -> DiscreteOperator:
    """Diagonal 0/1 projector onto the index set given by a boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    return DiscreteOperator.diagonal(mask.astype(complex), space, space,
                                     provenance={"construction": "projector",
                                                 "n_active": int(mask.sum())})


# --------------------------------------------------------------------------
# Norms

def _conjugated_linear_operator(op: DiscreteOperator, freq_mask=None):
    """The operator expressed between weighted DFT coordinate spaces, so
    its plain sigma_max is the H^s_src -> H^s_dst operator norm.  An
    optional 0/1 frequency mask compresses both sides."""
    if op.src is None or op.dst is None:
        return op.shape, op.matvec, op.rmatvec

    g_src, g_dst = op.src.grid, op.dst.grid
    w_src = op.src.weights()
    w_dst = op.dst.weights()
    q = None if freq_mask is None else np.asarray(freq_mask, float)

    def mv(v):
        if q is not None:
            v = _scale_rows(q, v)
        u = g_src.ifft_flat(_scale_rows(1.0 / w_src, v))
        y_hat = g_dst.fft_flat(op.matvec(u))
        out = _scale_rows(w_dst, y_hat)
        return _scale_rows(q, out) if q is not None else out

    def rmv(v):
        if q is not None:
            v = _scale_rows(q, v)
        y = g_dst.ifft_flat(_scale_rows(w_dst, v))
        u_hat = g_src.fft_flat(op.rmatvec(y))
        out = _scale_rows(1.0 / w_src, u_hat)
        return _scale_rows(q, out) if q is not None else out

    return op.shape, mv, rmv


def operator_norm(op: DiscreteOperator, freq_mask=None) -> float:
    """Operator norm in the weighted source/target norms (plain l2 when the
    operator has no attached spaces).  Multipliers have a closed form; any
    other operator goes to ARPACK svds, with power iteration as the
    fallback when ARPACK fails."""
    if op.kind == "multiplier" and op.src is not None and op.dst is not None:
        ratio = np.abs(op.data) * op.dst.weights() / op.src.weights()
        if freq_mask is not None:
            ratio = ratio[np.asarray(freq_mask, bool)]
            if ratio.size == 0:
                return 0.0
        return float(np.max(ratio))

    if freq_mask is not None and (op.src is None or op.dst is None):
        raise ValueError("frequency mask needs lattice spaces")
    n_dst, n_src = op.shape
    shape, mv, rmv = _conjugated_linear_operator(op, freq_mask)
    if min(shape) < 3:
        # too small for ARPACK, whose svds needs at least 3 points
        return float(np.linalg.norm(mv(np.eye(n_src, dtype=complex)), 2))
    lin = LinearOperator(shape, matvec=lambda v: mv(v.astype(complex)),
                         rmatvec=lambda v: rmv(v.astype(complex)),
                         dtype=complex)
    v0 = np.ones(n_src) / math.sqrt(n_src)
    ncv = ARPACK_NCV if min(op.shape) > ARPACK_NCV else None
    try:
        sigma = svds(lin, k=1, ncv=ncv, which="LM", v0=v0, maxiter=8000,
                     return_singular_vectors=False, tol=1e-9)
        return float(sigma[0])
    except ArpackError as exc:
        # no convergence, or a start vector that A*A annihilates (error -9,
        # as on a zero or roundoff-sized operator); other errors propagate
        arpack_failure = exc
    # power iteration on A*A as a deterministic fallback, from a generic
    # start so that a null vector of A cannot pass for the answer
    v = np.random.default_rng(0).standard_normal(n_src).astype(complex)
    v /= np.linalg.norm(v)
    sigma2 = 0.0
    for _ in range(POWER_STEPS):
        w = rmv(mv(v))
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        if abs(nrm - sigma2) < 1e-10 * max(nrm, 1.0):
            return float(math.sqrt(nrm))
        sigma2 = nrm
        v = w / nrm
    raise NormNotConverged(
        f"{arpack_failure}; power iteration on the {n_dst}x{n_src} operator "
        f"had not converged after {POWER_STEPS} steps (last estimate "
        f"{math.sqrt(sigma2):.6g})")


# --------------------------------------------------------------------------
# Quantization of frozen symbols

def discretize_symbol_op(s: Symbol, x0, grid: LatticeGrid,
                         src: DiscreteSobolevSpace,
                         dst: DiscreteSobolevSpace) -> DiscreteOperator:
    """Exact Fourier multiplier of the symbol frozen at x0, mapping
    H^s -> H^(s-alpha) on the torus."""
    if abs(dst.s_order - (src.s_order - s.order_alpha)) > 1e-12:
        raise OrderMismatch(
            f"target order {dst.s_order} != source order {src.s_order} "
            f"minus symbol order {s.order_alpha}")
    if src.grid != grid or dst.grid != grid:
        raise ValueError("source/target spaces must live on the given grid")
    x0 = np.asarray(x0, dtype=float)
    values = eval_on_grid(s.expr, x0[None, :], grid.frequencies().astype(complex))
    return DiscreteOperator.multiplier(
        values, src, dst,
        provenance={"construction": "frozen-multiplier",
                    "symbol": str(s.expr), "alpha": s.order_alpha,
                    "x0": [float(v) for v in x0]})


def build_paired_operator(a_op: DiscreteOperator, domain: CanonicalDomain,
                          grid: LatticeGrid) -> DiscreteOperator:
    """The paired operator A*P_plus + P_minus with complementary lattice
    projectors onto the domain and its complement."""
    mask = domain.membership_mask(grid.points())
    if not mask.any() or mask.all():
        raise EmptyDomainError(
            f"domain {domain.kind} splits the lattice trivially "
            f"({int(mask.sum())} of {mask.size} points inside)")
    p_plus = lattice_projector(mask, a_op.src)
    p_minus = lattice_projector(~mask, a_op.src)
    out = (a_op @ p_plus) + p_minus
    out.provenance = {"construction": "paired", "domain": domain.to_dict(),
                      "n_plus": int(mask.sum())}
    return out


# --------------------------------------------------------------------------
# Toeplitz sections and numerical index

def toeplitz_sections(coeffs: LaurentPolynomial, n: int) -> DiscreteOperator:
    """Square truncation T_N(a) with entry (i, j) = a_{i-j}."""
    if n <= 2 * coeffs.bandwidth:
        raise ValueError(
            f"section size {n} too small for bandwidth {coeffs.bandwidth}")
    mat = rect_section_matrix(coeffs, n, n)
    return DiscreteOperator.from_matrix(
        mat, provenance={"construction": "toeplitz-section", "n": n,
                         "min_deg": coeffs.min_deg, "max_deg": coeffs.max_deg})


def rect_section_matrix(coeffs: LaurentPolynomial, rows: int,
                        cols: int) -> np.ndarray:
    """Rectangular truncated convolution matrix, entry (i, j) = a_{i-j}."""
    col = np.array([coeffs.coeff(i) for i in range(rows)], dtype=complex)
    row = np.array([coeffs.coeff(-j) for j in range(cols)], dtype=complex)
    return toeplitz(col, row)


def _golub_kahan_band(coeffs: LaurentPolynomial, n: int):
    """The Hermitian augmented matrix [[0, S], [S^H, 0]] of the restricted
    N x (N - _EDGE_PAD) section S, entry S[i, j] = a_{i-j}, as (lower band
    offsets, column positions, values), with row i of S placed next to
    column i - s, s = floor((min_deg + max_deg) / 2).

    Row i gets the key 2i and column j the key 2(j + s) + 1; an entry
    a_d, d = i - j, then joins keys 2(s - d) + 1 apart, at most
    max_deg - min_deg + 1, and ranking the distinct keys only brings
    neighbours closer."""
    m = n - _EDGE_PAD
    s = (coeffs.min_deg + coeffs.max_deg) // 2
    keys = np.concatenate([2 * np.arange(n), 2 * (np.arange(m) + s) + 1])
    pos = np.empty(n + m, dtype=np.intp)
    pos[np.argsort(keys)] = np.arange(n + m)
    offsets, cols, vals = [], [], []
    for d in range(coeffs.min_deg, coeffs.max_deg + 1):
        c = coeffs.coeff(d)
        i = np.arange(max(d, 0), min(n, m + d))
        p_row, p_col = pos[i], pos[n + i - d]
        # S[i, j] sits at (p_row, p_col) and its conjugate at (p_col, p_row);
        # lower storage keeps whichever is below the diagonal
        below = p_row > p_col
        offsets.append(np.abs(p_row - p_col))
        cols.append(np.minimum(p_row, p_col))
        vals.append(np.where(below, c, np.conj(c)))
    return (np.concatenate(offsets), np.concatenate(cols),
            np.concatenate(vals))


def _kernel_count(symbols, n: int, rank_tol: float) -> int:
    """Number of decaying null vectors of the block-diagonal direct sum of
    the N x (N + b) sections of ``symbols``, not counting those localized
    at each block's last b + _EDGE_PAD columns (the truncation artifacts).

    The subspace of null vectors vanishing on the edge columns is exactly
    the null space of the sections with those columns removed, so the count
    needs only singular values of the restricted blocks, which are the
    first N - _EDGE_PAD columns of each section whatever its b: decaying
    kernel vectors of the semi-infinite operator reappear there as
    near-null directions (their edge entries are exponentially small),
    while edge artifacts and growing recurrence solutions do not.

    The singular values come from the eigenvalues of the banded
    Golub-Kahan matrices of the blocks (see _golub_kahan_band), stacked
    along the diagonal: they are +-sigma_i plus _EDGE_PAD structural
    zeros per block, so nothing is squared and sigma_max = max |lambda|."""
    parts = [_golub_kahan_band(a, n) for a in symbols]
    size = 2 * n - _EDGE_PAD
    width = max(int(off.max()) for off, _, _ in parts)
    band = np.zeros((width + 1, size * len(parts)), dtype=complex)
    for k, (off, col, val) in enumerate(parts):
        band[off, col + k * size] = val
    lam = np.abs(eigvals_banded(band, lower=True))
    small = int(np.sum(lam <= rank_tol * lam.max()))
    pad = _EDGE_PAD * len(parts)
    if small < pad or (small - pad) % 2:
        raise UnstableRank(
            f"{small} eigenvalues of the Golub-Kahan matrix at N={n} are "
            f"at most rank_tol={rank_tol:g} times sigma_max, which is not "
            f"{pad} structural zeros plus pairs +-sigma")
    return (small - pad) // 2


def _stable_counts(symbols, n: int) -> tuple:
    """(kernel, cokernel) counts of the direct sum of ``symbols``, which
    must agree between the sections at N and 2N."""
    adj = [a.conj_reflected() for a in symbols]
    kers = [_kernel_count(symbols, m, RANK_TOL) for m in (n, 2 * n)]
    coks = [_kernel_count(adj, m, RANK_TOL) for m in (n, 2 * n)]
    if kers[0] != kers[1] or coks[0] != coks[1]:
        raise UnstableRank(
            f"kernel counts did not stabilize between N={n} and 2N: "
            f"ker {kers}, coker {coks}")
    return kers[0], coks[0]


@dataclass(frozen=True)
class IndexEntry:
    label: str
    dim_ker: int
    dim_coker: int
    index: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"label": self.label, "dim_ker": self.dim_ker,
                "dim_coker": self.dim_coker, "index": self.index,
                "diagnostics": self.diagnostics}


@dataclass(frozen=True)
class IndexReport:
    components: tuple
    total_ker: int
    total_coker: int
    total_index: int

    def to_dict(self) -> dict:
        return {"components": [c.to_dict() for c in self.components],
                "total_ker": self.total_ker, "total_coker": self.total_coker,
                "total_index": self.total_index}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def numerical_index(coeffs: LaurentPolynomial, n: int,
                    label: str = "half-space") -> IndexEntry:
    """Kernel/cokernel dimensions of the semi-infinite truncated convolution
    operator, detected from rectangular sections and stabilized over N and
    2N; the index is cross-checked against minus the symbol winding."""
    if coeffs.min_modulus_on_circle() <= TOL_CIRCLE:
        raise ZeroOnCircle("symbol vanishes on the unit circle")
    ker, coker = _stable_counts([coeffs], n)
    wind = laurent_winding(coeffs)
    return IndexEntry(
        label=label, dim_ker=ker, dim_coker=coker, index=ker - coker,
        diagnostics={"n": n, "rank_tol": RANK_TOL, "winding": wind,
                     "matches_minus_winding": ker - coker == -wind})


def numerical_index_direct_sum(symbol_list, n: int) -> IndexEntry:
    """Kernel/cokernel detection run on the block-diagonal direct sum of the
    rectangular sections (not on the per-block results)."""
    ker, coker = _stable_counts(symbol_list, n)
    return IndexEntry(
        label="direct-sum", dim_ker=ker, dim_coker=coker, index=ker - coker,
        diagnostics={"n": n, "blocks": len(symbol_list)})


def aggregate_index(entries) -> IndexReport:
    """Exact integer aggregation of per-component index entries."""
    seen = set()
    for e in entries:
        if e.label in seen:
            raise DuplicateComponentError(f"duplicate component {e.label!r}")
        seen.add(e.label)
    return IndexReport(
        components=tuple(entries),
        total_ker=sum(e.dim_ker for e in entries),
        total_coker=sum(e.dim_coker for e in entries),
        total_index=sum(e.index for e in entries))


# --------------------------------------------------------------------------
# Locality defect

def _torus_min_distance(pts_a, pts_b, period) -> float:
    delta = np.abs(pts_a[:, None, :] - pts_b[None, :, :])
    delta = np.minimum(delta, period - delta)
    return float(np.sqrt((delta ** 2).sum(-1)).min())


def locality_defect(a_op: DiscreteOperator, f, g) -> float:
    """Weighted operator norm of f*A*g for cutoffs with disjoint supports
    (separation >= 2h on the torus): the compactness proxy for locality."""
    grid = a_op.src.grid if a_op.src is not None else None
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != (a_op.shape[0],) or g.shape != (a_op.shape[1],):
        raise ValueError("cutoff functions must be grid functions")
    if grid is not None:
        pts = grid.points()
        sup_f = pts[np.abs(f) > 0]
        sup_g = pts[np.abs(g) > 0]
        if sup_f.size == 0 or sup_g.size == 0:
            return 0.0
        d = _torus_min_distance(sup_f, sup_g, grid.period)
        if d < 2 * grid.h - 1e-12:
            raise SupportOverlapError(
                f"support separation {d:.6g} < 2h = {2 * grid.h:.6g}")
    return operator_norm(DiscreteOperator.diagonal(f, a_op.dst, a_op.dst)
                         @ a_op
                         @ DiscreteOperator.diagonal(g, a_op.src, a_op.src))


# --------------------------------------------------------------------------
# Partition-of-unity assembly

def _support_arcs(rows, shape):
    """Per patch and axis, the shortest cyclic arc that covers the
    projection of supp rows[j] on a grid of ``shape``: starts and lengths,
    each (J, d).  An empty support gets the arc (0, 0)."""
    occupied = np.stack([r.reshape(shape) != 0 for r in rows])
    starts, lengths = [], []
    for a, n in enumerate(shape):
        hit = np.any(occupied, axis=tuple(
            b + 1 for b in range(len(shape)) if b != a))
        # on the doubled axis, free cells run from the last hit up to
        # position i; the longest run ending in the second half is the
        # widest cyclic gap, and the arc is its complement
        pos = np.arange(2 * n)
        last = np.maximum.accumulate(np.where(np.tile(hit, 2), pos, -1),
                                     axis=1)
        run = (pos - last)[:, n:]
        end = np.argmax(run, axis=1)
        empty = ~hit.any(axis=1)
        starts.append(np.where(empty, 0, (end + 1) % n))
        lengths.append(np.where(empty, 0, n - run.max(axis=1)))
    return np.stack(starts, axis=1), np.stack(lengths, axis=1)


def _box_cutoffs(rows, starts, box, n):
    """Cutoffs read into their boxes, which start at ``starts`` (J, d) and
    wrap modulo n: a sparse (J * prod(box), P) matrix whose rows run over
    (t_1, j, t_2, ..., t_d), the window layout of _MultiplierWindows, and
    hold cutoff j at box position t, in the column of the grid point there."""
    index = np.zeros((len(rows),) + (1,) * len(box), dtype=np.intp)
    for a, b in enumerate(box):
        shape = [len(rows)] + [1] * len(box)
        shape[a + 1] = b
        index = index * n + ((starts[:, a, None] + np.arange(b)) % n
                             ).reshape(shape)
    vals = np.stack([r[i] for r, i in zip(rows, index)])
    index, vals = (np.moveaxis(a, 0, 1).ravel() for a in (index, vals))
    keep = np.flatnonzero(vals)
    return csr_matrix((vals[keep], (keep, index[keep])),
                      shape=(vals.size, rows[0].size))


def _at_offsets(kernel, offsets) -> np.ndarray:
    """Entries of a periodic kernel at per-axis offsets, each taken modulo
    the kernel's extent on its axis; the offset arrays broadcast."""
    return kernel.ravel()[np.ravel_multi_index(offsets, kernel.shape,
                                               mode="wrap")]


def _dft_matrix(size) -> np.ndarray:
    """The size x size DFT matrix exp(-2 pi i m n / size)."""
    r = np.arange(size)
    return np.exp(-2j * np.pi * (np.outer(r, r) % size) / size)


def _box_dft(y, mats):
    """Apply mats[a] along box axis a of y, laid out (B_1, J, k, B_2, ...,
    B_d): the first axis by one matrix product from the left, the last by
    one from the right, any axis between them as a stack of products."""
    shape = list(y.shape)
    y = mats[0] @ y.reshape(shape[0], -1)
    shape[0] = mats[0].shape[0]
    for pos, m in enumerate(mats[1:], start=3):
        if pos == len(shape) - 1:
            y = y.reshape(-1, shape[pos]) @ m.T
        else:
            y = m @ y.reshape(math.prod(shape[:pos]), shape[pos], -1)
        shape[pos] = m.shape[0]
    return y.reshape(shape)


class _MultiplierWindows:
    """Frozen-multiplier patches sum_j f_j A_j g_j, applied as exact linear
    convolutions inside small boxes instead of circular ones over the
    torus.

    Per axis, the f box of patch j starts at the cyclic arc covering
    supp f_j, the g box at the arc covering supp g_j; their sizes B_f and
    B_g are the longest arcs over all patches.  Between the boxes A_j only
    reads its kernel at offsets a_f - a_g + m with -B_g < m < B_f, so a
    zero-padded DFT of size L = B_f + B_g - 1 applies it exactly.  Where L
    would reach N the axis takes L = N, on which the circular convolution
    is A_j itself.  The DFTs are products with L x B DFT matrices, one per
    axis and batched over all patches, so a matvec is 2d BLAS products;
    batched small FFTs took twice as long and varied more from run to run.
    Kept: f and g on their boxes (as sparse gather matrices that also
    record the box starts), the spectra of the kernel windows over L^d,
    and the DFT matrices.
    """

    def __init__(self, values, f_rows, g_rows, grid):
        n, d = grid.n, grid.dim
        f_start, f_len = _support_arcs(f_rows, (n,) * d)
        g_start, g_len = _support_arcs(g_rows, (n,) * d)
        self.b_f = tuple(int(b) for b in np.maximum(f_len.max(axis=0), 1))
        self.b_g = tuple(int(b) for b in np.maximum(g_len.max(axis=0), 1))
        self.size = tuple(min(bf + bg - 1, n)
                          for bf, bg in zip(self.b_f, self.b_g))
        self.f = _box_cutoffs(f_rows, f_start, self.b_f, n)
        self.g = _box_cutoffs(g_rows, g_start, self.b_g, n)
        self.f_t, self.g_t = self.f.T, self.g.T
        # window offsets m: 0 .. L - B_g, then -(B_g - 1) .. -1 wrapped
        m = [np.r_[0:size - bg + 1, 1 - bg:0]
             for size, bg in zip(self.size, self.b_g)]
        # windows and spectra in the window layout (L_1, J, L_2, ..., L_d)
        self.axes = (0,) + tuple(range(2, d + 1))
        windows = np.stack([
            _at_offsets(np.fft.ifftn(vals.reshape((n,) * d)),
                        np.ix_(*(fa - ga + ma for fa, ga, ma
                                 in zip(f_start[j], g_start[j], m))))
            for j, vals in enumerate(values)], axis=1)
        spectra = np.fft.fftn(windows, axes=self.axes)
        # the 1/L^d of the inverse DFT folded in, and an axis for k
        spectra /= math.prod(self.size)
        self.spectra = spectra[:, :, None]
        self.dft = [_dft_matrix(size) for size in self.size]
        self.idft = [w.conj() for w in self.dft]

    def apply(self, v, adjoint=False) -> np.ndarray:
        """sum_j f_j A_j g_j v, or sum_j g_j A_j^H f_j v with ``adjoint``,
        for v of shape (P,) or (P, k)."""
        block = v.reshape(v.shape[0], -1)
        k = block.shape[1]
        if adjoint:
            # A_j^H has the conjugate spectrum, so conj(A_j^H x) is A_j's
            # pipeline with conjugate DFT matrices, applied to conj(x)
            src, dst_t, src_box, dst_box = self.f, self.g_t, self.b_f, self.b_g
            dft, idft = self.idft, self.dft
            block = block.conj()
        else:
            src, dst_t, src_box, dst_box = self.g, self.f_t, self.b_g, self.b_f
            dft, idft = self.dft, self.idft
        y = (src @ block).reshape(src_box[:1] + (-1,) + src_box[1:] + (k,))
        y = _box_dft(np.moveaxis(y, -1, 2),
                     [w[:, :b] for w, b in zip(dft, src_box)])
        y *= self.spectra
        y = _box_dft(y, [w[:b] for w, b in zip(idft, dst_box)])
        out = dst_t @ np.moveaxis(y, 2, -1).reshape(-1, k)
        return (out.conj() if adjoint else out).reshape(v.shape)

    def add_dense(self, mat) -> None:
        """Add each patch's block on supp f_j x supp g_j to ``mat``, read off
        its kernel window at the box offsets (t - s) mod L."""
        windows = np.moveaxis(np.fft.ifftn(
            self.spectra[:, :, 0] * math.prod(self.size), axes=self.axes),
            1, 0)
        for window, (t, rows, f), (s, cols, g) in zip(
                windows, _patch_entries(self.f, len(windows), self.b_f),
                _patch_entries(self.g, len(windows), self.b_g)):
            block = _at_offsets(window, tuple(
                ta[:, None] - sa[None, :] for ta, sa in zip(t, s)))
            mat[np.ix_(rows, cols)] += f[:, None] * block * g[None, :]


def _patch_entries(cutoffs, n_patch, box):
    """Per patch, the box coordinates, grid points and values of the
    nonzero entries of a _box_cutoffs matrix."""
    coo = cutoffs.tocoo()
    first, j, *rest = np.unravel_index(coo.row, box[:1] + (n_patch,) + box[1:])
    order = np.argsort(j, kind="stable")
    ends = np.searchsorted(j[order], np.arange(n_patch + 1))
    pos = [p[order] for p in (first, *rest)]
    col, data = coo.col[order], coo.data[order]
    return [(tuple(p[a:b] for p in pos), col[a:b], data[a:b])
            for a, b in zip(ends[:-1], ends[1:])]


def assemble_operator(family, pou: PartitionOfUnity,
                      grid: LatticeGrid | None = None,
                      outside: str = "error") -> DiscreteOperator:
    """Sum_j f_j * A_j * g_j over the covering balls, with A_j looked up in
    ``family`` by ball center.  ``outside`` controls grid points beyond the
    covered set (see PartitionOfUnity.evaluate_f).

    Frozen-multiplier patches are applied in small zero-padded FFT windows
    (see _MultiplierWindows); every other patch keeps its own matvec."""
    balls = pou.covering.balls
    ops = []
    for ball in balls:
        if ball.center not in family:
            raise MissingPatchError(f"no operator for patch at {ball.center}")
        ops.append(family[ball.center])
    if not ops:
        raise MissingPatchError("empty covering")
    src, dst = ops[0].src, ops[0].dst
    shape = ops[0].shape
    for op in ops:
        if op.shape != shape:
            raise ValueError("patch operators must share their grid")
    if grid is None:
        grid = src.grid
    pts = grid.points()
    f_vals = pou.evaluate_f(pts, outside=outside)
    g_vals = pou.evaluate_g(pts)
    mult = [j for j, op in enumerate(ops) if op.kind == "multiplier"]
    windows = None if not mult else _MultiplierWindows(
        [ops[j].data for j in mult], [f_vals[j] for j in mult],
        [g_vals[j] for j in mult], ops[mult[0]].src.grid)
    # copies, so that the full (J, P) cutoff arrays are not kept alive
    others = [(np.array(f_vals[j]), np.array(g_vals[j]), op)
              for j, op in enumerate(ops) if op.kind != "multiplier"]

    def mv(v):
        out = np.zeros_like(v) if windows is None else windows.apply(v)
        for fj, gj, op in others:
            out = out + _scale_rows(fj, op.matvec(_scale_rows(gj, v)))
        return out

    def rmv(v):
        out = np.zeros_like(v) if windows is None \
            else windows.apply(v, adjoint=True)
        for fj, gj, op in others:
            out = out + _scale_rows(gj, op.rmatvec(_scale_rows(fj, v)))
        return out

    def dense():
        # patch j touches only rows supp f_j and columns supp g_j
        mat = np.zeros(shape, dtype=complex)
        if windows is not None:
            windows.add_dense(mat)
        for fj, gj, op in others:
            rows, cols = np.flatnonzero(fj), np.flatnonzero(gj)
            mat[np.ix_(rows, cols)] += (fj[rows, None] * op.block(rows, cols)
                                        * gj[None, cols])
        return mat

    return DiscreteOperator(shape, mv, rmv, src, dst, kind="composite",
                            provenance={"construction": "assembled",
                                        "n_patches": len(ops)},
                            dense=dense)


def quantize_full_symbol(s: Symbol, grid: LatticeGrid,
                         src: DiscreteSobolevSpace,
                         dst: DiscreteSobolevSpace) -> DiscreteOperator:
    """Dense direct quantization of an x-dependent symbol on the torus:
    (A u)(x) = sum_xi a(x, xi) u_hat(xi) e^(i x.xi).  Reference object for
    patch-assembly comparisons; dense, so limited to small grids."""
    if abs(dst.s_order - (src.s_order - s.order_alpha)) > 1e-12:
        raise OrderMismatch("target order != source order - symbol order")
    p = grid.size
    check_dense_size(p)
    pts = grid.points()
    freqs = grid.frequencies()
    vals = eval_on_grid(s.expr, pts[:, None, :], freqs[None, :, :].astype(complex))
    finv = grid.ifft_flat(np.eye(p, dtype=complex))
    fwd = grid.fft_flat(np.eye(p, dtype=complex))
    mat = (vals * finv) @ fwd
    return DiscreteOperator.from_matrix(
        mat, src, dst, provenance={"construction": "full-quantization",
                                   "symbol": str(s.expr)})


def assemble_frozen_family(s: Symbol, pou: PartitionOfUnity,
                           grid: LatticeGrid, src: DiscreteSobolevSpace,
                           dst: DiscreteSobolevSpace,
                           outside: str = "error") -> DiscreteOperator:
    """Assembled operator with the frozen-coefficient family at the ball
    centers (the standard patch quantization of an x-dependent symbol)."""
    family = {
        ball.center: discretize_symbol_op(s, ball.center, grid, src, dst)
        for ball in pou.covering.balls
    }
    return assemble_operator(family, pou, grid, outside=outside)


def assembly_convergence(s: Symbol, strat, eps_sequence, grid: LatticeGrid,
                         s_order: float = 1.0):
    """Essential-norm proxy of consecutive assembly differences for a
    decreasing ladder of covering radii.

    Returns a list of rows {eps_coarse, eps_fine, proxy}.  The proxy is the
    weighted operator norm compressed to the upper frequency half; callers
    check that the table decreases.
    """
    eps_sequence = [float(e) for e in eps_sequence]
    if len(eps_sequence) < 3:
        raise ValueError("need at least 3 covering radii")
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("covering radii must be strictly decreasing")

    src = DiscreteSobolevSpace(grid, s_order)
    dst = DiscreteSobolevSpace(grid, s_order - s.order_alpha)
    pts = grid.points()
    assembled = []
    for eps in eps_sequence:
        cov = build_covering(strat, eps, cover_points=pts)
        pou = partition_of_unity(cov, pts)
        assembled.append(assemble_frozen_family(s, pou, grid, src, dst))
    mask = high_frequency_mask(grid)
    table = []
    for (e_coarse, a_coarse), (e_fine, a_fine) in zip(
            zip(eps_sequence, assembled), zip(eps_sequence[1:], assembled[1:])):
        table.append({"eps_coarse": e_coarse, "eps_fine": e_fine,
                      "proxy": operator_norm(a_coarse - a_fine,
                                             freq_mask=mask)})
    return table


# --------------------------------------------------------------------------
# Portable export

def export_operator(op: DiscreteOperator, base_path) -> None:
    """Write the dense matrix as little-endian complex128 row-major bytes
    with a JSON sidecar describing dims, orders and provenance."""
    mat = np.ascontiguousarray(op.to_dense().astype("<c16"))
    base = str(base_path)
    with open(base + ".bin", "wb") as fh:
        fh.write(mat.tobytes())
    sidecar = {
        "format": "complex128-le-row-major",
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "src_order": None if op.src is None else op.src.s_order,
        "dst_order": None if op.dst is None else op.dst.s_order,
        "grid": None if op.src is None else {
            "dim": op.src.grid.dim, "n": op.src.grid.n, "h": op.src.grid.h,
            "origin": list(op.src.grid.origin)},
        "provenance": op.provenance,
    }
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)


def import_operator(base_path):
    base = str(base_path)
    with open(base + ".json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    raw = np.fromfile(base + ".bin", dtype="<c16")
    mat = raw.reshape(sidecar["rows"], sidecar["cols"]).astype(complex)
    return mat, sidecar
