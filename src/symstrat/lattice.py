"""Discrete realizations on periodic lattices.

Frozen-coefficient operators are exact Fourier multipliers on the torus
(inverse DFT o multiply o DFT), so products of frozen operators commute
exactly and projection/boundary effects can be studied in isolation.
Sobolev norms are weighted l2 norms of DFT coefficients with weights
(1+|xi|^2)^(s/2).

The half-space boundary model is the truncated convolution (Toeplitz)
operator T(a) of a Laurent symbol; the same count reads the product
T(a)T(b), of the index of T(ab) but not its counts, and the paired operator
a P + b Q on l2(Z), of index wind b - wind a.  Square truncations always
have index zero, so kernel detection uses rectangular sections: decaying
kernel vectors show up as null vectors away from the edge, while truncation
artifacts concentrate at the edge and are filtered out by dropping the edge
columns before the rank test.  Counts must agree between section sizes N
and 2N or UnstableRank is raised.

No section is ever dense.  A band writer (_product_band, which gives T(a)
as T(a)T(1), or _paired_band) puts the restricted section S straight into
LAPACK band storage, and zgbbrd reduces it in place, in O(N^2 b) for b
diagonals, to a real upper bidiagonal B with the singular values of S.
They are the eigenvalues +-sigma_i of the zero-diagonal Golub-Kahan
tridiagonal of B, and the rank threshold is set against a bound on the
operator's norm known before any reduction, such as ||T(a)|| = max |a(z)|
on the unit circle, so one Sturm count (dstebz) on an interval around zero
reads the kernel count (see _kernel_count).  Unlike S^H S the tridiagonal
does not square the singular values, so a rank tolerance of 1e-8 stays 1e-8.
scipy.linalg.lapack has no zgbbrd wrapper, so the function that
scipy.linalg.cython_lapack exports is called through ctypes: no compiled
code of this package, and ctypes releases the GIL during the call.

The essential-norm proxy used by the assembly convergence table is the
operator norm compressed to the upper half of the frequency grid; it is a
proxy (compact parts are suppressed, not subtracted) and is always
reported as such.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dstebz
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, svds

from .analysis import dump_json
from .dsl import eval_on_grid
from .errors import (ConfigError, MissingPatchError, NormNotConverged,
                     OrderMismatch, SupportOverlapError, UnstableRank,
                     UnsupportedModelError)
from .geometry import (PartitionOfUnity, build_covering, partition_of_unity,
                       stratify_model)
from . import symbols
from .laurent import LaurentPolynomial
from .symbols import Symbol, eval_blocks

__all__ = [
    "LatticeGrid", "DiscreteSobolevSpace", "DiscreteOperator",
    "discretize_symbol_op", "numerical_index", "numerical_index_product",
    "numerical_index_paired", "IndexEntry", "locality_defect",
    "assemble_operator", "assemble_frozen_family", "assemble_rung",
    "assembly_convergence",
    "quantize_full_symbol", "operator_norm", "high_frequency_mask",
    "check_dense_size", "export_operator",
]

DENSE_LIMIT = 2048          # max side of a materialized matrix
# Lanczos basis size (PROPACK's kmax) of operator_norm's svds, doubled on
# each failure up to the limit; svds passes its maxiter through as kmax,
# so an unbounded one spans the whole space
_PROPACK_KMAX = 48
_PROPACK_KMAX_LIMIT = 768
RANK_TOL = 1e-8
# unit vectors per matvec in DiscreteOperator.to_dense: a sum of assembled
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
        if self.dim < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dim}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 8 or (
                self.n & (self.n - 1)) != 0:
            raise ValueError(f"N must be an integer power of two >= 8, got "
                             f"{self.n!r}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"spacing must be positive and finite, "
                             f"got {self.h}")
        # a tuple, so that a grid can key the rung cache
        object.__setattr__(self, "origin", (0.0,) * self.dim
                           if self.origin is None else tuple(self.origin))
        if len(self.origin) != self.dim:
            raise ValueError("origin dimension mismatch")
        elif not all(math.isfinite(v) for v in self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")

    @property
    def size(self) -> int:
        return self.n ** self.dim

    @property
    def period(self) -> float:
        return self.n * self.h

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

    def __post_init__(self):
        if not math.isfinite(self.s_order):
            raise ValueError(f"Sobolev order must be finite, "
                             f"got {self.s_order}")

    def weights(self) -> np.ndarray:
        xi = self.grid.frequencies()
        return (1.0 + (xi ** 2).sum(axis=1)) ** (self.s_order / 2.0)


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
    return new operators.  ``spectrum`` holds a Fourier multiplier's values
    on the dual grid, from which operator_norm reads its norm in closed
    form; it is None for every other operator.  ``dense`` builds the dense
    matrix of a matrix or an assembled frozen family (see to_dense).  An
    operator keeps no record of how it was built: a caller that exports
    one passes that record to export_operator.
    """

    def __init__(self, shape, matvec, rmatvec, src=None, dst=None,
                 spectrum=None, dense=None):
        self.shape = tuple(shape)
        self._matvec = matvec
        self._rmatvec = rmatvec
        self.src = src
        self.dst = dst
        self.spectrum = spectrum
        self._build_dense = dense

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_matrix(mat, src=None, dst=None):
        mat = np.asarray(mat, dtype=complex)
        return DiscreteOperator(
            mat.shape,
            lambda v: mat @ v,
            lambda v: mat.conj().T @ v,
            src, dst, dense=lambda: mat)

    @staticmethod
    def multiplier(values, src, dst):
        values = np.asarray(values, dtype=complex)
        grid = src.grid
        if values.shape != (grid.size,):
            raise ValueError("multiplier values must live on the dual grid")

        return DiscreteOperator(
            (grid.size, grid.size),
            lambda v: grid.ifft_flat(_scale_rows(values, grid.fft_flat(v))),
            lambda v: grid.ifft_flat(_scale_rows(values.conj(),
                                                 grid.fft_flat(v))),
            src, dst, spectrum=values)

    @staticmethod
    def diagonal(values, src=None, dst=None):
        values = np.asarray(values, dtype=complex)
        return DiscreteOperator((values.size, values.size),
                                lambda v: _scale_rows(values, v),
                                lambda v: _scale_rows(values.conj(), v),
                                src, dst)

    @staticmethod
    def identity(space):
        vals = np.ones(space.grid.size)
        return DiscreteOperator.diagonal(vals, space, space)

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
            other.src, self.dst)

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("operator shapes do not subtract")
        return DiscreteOperator(
            self.shape,
            lambda v: self.matvec(v) - other.matvec(v),
            lambda v: self.rmatvec(v) - other.rmatvec(v),
            self.src or other.src, self.dst or other.dst)

    # -- materialization ---------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """The dense matrix: the ``dense`` builder's if there is one, else
        the operator applied to the unit vectors, _BLOCK_COLUMNS at a time."""
        n_dst, n_src = self.shape
        check_dense_size(max(n_dst, n_src))
        if self._build_dense is not None:
            return self._build_dense()
        out = np.empty(self.shape, dtype=complex)
        for start in range(0, n_src, _BLOCK_COLUMNS):
            unit = np.eye(n_src, min(_BLOCK_COLUMNS, n_src - start), -start,
                          dtype=complex)
            out[:, start:start + unit.shape[1]] = self.matvec(unit)
        return out


# --------------------------------------------------------------------------
# Norms

def _conjugated_linear_operator(op: DiscreteOperator,
                                freq_mask=None) -> LinearOperator:
    """The operator expressed between weighted DFT coordinate spaces, so
    its plain sigma_max is the H^s_src -> H^s_dst operator norm.  An
    optional 0/1 frequency mask compresses both sides, folded into the
    weights."""
    if op.src is None or op.dst is None:
        mv, rmv = op.matvec, op.rmatvec
    else:
        g_src, g_dst = op.src.grid, op.dst.grid
        q = 1.0 if freq_mask is None else np.asarray(freq_mask, float)
        w_in = q / op.src.weights()
        w_out = q * op.dst.weights()

        def mv(v):
            u = g_src.ifft_flat(_scale_rows(w_in, v))
            return _scale_rows(w_out, g_dst.fft_flat(op.matvec(u)))

        def rmv(v):
            y = g_dst.ifft_flat(_scale_rows(w_out, v))
            return _scale_rows(w_in, g_src.fft_flat(op.rmatvec(y)))

    return LinearOperator(op.shape, matvec=lambda v: mv(v.astype(complex)),
                          rmatvec=lambda v: rmv(v.astype(complex)),
                          matmat=mv, dtype=complex)


def operator_norm(op: DiscreteOperator, freq_mask=None) -> float:
    """Operator norm in the weighted source/target norms (plain l2 when the
    operator has no attached spaces).  Multipliers have a closed form and
    operators under 3 points the norm of their matrix; any other goes to
    PROPACK's Lanczos bidiagonalization of A itself (svds, seeded so that
    the norm is deterministic).  A basis that fails to converge is doubled,
    capped at min(shape) and _PROPACK_KMAX_LIMIT; NormNotConverged names
    the last one."""
    if op.spectrum is not None and op.src is not None and op.dst is not None:
        ratio = np.abs(op.spectrum) * op.dst.weights() / op.src.weights()
        if freq_mask is not None:
            ratio = ratio[np.asarray(freq_mask, bool)]
            if ratio.size == 0:
                return 0.0
        return float(np.max(ratio))

    if freq_mask is not None and (op.src is None or op.dst is None):
        raise ValueError("frequency mask needs lattice spaces")
    n_dst, n_src = op.shape
    lin = _conjugated_linear_operator(op, freq_mask)
    if min(op.shape) < 3:
        # too small for a Lanczos basis; take the norm directly
        return float(np.linalg.norm(lin.matmat(np.eye(n_src, dtype=complex)),
                                    2))
    u0 = np.ones(n_dst, dtype=complex) / math.sqrt(n_dst)
    largest = min(n_dst, n_src, _PROPACK_KMAX_LIMIT)
    kmax = _PROPACK_KMAX
    while True:
        try:
            sigma = svds(lin, k=1, solver="propack", v0=u0, maxiter=kmax,
                         tol=1e-9, rng=np.random.default_rng(0),
                         return_singular_vectors=False)
            return float(sigma[0])
        except LinAlgError as exc:
            # no convergence within kmax, or an invariant subspace (as from
            # a start that A^H annihilates); other errors propagate
            if kmax >= largest:
                raise NormNotConverged(
                    f"{exc}; PROPACK found no norm of the {n_dst}x{n_src} "
                    f"operator with a basis of up to {kmax} vectors") from exc
        kmax = min(2 * kmax, largest)


# --------------------------------------------------------------------------
# Quantization of frozen symbols

def discretize_symbol_op(s: Symbol, x0, grid: LatticeGrid,
                         src: DiscreteSobolevSpace,
                         dst: DiscreteSobolevSpace) -> DiscreteOperator:
    """Exact Fourier multiplier of the symbol frozen at x0, mapping
    H^s -> H^(s-alpha) on the torus: the one-center case of
    :func:`_frozen_values`."""
    _check_frozen_spaces(s, grid, src, dst)
    x0 = np.asarray(x0, dtype=float)
    values = _frozen_values(s, x0[None, :], grid.frequencies().astype(complex))
    return DiscreteOperator.multiplier(values[0], src, dst)


def _check_frozen_spaces(s: Symbol, grid: LatticeGrid,
                         src: DiscreteSobolevSpace,
                         dst: DiscreteSobolevSpace) -> None:
    """Refuse spaces whose orders do not differ by the symbol's order
    (OrderMismatch) or that live on another grid (ValueError)."""
    if abs(dst.s_order - (src.s_order - s.order_alpha)) > 1e-12:
        raise OrderMismatch(
            f"target order {dst.s_order} != source order {src.s_order} "
            f"minus symbol order {s.order_alpha}")
    if src.grid != grid or dst.grid != grid:
        raise ValueError("source/target spaces must live on the given grid")


def _frozen_values(s: Symbol, centers: np.ndarray,
                   freqs: np.ndarray) -> np.ndarray:
    """The symbol at each of the centers (J, m) against the frequencies
    (P, m), as one (J, P) array.  Every center is evaluated in the blocks
    of :func:`~symstrat.symbols.eval_blocks`; an evaluation error is that
    of the first failing center."""
    values = np.empty((len(centers), len(freqs)), dtype=complex)
    for block, vals in eval_blocks(s.expr, centers, freqs):
        values[:, block] = vals
    return values


# --------------------------------------------------------------------------
# Toeplitz sections and numerical index

def _exported_lapack(name: str, n_args: int):
    """The C function that scipy.linalg.cython_lapack exports as ``name``,
    typed to take each of its ``n_args`` arguments by address.  ctypes
    releases the GIL while it runs."""
    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    signature = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    if signature.count(b"*") != n_args:
        raise ImportError(f"cython_lapack exports {name} as {signature!r}, "
                          f"not as a function of {n_args} pointers")
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, signature)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


# scipy.linalg.lapack has no zgbbrd wrapper
_ZGBBRD = _exported_lapack("zgbbrd", 19)


def _bidiagonal(section) -> tuple:
    """(d, e), the diagonal and superdiagonal of a real upper bidiagonal B
    with the singular values of a rows x cols section S, rows >= cols, as
    (band, rows, kl, ku): S[i, j] at band[j, ku + i - j], zero off the
    diagonals -ku <= i - j <= kl (LAPACK band storage, in Fortran order).
    zgbbrd reduces it in place with vect='N' (no Q or P^H is formed)."""
    band, rows, kl, ku = section
    cols = band.shape[0]
    d, e = np.empty(cols), np.empty(cols)
    work, rwork = np.empty(rows, dtype=complex), np.empty(rows)
    unused = np.zeros(1, dtype=complex)        # Q, P^H and C are not formed
    # each call owns its arrays, so calls from several threads may overlap
    ints = np.array([rows, cols, 0, kl, ku, kl + ku + 1, 1, 0],
                    dtype=np.intc)
    p_rows, p_cols, p_ncc, p_kl, p_ku, p_ldab, p_ld, p_info = (
        ints.ctypes.data + k * ints.itemsize for k in range(ints.size))
    # ldq = ldpt = ldc = 1
    _ZGBBRD(b"N", p_rows, p_cols, p_ncc, p_kl, p_ku, band.ctypes.data, p_ldab,
            d.ctypes.data, e.ctypes.data, unused.ctypes.data, p_ld,
            unused.ctypes.data, p_ld, unused.ctypes.data, p_ld,
            work.ctypes.data, rwork.ctypes.data, p_info)
    if ints[7] != 0:
        raise LinAlgError(f"zgbbrd: illegal value in argument {-ints[7]} "
                          f"(info={ints[7]})")
    return d, e[:cols - 1]


def _product_band(a, b, n: int, adjoint: bool = False) -> tuple:
    """The restricted N x (N - _EDGE_PAD) section of T(a)T(b), or of its
    adjoint T(b~)T(a~), for _bidiagonal: by Widom's formula T(a)T(b) =
    T(ab) - H(a)H(b~) (Boettcher & Silbermann, Analysis of Toeplitz
    Operators, Prop. 2.14), the band of T(ab) less the corner
    (H(a)H(b~))[i, j] = sum_k a_{i+k+1} b_{-j-k-1}, i < max_deg(a) and
    j < -min_deg(b), which lies inside that band.  T(a)T(1) is T(a)."""
    if adjoint:
        a, b = b.conj_reflected(), a.conj_reflected()
    rows, cols = n, n - _EDGE_PAD
    lo, hi = a.min_deg + b.min_deg, a.max_deg + b.max_deg
    kl, ku = max(hi, 0), max(-lo, 0)
    band = np.zeros((cols, kl + ku + 1), dtype=complex)
    for deg, c in enumerate(np.convolve(a.coeffs, b.coeffs), lo):
        band[max(0, -deg):min(cols, rows - deg), ku + deg] = c
    for i, j in np.ndindex(min(rows, max(a.max_deg, 0)),
                           min(cols, max(-b.min_deg, 0))):
        if lo <= i - j <= hi:           # the corner vanishes off the band
            band[j, ku + i - j] -= sum(a.coeff(i + k + 1) * b.coeff(
                -j - k - 1) for k in range(a.max_deg - i))
    return band, rows, kl, ku


def _paired_band(a, b, n: int, adjoint: bool = False) -> tuple:
    """The section of a P + b Q on l2(Z) with rows [-N, N) and columns
    [-N + _EDGE_PAD, N - _EDGE_PAD), for _bidiagonal: a_{i-j} in the
    columns j >= 0 and b_{i-j} in the others (P projects onto the indices
    >= 0, Q = I - P).  Its adjoint P a~ + Q b~ takes a~ in the rows i >= 0."""
    if adjoint:
        a, b = a.conj_reflected(), b.conj_reflected()
    rows, cols = 2 * n, 2 * (n - _EDGE_PAD)
    lo = min(a.min_deg, b.min_deg) + _EDGE_PAD
    hi = max(a.max_deg, b.max_deg) + _EDGE_PAD
    kl, ku = max(hi, 0), max(-lo, 0)
    band = np.zeros((cols, kl + ku + 1), dtype=complex)
    for diag in range(lo, hi + 1):
        # a starts at operator column 0, or in the adjoint at operator row 0
        split = n - diag if adjoint else n - _EDGE_PAD
        first, last = max(0, -diag), min(cols, rows - diag)
        band[first:last, ku + diag] = b.coeff(diag - _EDGE_PAD)
        band[max(first, split):last, ku + diag] = a.coeff(diag - _EDGE_PAD)
    return band, rows, kl, ku


def _kernel_count(section, rank_tol: float, scale: float) -> int:
    """#{sigma_i <= rank_tol * scale} over the singular values of a
    restricted section (see _bidiagonal), ``scale`` a bound on the
    operator's norm: its decaying null vectors reappear there as near-null
    directions, edge artifacts and growing recurrence solutions do not.
    The sigma_i are the eigenvalues of the zero-diagonal Golub-Kahan
    tridiagonal T, off-diagonal d_1, e_1, ..., d_m, so one Sturm count
    (dstebz) of those of T / scale in (-rank_tol, rank_tol], with an abstol
    that skips the bisection, is twice the count.  An odd count, or a
    rank_tol at or below the roundoff floor dim * eps of T of order dim,
    raises UnstableRank, the latter before any LAPACK call."""
    band, rows = section[:2]
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    dim = 2 * band.shape[0]
    floor = dim * np.finfo(float).eps
    if rank_tol <= floor:
        raise UnstableRank(
            f"rank_tol={rank_tol:g} for the {rows} x {dim // 2} section is not "
            f"above the roundoff floor {floor:.3g} (order {dim} times eps) of "
            f"the Golub-Kahan tridiagonal")
    off = np.empty(dim - 1)
    off[::2], off[1::2] = _bidiagonal(section)
    # range=1 asks for the eigenvalues in (vl, vu], so il and iu go unused
    m, _, _, _, info = dstebz(np.zeros(dim), off / scale, 1, -rank_tol,
                              rank_tol, 1, dim, 4 * rank_tol, "E")
    if info != 0:
        raise LinAlgError(f"dstebz: bisection failed (info={info})")
    if m % 2:
        raise UnstableRank(
            f"{m} eigenvalues of the Golub-Kahan tridiagonal of the {rows} x "
            f"{dim // 2} section are at most rank_tol={rank_tol:g} times the "
            f"scale {scale:.6g}, which is not pairs +-sigma")
    return int(m) // 2


@dataclass(frozen=True)
class IndexEntry:
    dim_ker: int
    dim_coker: int

    @property
    def index(self) -> int:
        return self.dim_ker - self.dim_coker


def _stable_counts(write, a, b, n: int, span: int,
                   scale: float) -> IndexEntry:
    """Kernel counts of ``write(a, b, m)`` and of its adjoint (the cokernel)
    against ``scale``, which must agree at m = N and 2N.  An N below
    _EDGE_PAD + max(_EDGE_PAD, span + 1) raises ValueError."""
    least = _EDGE_PAD + max(_EDGE_PAD, span + 1)
    if n < least:
        raise ValueError(f"N={n} is below the least section size {least}")
    if not np.isfinite(scale):
        raise ValueError(f"the scale {scale} of the counts is not finite")
    kers = [_kernel_count(write(a, b, m), RANK_TOL, scale) for m in (n, 2 * n)]
    coks = [_kernel_count(write(a, b, m, adjoint=True), RANK_TOL, scale)
            for m in (n, 2 * n)]
    if kers[0] != kers[1] or coks[0] != coks[1]:
        raise UnstableRank(
            f"kernel counts did not stabilize between N={n} and 2N: "
            f"ker {kers}, coker {coks}")
    return IndexEntry(kers[0], coks[0])


_ONE = LaurentPolynomial.make([1], 0)


def numerical_index(coeffs: LaurentPolynomial, n: int) -> IndexEntry:
    """Kernel/cokernel dimensions of the semi-infinite Toeplitz operator
    T(a), counted as T(a)T(1) on sections N and 2N."""
    return numerical_index_product(coeffs, _ONE, n)


def numerical_index_product(a: LaurentPolynomial, b: LaurentPolynomial,
                            n: int) -> IndexEntry:
    """Kernel/cokernel dimensions of T(a)T(b), against max |a| max |b|
    (max |1| = 1 needs no samples)."""
    return _stable_counts(_product_band, a, b, n, a.max_deg - a.min_deg
                          + b.max_deg - b.min_deg, a.circle_max("a") * (
                              1.0 if b is _ONE else b.circle_max("b")))


def numerical_index_paired(a: LaurentPolynomial, b: LaurentPolynomial,
                           n: int) -> IndexEntry:
    """Kernel/cokernel dimensions of the paired operator a P + b Q (see
    _paired_band), against max(max |a|, max |b|)."""
    return _stable_counts(_paired_band, a, b, n, max(a.max_deg, b.max_deg)
                          - min(a.min_deg, b.min_deg),
                          max(a.circle_max("a"), b.circle_max("b")))


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


class _WindowGeometry:
    """The part of a windowed assembly that the symbol does not enter:
    what :class:`_MultiplierWindows` reads besides the spectra.

    Per axis, the f box of patch j starts at the cyclic arc covering
    supp f_j, the g box at the arc covering supp g_j; their sizes B_f and
    B_g are the longest arcs over all patches.  Between the boxes A_j only
    reads its kernel at offsets a_f - a_g + m with -B_g < m < B_f, so a
    zero-padded DFT of size L = B_f + B_g - 1 applies it exactly.  Where L
    would reach N the axis takes L = N, on which the circular convolution
    is A_j itself.  Kept: f and g on their boxes (as sparse gather
    matrices that also record the box starts) and their transposes, the
    box and window sizes, the kernel offsets of each patch and the L x L
    DFT and inverse DFT matrices; not the full-grid cutoffs.  Every array
    is read-only, so one geometry serves every ladder that shares the
    rung (see _shared_rung) and may be read from several threads.
    """

    def __init__(self, f_rows, g_rows, grid):
        n, d = grid.n, grid.dim
        self.torus = (n,) * d
        f_start, f_len = _support_arcs(f_rows, self.torus)
        g_start, g_len = _support_arcs(g_rows, self.torus)
        self.n_patch = len(f_start)
        self.b_f = tuple(int(b) for b in np.maximum(f_len.max(axis=0), 1))
        self.b_g = tuple(int(b) for b in np.maximum(g_len.max(axis=0), 1))
        self.size = tuple(min(bf + bg - 1, n)
                          for bf, bg in zip(self.b_f, self.b_g))
        self.f = _box_cutoffs(f_rows, f_start, self.b_f, n)
        self.g = _box_cutoffs(g_rows, g_start, self.b_g, n)
        self.f_t, self.g_t = self.f.T, self.g.T
        # kernel offsets a_f - a_g + m per patch, each (J, L_a) set on
        # axis a of a batch (J, L_1, ..., L_d), with the window offsets
        # m: 0 .. L - B_g, then -(B_g - 1) .. -1 wrapped
        offsets = []
        for a, (size, bg) in enumerate(zip(self.size, self.b_g)):
            shape = [self.n_patch] + [1] * d
            shape[a + 1] = size
            offsets.append((f_start[:, a, None] - g_start[:, a, None]
                            + np.r_[0:size - bg + 1, 1 - bg:0]).reshape(shape))
        self.offsets = tuple(offsets)
        # the window layout (L_1, J, L_2, ..., L_d) transforms these axes
        self.axes = (0,) + tuple(range(2, d + 1))
        self.dft = tuple(_dft_matrix(size) for size in self.size)
        self.idft = tuple(w.conj() for w in self.dft)
        for arr in (*self.offsets, *self.dft, *self.idft,
                    *(getattr(m, name)
                      for m in (self.f, self.g, self.f_t, self.g_t)
                      for name in ("data", "indices", "indptr"))):
            arr.flags.writeable = False


class _MultiplierWindows:
    """Frozen-multiplier patches sum_j f_j A_j g_j, applied as exact linear
    convolutions inside small boxes instead of circular ones over the
    torus: the boxes, offsets and DFT matrices of a :class:`_WindowGeometry`
    and, per patch, the spectrum of A_j's kernel window over L^d.  The
    DFTs are products with L x B DFT matrices, one per axis and batched
    over all patches, so a matvec is 2d BLAS products; batched small FFTs
    took twice as long and varied more from run to run.  Nothing is
    written after set-up, so ``apply`` may run in several threads at once.

    Only the spectra are set up here, one batch of patches at a time, as
    many as fit in ``ELL_BLOCK_POINTS`` torus points.  The one feeder is
    :func:`_windowed_family`: its ``values(batch)`` evaluates the symbol
    at the batch's ball centers (:func:`_frozen_values`), shape
    (len(batch), P), which one inverse DFT turns into kernels; their
    windows are gathered in one pass and transformed into the batch's
    slice of the spectra.  Only one batch of values, kernels and windows
    is alive at a time.
    """

    def __init__(self, values, geometry):
        self.geometry = geo = geometry
        # spectra in the window layout (L_1, J, L_2, ..., L_d)
        spectra = np.empty(geo.size[:1] + (geo.n_patch,) + geo.size[1:],
                           dtype=complex)
        step = max(1, symbols.ELL_BLOCK_POINTS // math.prod(geo.torus))
        for start in range(0, geo.n_patch, step):
            batch = slice(start, start + step)
            spectra[:, batch] = self._window_spectra(
                values(batch), [o[batch] for o in geo.offsets])
        # the 1/L^d of the inverse DFT folded in, and an axis for k
        spectra /= math.prod(geo.size)
        self.spectra = spectra[:, :, None]

    def _window_spectra(self, values, offsets) -> np.ndarray:
        """The unscaled spectra of one batch's kernel windows, laid out
        (L_1, batch, L_2, ..., L_d)."""
        torus = self.geometry.torus
        kernels = np.fft.ifftn(np.reshape(values, (-1,) + torus),
                               axes=tuple(range(1, len(torus) + 1)))
        rows = np.arange(len(kernels)).reshape((-1,) + (1,) * len(torus))
        windows = np.moveaxis(_at_offsets(kernels, (rows, *offsets)), 0, 1)
        return np.fft.fftn(windows, axes=self.geometry.axes)

    def apply(self, v, adjoint=False) -> np.ndarray:
        """sum_j f_j A_j g_j v, or sum_j g_j A_j^H f_j v with ``adjoint``,
        for v of shape (P,) or (P, k)."""
        geo = self.geometry
        block = v.reshape(v.shape[0], -1)
        k = block.shape[1]
        if adjoint:
            # A_j^H has the conjugate spectrum, so conj(A_j^H x) is A_j's
            # pipeline with conjugate DFT matrices, applied to conj(x)
            src, dst_t, src_box, dst_box = geo.f, geo.g_t, geo.b_f, geo.b_g
            dft, idft = geo.idft, geo.dft
            block = block.conj()
        else:
            src, dst_t, src_box, dst_box = geo.g, geo.f_t, geo.b_g, geo.b_f
            dft, idft = geo.dft, geo.idft
        y = (src @ block).reshape(src_box[:1] + (-1,) + src_box[1:] + (k,))
        y = _box_dft(np.moveaxis(y, -1, 2),
                     [w[:, :b] for w, b in zip(dft, src_box)])
        y *= self.spectra
        y = _box_dft(y, [w[:b] for w, b in zip(idft, dst_box)])
        out = dst_t @ np.moveaxis(y, 2, -1).reshape(-1, k)
        return (out.conj() if adjoint else out).reshape(v.shape)

    def to_dense(self) -> np.ndarray:
        """The P x P matrix, built patch by patch: each patch's block on
        supp f_j x supp g_j is read off its kernel window at the box
        offsets (t - s) mod L."""
        geo = self.geometry
        mat = np.zeros((geo.f.shape[1],) * 2, dtype=complex)
        windows = np.moveaxis(np.fft.ifftn(
            self.spectra[:, :, 0] * math.prod(geo.size), axes=geo.axes),
            1, 0)
        for window, (t, rows, f), (s, cols, g) in zip(
                windows, _patch_entries(geo.f, len(windows), geo.b_f),
                _patch_entries(geo.g, len(windows), geo.b_g)):
            block = _at_offsets(window, tuple(
                ta[:, None] - sa[None, :] for ta, sa in zip(t, s)))
            mat[np.ix_(rows, cols)] += f[:, None] * block * g[None, :]
        return mat


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


def _check_partition(pou: PartitionOfUnity, grid: LatticeGrid) -> None:
    """Refuse a partition not built on ``grid.points()`` (ValueError)."""
    if not np.array_equal(pou.grid_points, grid.points()):
        raise ValueError("the partition of unity is not built on the "
                         "operators' grid points in grid order")


def assemble_operator(family, pou: PartitionOfUnity) -> DiscreteOperator:
    """Sum_j f_j * A_j * g_j over the covering balls, with A_j looked up in
    ``family`` by ball center and f_j, g_j read from the partition's
    stored arrays.  The partition must be built on the operators' grid
    points in grid order (``grid.points()``); any other partition raises
    ValueError.

    Every patch is applied through its own matvec and rmatvec, and the
    dense matrix comes from unit vectors; only
    :func:`assemble_frozen_family` uses kernel windows."""
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
    _check_partition(pou, src.grid)
    # copies, so that the full (J, P) cutoff arrays are not kept alive
    patches = [(np.array(fj), np.array(gj), op)
               for fj, gj, op in zip(pou.f_values, pou.g_values, ops)]

    def mv(v):
        out = np.zeros_like(v)
        for fj, gj, op in patches:
            out = out + _scale_rows(fj, op.matvec(_scale_rows(gj, v)))
        return out

    def rmv(v):
        out = np.zeros_like(v)
        for fj, gj, op in patches:
            out = out + _scale_rows(gj, op.rmatvec(_scale_rows(fj, v)))
        return out

    return DiscreteOperator(shape, mv, rmv, src, dst)


def quantize_full_symbol(s: Symbol, grid: LatticeGrid,
                         src: DiscreteSobolevSpace,
                         dst: DiscreteSobolevSpace) -> DiscreteOperator:
    """Dense direct quantization of an x-dependent symbol on the torus:
    (A u)(x) = sum_xi a(x, xi) u_hat(xi) e^(i x.xi).  Reference object for
    patch-assembly comparisons; dense, so limited to small grids."""
    _check_frozen_spaces(s, grid, src, dst)
    p = grid.size
    check_dense_size(p)
    pts = grid.points()
    freqs = grid.frequencies()
    vals = eval_on_grid(s.expr, pts[:, None, :], freqs[None, :, :].astype(complex))
    finv = grid.ifft_flat(np.eye(p, dtype=complex))
    fwd = grid.fft_flat(np.eye(p, dtype=complex))
    mat = (vals * finv) @ fwd
    return DiscreteOperator.from_matrix(mat, src, dst)


def assemble_frozen_family(s: Symbol, pou: PartitionOfUnity,
                           grid: LatticeGrid, src: DiscreteSobolevSpace,
                           dst: DiscreteSobolevSpace) -> DiscreteOperator:
    """Assembled operator with the frozen-coefficient family at the ball
    centers (the standard patch quantization of an x-dependent symbol):
    the sum of f_j A_j g_j with A_j the :func:`discretize_symbol_op` of
    ball j, applied in kernel windows (see _MultiplierWindows).

    The spaces and the partition are checked before anything is
    evaluated.  The window geometry is built afresh from the partition's
    cutoffs, which it does not keep; :func:`assemble_rung` reads a cached
    one instead.  The family is never held whole: the windows are set up
    one batch of ``ELL_BLOCK_POINTS // P`` ball centers at a time (see
    _MultiplierWindows), each batch evaluated by :func:`_frozen_values`
    and dropped once its window spectra are written.  The first failing
    ball's evaluation error is raised."""
    _check_frozen_spaces(s, grid, src, dst)
    balls = pou.covering.balls
    if not balls:
        raise MissingPatchError("empty covering")
    _check_partition(pou, grid)
    centers = np.array([b.center for b in balls], dtype=float)
    return _windowed_family(
        s, centers, _WindowGeometry(pou.f_values, pou.g_values, grid), grid,
        src, dst)


def _windowed_family(s: Symbol, centers, geometry: _WindowGeometry,
                     grid: LatticeGrid, src: DiscreteSobolevSpace,
                     dst: DiscreteSobolevSpace) -> DiscreteOperator:
    """The frozen family at ``centers`` (J, m) on ``geometry``'s patches,
    whose spaces the caller has checked: the one construction of
    _MultiplierWindows."""
    freqs = grid.frequencies().astype(complex)
    windows = _MultiplierWindows(
        lambda batch: _frozen_values(s, centers[batch], freqs), geometry)
    return DiscreteOperator((grid.size, grid.size), windows.apply,
                            lambda v: windows.apply(v, adjoint=True),
                            src, dst, dense=windows.to_dense)


# rungs that _shared_rung keeps: a ladder takes one per radius, so this
# holds the ladders of a few grids
_RUNG_CACHE_SIZE = 8


def _build_rung(strat, eps: float, grid: LatticeGrid) -> tuple:
    """(ball centers, window geometry) of the covering of ``strat`` at
    radius ``eps`` that covers ``grid.points()``, both read-only; the
    covering and its partition of unity are dropped."""
    pts = grid.points()
    cov = build_covering(strat, eps, cover_points=pts)
    pou = partition_of_unity(cov, pts)
    centers = np.array([b.center for b in cov.balls], dtype=float)
    centers.flags.writeable = False
    return centers, _WindowGeometry(pou.f_values, pou.g_values, grid)


@lru_cache(maxsize=_RUNG_CACHE_SIZE)
def _shared_rung(model: str, dim: int, eps: float, grid: LatticeGrid):
    """:func:`_build_rung` on the shared stratification of ``model``, kept
    for the _RUNG_CACHE_SIZE most recent (model, dim, eps, grid); an error
    is raised on every call and never kept.  ``__wrapped__`` builds
    afresh."""
    return _build_rung(stratify_model(model, dim), eps, grid)


def _rung(strat, eps: float, grid: LatticeGrid) -> tuple:
    """:func:`_build_rung`, from _shared_rung's cache when ``strat`` is
    the one that :func:`stratify_model` shares; any other stratification
    is built afresh."""
    try:
        shared = strat is stratify_model(strat.model, strat.dim)
    except UnsupportedModelError:
        shared = False
    if shared:
        return _shared_rung(strat.model, strat.dim, eps, grid)
    return _build_rung(strat, eps, grid)


def assemble_rung(s: Symbol, strat, eps: float, grid: LatticeGrid,
                  src: DiscreteSobolevSpace,
                  dst: DiscreteSobolevSpace) -> tuple:
    """(operator, number of patches) of one assembly rung: the
    :func:`assemble_frozen_family` of ``s`` on the partition of unity of
    ``build_covering(strat, eps, cover_points=grid.points())``, bit for
    bit.  Only the window spectra are computed here.  The ball centers
    and the window geometry, which the symbol does not enter, come from
    _shared_rung's cache for a stratification of :func:`stratify_model`,
    so a process that assembles on one (model, eps, grid) again pays
    for the covering, the partition and the geometry once; see _rung."""
    _check_frozen_spaces(s, grid, src, dst)
    centers, geometry = _rung(strat, eps, grid)
    return (_windowed_family(s, centers, geometry, grid, src, dst),
            len(centers))


# the variables that size the BLAS thread pool, in the order OpenBLAS
# reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "OMP_NUM_THREADS")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_threads(environ):
    """The first positive integer among _BLAS_THREAD_VARS in ``environ``,
    or None."""
    for name in _BLAS_THREAD_VARS:
        try:
            threads = int(environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


# BLAS sizes its pool from the environment once, when numpy loads it; this
# module is loaded after numpy, so a later change of os.environ is ignored
# here as it is there
_BLAS_THREADS = _blas_threads(os.environ)


def _ladder_norm_threads(pairs: int) -> int:
    """Threads that take the norms of ``pairs`` rung differences: 2, the
    caller and one helper, when there are two pairs or more and the
    usable CPUs hold two BLAS pools; else 1, the sequential loop.

    The BLAS pool is taken to be the first positive count among
    _BLAS_THREAD_VARS, in OpenBLAS's order, as set when this module was
    loaded.  Without one, BLAS is taken to use every CPU already.  An MKL
    build that ignores OPENBLAS_NUM_THREADS may then be sized wrongly;
    the norms stay the same bit for bit, only slower.  No more than one
    helper is started: the caller plus one helper on two CPUs is the one
    layout whose time and memory were measured."""
    cpus = _usable_cpus()
    return 2 if pairs > 1 and cpus >= 2 * (_BLAS_THREADS or cpus) else 1


def _ladder_norms(diffs, mask) -> list:
    """The masked operator norms of the rung differences, in order.

    With a helper (see _ladder_norm_threads), each odd pair goes to it as
    a future of a one-thread pool, while the caller takes the even pairs
    itself and reads every result in ladder order.  A future re-raises
    its pair's error when read, so the error raised is the first failing
    pair's, as in the sequential loop.  On the way out the queued pairs
    are cancelled and the helper is joined.

    The caller takes a share rather than wait on a pool of two: a
    ThreadPoolExecutor(2).map version with the same norms and error
    order raised the peak RSS of perfbench's assemble_n64 to
    130.2-130.4 MB on 4 of 5 seeds, against 108.1-115.8 MB for this
    layout (2 CPUs, 1 BLAS thread); the cause was not examined."""
    if _ladder_norm_threads(len(diffs)) == 1:
        return [operator_norm(d, freq_mask=mask) for d in diffs]
    pool = ThreadPoolExecutor(1)
    try:
        odd = [pool.submit(operator_norm, d, freq_mask=mask)
               for d in diffs[1::2]]
        return [odd[k // 2].result() if k % 2
                else operator_norm(d, freq_mask=mask)
                for k, d in enumerate(diffs)]
    finally:
        pool.shutdown(cancel_futures=True)


def assembly_convergence(s: Symbol, strat, eps_sequence, grid: LatticeGrid,
                         s_order: float = 1.0):
    """Essential-norm proxy of consecutive assembly differences for a
    ladder of covering radii: a ValueError before any assembly unless
    there are at least 3, positive and strictly decreasing.

    Returns a list of rows {eps_coarse, eps_fine, proxy}.  The proxy is the
    weighted operator norm compressed to the upper frequency half; callers
    check that the table decreases.

    Each rung is an :func:`assemble_rung`: for a stratification of
    :func:`stratify_model`, its ball centers and window geometry come from
    the rung cache after the first ladder on that (model, eps, grid), so
    a repeated ladder computes only the window spectra.  No rung keeps a
    covering or a partition.  The norms are those of
    :func:`operator_norm`, bit for bit, and run on the caller and one
    helper thread where the BLAS thread count leaves CPUs idle (see
    _ladder_norm_threads): the helper's pairs are futures, read in ladder
    order (see _ladder_norms).
    """
    eps_sequence = [float(e) for e in eps_sequence]
    if len(eps_sequence) < 3:
        raise ValueError("need at least 3 covering radii")
    if not all(a > b > 0 for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError(f"covering radii must be positive and strictly "
                         f"decreasing, got {eps_sequence}")

    src = DiscreteSobolevSpace(grid, s_order)
    dst = DiscreteSobolevSpace(grid, s_order - s.order_alpha)
    assembled = [assemble_rung(s, strat, eps, grid, src, dst)[0]
                 for eps in eps_sequence]
    proxies = _ladder_norms([a - b for a, b in zip(assembled, assembled[1:])],
                            high_frequency_mask(grid))
    return [{"eps_coarse": e_coarse, "eps_fine": e_fine, "proxy": proxy}
            for e_coarse, e_fine, proxy in zip(eps_sequence, eps_sequence[1:],
                                               proxies)]


# --------------------------------------------------------------------------
# Portable export

def export_operator(op: DiscreteOperator, base_path, provenance: dict) -> None:
    """Write the dense matrix as little-endian complex128 row-major bytes
    with a JSON sidecar (see dump_json) of its dims, orders and grid, and
    of ``provenance``, the caller's record of how op was built."""
    mat = np.ascontiguousarray(op.to_dense().astype("<c16"))
    sidecar = dump_json({
        "format": "complex128-le-row-major",
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "src_order": None if op.src is None else op.src.s_order,
        "dst_order": None if op.dst is None else op.dst.s_order,
        "grid": None if op.src is None else {
            "dim": op.src.grid.dim, "n": op.src.grid.n, "h": op.src.grid.h,
            "origin": list(op.src.grid.origin)},
        "provenance": provenance,
    })
    base = str(base_path)
    with open(base + ".bin", "wb") as fh:
        fh.write(mat.tobytes())
    with open(base + ".json", "w", encoding="utf-8") as fh:
        fh.write(sidecar + "\n")
