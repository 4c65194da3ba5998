"""Lattice grids, multipliers, paired matrices, Toeplitz index detection,
locality defects and partition-of-unity assembly."""

import ctypes
import json
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from numpy.linalg import LinAlgError
from scipy.sparse.linalg import LinearOperator

from symstrat.analysis import dump_json
from symstrat.dsl import BinOp, SymbolExpr

from symstrat import lattice
from symstrat.errors import (MissingPatchError, NormNotConverged,
                             OrderMismatch, SupportOverlapError,
                             UnstableRank, ZeroOnCircle)
from symstrat.geometry import (Ball, Covering, PartitionOfUnity,
                               partition_of_unity, stratify_model,
                               build_covering)
from symstrat.lattice import (DiscreteOperator, DiscreteSobolevSpace,
                              IndexEntry, LatticeGrid,
                              assemble_frozen_family, assemble_operator,
                              assembly_convergence, discretize_symbol_op,
                              export_operator, high_frequency_mask,
                              locality_defect, numerical_index,
                              numerical_index_paired, numerical_index_product,
                              operator_norm, quantize_full_symbol)
from symstrat.laurent import (LaurentPolynomial, laurent_winding,
                              random_elliptic_laurent)
from symstrat.symbols import Symbol


ONE = LaurentPolynomial.make([1], 0)


def rect_section_matrix(coeffs: LaurentPolynomial, rows: int,
                        cols: int) -> np.ndarray:
    """Dense reference section, entry (i, j) = a_{i-j}."""
    col = np.array([coeffs.coeff(i) for i in range(rows)], dtype=complex)
    row = np.array([coeffs.coeff(-j) for j in range(cols)], dtype=complex)
    return scipy.linalg.toeplitz(col, row)


# --------------------------------------------------------------------------
# grids and spaces

def test_grid_validation():
    with pytest.raises(ValueError):
        LatticeGrid(1, 7, 1.0)
    # a float N is refused by name, not by the power-of-two bit test
    for n in (8.0, 16.5):
        with pytest.raises(ValueError, match=f"^N must be an integer power "
                                             f"of two >= 8, got {n}$"):
            LatticeGrid(2, n, 0.1)
    assert LatticeGrid(1, np.int64(8), 1.0).size == 8
    with pytest.raises(ValueError):
        LatticeGrid(1, 12, 1.0)
    with pytest.raises(ValueError):
        LatticeGrid(1, 16, -1.0)
    grid = LatticeGrid(2, 8, 0.5)
    assert grid.size == 64
    assert grid.period == 4.0


@pytest.mark.parametrize("make, reason", [
    (lambda: LatticeGrid(2, 8, float("nan")), "spacing must be positive "
     "and finite, got nan"),
    (lambda: LatticeGrid(2, 8, float("inf")), "spacing must be positive "
     "and finite, got inf"),
    (lambda: LatticeGrid(2, 8, 0.1, origin=(0.0, float("nan"))),
     "origin must be finite"),
    (lambda: LatticeGrid(0, 8, 0.1), "dimension must be at least 1, got 0"),
    (lambda: DiscreteSobolevSpace(LatticeGrid(2, 8, 0.1), float("nan")),
     "Sobolev order must be finite, got nan"),
], ids=["nan-spacing", "inf-spacing", "nan-origin", "zero-dim",
        "nan-order"])
def test_grid_and_space_refuse_unusable_numbers_by_name(make, reason):
    # each would give NaN points or weights, or fail later inside numpy
    with pytest.raises(ValueError, match=reason):
        make()


def test_dual_frequencies_match_fft_convention():
    grid = LatticeGrid(1, 8, 0.25)
    expected = 2 * np.pi * np.fft.fftfreq(8, d=0.25)
    np.testing.assert_allclose(grid.frequencies()[:, 0], expected)


def test_zero_order_weights_are_one():
    grid = LatticeGrid(2, 8, 1.0)
    space = DiscreteSobolevSpace(grid, 0.0)
    np.testing.assert_array_equal(space.weights(), np.ones(64))


# --------------------------------------------------------------------------
# frozen multipliers

def test_unit_symbol_gives_identity():
    grid = LatticeGrid(1, 8, 1.0)
    sp = DiscreteSobolevSpace(grid, 0.0)
    op = discretize_symbol_op(Symbol.parse("1", 0.0, 1), [0.0], grid, sp, sp)
    np.testing.assert_allclose(op.to_dense(), np.eye(8), atol=1e-12)


def test_multiplier_equals_dft_conjugated_diagonal():
    grid = LatticeGrid(1, 8, 1.0)
    src = DiscreteSobolevSpace(grid, 0.0)
    dst = DiscreteSobolevSpace(grid, -2.0)
    op = discretize_symbol_op(Symbol.parse("abs2(k)", 2.0, 1), [0.0], grid,
                              src, dst)
    # independent oracle: explicit DFT matrix conjugation
    f_mat = scipy.linalg.dft(8) / np.sqrt(8)
    vals = (grid.frequencies() ** 2).sum(axis=1)
    oracle = np.conj(f_mat).T @ np.diag(vals) @ f_mat
    # numpy fft pairs with dft(): fft(u) = dft @ u
    np.testing.assert_allclose(op.to_dense(), oracle, atol=1e-12)


def test_freezing_x_dependence():
    grid = LatticeGrid(2, 8, 1.0)
    src = DiscreteSobolevSpace(grid, 0.0)
    dst = DiscreteSobolevSpace(grid, -2.0)
    frozen = discretize_symbol_op(Symbol.parse("normx2(x)+abs2(k)", 2.0, 2),
                                  [0.0, 0.0], grid, src, dst)
    plain = discretize_symbol_op(Symbol.parse("abs2(k)", 2.0, 2),
                                 [0.0, 0.0], grid, src, dst)
    np.testing.assert_allclose(frozen.spectrum, plain.spectrum, atol=1e-14)


def test_order_mismatch_rejected():
    grid = LatticeGrid(1, 8, 1.0)
    sp = DiscreteSobolevSpace(grid, 0.0)
    with pytest.raises(OrderMismatch):
        discretize_symbol_op(Symbol.parse("abs2(k)", 2.0, 1), [0.0], grid,
                             sp, sp)


def test_multiplier_algebra_is_exact():
    grid = LatticeGrid(1, 16, 0.5)
    s1 = Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 1)
    s2 = Symbol.parse("(k1+i)", 1.0, 1)
    prod = Symbol(SymbolExpr(BinOp("*", s1.expr.ast, s2.expr.ast), 1), 2.0)
    spaces = [DiscreteSobolevSpace(grid, s) for s in (2.0, 1.0, 0.0)]
    op1 = discretize_symbol_op(s1, [0.0], grid, spaces[1], spaces[2])
    op2 = discretize_symbol_op(s2, [0.0], grid, spaces[0], spaces[1])
    op12 = discretize_symbol_op(prod, [0.0], grid, spaces[0], spaces[2])
    composed = (op1 @ op2).to_dense()
    np.testing.assert_allclose(composed, op12.to_dense(), atol=1e-10)


def test_difference_and_products_carry_spaces():
    grid = LatticeGrid(1, 16, 0.5)
    src = DiscreteSobolevSpace(grid, 1.0)
    dst = DiscreteSobolevSpace(grid, 0.0)
    sym = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, 1)
    a = discretize_symbol_op(sym, [0.0], grid, src, dst)
    b = discretize_symbol_op(sym, [1.0], grid, src, dst)
    f = DiscreteOperator.diagonal(np.linspace(0.0, 1.0, grid.size), dst, dst)
    g = DiscreteOperator.diagonal(np.linspace(1.0, 2.0, grid.size), src, src)
    diff = a - b
    for op in (diff, f @ a @ g):
        assert op.src is src and op.dst is dst
    want = a.to_dense() - b.to_dense()
    np.testing.assert_allclose(diff.to_dense(), want, atol=1e-12)
    v = np.random.default_rng(0).standard_normal(grid.size)
    np.testing.assert_allclose(diff.rmatvec(v), want.conj().T @ v,
                               atol=1e-12)


def test_weighted_norm_covariance():
    # the norm of a frozen multiplier H^s -> H^(s-alpha) is the weight-ratio
    # sup and is independent of s
    grid = LatticeGrid(1, 32, 0.5)
    sym = Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 1)
    norms = []
    for s in (-1.0, 0.0, 0.7, 2.0):
        src = DiscreteSobolevSpace(grid, s)
        dst = DiscreteSobolevSpace(grid, s - 1.0)
        norms.append(operator_norm(
            discretize_symbol_op(sym, [0.0], grid, src, dst)))
    assert max(norms) - min(norms) <= 1e-10


def test_full_quantization_agrees_with_frozen_for_constant_x():
    grid = LatticeGrid(1, 16, 0.5)
    src = DiscreteSobolevSpace(grid, 0.0)
    dst = DiscreteSobolevSpace(grid, -2.0)
    sym = Symbol.parse("abs2(k)", 2.0, 1)
    full = quantize_full_symbol(sym, grid, src, dst)
    frozen = discretize_symbol_op(sym, [0.0], grid, src, dst)
    np.testing.assert_allclose(full.to_dense(), frozen.to_dense(), atol=1e-10)


def test_full_quantization_checks_its_spaces_like_the_frozen_one():
    # spaces on a 16-point grid used to give an 8 x 8 operator on the
    # 8-point grid, whose norm failed inside PROPACK
    grid = LatticeGrid(1, 8, 0.5)
    sym = Symbol.parse("abs2(k)", 2.0, 1)
    other = LatticeGrid(1, 16, 0.5)
    cases = [((DiscreteSobolevSpace(other, 0.0),
               DiscreteSobolevSpace(other, -2.0)), ValueError, "given grid"),
             ((DiscreteSobolevSpace(grid, 0.0),
               DiscreteSobolevSpace(grid, 0.0)), OrderMismatch, "target order")]
    for (src, dst), error, message in cases:
        for build in (lambda: discretize_symbol_op(sym, [0.0], grid, src, dst),
                      lambda: quantize_full_symbol(sym, grid, src, dst)):
            with pytest.raises(error, match=message):
                build()


# --------------------------------------------------------------------------
# paired matrices

def test_paired_two_point_toy():
    a = DiscreteOperator.from_matrix(np.array([[0, 1], [1, 0]], complex))
    p_plus = DiscreteOperator.diagonal(np.array([1, 0], complex))
    # a P+ + P-, with the sum written as a P+ - (-P-)
    minus_p_minus = DiscreteOperator.diagonal(np.array([0, -1], complex))
    paired = (a @ p_plus) - minus_p_minus
    np.testing.assert_array_equal(paired.to_dense().real,
                                  np.array([[0, 0], [1, 1]]))
    # singular, and the compression onto the first coordinate is [0]
    assert np.linalg.matrix_rank(paired.to_dense()) == 1
    compression = a.to_dense()[:1, :1]
    assert np.linalg.matrix_rank(compression) == 0


# --------------------------------------------------------------------------
# Toeplitz sections and index detection

def test_toeplitz_unit_symbol():
    t = rect_section_matrix(LaurentPolynomial.make([1], 0), 6, 6)
    np.testing.assert_array_equal(t, np.eye(6))


def test_toeplitz_bidiagonal_convention():
    # a(z) = z - 1/2: entry (i,j) = a_{i-j} puts -1/2 on the diagonal and
    # 1 on the subdiagonal
    t = rect_section_matrix(LaurentPolynomial.make([-0.5, 1], 0), 4, 4)
    expected = np.diag([-0.5] * 4) + np.diag([1.0] * 3, k=-1)
    np.testing.assert_array_equal(t, expected)


def test_toeplitz_band_from_expansion_oracle():
    # z^{-1}(z-2)(z-1/2) expands to z - 5/2 + z^{-1}
    coeffs = np.convolve([1, -2], [1, -0.5])      # (z-2)(z-1/2), high first
    poly = LaurentPolynomial.make(coeffs[::-1], -1)
    assert poly.coeff(-1) == pytest.approx(1.0)
    assert poly.coeff(0) == pytest.approx(-2.5)
    assert poly.coeff(1) == pytest.approx(1.0)
    t = rect_section_matrix(poly, 6, 6)
    expected = (np.diag([-2.5] * 6) + np.diag([1.0] * 5, k=-1)
                + np.diag([1.0] * 5, k=1))
    np.testing.assert_array_equal(t, expected)


def test_rect_section_shape():
    for coeffs, min_deg, rows, cols in [
            ([1, -2.5, 1], -1, 8, 10),
            # only negative degrees, on a tall and on a wide rectangle
            ([2.0, 1j, -3.0], -4, 9, 6),
            ([2.0, 1j, -3.0], -4, 5, 11)]:
        poly = LaurentPolynomial.make(coeffs, min_deg)
        mat = rect_section_matrix(poly, rows, cols)
        assert mat.shape == (rows, cols)
        expected = np.array([[poly.coeff(i - j) for j in range(cols)]
                             for i in range(rows)])
        np.testing.assert_array_equal(mat, expected)     # entry a_{i-j}


def test_numerical_index_identity():
    entry = numerical_index(LaurentPolynomial.make([1], 0), 64)
    assert (entry.dim_ker, entry.dim_coker, entry.index) == (0, 0, 0)


def test_numerical_index_shift():
    entry = numerical_index(LaurentPolynomial.make([0, 1], 0), 64)
    assert (entry.dim_ker, entry.dim_coker, entry.index) == (0, 1, -1)


def test_numerical_index_backshift_kernel_vector():
    poly = LaurentPolynomial.make([1], -1)
    entry = numerical_index(poly, 64)
    assert (entry.dim_ker, entry.dim_coker, entry.index) == (1, 0, 1)
    # oracle: e_0 solves the truncated recurrence exactly
    rect = rect_section_matrix(poly, 64, 65)
    e0 = np.zeros(65)
    e0[0] = 1.0
    assert np.abs(rect @ e0).max() == 0.0


def test_numerical_index_zero_on_circle():
    with pytest.raises(ZeroOnCircle):
        numerical_index(LaurentPolynomial.make([-1, 1], 0), 32)
    # 1 + z vanishes at z = -1: the product refuses and names the factor
    one_plus_z, two_plus_z = (LaurentPolynomial.make([c, 1], 0)
                              for c in (1, 2))
    with pytest.raises(ZeroOnCircle, match=r"^a\(z\) vanishes"):
        numerical_index_product(one_plus_z, two_plus_z, 64)
    with pytest.raises(ZeroOnCircle, match=r"^b\(z\) vanishes"):
        numerical_index_product(two_plus_z, one_plus_z, 64)


def test_paired_refuses_a_zero_on_circle_that_the_count_misses():
    # b = 1 - z vanishes at z = 1, yet the sections of 2 P + ... read a
    # stable (0, 0): only the refusal by name keeps it from a count
    a = LaurentPolynomial.make([2, 1], 0)
    b = LaurentPolynomial.make([1, -1], 0)
    for n in (64, 128):
        assert lattice._stable_counts(lattice._paired_band, a, b, n, 1,
                                      3.0) == IndexEntry(0, 0)
    with pytest.raises(ZeroOnCircle, match=r"^b\(z\) vanishes"):
        numerical_index_paired(a, b, 64)


def test_numerical_index_unstable_rank_near_circle():
    # kernel decay rate is the inverse outside root: 1/1.2 decays too
    # slowly to register at N=64 but resolves at 2N, so the counts differ
    poly = LaurentPolynomial.make([-1.2, 1], -1)    # z^{-1}(z - 1.2)
    with pytest.raises(UnstableRank):
        numerical_index(poly, 64)
    entry = numerical_index(poly, 256)
    assert entry.index == -laurent_winding(poly) == 1
    assert (entry.dim_ker, entry.dim_coker) == (1, 0)


def test_product_unstable_rank_names_sizes_and_counts():
    poly = LaurentPolynomial.make([-1.2, 1], -1)
    with pytest.raises(UnstableRank) as info:
        numerical_index_product(ONE, poly, 64)
    message = str(info.value)
    assert "N=64" in message and "ker [0, 1]" in message


def test_numerical_index_matches_minus_winding_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        poly = random_elliptic_laurent(rng)
        entry = numerical_index(poly, 128)
        assert entry.index == -laurent_winding(poly)


def test_product_counts_on_fixed_pairs():
    # T(z)T(z^-2) has the kernel of T(z^-2), e_0 and e_1, and the cokernel
    # of T(z); T(z^-1) has no cokernel (Coburn).  T(z^2)T(z^-2) = I - P_2
    z, z_inv2 = LaurentPolynomial.make([0, 1], 0), LaurentPolynomial.make(
        [1], -2)
    z2 = LaurentPolynomial.make([1], 2)
    for a, b, counts, ab_counts in ((z, z_inv2, (2, 1), (1, 0)),
                                    (z2, z_inv2, (2, 2), (0, 0))):
        entry = numerical_index_product(a, b, 64)
        assert (entry.dim_ker, entry.dim_coker) == counts
        ab = numerical_index(a * b, 64)
        assert (ab.dim_ker, ab.dim_coker) == ab_counts
        assert entry.index == ab.index == -(laurent_winding(a)
                                            + laurent_winding(b))


def test_numerical_index_refuses_a_section_below_the_least_n():
    # the restricted N x (N - 4) section needs at least 4 columns and more
    # than the degree span b: N >= 4 + max(4, b + 1), 8 for b <= 3; the
    # span of T(a)T(b) is that of ab, and of a P + b Q that of a and b
    two = LaurentPolynomial.make([2, 1], 0)
    back = LaurentPolynomial.make([1], -1)
    for n in (3, 4, 5):
        with pytest.raises(ValueError, match=f"^N={n} is below the least "
                                             f"section size 8"):
            numerical_index(two, n)
        for count in (numerical_index_product, numerical_index_paired):
            with pytest.raises(ValueError, match=f"^N={n} .* size 8"):
                count(two, back, n)
    span3 = LaurentPolynomial.make([1], 3)                 # z^3
    entry = numerical_index(span3, 8)
    assert (entry.dim_ker, entry.dim_coker) == (0, 3)
    entry = numerical_index_product(two, span3, 8)
    assert (entry.dim_ker, entry.dim_coker) == (0, 3)
    entry = numerical_index_paired(ONE, span3, 8)   # x+ = -z^3 x-
    assert (entry.dim_ker, entry.dim_coker) == (3, 0)
    span4 = LaurentPolynomial.make([2, 0, 0, 0, 1], 0)     # 2 + z^4
    with pytest.raises(ValueError, match="^N=8 .* size 9"):
        numerical_index(span4, 8)
    entry = numerical_index(span4, 9)
    assert (entry.dim_ker, entry.dim_coker) == (0, 0)
    with pytest.raises(ValueError, match="^N=9 .* size 10"):
        numerical_index_product(two, span4, 9)       # span 1 + 4
    with pytest.raises(ValueError, match="^N=9 .* size 10"):
        numerical_index_paired(back, span4, 9)       # span 4 - (-1)


def test_numerical_index_scales_huge_coefficients_without_overflow():
    # |a| is about 1e300: the counts read the section divided by max |a|,
    # and nothing is squared on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entry = numerical_index(LaurentPolynomial.make([1e300, 3e300], 0),
                                64)
    assert (entry.dim_ker, entry.dim_coker) == (0, 1)
    # max |a(z)| = 2.5e308 is not a double: refused by name, before any
    # LAPACK call
    with pytest.raises(ValueError, match=r"^\|a\(z\)\| on the unit circle "
                                         r"is not finite"):
        numerical_index(LaurentPolynomial.make([1.5e308, 1e308], 0), 64)
    # so is a product scale max |a| max |b| above the largest double
    huge = LaurentPolynomial.make([1e200, 3e200], 0)
    with pytest.raises(ValueError, match="^the scale inf of the counts is "
                                         "not finite"):
        numerical_index_product(huge, huge, 64)


def _scale(write, a, b):
    """The scale of lattice._kernel_count: max |a| max |b| for T(a)T(b),
    max(max |a|, max |b|) for a P + b Q."""
    high_a, high_b = a.circle_max(), b.circle_max()
    if write is lattice._product_band:
        return high_a * high_b
    return max(high_a, high_b)


def _count(write, a, b, n, rank_tol=lattice.RANK_TOL, adjoint=False):
    return lattice._kernel_count(write(a, b, n, adjoint), rank_tol,
                                 _scale(write, a, b))


def _dense_section(write, a, b, n, adjoint=False):
    """Oracle: the section that ``write`` puts in band storage, built as a
    dense matrix product.  T(a)T(b) is T_M(a) T_M(b) with M = N + 64, exact
    on rows [0, N) while no degree is below -64; its adjoint T(b~)T(a~).
    a P + b Q is L(a) P + L(b) Q on indices [-N - 16, N + 16), L(c)[i, j]
    = c_{i-j}, exact on every entry, and its adjoint the conjugate
    transpose; the section keeps rows [-N, N), columns [-N + 4, N - 4)."""
    if write is lattice._product_band:
        if adjoint:
            a, b = b.conj_reflected(), a.conj_reflected()
        m = n + 64
        full = (rect_section_matrix(a, m, m) @ rect_section_matrix(b, m, m))
        return full[:n, :n - lattice._EDGE_PAD]
    m = n + 16
    index = np.arange(-m, m)
    plus = np.diag((index >= 0).astype(complex))
    full = np.array([[a.coeff(i - j) for j in index] for i in index]) @ plus \
        + np.array([[b.coeff(i - j) for j in index] for i in index]) @ (
            np.eye(2 * m) - plus)
    if adjoint:
        full = full.conj().T
    pad = lattice._EDGE_PAD
    return full[m - n:m + n, m - n + pad:m + n - pad]


def _dense_kernel_count(section, rank_tol, scale):
    """Oracle: #{sigma_i <= rank_tol * scale} over the singular values of
    a dense section, from a dense SVD.  The rule relative to sigma_max of
    the section must give the same count."""
    sig = np.linalg.svd(section, compute_uv=False)
    count = int(np.sum(sig <= rank_tol * scale))
    assert count == int(np.sum(sig <= rank_tol * sig[0]))
    return count


def _golub_kahan_band(section):
    """Reference: the Hermitian augmented matrix [[0, S], [S^H, 0]] of a
    dense section S whose nonzeros lie on the diagonals lo <= i - j <= hi,
    as (lower band offsets, column positions, values), with row i of S
    placed next to column i - s, s = floor((lo + hi) / 2).

    Row i gets the key 2i and column j the key 2(j + s) + 1; an entry on
    diagonal d = i - j then joins keys 2(s - d) + 1 apart, at most
    hi - lo + 1, and ranking the distinct keys only brings neighbours
    closer.  Its eigenvalues are +-sigma_i of S plus rows - cols structural
    zeros, an independent route to the singular values that
    lattice._kernel_count reads off its bidiagonal."""
    rows, cols = section.shape
    i, j = np.nonzero(section)
    s = (int((i - j).min()) + int((i - j).max())) // 2
    keys = np.concatenate([2 * np.arange(rows), 2 * (np.arange(cols) + s) + 1])
    pos = np.empty(rows + cols, dtype=np.intp)
    pos[np.argsort(keys)] = np.arange(rows + cols)
    p_row, p_col = pos[i], pos[rows + j]
    # S[i, j] sits at (p_row, p_col) and its conjugate at (p_col, p_row);
    # lower storage keeps whichever is below the diagonal
    vals = section[i, j]
    return (np.abs(p_row - p_col), np.minimum(p_row, p_col),
            np.where(p_row > p_col, vals, np.conj(vals)))


def _reference_kernel_count(section, rank_tol, scale):
    """Reference: #{|lambda| <= rank_tol * scale} over every eigenvalue of
    the Golub-Kahan band of a dense section, less its rows - cols
    structural zeros, halved.  The rule relative to max |lambda| =
    sigma_max must give the same count."""
    offsets, cols, vals = _golub_kahan_band(section)
    band = np.zeros((int(offsets.max()) + 1, sum(section.shape)),
                    dtype=complex)
    band[offsets, cols] = vals
    lam = np.abs(scipy.linalg.eigvals_banded(band, lower=True))
    small = int(np.sum(lam <= rank_tol * scale))
    assert small == int(np.sum(lam <= rank_tol * lam.max()))
    pad = section.shape[0] - section.shape[1]
    assert small >= pad and (small - pad) % 2 == 0
    return (small - pad) // 2


def _kernel_count_oracle_cases():
    rng = np.random.default_rng(17)
    for k in range(8):
        poly = random_elliptic_laurent(rng)
        for n in (64, 128):
            yield f"random {k} N={n}", poly, ONE, n
            yield f"random {k} adjoint N={n}", poly.conj_reflected(), ONE, n
    for n in (64, 128):
        yield f"shift N={n}", LaurentPolynomial.make([0, 1], 0), ONE, n
        yield f"back-shift N={n}", LaurentPolynomial.make([1], -1), ONE, n
    yield ("product", LaurentPolynomial.make([0, 1], 0),
           LaurentPolynomial.make([1], -2), 64)
    yield ("random product", random_elliptic_laurent(rng),
           random_elliptic_laurent(rng), 128)


def test_kernel_count_matches_dense_svd_oracle():
    counts = []
    for label, a, b, n in _kernel_count_oracle_cases():
        count = _count(lattice._product_band, a, b, n)
        section = _dense_section(lattice._product_band, a, b, n)
        scale = _scale(lattice._product_band, a, b)
        assert count == _dense_kernel_count(section, lattice.RANK_TOL,
                                            scale), label
        assert count == _reference_kernel_count(section, lattice.RANK_TOL,
                                                scale), label
        counts.append(count)
        # interleaving keeps the matrix banded
        span = a.max_deg - a.min_deg + b.max_deg - b.min_deg
        assert _golub_kahan_band(section)[0].max() <= span + 1, label
    assert max(counts) >= 2          # the oracle cases do have kernels


def _seeded_pairs(seed, count):
    rng = np.random.default_rng(seed)
    return [(random_elliptic_laurent(rng), random_elliptic_laurent(rng))
            for _ in range(count)]


@pytest.mark.parametrize("write", [lattice._product_band,
                                   lattice._paired_band])
def test_section_writers_match_dense_svd_oracle(write):
    # kernel and cokernel counts of T(a)T(b) and of a P + b Q on 24 seeded
    # pairs against dense SVDs of the dense sections, rank tolerance
    # 1e-8 * scale; the paired counts are those of T(a/b)
    counts = []
    for k, (a, b) in enumerate(_seeded_pairs(53, 24)):
        scale = _scale(write, a, b)
        for adjoint in (False, True):
            section = _dense_section(write, a, b, 64, adjoint)
            band, rows, kl, ku = write(a, b, 64, adjoint)
            assert (rows, band.shape[0]) == section.shape
            counts.append(_count(write, a, b, 64, adjoint=adjoint))
            assert counts[-1] == _dense_kernel_count(
                section, lattice.RANK_TOL, scale), (k, adjoint)
        wind_a, wind_b = laurent_winding(a), laurent_winding(b)
        if write is lattice._paired_band:
            assert counts[-2:] == [max(wind_b - wind_a, 0),
                                   max(wind_a - wind_b, 0)], k
        else:
            assert counts[-2] - counts[-1] == -(wind_a + wind_b), k
    assert max(counts) >= 2


@pytest.mark.parametrize("n", [64, 128])
def test_bidiagonal_keeps_the_singular_values_of_the_section(n):
    rng = np.random.default_rng(37)
    polys = [random_elliptic_laurent(rng) for _ in range(6)]
    polys += [LaurentPolynomial.make([0, 1], 0),
              LaurentPolynomial.make([1], -2),
              LaurentPolynomial.make([2, -1j, 0.5], -1)]
    sections = [(lattice._product_band, poly, ONE) for poly in polys]
    sections += [(write, polys[0], polys[7]) for write in (
        lattice._product_band, lattice._paired_band)]
    for write, a, b in sections:
        band, rows = write(a, b, n)[:2]
        d, e = lattice._bidiagonal(write(a, b, n))
        assert d.shape == (band.shape[0],) and e.shape == (d.size - 1,)
        sig = np.linalg.svd(_dense_section(write, a, b, n), compute_uv=False)
        got = np.linalg.svd(np.diag(d) + np.diag(e, 1), compute_uv=False)
        np.testing.assert_allclose(got, sig, rtol=0, atol=1e-12 * sig[0])


def _rank_tol_floor(n):
    """dim * eps for the tridiagonal of order dim = 2 (N - _EDGE_PAD) of a
    product section: the rank tolerance at or below which _kernel_count
    refuses to count."""
    return 2 * (n - lattice._EDGE_PAD) * np.finfo(float).eps


def test_kernel_count_refuses_rank_tol_below_noise_floor():
    # a rank_tol of 1e-20 is below what a double-precision reduction can
    # resolve: it is refused by name, never read as a count
    poly = LaurentPolynomial.make([-0.5, 1], 0)
    assert _count(lattice._product_band, poly, ONE, 64) == 0
    floor = _rank_tol_floor(64)
    assert 1e-20 < floor < lattice.RANK_TOL
    with pytest.raises(UnstableRank) as info:
        _count(lattice._product_band, poly, ONE, 64, 1e-20)
    message = str(info.value)
    assert message.startswith("rank_tol=1e-20 for the 64 x 60 section is not "
                              "above the roundoff floor")
    assert f"{floor:.3g}" in message


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts the zgbbrd and dstebz calls of lattice._kernel_count."""
    calls = []

    def counted(name, routine):
        def call(*args):
            calls.append(name)
            return routine(*args)
        return call

    monkeypatch.setattr(lattice, "_ZGBBRD",
                        counted("zgbbrd", lattice._ZGBBRD))
    monkeypatch.setattr(lattice, "dstebz", counted("dstebz", lattice.dstebz))
    return calls


def test_kernel_count_refuses_at_the_roundoff_floor(lapack_calls):
    # a rank_tol at or below the floor is refused before any LAPACK call;
    # one just above it is counted with one dstebz call
    a = LaurentPolynomial.make([-0.5, 1], 0)
    b = LaurentPolynomial.make([1], -1)
    floor = _rank_tol_floor(64)
    for rank_tol in (floor, floor * (1 - 1e-9), 0.0):
        with pytest.raises(UnstableRank, match="roundoff floor"):
            _count(lattice._product_band, a, b, 64, rank_tol)
    assert lapack_calls == []
    section = _dense_section(lattice._product_band, a, b, 64)
    assert _count(lattice._product_band, a, b, 64, floor * 1.01) == \
        _reference_kernel_count(section, floor * 1.01,
                                _scale(lattice._product_band, a, b)) == 1
    assert lapack_calls == ["zgbbrd", "dstebz"]


def _interval_count_cases():
    rng = np.random.default_rng(23)
    by_span = {}                  # one draw of each degree span 0..4
    while len(by_span) < 5:
        poly = random_elliptic_laurent(rng)
        by_span.setdefault(poly.max_deg - poly.min_deg, poly)
    for n in (64, 128, 256, 512):
        for span, poly in sorted(by_span.items()):
            yield f"span {span} N={n}", poly, ONE, n
            yield f"span {span} adjoint N={n}", poly.conj_reflected(), ONE, n
        a, b = random_elliptic_laurent(rng), random_elliptic_laurent(rng)
        yield f"product N={n}", a, b, n
        yield (f"product adjoint N={n}", b.conj_reflected(),
               a.conj_reflected(), n)


def test_kernel_count_interval_matches_full_spectrum(lapack_calls):
    counts = []
    for label, a, b, n in _interval_count_cases():
        lapack_calls.clear()
        count = _count(lattice._product_band, a, b, n)
        # one zgbbrd for the section, then one Sturm count
        assert lapack_calls == ["zgbbrd", "dstebz"], label
        assert count == _reference_kernel_count(
            _dense_section(lattice._product_band, a, b, n), lattice.RANK_TOL,
            _scale(lattice._product_band, a, b)), label
        counts.append(count)
    assert max(counts) >= 2


def test_kernel_count_threshold_is_exact():
    # z^{-1}(z - 1.2) has a slowly decaying kernel vector, so its restricted
    # section at N=64 has a small singular value well above roundoff; the
    # rule sigma <= rank_tol * max |a(z)| decides it however close
    # rank_tol puts the threshold
    poly, n = LaurentPolynomial.make([-1.2, 1], -1), 64
    sig = np.linalg.svd(rect_section_matrix(poly, n, n - lattice._EDGE_PAD),
                        compute_uv=False)[-1]
    norm = _scale(lattice._product_band, poly, ONE)
    assert norm == pytest.approx(2.2, rel=1e-15)
    assert 1e-6 < sig / norm < 1e-4
    assert _count(lattice._product_band, poly, ONE, n,
                  sig / norm * (1 + 1e-6)) == 1
    assert _count(lattice._product_band, poly, ONE, n,
                  sig / norm * (1 - 1e-6)) == 0


def test_kernel_count_refuses_non_finite_band(lapack_calls):
    poly = LaurentPolynomial((complex("nan"), 1j), 0)   # bypasses make()
    for write, a, b in ((lattice._product_band, poly, ONE),
                        (lattice._product_band, ONE, poly),
                        (lattice._paired_band, ONE, poly)):
        with pytest.raises(ValueError, match="infs or NaNs"):
            lattice._kernel_count(write(a, b, 64), lattice.RANK_TOL, 1.0)
    assert lapack_calls == []


def test_kernel_count_refuses_an_odd_count(monkeypatch):
    # eigenvalues of the Golub-Kahan tridiagonal come in pairs +-sigma, so
    # an odd number inside the counted interval is refused, not halved
    def one_small_eigenvalue(d, *args):
        return 1, np.zeros(d.size), None, None, 0

    monkeypatch.setattr(lattice, "dstebz", one_small_eigenvalue)
    with pytest.raises(UnstableRank, match="^1 eigenvalues .* 64 x 60 "
                                           "section .* not pairs"):
        _count(lattice._product_band, LaurentPolynomial.make([1, 0.5], 0),
               ONE, 64)


def test_kernel_count_raises_when_dstebz_reports_an_error(monkeypatch):
    def failed_bisection(d, *args):
        return 2, np.zeros(d.size), None, None, 1

    monkeypatch.setattr(lattice, "dstebz", failed_bisection)
    with pytest.raises(LinAlgError, match=r"dstebz.*info=1"):
        _count(lattice._product_band, LaurentPolynomial.make([1, 0.5], 0),
               ONE, 64)


def test_bidiagonal_raises_when_zgbbrd_reports_an_error(monkeypatch):
    def illegal_ldab(*args):
        ctypes.c_int.from_address(args[-1]).value = -8

    monkeypatch.setattr(lattice, "_ZGBBRD", illegal_ldab)
    with pytest.raises(LinAlgError, match="zgbbrd") as info:
        _count(lattice._product_band, LaurentPolynomial.make([1, 0.5], 0),
               ONE, 64)
    assert "argument 8" in str(info.value)


def test_kernel_count_is_reentrant():
    # each call owns its LAPACK arrays, so calls overlapping on two
    # threads (ctypes releases the GIL in zgbbrd) count what one thread does
    cases = [(write, a, b, (64, 128)[k % 2], k % 3 == 0)
             for k, (a, b) in enumerate(_seeded_pairs(41, 16))
             for write in (lattice._product_band, lattice._paired_band)]
    expected = [_count(w, a, b, n, adjoint=adj) for w, a, b, n, adj in cases]
    with ThreadPoolExecutor(2) as pool:
        got = list(pool.map(
            lambda case: _count(*case[:4], adjoint=case[4]), cases))
    assert got == expected
    assert max(expected) >= 2


def test_product_index_is_the_sum_of_the_indices():
    assert [IndexEntry(k, c).index for k, c in ((0, 1), (2, 0), (0, 0))] \
        == [-1, 2, 0]
    for a, b in _seeded_pairs(5, 5):
        parts = [numerical_index(p, 64) for p in (a, b)]
        product = numerical_index_product(a, b, 64)
        assert product.index == sum(p.index for p in parts) == -(
            laurent_winding(a) + laurent_winding(b))


# --------------------------------------------------------------------------
# locality defects

def _line_setup(n=64, h=0.25, s_src=0.0, alpha=-1.0):
    grid = LatticeGrid(1, n, h)
    src = DiscreteSobolevSpace(grid, s_src)
    dst = DiscreteSobolevSpace(grid, s_src - alpha)
    sym = Symbol.parse("(1+abs2(k))^(-1/2)", alpha, 1)
    op = discretize_symbol_op(sym, [0.0], grid, src, dst)
    return grid, op


def _bump(pts, center, width):
    t = np.abs(pts - center) / width
    out = np.zeros_like(pts, dtype=complex)
    inside = t < 1
    out[inside] = np.exp(-1.0 / (1 - t[inside] ** 2))
    return out


def test_multiplication_operator_defect_exactly_zero():
    grid = LatticeGrid(1, 64, 0.25)
    sp = DiscreteSobolevSpace(grid, 0.0)
    pts = grid.points()[:, 0]
    mult = DiscreteOperator.diagonal((1 + pts ** 2).astype(complex), sp, sp)
    f = _bump(pts, 3.0, 1.0)
    g = _bump(pts, 8.0, 1.0)
    assert locality_defect(mult, f, g) == 0.0


def test_identity_defect_zero():
    grid = LatticeGrid(1, 64, 0.25)
    sp = DiscreteSobolevSpace(grid, 0.0)
    pts = grid.points()[:, 0]
    ident = DiscreteOperator.identity(sp)
    assert locality_defect(ident, _bump(pts, 3, 1), _bump(pts, 8, 1)) == 0.0


def test_smooth_multiplier_defect_decreases_with_separation():
    grid, op = _line_setup()
    pts = grid.points()[:, 0]
    f = _bump(pts, 3.0, 1.0)
    d_near = locality_defect(op, f, _bump(pts, 6.0, 1.0))
    d_far = locality_defect(op, f, _bump(pts, 9.0, 1.0))
    assert 0 < d_far < d_near


def test_locality_support_overlap_rejected():
    grid, op = _line_setup()
    pts = grid.points()[:, 0]
    f = _bump(pts, 3.0, 1.0)   # lattice support up to 3.75
    with pytest.raises(SupportOverlapError):
        locality_defect(op, f, _bump(pts, 4.0, 1.0))
    # separation exactly 2h is allowed
    locality_defect(op, f, _bump(pts, 5.0, 1.0))


# --------------------------------------------------------------------------
# assembly

def test_identity_family_reproduces_identity():
    grid = LatticeGrid(2, 16, 1.0 / 16)
    sp = DiscreteSobolevSpace(grid, 0.0)
    strat = stratify_model("square", 2)
    cov = build_covering(strat, 0.3, cover_points=grid.points())
    pou = partition_of_unity(cov, grid.points())
    ident = DiscreteOperator.identity(sp)
    assembled = assemble_operator({b.center: ident for b in cov.balls}, pou)
    assert operator_norm(assembled - ident) <= 1e-12


def test_single_patch_returns_the_patch():
    grid = LatticeGrid(1, 16, 0.125)
    sp = DiscreteSobolevSpace(grid, 0.0)
    cov = Covering(eps=8.0, balls=[Ball((1.0,), 8.0, 0)])
    pou = partition_of_unity(cov, grid.points())
    rng = np.random.default_rng(0)
    a = DiscreteOperator.from_matrix(
        rng.standard_normal((16, 16)) + 0j, sp, sp)
    assembled = assemble_operator({(1.0,): a}, pou)
    np.testing.assert_allclose(assembled.to_dense(), a.to_dense(), atol=1e-12)


def _seam_partition(grid, rng):
    """Partition whose cutoffs are given grid functions, so a test can place
    supports anywhere on the torus, across the seam included: two boxes,
    one around index (0, ..., 0), which wraps the seam on every axis, and
    one in the middle.  f_j lives on the box of radius 1 and g_j on the box
    of radius 2.  The ball centers (0, 0.5, ...) and (0.5, 0.5, ...) have
    the grid's dimension, so a symbol can be frozen at them."""
    n = grid.n
    pos = np.stack(np.unravel_index(np.arange(grid.size), (n,) * grid.dim),
                   -1)

    def box(center, radius):
        offset = (pos - center + n // 2) % n - n // 2
        return np.max(np.abs(offset), axis=1) <= radius

    f_vals = np.zeros((2, grid.size))
    g_vals = np.zeros((2, grid.size))
    for j, center in enumerate((0, n // 2)):
        inner, outer = box(center, 1), box(center, 2)
        f_vals[j, inner] = rng.uniform(0.2, 1.0, inner.sum())
        g_vals[j, outer] = rng.uniform(0.2, 1.0, outer.sum())
    covering = Covering(eps=1.0, balls=[
        Ball((0.5 * j,) + (0.5,) * (grid.dim - 1), 1.0, 0) for j in range(2)])
    return PartitionOfUnity(covering, grid.points(), f_vals, g_vals)


def test_block_built_dense_matches_identity_block_reference():
    grid = LatticeGrid(2, 8, 1.0 / 8)
    src = DiscreteSobolevSpace(grid, 1.0)
    dst = DiscreteSobolevSpace(grid, 0.0)
    p = grid.size
    rng = np.random.default_rng(5)
    sym = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)+k1", 1.0, 2)
    cov = build_covering(stratify_model("square", 2), 0.3,
                         cover_points=grid.points())
    partitions = [partition_of_unity(cov, grid.points()),
                  _seam_partition(grid, rng)]
    families = {
        "diag": lambda c: DiscreteOperator.diagonal(
            rng.standard_normal(p) + 1j * rng.standard_normal(p), src, dst),
        "dense": lambda c: DiscreteOperator.from_matrix(
            rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)),
            src, dst),
        "composite": lambda c: discretize_symbol_op(sym, c, grid, src, dst)
        @ DiscreteOperator.diagonal(rng.uniform(1, 2, p) + 0j, src, src),
    }
    for pou in partitions:
        # multiplier patches through the kernel windows' builder, the
        # others from unit vectors
        built = {"multiplier": assemble_frozen_family(sym, pou, grid, src,
                                                      dst)}
        for kind, make in families.items():
            built[kind] = assemble_operator(
                {b.center: make(b.center) for b in pou.covering.balls}, pou)
        for kind, assembled in built.items():
            reference = assembled.matvec(np.eye(p, dtype=complex))
            scale = np.abs(reference).max()
            assert scale > 0
            np.testing.assert_allclose(assembled.to_dense(), reference,
                                       rtol=0, atol=1e-13 * scale,
                                       err_msg=kind)


def _torus_reference(family, pou, grid, v, adjoint=False):
    """sum_j f_j A_j g_j v, or its adjoint, patch by patch with each A_j
    applied over the whole torus."""
    out = np.zeros_like(v)
    for fj, gj, ball in zip(pou.f_values, pou.g_values, pou.covering.balls):
        op = family[ball.center]
        if v.ndim == 2:
            fj, gj = fj[:, None], gj[:, None]
        out = out + (gj * op.rmatvec(fj * v) if adjoint
                     else fj * op.matvec(gj * v))
    return out


def _window_cases():
    """(label, grid, partition, family, assembled): the frozen families of
    square partitions whose windows span the whole torus (eps 0.4, 0.2) or
    a box of 19 (N=32) or 38 (N=64) points per axis (eps 0.1), and of
    seam-wrapping cutoffs, windowed at N=16 and N=32 on the square, N=16
    on the circle and N=8 on the 3-torus, all assembled by
    assemble_frozen_family; and families that mix multiplier and diagonal
    patches, assembled patch by patch by assemble_operator.  ``family``
    maps each ball center to its patch operator for the reference."""
    sym = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)+k1", 1.0, 2)
    rng = np.random.default_rng(11)
    for n, eps_list in ((8, (0.4, 0.2, 0.1)), (32, (0.2, 0.1)),
                        (64, (0.2, 0.1))):
        grid = LatticeGrid(2, n, 1.0 / n)
        src = DiscreteSobolevSpace(grid, 1.0)
        dst = DiscreteSobolevSpace(grid, 0.0)
        for eps in eps_list:
            cov = build_covering(stratify_model("square", 2), eps,
                                 cover_points=grid.points())
            pou = partition_of_unity(cov, grid.points())
            family = {b.center: discretize_symbol_op(sym, b.center, grid,
                                                     src, dst)
                      for b in cov.balls}
            yield (f"square N={n} eps={eps}", grid, pou, family,
                   assemble_frozen_family(sym, pou, grid, src, dst))
            if n == 32:
                p = grid.size
                mixed = {c: op if j % 3 else DiscreteOperator.diagonal(
                    rng.standard_normal(p) + 1j * rng.standard_normal(p),
                    src, dst) for j, (c, op) in enumerate(family.items())}
                yield (f"mixed N={n} eps={eps}", grid, pou, mixed,
                       assemble_operator(mixed, pou))
    for dim, n in ((2, 16), (2, 32), (1, 16), (3, 8)):
        grid = LatticeGrid(dim, n, 1.0 / n)
        src = DiscreteSobolevSpace(grid, 1.0)
        dst = DiscreteSobolevSpace(grid, 0.0)
        pou = _seam_partition(grid, rng)
        sym_d = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)+k1", 1.0, dim)
        family = {b.center: discretize_symbol_op(sym_d, b.center, grid,
                                                 src, dst)
                  for b in pou.covering.balls}
        yield (f"seam d={dim} N={n}", grid, pou, family,
               assemble_frozen_family(sym_d, pou, grid, src, dst))


def test_windowed_assembly_matches_torus_reference():
    rng = np.random.default_rng(3)
    empty_support_seen = False
    for label, grid, pou, family, assembled in _window_cases():
        empty_support_seen |= bool(np.any(~np.any(pou.f_values != 0, axis=1)))
        p = grid.size
        for shape in (p, (p, 3)):
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for adjoint, apply in ((False, assembled.matvec),
                                   (True, assembled.rmatvec)):
                ref = _torus_reference(family, pou, grid, v, adjoint)
                out = apply(v)
                assert out.shape == v.shape, label
                scale = np.abs(ref).max()
                assert scale > 0, label
                assert np.abs(out - ref).max() <= 1e-13 * scale, \
                    (label, adjoint, v.ndim)
        if p <= 512:
            ref = _torus_reference(family, pou, grid, np.eye(p, dtype=complex))
            np.testing.assert_allclose(assembled.to_dense(), ref, rtol=0,
                                       atol=1e-13 * np.abs(ref).max(),
                                       err_msg=label)
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        w = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        lhs = np.vdot(w, assembled.matvec(v))
        rhs = np.vdot(assembled.rmatvec(w), v)
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs), label
    # the 8x8 grid at eps 0.1 has balls that hold no grid point
    assert empty_support_seen


def _weighted_dft_norm(mat, src, dst, keep):
    """Oracle: sigma_max of W_dst F A F^H W_src^-1 by a full dense SVD, with
    the rows and columns outside ``keep`` dropped."""
    fourier = src.grid.fft_flat(np.eye(src.grid.size, dtype=complex))
    conj = (dst.weights()[:, None] * (fourier @ mat @ fourier.conj().T)
            / src.weights()[None, :])
    return np.linalg.norm(conj[np.ix_(keep, keep)], 2)


def test_dense_and_arpack_norm_paths_agree():
    sym = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, 2)
    strat = stratify_model("square", 2)

    def assembled(grid, src, dst, eps):
        cov = build_covering(strat, eps, cover_points=grid.points())
        pou = partition_of_unity(cov, grid.points())
        return assemble_frozen_family(sym, pou, grid, src, dst)

    grid = LatticeGrid(2, 8, 1.0 / 8)
    src = DiscreteSobolevSpace(grid, 1.0)
    dst = DiscreteSobolevSpace(grid, 0.0)
    op = assembled(grid, src, dst, 0.3)
    everything = np.ones(grid.size, dtype=bool)
    for freq_mask in (None, high_frequency_mask(grid)):
        keep = everything if freq_mask is None else freq_mask
        oracle = _weighted_dft_norm(op.to_dense(), src, dst, keep)
        assert operator_norm(op, freq_mask=freq_mask) == pytest.approx(
            oracle, rel=1e-8)

    # the finest rung difference of an N=32 ladder, as assembly_convergence
    # takes it
    grid = LatticeGrid(2, 32, 1.0 / 32)
    src = DiscreteSobolevSpace(grid, 1.0)
    dst = DiscreteSobolevSpace(grid, 0.0)
    coarse = assembled(grid, src, dst, 0.2)
    fine = assembled(grid, src, dst, 0.1)
    diff = coarse - fine
    diff.src, diff.dst = src, dst
    mask = high_frequency_mask(grid)
    oracle = _weighted_dft_norm(coarse.to_dense() - fine.to_dense(),
                                src, dst, mask)
    assert operator_norm(diff, freq_mask=mask) == pytest.approx(
        oracle, rel=1e-8)


@pytest.mark.parametrize("shape, bases", [
    ((32, 32), [48]),
    ((80, 200), [48, 80]),
    ((300, 300), [48, 96, 192, 300]),
    ((4096, 4096), [48, 96, 192, 384, 768]),
])
def test_operator_norm_refuses_once_every_basis_fails(shape, bases,
                                                      monkeypatch):
    # each failure doubles PROPACK's basis, capped at min(shape) and at
    # _PROPACK_KMAX_LIMIT; the refusal names the shape and the last basis
    tried = []

    def no_convergence(*args, maxiter, **kwargs):
        tried.append(maxiter)
        raise LinAlgError("k=1 singular triplets did not converge")

    monkeypatch.setattr(lattice, "svds", no_convergence)
    zero = [lambda v, rows=rows: np.zeros((rows,) + v.shape[1:], complex)
            for rows in shape]
    op = DiscreteOperator(shape, *zero)
    with pytest.raises(NormNotConverged,
                       match=f"{shape[0]}x{shape[1]} operator with a basis "
                             f"of up to {bases[-1]} vectors"):
        operator_norm(op)
    assert tried == bases


def test_operator_norm_fallback_survives_a_start_in_the_null_space():
    # the rank-one (e0 - e1)(e0 - e1)^T annihilates the all-ones start;
    # the norm must still come out as 2, not 0
    u = np.zeros(64)
    u[:2] = (1.0, -1.0)
    op = DiscreteOperator.from_matrix(np.outer(u, u))
    assert operator_norm(op) == pytest.approx(2.0, rel=1e-9)


def test_operator_norm_propagates_other_svds_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("not an ARPACK convergence failure")

    monkeypatch.setattr(lattice, "svds", broken)
    op = DiscreteOperator.from_matrix(np.eye(32))
    with pytest.raises(ValueError):
        operator_norm(op)


def test_operator_norm_fallback_raises_when_not_converged(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise LinAlgError("k=1 singular triplets did not converge")

    monkeypatch.setattr(lattice, "svds", no_convergence)
    # the product is a composite, so operator_norm has no closed form for
    # it and only PROPACK, failing at every basis here, can give the norm
    n = 4096
    op = DiscreteOperator.diagonal(np.linspace(0.99, 1.0, n)) \
        @ DiscreteOperator.diagonal(np.ones(n))
    with pytest.raises(NormNotConverged):
        operator_norm(op)


def test_operator_norm_grows_the_basis_on_a_top_heavy_cluster():
    # the dense top of this spectrum keeps PROPACK from converging within
    # its first basis of 48 vectors; a larger basis finds the norm
    n = 4096
    op = DiscreteOperator.diagonal(np.linspace(0.99, 1.0, n)) \
        @ DiscreteOperator.diagonal(np.ones(n))
    assert operator_norm(op) == pytest.approx(1.0, rel=1e-8)


def test_operator_norm_of_exact_zero_operators():
    assert operator_norm(DiscreteOperator.from_matrix(
        np.zeros((64, 64)))) == 0.0
    grid = LatticeGrid(2, 16, 1.0 / 16)
    ones = DiscreteOperator.diagonal(np.ones(grid.size))
    composite = ones @ ones
    composite.src = DiscreteSobolevSpace(grid, 1.0)
    composite.dst = DiscreteSobolevSpace(grid, 0.0)
    assert operator_norm(composite,
                         freq_mask=np.zeros(grid.size, bool)) == 0.0


def test_operator_norm_products_and_determinism(monkeypatch):
    sym = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, 2)
    strat = stratify_model("square", 2)
    grid = LatticeGrid(2, 32, 1.0 / 32)
    src = DiscreteSobolevSpace(grid, 1.0)
    dst = DiscreteSobolevSpace(grid, 0.0)
    rungs = []
    for eps in (0.2, 0.1):
        cov = build_covering(strat, eps, cover_points=grid.points())
        pou = partition_of_unity(cov, grid.points())
        rungs.append(assemble_frozen_family(sym, pou, grid, src, dst))
    # the finest rung difference of an N=32 ladder
    diff = rungs[0] - rungs[1]
    diff.src, diff.dst = src, dst
    mask = high_frequency_mask(grid)

    products = []
    svds = lattice.svds

    def counting_svds(op, *args, **kwargs):
        def count(apply):
            def call(v):
                products[-1] += 1
                return apply(v)
            return call
        products.append(0)
        counted = LinearOperator(op.shape, matvec=count(op.matvec),
                                 rmatvec=count(op.rmatvec), dtype=op.dtype)
        return svds(counted, *args, **kwargs)

    monkeypatch.setattr(lattice, "svds", counting_svds)
    first = operator_norm(diff, freq_mask=mask)
    second = operator_norm(diff, freq_mask=mask)
    assert first == second
    assert products[0] == products[1] <= 64


def test_locality_defect_with_close_top_singular_values():
    # the nearest pair of the locality suite: the two largest singular
    # values of f A g lie 3% apart, and the norm must still be the largest
    grid = LatticeGrid(1, 128, 0.25)
    src = DiscreteSobolevSpace(grid, 0.0)
    dst = DiscreteSobolevSpace(grid, 1.0)
    sym = Symbol.parse("(1+abs2(k))^(-1/2)", -1.0, 1)
    op = discretize_symbol_op(sym, [0.0], grid, src, dst)
    pts = grid.points()[:, 0]
    f, g = _bump(pts, 4.0, 2.0), _bump(pts, 11.0, 2.0)
    fag = f[:, None] * op.to_dense() * g[None, :]
    oracle = _weighted_dft_norm(fag, src, dst, np.ones(grid.size, bool))
    assert locality_defect(op, f, g) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2])
def test_operator_norm_of_tiny_composites(n):
    # below 3 points the norm is taken directly, without a Lanczos basis
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    summed = DiscreteOperator.from_matrix(a) \
        - DiscreteOperator.from_matrix(-np.eye(n))
    assert operator_norm(summed) == pytest.approx(
        np.linalg.norm(a + np.eye(n), 2), rel=1e-12)
    wide = DiscreteOperator.from_matrix(rng.standard_normal((n, 5))) \
        @ DiscreteOperator.from_matrix(rng.standard_normal((5, 5)))
    assert operator_norm(wide) == pytest.approx(
        np.linalg.norm(wide.to_dense(), 2), rel=1e-12)


def test_block_applies_columns_in_batches():
    sym = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, 2)
    grid = LatticeGrid(2, 16, 1.0 / 16)
    src = DiscreteSobolevSpace(grid, 1.0)
    dst = DiscreteSobolevSpace(grid, 0.0)
    strat = stratify_model("square", 2)
    coarse, fine = [
        assemble_frozen_family(
            sym, partition_of_unity(build_covering(
                strat, eps, cover_points=grid.points()), grid.points()),
            grid, src, dst)
        for eps in (0.2, 0.1)]
    diff = coarse - fine
    # one unbatched matvec of every unit vector at once
    reference = diff.matvec(np.eye(grid.size, dtype=complex))
    tracemalloc.start()
    try:
        dense = diff.to_dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(dense, reference, rtol=0,
                               atol=1e-13 * np.abs(reference).max())
    assert peak <= 25e6


def test_missing_patch_rejected():
    grid = LatticeGrid(1, 16, 0.125)
    sp = DiscreteSobolevSpace(grid, 0.0)
    cov = Covering(eps=8.0, balls=[Ball((1.0,), 8.0, 0)])
    pou = partition_of_unity(cov, grid.points())
    with pytest.raises(MissingPatchError):
        assemble_operator({(9.0,): DiscreteOperator.identity(sp)}, pou)


def test_assembly_refuses_a_partition_built_on_other_points():
    grid = LatticeGrid(2, 8, 1.0 / 8)
    ident = DiscreteOperator.identity(DiscreteSobolevSpace(grid, 0.0))
    cov = build_covering(stratify_model("square", 2), 0.4,
                         cover_points=grid.points())
    family = {b.center: ident for b in cov.balls}
    for points in (grid.points()[::-1], grid.points()[:-1],
                   LatticeGrid(2, 8, 1.0 / 16).points()):
        with pytest.raises(ValueError, match="grid points"):
            assemble_operator(family, partition_of_unity(cov, points))


def test_assembly_convergence_constant_symbol_zero_table():
    # multiplication by a constant commutes with every cutoff, so the
    # assembly is exact at every radius
    sym = Symbol.parse("5", 0.0, 2)
    strat = stratify_model("square", 2)
    grid = LatticeGrid(2, 16, 1.0 / 16)
    table = assembly_convergence(sym, strat, [0.45, 0.3, 0.2], grid,
                                 s_order=1.0)
    for row in table:
        assert row["proxy"] <= 1e-10


def test_assembly_convergence_x_independent_floor():
    # For a frozen (x-independent) multiplier the assemblies differ only by
    # cutoff-commutator defects: on the lattice these floor at the bump
    # tail scale instead of the continuum's exact-compactness zero, so the
    # honest discrete invariant is that the x-independent table sits far
    # below the x-dependent signal at the same configuration.
    strat = stratify_model("square", 2)
    grid = LatticeGrid(2, 16, 1.0 / 16)
    flat = assembly_convergence(Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 2),
                                strat, [0.45, 0.3, 0.2], grid, s_order=1.0)
    xdep = assembly_convergence(
        Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, 2),
        strat, [0.45, 0.3, 0.2], grid, s_order=1.0)
    for row_flat, row_x in zip(flat, xdep):
        assert row_flat["proxy"] < row_x["proxy"] / 5.0
    # and the table stays non-increasing within the slack factor
    for a, b in zip(flat, flat[1:]):
        assert b["proxy"] <= 1.5 * a["proxy"]


def test_assembly_convergence_requires_decreasing_eps():
    sym = Symbol.parse("1", 0.0, 2)
    strat = stratify_model("square", 2)
    grid = LatticeGrid(2, 16, 1.0 / 16)
    with pytest.raises(ValueError):
        assembly_convergence(sym, strat, [0.4, 0.4, 0.2], grid)
    with pytest.raises(ValueError):
        assembly_convergence(sym, strat, [0.4, 0.2], grid)


def _ladder_on(n, radii):
    grid = LatticeGrid(2, n, 1.0 / n)
    sym = Symbol.parse("(1+1.1457*normx2(x))*(1+abs2(k))^(1/2)", 1.0, 2)
    return lambda: assembly_convergence(sym, stratify_model("square", 2),
                                        radii, grid, s_order=1.0)


def _norm_threads(monkeypatch, cpus):
    """Fix the CPU count at ``cpus`` and the BLAS pool at one thread, so
    that the ladder's norms take one helper from two CPUs on (one CPU is
    the sequential loop); returns the set that collects the ident of each
    norm's thread."""
    monkeypatch.setattr(lattice, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(lattice, "_BLAS_THREADS", 1)
    idents = set()
    norm = lattice.operator_norm

    def recording_norm(*args, **kwargs):
        idents.add(threading.get_ident())
        return norm(*args, **kwargs)

    monkeypatch.setattr(lattice, "operator_norm", recording_norm)
    return idents


def test_concurrent_ladder_norms_match_the_sequential_loop(monkeypatch):
    ladder = _ladder_on(32, [0.4, 0.3, 0.2, 0.1])
    idents = _norm_threads(monkeypatch, 1)
    sequential = [float(row["proxy"]).hex() for row in ladder()]
    assert idents == {threading.get_ident()}
    # eight CPUs still start one helper only
    idents = _norm_threads(monkeypatch, 8)
    before = threading.active_count()
    concurrent = [float(row["proxy"]).hex() for row in ladder()]
    assert threading.active_count() == before
    assert len(idents) == 2 and threading.get_ident() in idents
    assert concurrent == sequential


def test_ladder_norms_take_one_svds_call_each(monkeypatch):
    # the benchmark's ladder at N = 32: every norm converges in PROPACK's
    # first basis, so basis growth stays off the item path
    ladder = _ladder_on(32, [0.4, 0.2, 0.1])
    svds = lattice.svds
    bases = []

    def recording_svds(*args, maxiter, **kwargs):
        bases.append(maxiter)
        return svds(*args, maxiter=maxiter, **kwargs)

    monkeypatch.setattr(lattice, "svds", recording_svds)
    ladder()
    assert bases == [lattice._PROPACK_KMAX] * 2


@pytest.mark.parametrize("radii, failing", [
    ([0.45, 0.3, 0.2], {1}),
    ([0.45, 0.3, 0.2], {0}),
    ([0.45, 0.3, 0.2], {0, 1}),
    # four rungs: the caller takes pairs 0 and 2, the helper pair 1, so
    # the caller's own failure is not always the first
    ([0.45, 0.3, 0.2, 0.15], {1, 2}),
    ([0.45, 0.3, 0.2, 0.15], {2}),
])
def test_concurrent_ladder_raises_the_first_failing_pairs_error(
        radii, failing, monkeypatch):
    # svds fails on the chosen pairs, told apart by the norm of their
    # first product, at every basis size, so each failing pair raises its
    # own NormNotConverged
    ladder = _ladder_on(16, radii)
    svds = lattice.svds
    seen = []

    def first_product(op, kwargs):
        return float(np.linalg.norm(op.matvec(kwargs["v0"])))

    def recording_svds(op, *args, **kwargs):
        seen.append(first_product(op, kwargs))
        return svds(op, *args, **kwargs)

    monkeypatch.setattr(lattice, "svds", recording_svds)
    _norm_threads(monkeypatch, 1)
    ladder()
    assert len(set(seen)) == len(seen) == len(radii) - 1
    fail_at = {seen[k] for k in failing}

    def failing_svds(op, *args, **kwargs):
        key = first_product(op, kwargs)
        if key in fail_at:
            raise LinAlgError(f"no convergence at {key!r}")
        return svds(op, *args, **kwargs)

    monkeypatch.setattr(lattice, "svds", failing_svds)
    errors = []
    for cpus in (1, 2):
        _norm_threads(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(NormNotConverged) as got:
            ladder()
        assert threading.active_count() == before
        errors.append(str(got.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"no convergence at {seen[min(failing)]!r};")


def test_failing_caller_pair_cancels_the_helpers_queued_pairs(monkeypatch):
    # six pairs: the caller takes 0, 2 and 4, the helper 1, 3 and 5.  Pair
    # 0 fails once the helper is inside pair 1, which is held until the
    # pool shuts down; by then pairs 3 and 5 must have been cancelled, so
    # the helper runs neither
    monkeypatch.setattr(lattice, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(lattice, "_BLAS_THREADS", 1)
    started, released = threading.Event(), threading.Event()
    ran, held = [], []

    def norm(pair, freq_mask=None):
        ran.append(pair)
        if pair == 0:
            started.wait(timeout=10)
            raise NormNotConverged("pair 0")
        if pair == 1:
            started.set()
            held.append(released.wait(timeout=5))
        return float(pair)

    class ReleasingPool(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            released.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(lattice, "operator_norm", norm)
    monkeypatch.setattr(lattice, "ThreadPoolExecutor", ReleasingPool)
    before = threading.active_count()
    with pytest.raises(NormNotConverged, match="pair 0"):
        lattice._ladder_norms(list(range(6)), None)
    assert threading.active_count() == before
    assert held == [True]
    assert sorted(ran) == [0, 1]


def test_assembled_operator_applies_from_several_threads():
    # a ladder's middle rung is applied from two threads at once; apply
    # writes nothing, so each thread must get the one-thread results
    sym = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)", 1.0, 2)
    grid = LatticeGrid(2, 16, 1.0 / 16)
    pts = grid.points()
    op = assemble_frozen_family(
        sym, partition_of_unity(build_covering(
            stratify_model("square", 2), 0.2, cover_points=pts), pts),
        grid, DiscreteSobolevSpace(grid, 1.0), DiscreteSobolevSpace(grid, 0.0))
    rng = np.random.default_rng(4)
    inputs = [rng.standard_normal((grid.size, k)) + 0j for k in (1, 2, 3)]
    expected = [(op.matvec(v), op.rmatvec(v)) for v in inputs]
    wrong = []

    def work(i):
        for _ in range(5):
            if not (np.array_equal(op.matvec(inputs[i]), expected[i][0])
                    and np.array_equal(op.rmatvec(inputs[i]),
                                       expected[i][1])):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


@pytest.mark.parametrize("env, blas", [
    ({}, None),
    ({"OPENBLAS_NUM_THREADS": "0"}, None),
    ({"OPENBLAS_NUM_THREADS": "abc"}, None),
    ({"OPENBLAS_NUM_THREADS": "-1"}, None),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "abc", "MKL_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "3"}, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
])
def test_blas_thread_count_from_the_environment(env, blas):
    assert lattice._blas_threads(env) == blas


@pytest.mark.parametrize("blas, cpus, pairs, threads", [
    (None, 2, 2, 1),
    (None, 64, 2, 1),
    (2, 2, 2, 1),
    (1, 2, 2, 2),
    (1, 2, 1, 1),
    (1, 1, 2, 1),
    (2, 4, 2, 2),
    (2, 3, 2, 1),
    (1, 10 ** 6, 5, 2),
])
def test_ladder_norm_threads(blas, cpus, pairs, threads, monkeypatch):
    # the count alone, never more than the caller and one helper; no
    # thread is started
    monkeypatch.setattr(lattice, "_BLAS_THREADS", blas)
    monkeypatch.setattr(lattice, "_usable_cpus", lambda: cpus)
    assert lattice._ladder_norm_threads(pairs) == threads


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(lattice.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(lattice.os, "cpu_count", lambda: 3)
    assert lattice._usable_cpus() == 3
    monkeypatch.setattr(lattice.os, "cpu_count", lambda: None)
    assert lattice._usable_cpus() == 1


def test_high_frequency_mask_shape():
    grid = LatticeGrid(1, 16, 1.0)
    mask = high_frequency_mask(grid)
    idx = grid.freq_indices()[:, 0]
    np.testing.assert_array_equal(mask, np.abs(idx) >= 4)


# --------------------------------------------------------------------------
# export

def test_export_import_round_trip(tmp_path):
    grid = LatticeGrid(1, 8, 1.0)
    sp = DiscreteSobolevSpace(grid, 0.5)
    op = discretize_symbol_op(Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 1),
                              [0.0], grid, sp, DiscreteSobolevSpace(grid, -0.5))
    base = tmp_path / "op"
    export_operator(op, base, {"construction": "frozen-multiplier"})
    sidecar = json.loads((tmp_path / "op.json").read_text(encoding="utf-8"))
    mat = np.fromfile(str(base) + ".bin", "<c16").reshape(
        sidecar["rows"], sidecar["cols"])
    np.testing.assert_allclose(mat, op.to_dense(), atol=1e-15)
    assert sidecar["rows"] == 8 and sidecar["cols"] == 8
    assert sidecar["src_order"] == 0.5
    assert sidecar["grid"]["n"] == 8
    assert sidecar["provenance"] == {"construction": "frozen-multiplier"}


def test_export_writes_the_sidecar_as_every_report(tmp_path):
    # sorted keys, two-space indent and a trailing newline, as every --out
    # file; a NaN is refused before either file is written
    op = DiscreteOperator.from_matrix(np.eye(2))
    export_operator(op, tmp_path / "op", {"eps": 0.5})
    text = (tmp_path / "op.json").read_text(encoding="utf-8")
    assert text == dump_json(json.loads(text)) + "\n"
    with pytest.raises(ValueError, match="not JSON compliant"):
        export_operator(op, tmp_path / "bad", {"eps": float("nan")})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["op.bin", "op.json"]
