"""Lattice grids, multipliers, paired operators, Toeplitz index detection,
locality defects and partition-of-unity assembly."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from symstrat.dsl import BinOp, SymbolExpr
from scipy.sparse.linalg import ArpackNoConvergence

from symstrat import lattice
from symstrat.errors import (DuplicateComponentError, EmptyDomainError,
                             MissingPatchError, NormNotConverged,
                             OrderMismatch, SupportOverlapError,
                             UnstableRank, ZeroOnCircle)
from symstrat.geometry import (Ball, CanonicalDomain, Covering, orthant,
                               partition_of_unity, stratify_model,
                               build_covering)
from symstrat.lattice import (DiscreteOperator, DiscreteSobolevSpace,
                              IndexEntry, LatticeGrid, aggregate_index,
                              assemble_frozen_family, assemble_operator,
                              assembly_convergence, build_paired_operator,
                              discretize_symbol_op, export_operator,
                              high_frequency_mask, import_operator,
                              lattice_projector, locality_defect,
                              numerical_index, numerical_index_direct_sum,
                              operator_norm, quantize_full_symbol,
                              rect_section_matrix, toeplitz_sections)
from symstrat.laurent import (LaurentPolynomial, laurent_winding,
                              random_elliptic_laurent)
from symstrat.symbols import Symbol


# --------------------------------------------------------------------------
# grids and spaces

def test_grid_validation():
    with pytest.raises(ValueError):
        LatticeGrid(1, 7, 1.0)
    with pytest.raises(ValueError):
        LatticeGrid(1, 12, 1.0)
    with pytest.raises(ValueError):
        LatticeGrid(1, 16, -1.0)
    grid = LatticeGrid(2, 8, 0.5)
    assert grid.size == 64
    assert grid.period == 4.0


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
    np.testing.assert_allclose(frozen.data, plain.data, atol=1e-14)


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
    prod = Symbol(SymbolExpr(BinOp("*", s1.expr.ast, s2.expr.ast), 1), 2.0, 1)
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


# --------------------------------------------------------------------------
# projectors and paired operators

def test_projector_idempotent_and_complementary():
    mask = np.array([True, False, True, False])
    p = lattice_projector(mask)
    q = lattice_projector(~mask)
    np.testing.assert_array_equal((p @ p).to_dense(), p.to_dense())
    np.testing.assert_array_equal(p.to_dense() + q.to_dense(), np.eye(4))


def test_paired_two_point_toy():
    a = DiscreteOperator.from_matrix(np.array([[0, 1], [1, 0]], complex))
    p_plus = lattice_projector(np.array([True, False]))
    p_minus = lattice_projector(np.array([False, True]))
    paired = (a @ p_plus) + p_minus
    np.testing.assert_array_equal(paired.to_dense().real,
                                  np.array([[0, 0], [1, 1]]))
    # singular, and the compression onto the first coordinate is [0]
    assert np.linalg.matrix_rank(paired.to_dense()) == 1
    compression = a.to_dense()[:1, :1]
    assert np.linalg.matrix_rank(compression) == 0


def test_paired_shift_symbol_identity_on_complement_rows():
    grid = LatticeGrid.centered(1, 16, 1.0)
    sp = DiscreteSobolevSpace(grid, 0.0)
    shift = discretize_symbol_op(Symbol.parse("exp(i*k1)", 0.0, 1), [0.0],
                                 grid, sp, sp)
    paired = build_paired_operator(shift, CanonicalDomain.half_space(1), grid)
    mask = grid.points()[:, 0] > 0
    dense = paired.to_dense()
    np.testing.assert_allclose(dense[:, ~mask], np.eye(16)[:, ~mask],
                               atol=1e-12)
    # the shift rows act only on the selected half
    assert np.abs(dense[:, mask]).max() == pytest.approx(1.0, abs=1e-12)


def test_paired_empty_domain_rejected():
    grid = LatticeGrid(1, 8, 1.0)   # origin 0: no point has x < 0
    sp = DiscreteSobolevSpace(grid, 0.0)
    op = DiscreteOperator.identity(sp)
    with pytest.raises(EmptyDomainError):
        build_paired_operator(op, CanonicalDomain.full_space(1), grid)


def test_paired_wedge_quadrant():
    grid = LatticeGrid.centered(2, 8, 1.0)
    sp = DiscreteSobolevSpace(grid, 0.0)
    ident = DiscreteOperator.identity(sp)
    dom = CanonicalDomain.wedge(2, 0, orthant(2))
    paired = build_paired_operator(ident, dom, grid)
    np.testing.assert_allclose(paired.to_dense(), np.eye(64), atol=1e-14)


def test_paired_compression_equivalence_random():
    rng = np.random.default_rng(17)
    agreements = 0
    for _ in range(100):
        n = 50
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = int(rng.integers(1, n))
        mask = np.zeros(n, dtype=bool)
        mask[rng.permutation(n)[:k]] = True
        paired = a @ np.diag(mask.astype(complex)) + np.diag(
            (~mask).astype(complex))
        compression = a[np.ix_(mask, mask)]
        cond_p = np.linalg.cond(paired)
        cond_c = np.linalg.cond(compression)
        if max(cond_p, cond_c) >= 1e8:
            continue
        assert (cond_p < 1e8) == (cond_c < 1e8)
        # determinants agree up to sign from the basis permutation
        sign_p, logdet_p = np.linalg.slogdet(paired)
        sign_c, logdet_c = np.linalg.slogdet(compression)
        assert logdet_p == pytest.approx(logdet_c, rel=1e-8, abs=1e-8)
        agreements += 1
    assert agreements >= 95


def test_paired_compression_equivalence_singular_case():
    # engineered singular compression: the paired operator is singular too
    rng = np.random.default_rng(5)
    n = 20
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mask = np.zeros(n, dtype=bool)
    mask[:6] = True
    a[np.ix_(mask, mask)] = np.outer(rng.standard_normal(6),
                                     rng.standard_normal(6))
    paired = a @ np.diag(mask.astype(complex)) + np.diag(
        (~mask).astype(complex))
    assert np.linalg.matrix_rank(a[np.ix_(mask, mask)]) == 1
    assert np.linalg.matrix_rank(paired) == n - 5


# --------------------------------------------------------------------------
# Toeplitz sections and index detection

def test_toeplitz_unit_symbol():
    t = toeplitz_sections(LaurentPolynomial.make([1], 0), 6)
    np.testing.assert_array_equal(t.to_dense(), np.eye(6))


def test_toeplitz_bidiagonal_convention():
    # a(z) = z - 1/2: entry (i,j) = a_{i-j} puts -1/2 on the diagonal and
    # 1 on the subdiagonal
    t = toeplitz_sections(LaurentPolynomial.make([-0.5, 1], 0), 4)
    expected = np.diag([-0.5] * 4) + np.diag([1.0] * 3, k=-1)
    np.testing.assert_array_equal(t.to_dense().real, expected)


def test_toeplitz_band_from_expansion_oracle():
    # z^{-1}(z-2)(z-1/2) expands to z - 5/2 + z^{-1}
    coeffs = np.convolve([1, -2], [1, -0.5])      # (z-2)(z-1/2), high first
    poly = LaurentPolynomial.make(coeffs[::-1], -1)
    assert poly.coeff(-1) == pytest.approx(1.0)
    assert poly.coeff(0) == pytest.approx(-2.5)
    assert poly.coeff(1) == pytest.approx(1.0)
    t = toeplitz_sections(poly, 6).to_dense().real
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


def test_numerical_index_unstable_rank_near_circle():
    # kernel decay rate is the inverse outside root: 1/1.2 decays too
    # slowly to register at N=64 but resolves at 2N, so the counts differ
    poly = LaurentPolynomial.make([-1.2, 1], -1)    # z^{-1}(z - 1.2)
    with pytest.raises(UnstableRank):
        numerical_index(poly, 64)
    entry = numerical_index(poly, 256)
    assert entry.index == -laurent_winding(poly) == 1
    assert (entry.dim_ker, entry.dim_coker) == (1, 0)


def test_direct_sum_unstable_rank_names_sizes_and_counts():
    poly = LaurentPolynomial.make([-1.2, 1], -1)
    with pytest.raises(UnstableRank) as info:
        numerical_index_direct_sum([LaurentPolynomial.make([1], 0), poly], 64)
    message = str(info.value)
    assert "N=64" in message and "ker [0, 1]" in message


def test_numerical_index_matches_minus_winding_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        poly = random_elliptic_laurent(rng)
        entry = numerical_index(poly, 128)
        assert entry.index == -laurent_winding(poly)
        assert entry.diagnostics["matches_minus_winding"]


def test_direct_sum_block_detection():
    symbols = [LaurentPolynomial.make([0, 1], 0),
               LaurentPolynomial.make([1], -2),
               LaurentPolynomial.make([-2.0, 1], 0)]
    assert [laurent_winding(a) for a in symbols] == [1, -2, 0]
    direct = numerical_index_direct_sum(symbols, 64)
    parts = [numerical_index(a, 64) for a in symbols]
    assert direct.index == sum(p.index for p in parts) == 1
    assert direct.dim_ker == sum(p.dim_ker for p in parts)
    assert direct.dim_coker == sum(p.dim_coker for p in parts)


def _dense_kernel_count(symbols, n, rank_tol):
    """Oracle: singular values of the block-diagonal restricted sections,
    from a dense SVD."""
    sub = scipy.linalg.block_diag(*[
        rect_section_matrix(a, n, n - lattice._EDGE_PAD) for a in symbols])
    sig = np.linalg.svd(sub, compute_uv=False)
    return int(np.sum(sig <= rank_tol * sig[0]))


def _kernel_count_oracle_cases():
    rng = np.random.default_rng(17)
    for k in range(8):
        poly = random_elliptic_laurent(rng)
        for n in (64, 128):
            yield f"random {k} N={n}", [poly], n
            yield f"random {k} adjoint N={n}", [poly.conj_reflected()], n
    for n in (64, 128):
        yield f"shift N={n}", [LaurentPolynomial.make([0, 1], 0)], n
        yield f"back-shift N={n}", [LaurentPolynomial.make([1], -1)], n
    yield "direct sum", [LaurentPolynomial.make([0, 1], 0),
                         LaurentPolynomial.make([1], -2),
                         LaurentPolynomial.make([-2.0, 1], 0)], 64
    yield "random direct sum", [random_elliptic_laurent(rng)
                                for _ in range(3)], 128


def test_kernel_count_matches_dense_svd_oracle():
    counts = []
    for label, symbols, n in _kernel_count_oracle_cases():
        count = lattice._kernel_count(symbols, n, lattice.RANK_TOL)
        assert count == _dense_kernel_count(symbols, n,
                                            lattice.RANK_TOL), label
        counts.append(count)
        for a in symbols:            # interleaving keeps the matrix banded
            offsets = lattice._golub_kahan_band(a, n)[0]
            assert offsets.max() <= a.max_deg - a.min_deg + 1, label
    assert max(counts) >= 2          # the oracle cases do have kernels


def test_kernel_count_parity_guard_below_noise_floor():
    # the structural zeros of the Golub-Kahan matrix are roundoff-sized,
    # so a rank_tol of 1e-20 counts some of them and not others
    poly = LaurentPolynomial.make([-0.5, 1], 0)
    assert lattice._kernel_count([poly], 64, lattice.RANK_TOL) == 0
    with pytest.raises(UnstableRank) as info:
        lattice._kernel_count([poly], 64, 1e-20)
    message = str(info.value)
    assert message.startswith("3 eigenvalues")
    assert "rank_tol=1e-20" in message and "N=64" in message


def test_aggregate_index_sums():
    entries = [IndexEntry("a", 0, 1, -1), IndexEntry("b", 2, 0, 2),
               IndexEntry("c", 0, 0, 0)]
    report = aggregate_index(entries)
    assert report.total_index == 1
    assert report.total_ker == 2
    assert report.total_coker == 1
    single = aggregate_index([entries[0]])
    assert single.total_index == -1
    with pytest.raises(DuplicateComponentError):
        aggregate_index([entries[0], entries[0]])


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


class _IndexPartition:
    """Partition stand-in whose cutoffs are given grid functions, so a test
    can place supports anywhere on the torus, across the seam included."""

    def __init__(self, f_vals, g_vals):
        self.covering = Covering(eps=1.0, balls=[
            Ball((0.5 * j, 0.5), 1.0, 0) for j in range(len(f_vals))])
        self.f_vals, self.g_vals = f_vals, g_vals

    def evaluate_f(self, points, outside="error"):
        return self.f_vals

    def evaluate_g(self, points):
        return self.g_vals


def _seam_cutoffs(grid, rng):
    """Cutoffs on two boxes of the torus: one around index (0, ..., 0),
    which wraps the seam on every axis, and one in the middle.  f_j lives
    on the box of radius 1 and g_j on the box of radius 2."""
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
    return f_vals, g_vals


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
                  _IndexPartition(*_seam_cutoffs(grid, rng))]
    families = {
        "multiplier": lambda c: discretize_symbol_op(sym, c, grid, src, dst),
        "diag": lambda c: DiscreteOperator.diagonal(
            rng.standard_normal(p) + 1j * rng.standard_normal(p), src, dst),
        "dense": lambda c: DiscreteOperator.from_matrix(
            rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)),
            src, dst),
        "composite": lambda c: discretize_symbol_op(sym, c, grid, src, dst)
        @ DiscreteOperator.diagonal(rng.uniform(1, 2, p) + 0j, src, src),
    }
    for pou in partitions:
        for kind, make in families.items():
            family = {b.center: make(b.center) for b in pou.covering.balls}
            assembled = assemble_operator(family, pou, grid)
            reference = assembled.matvec(np.eye(p, dtype=complex))
            scale = np.abs(reference).max()
            assert scale > 0
            np.testing.assert_allclose(assembled.to_dense(), reference,
                                       rtol=0, atol=1e-13 * scale,
                                       err_msg=kind)


def _torus_reference(family, pou, grid, v, adjoint=False):
    """sum_j f_j A_j g_j v, or its adjoint, patch by patch with each A_j
    applied over the whole torus."""
    pts = grid.points()
    out = np.zeros_like(v)
    for fj, gj, ball in zip(pou.evaluate_f(pts), pou.evaluate_g(pts),
                            pou.covering.balls):
        op = family[ball.center]
        if v.ndim == 2:
            fj, gj = fj[:, None], gj[:, None]
        out = out + (gj * op.rmatvec(fj * v) if adjoint
                     else fj * op.matvec(gj * v))
    return out


def _window_cases():
    """(label, grid, partition, family): square partitions whose windows
    span the whole torus (eps 0.4, 0.2) or a box of 19 (N=32) or 38 (N=64)
    points per axis (eps 0.1); seam-wrapping cutoffs, windowed at N=16 and
    N=32 on the square, N=16 on the circle and N=8 on the 3-torus; and
    families that mix multiplier and diagonal patches."""
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
            yield f"square N={n} eps={eps}", grid, pou, family
            if n == 32:
                p = grid.size
                mixed = {c: op if j % 3 else DiscreteOperator.diagonal(
                    rng.standard_normal(p) + 1j * rng.standard_normal(p),
                    src, dst) for j, (c, op) in enumerate(family.items())}
                yield f"mixed N={n} eps={eps}", grid, pou, mixed
    for dim, n in ((2, 16), (2, 32), (1, 16), (3, 8)):
        grid = LatticeGrid(dim, n, 1.0 / n)
        src = DiscreteSobolevSpace(grid, 1.0)
        dst = DiscreteSobolevSpace(grid, 0.0)
        pou = _IndexPartition(*_seam_cutoffs(grid, rng))
        sym_d = Symbol.parse("(1+normx2(x))*(1+abs2(k))^(1/2)+k1", 1.0, dim)
        family = {b.center: discretize_symbol_op(
            sym_d, b.center[:1] + (0.5,) * (dim - 1), grid, src, dst)
            for b in pou.covering.balls}
        yield f"seam d={dim} N={n}", grid, pou, family


def test_windowed_assembly_matches_torus_reference():
    rng = np.random.default_rng(3)
    empty_support_seen = False
    for label, grid, pou, family in _window_cases():
        f_vals = pou.evaluate_f(grid.points())
        empty_support_seen |= bool(np.any(~np.any(f_vals != 0, axis=1)))
        assembled = assemble_operator(family, pou, grid)
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


def test_operator_norm_falls_back_on_arpack_no_convergence(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([]),
                                  np.array([]))

    monkeypatch.setattr(lattice, "svds", no_convergence)
    op = DiscreteOperator.from_matrix(np.diag(np.linspace(1.0, 3.0, 32)))
    assert operator_norm(op) == pytest.approx(3.0, rel=1e-6)


def test_operator_norm_fallback_survives_a_start_in_the_null_space():
    # the rank-one (e0 - e1)(e0 - e1)^T annihilates ARPACK's all-ones
    # start: svds stops with "starting vector is zero", and the fallback
    # must still find the norm 2 instead of reporting 0
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
        raise ArpackNoConvergence("no convergence", np.array([]),
                                  np.array([]))

    monkeypatch.setattr(lattice, "svds", no_convergence)
    # a dense top of the spectrum: power iteration creeps towards 1 with
    # steps far above its tolerance after 500 iterations.  The product is
    # a composite, so operator_norm has no closed form for it.
    n = 4096
    op = DiscreteOperator.diagonal(np.linspace(0.99, 1.0, n)) \
        @ DiscreteOperator.diagonal(np.ones(n))
    with pytest.raises(NormNotConverged):
        operator_norm(op)


@pytest.mark.parametrize("n", [1, 2])
def test_operator_norm_of_tiny_composites(n):
    # ARPACK needs at least 3 points; below that the norm is taken directly
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    summed = DiscreteOperator.from_matrix(a) \
        + DiscreteOperator.from_matrix(np.eye(n))
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
    export_operator(op, base)
    mat, sidecar = import_operator(base)
    np.testing.assert_allclose(mat, op.to_dense(), atol=1e-15)
    assert sidecar["rows"] == 8 and sidecar["cols"] == 8
    assert sidecar["src_order"] == 0.5
    assert sidecar["grid"]["n"] == 8
    assert sidecar["provenance"]["construction"] == "frozen-multiplier"
