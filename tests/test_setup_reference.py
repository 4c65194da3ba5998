"""The blocked set-up of an assembly rung against per-ball references.

Coverings, partitions of unity, frozen-coefficient families and kernel
windows are built in whole-array passes.  Each reference here is the
straightforward loop over balls or patches, and the blocked result must
equal it bit for bit.
"""

import math

import numpy as np
import pytest

from symstrat import geometry, lattice, symbols
from symstrat.dsl import eval_on_grid
from symstrat.errors import (CoverageError, EvalError, MissingPatchError,
                             OrderMismatch)
from symstrat.geometry import (Ball, Covering, PartitionOfUnity,
                               build_covering, partition_of_unity,
                               stratify_model)
from symstrat.lattice import (DiscreteSobolevSpace, LatticeGrid,
                              assemble_frozen_family, assemble_operator,
                              discretize_symbol_op)
from symstrat.symbols import Symbol

# the assemble_* benchmark symbol, and one with x inside a xi subtree
FAMILY_SYMBOLS = ("(1+1.1457*normx2(x))*(1+abs2(k))^(1/2)",
                  "(1+abs2(x1)*abs2(k))^(1/2)")


def _rung(n, eps, dim=2, model="square"):
    grid = LatticeGrid(dim, n, 1.0 / n)
    cov = build_covering(stratify_model(model, dim), eps,
                         cover_points=grid.points())
    return grid, cov, partition_of_unity(cov, grid.points())


def _spaces(grid, alpha):
    return (DiscreteSobolevSpace(grid, 1.0),
            DiscreteSobolevSpace(grid, 1.0 - alpha))


def _per_ball_values(s, centers, grid):
    freqs = grid.frequencies().astype(complex)
    return [eval_on_grid(s.expr, np.asarray(c, float)[None, :], freqs)
            for c in centers]


# --------------------------------------------------------------------------
# frozen families

@pytest.mark.parametrize("text", FAMILY_SYMBOLS)
@pytest.mark.parametrize("block", [None, 5000, 100])
def test_frozen_family_matches_the_per_ball_loop(text, block, monkeypatch):
    # blocks of 2^17 points (one over all 169 balls x 256 frequencies),
    # of 29 frequencies, and of one frequency per block (100 < 169 balls)
    if block is not None:
        monkeypatch.setattr(symbols, "ELL_BLOCK_POINTS", block)
    s = Symbol.parse(text, 1.0, 2)
    grid, cov, pou = _rung(16, 0.1)
    src, dst = _spaces(grid, 1.0)
    centers = [b.center for b in cov.balls]
    assert len(centers) == 169
    values = lattice._frozen_values(s, np.array(centers, dtype=float),
                                    grid.frequencies().astype(complex))
    refs = _per_ball_values(s, centers, grid)
    for c, row, ref in zip(centers, values, refs):
        assert np.array_equal(row, ref), c
        # the one-center case
        one = discretize_symbol_op(s, c, grid, src, dst)
        assert np.array_equal(one.spectrum, ref), c
    # the windows of the per-ball values, applied bit for bit
    windows = lattice._MultiplierWindows(
        lambda b: np.array(refs[b]),
        lattice._WindowGeometry(pou.f_values, pou.g_values, grid))
    v = np.random.default_rng(2).standard_normal((grid.size, 2)) + 0j
    assert np.array_equal(assemble_frozen_family(s, pou, grid, src, dst)
                          .matvec(v), windows.apply(v))


@pytest.mark.parametrize("block", [None, 100, 5 * 256])
def test_frozen_family_raises_the_first_failing_balls_error(block,
                                                            monkeypatch):
    # the vertex ball (0, 1) overflows in exp and (1, 0) divides by zero;
    # a block holding both balls could fail on either.  The set-up takes
    # one batch of balls, one ball per batch, or five balls per batch
    if block is not None:
        monkeypatch.setattr(symbols, "ELL_BLOCK_POINTS", block)
    s = Symbol.parse("abs2(k)/(x1-1)+exp(x2*1000)", 2.0, 2)
    grid, cov, pou = _rung(16, 0.2)
    src, dst = _spaces(grid, 2.0)
    errors = []
    for c in (b.center for b in cov.balls):
        try:
            _per_ball_values(s, [c], grid)
        except EvalError as exc:
            errors.append((c, exc))
    # more than one ball fails, and not in the first position
    assert len(errors) > 2 and errors[0][0] != cov.balls[0].center
    with pytest.raises(EvalError) as got:
        assemble_frozen_family(s, pou, grid, src, dst)
    assert type(got.value) is type(errors[0][1])
    assert str(got.value) == str(errors[0][1])
    assert any(str(exc) != str(errors[0][1]) for _, exc in errors)


def _recorded_windows(monkeypatch) -> list:
    """Collect every _MultiplierWindows that lattice sets up."""
    made = []

    class Recording(lattice._MultiplierWindows):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(lattice, "_MultiplierWindows", Recording)
    return made


def _line_or_box_rung(dim, n, eps):
    grid = LatticeGrid(dim, n, 1.0 / n)
    pts = grid.points()
    if dim == 1:
        cov = Covering(eps, [Ball((float(c),), eps, 0)
                             for c in np.arange(0.0, 1.0, eps)])
    else:
        model = "square" if dim == 2 else "cube"
        cov = build_covering(stratify_model(model, dim), eps,
                             cover_points=pts)
    return grid, cov, partition_of_unity(cov, pts, outside="zero")


def test_assemble_operator_sets_up_no_windows(monkeypatch):
    # a family of frozen multipliers goes patch by patch; only
    # assemble_frozen_family uses kernel windows
    made = _recorded_windows(monkeypatch)
    grid, cov, pou = _line_or_box_rung(2, 16, 0.2)
    sym = Symbol.parse(FAMILY_SYMBOLS[0], 1.0, 2)
    src, dst = _spaces(grid, 1.0)
    family = {b.center: discretize_symbol_op(sym, b.center, grid, src, dst)
              for b in cov.balls}
    assembled = assemble_operator(family, pou)
    v = np.random.default_rng(4).standard_normal(grid.size) + 0j
    assembled.matvec(v)
    assembled.rmatvec(v)
    assembled.to_dense()
    assert made == []
    assemble_frozen_family(sym, pou, grid, src, dst)
    assert len(made) == 1


@pytest.mark.parametrize("dim, n, eps", [(1, 32, 0.1), (2, 16, 0.1),
                                         (3, 8, 0.3)])
def test_streamed_setup_matches_the_one_batch_setup(dim, n, eps,
                                                    monkeypatch):
    # three balls per batch, so a rung takes many batches, against all
    # balls in one batch
    grid, cov, pou = _line_or_box_rung(dim, n, eps)
    made = _recorded_windows(monkeypatch)
    sym = Symbol.parse(f"(1+normx2(x))*(1+abs2(k))^(1/2)+k{dim}", 1.0, dim)
    src, dst = _spaces(grid, 1.0)
    assert len(cov.balls) > 6

    def rung(balls_per_batch):
        monkeypatch.setattr(symbols, "ELL_BLOCK_POINTS",
                            balls_per_batch * grid.size)
        return assemble_frozen_family(sym, pou, grid, src, dst)

    streamed, reference = rung(3), rung(len(cov.balls))
    (got, ref) = made
    got_geo, ref_geo = got.geometry, ref.geometry
    assert (got_geo.b_f, got_geo.b_g, got_geo.size) == (
        ref_geo.b_f, ref_geo.b_g, ref_geo.size)
    assert np.array_equal(got.spectra, ref.spectra)
    for a, b in ((got_geo.f, ref_geo.f), (got_geo.g, ref_geo.g)):
        assert np.array_equal(a.toarray(), b.toarray())
    assert np.array_equal(streamed.to_dense(), reference.to_dense())


def test_frozen_family_checks_before_evaluating(monkeypatch):
    evaluated = []

    def counting_eval(*args):
        evaluated.append(args)
        return eval_on_grid(*args)

    monkeypatch.setattr(symbols, "eval_on_grid", counting_eval)
    s = Symbol.parse("abs2(k)/(x1-1)+exp(x2*1000)", 2.0, 2)
    grid, cov, pou = _rung(16, 0.2)
    src, dst = _spaces(grid, 2.0)
    other = DiscreteSobolevSpace(LatticeGrid(2, 16, 1.0 / 32), 1.0)
    with pytest.raises(OrderMismatch):
        assemble_frozen_family(s, pou, grid, src, src)
    with pytest.raises(ValueError, match="given grid"):
        assemble_frozen_family(s, pou, grid, other, dst)
    with pytest.raises(ValueError, match="grid points"):
        assemble_frozen_family(s, partition_of_unity(cov, grid.points()[::-1]),
                               grid, src, dst)
    none = np.zeros((0, grid.size))
    empty = PartitionOfUnity(Covering(0.2, []), grid.points(), none, none)
    with pytest.raises(MissingPatchError, match="empty covering"):
        assemble_frozen_family(s, empty, grid, src, dst)
    assert evaluated == []


# --------------------------------------------------------------------------
# coverings and partitions

def _reference_dists(points, centers):
    if len(centers) == 0:
        return np.full(points.shape[0], np.inf)
    c = np.asarray(centers, float)
    return np.sqrt(((points[:, None, :] - c[None, :, :]) ** 2)
                   .sum(-1)).min(axis=1)


def _reference_partition(cov, pts):
    d = np.sqrt(((pts[None, :, :] - cov.centers_array()[:, None, :]) ** 2)
                .sum(-1))
    f_vals = geometry._bump(d / cov.eps)
    f_vals /= f_vals.sum(axis=0)
    g_vals = (d <= cov.eps).astype(float)
    ring = (d > cov.eps) & (d < 2 * cov.eps)
    g_vals[ring] = geometry._transition((d[ring] - cov.eps) / cov.eps)
    return f_vals, g_vals


@pytest.mark.parametrize("model, dim, n, eps", [
    ("square", 2, 32, 0.1), ("cube", 3, 8, 0.2), ("wedge2d", 2, 16, 0.3)])
def test_covering_and_partition_match_the_per_ball_formulas(
        model, dim, n, eps, monkeypatch):
    strat = stratify_model(model, dim)
    grid, cov, pou = _rung(n, eps, dim, model)
    centers = cov.centers_array()
    for st in strat.strata:
        for subset in (centers, centers[:1], centers[::3], []):
            assert np.array_equal(
                geometry._dists_to_centers(st.sample_points, subset),
                _reference_dists(st.sample_points, subset)), st.label
    f_ref, g_ref = _reference_partition(cov, grid.points())
    assert np.array_equal(pou.f_values, f_ref)
    assert np.array_equal(pou.g_values, g_ref)
    # the same balls, in the same order, from the reference distances
    monkeypatch.setattr(geometry, "_dists_to_centers", _reference_dists)
    assert build_covering(strat, eps,
                          cover_points=grid.points()).balls == cov.balls


# --------------------------------------------------------------------------
# kernel windows

def _reference_spectra(geometry, values, f_rows, g_rows, n, d):
    """The spectra of the patch windows, one full-torus inverse DFT per
    patch."""
    f_start, _ = lattice._support_arcs(f_rows, (n,) * d)
    g_start, _ = lattice._support_arcs(g_rows, (n,) * d)
    m = [np.r_[0:size - bg + 1, 1 - bg:0]
         for size, bg in zip(geometry.size, geometry.b_g)]
    stacked = np.stack([
        lattice._at_offsets(np.fft.ifftn(vals.reshape((n,) * d)),
                            np.ix_(*(fa - ga + ma for fa, ga, ma
                                     in zip(f_start[j], g_start[j], m))))
        for j, vals in enumerate(values)], axis=1)
    return np.fft.fftn(stacked, axes=geometry.axes) / math.prod(geometry.size)


@pytest.mark.parametrize("dim, n, eps", [(1, 32, 0.1), (2, 16, 0.1),
                                         (2, 32, 0.2), (3, 8, 0.3)])
@pytest.mark.parametrize("block", [None, 3000, 10])
def test_window_spectra_match_the_per_patch_transforms(dim, n, eps, block,
                                                       monkeypatch):
    # batches of 2^17 points, of a few patches, and of one patch
    if block is not None:
        monkeypatch.setattr(symbols, "ELL_BLOCK_POINTS", block)
    grid, cov, pou = _line_or_box_rung(dim, n, eps)
    sym = Symbol.parse(f"(1+normx2(x))*(1+abs2(k))^(1/2)+k{dim}", 1.0, dim)
    values = lattice._frozen_values(sym, cov.centers_array(),
                                    grid.frequencies().astype(complex))
    f_rows, g_rows = list(pou.f_values), list(pou.g_values)
    geometry = lattice._WindowGeometry(f_rows, g_rows, grid)
    windows = lattice._MultiplierWindows(lambda b: values[b], geometry)
    assert np.array_equal(
        windows.spectra[:, :, 0],
        _reference_spectra(geometry, values, f_rows, g_rows, n, dim))


# --------------------------------------------------------------------------
# memory bound

def test_rung_setup_stays_within_the_block_bound(monkeypatch):
    # the finest N=32 rung: 169 balls x 1024 points is above the bound of
    # 2^17, so the evaluation, the kernel transforms and the window
    # transforms are split
    evaluated, transformed, spectra = [], [], []
    real_ifftn, real_fftn = np.fft.ifftn, np.fft.fftn

    def counting_eval(expr, x, xi):
        evaluated.append(math.prod(np.broadcast_shapes(
            np.shape(x)[:-1], np.shape(xi)[:-1])))
        return eval_on_grid(expr, x, xi)

    def counting_ifftn(a, *args, **kwargs):
        transformed.append(np.size(a))
        return real_ifftn(a, *args, **kwargs)

    def counting_fftn(a, *args, **kwargs):
        spectra.append(np.size(a))
        return real_fftn(a, *args, **kwargs)

    monkeypatch.setattr(symbols, "eval_on_grid", counting_eval)
    monkeypatch.setattr(np.fft, "ifftn", counting_ifftn)
    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    made = _recorded_windows(monkeypatch)
    s = Symbol.parse(FAMILY_SYMBOLS[0], 1.0, 2)
    grid, cov, pou = _rung(32, 0.1)
    src, dst = _spaces(grid, 1.0)
    assemble_frozen_family(s, pou, grid, src, dst)
    n_balls = len(cov.balls)
    assert n_balls * grid.size > symbols.ELL_BLOCK_POINTS
    assert min(len(evaluated), len(transformed), len(spectra)) >= 2
    assert max(evaluated + transformed + spectra) <= symbols.ELL_BLOCK_POINTS
    assert sum(evaluated) == sum(transformed) == n_balls * grid.size
    assert sum(spectra) == n_balls * math.prod(made[0].geometry.size)


# --------------------------------------------------------------------------
# rung cache

LADDER = (0.4, 0.2, 0.1)


def _counted_setup(monkeypatch) -> dict:
    """Count the build_covering and partition_of_unity calls of lattice."""
    calls = {"build_covering": 0, "partition_of_unity": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(lattice, name),
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(lattice, name, counted)
    return calls


def _proxies(sym, strat, grid):
    table = lattice.assembly_convergence(sym, strat, LADDER, grid,
                                         s_order=1.0)
    return [float(row["proxy"]).hex() for row in table]


def test_a_second_ladder_builds_no_covering_or_partition(monkeypatch):
    lattice._shared_rung.cache_clear()
    calls = _counted_setup(monkeypatch)
    grid = LatticeGrid(2, 16, 1.0 / 16)
    strat = stratify_model("square", 2)
    sym = Symbol.parse(FAMILY_SYMBOLS[0], 1.0, 2)
    first = _proxies(sym, strat, grid)
    assert calls == {"build_covering": 3, "partition_of_unity": 3}
    assert _proxies(sym, strat, grid) == first
    assert calls == {"build_covering": 3, "partition_of_unity": 3}
    # a stratification built afresh is not the shared one: no cache
    fresh = geometry._stratification.__wrapped__("square", 2)
    assert _proxies(sym, fresh, grid) == first
    assert calls == {"build_covering": 6, "partition_of_unity": 6}
    assert lattice._shared_rung.cache_info().hits == 3


def _geometry_arrays(geo):
    """Every array of a _WindowGeometry, the gather matrices' included."""
    sparse = [getattr(m, name) for m in (geo.f, geo.g, geo.f_t, geo.g_t)
              for name in ("data", "indices", "indptr")]
    return [*geo.offsets, *geo.dft, *geo.idft, *sparse]


def test_cached_rungs_equal_a_fresh_build_and_are_read_only():
    grid = LatticeGrid(2, 16, 1.0 / 16)
    strat = stratify_model("square", 2)
    src, dst = _spaces(grid, 1.0)
    sym = Symbol.parse(FAMILY_SYMBOLS[1], 1.0, 2)
    v = np.random.default_rng(6).standard_normal((grid.size, 2)) + 0j
    for eps in LADDER:
        centers, geo = lattice._rung(strat, eps, grid)
        assert lattice._rung(strat, eps, grid)[1] is geo
        ref_centers, ref = lattice._shared_rung.__wrapped__("square", 2, eps,
                                                            grid)
        assert ref is not geo
        assert centers.tobytes() == ref_centers.tobytes()
        assert (geo.torus, geo.n_patch, geo.b_f, geo.b_g, geo.size,
                geo.axes) == (ref.torus, ref.n_patch, ref.b_f, ref.b_g,
                              ref.size, ref.axes)
        for got, want in zip(_geometry_arrays(geo), _geometry_arrays(ref)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for arr in [centers, *_geometry_arrays(geo)]:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0
        # the cached rung assembles the operator of a fresh partition
        _, _, pou = _rung(16, eps)
        op, n_patches = lattice.assemble_rung(sym, strat, eps, grid, src,
                                              dst)
        assert n_patches == len(pou.covering.balls)
        direct = assemble_frozen_family(sym, pou, grid, src, dst)
        for apply in ("matvec", "rmatvec"):
            assert np.array_equal(getattr(op, apply)(v),
                                  getattr(direct, apply)(v))


def test_each_rung_key_gets_its_own_entry_up_to_the_bound():
    lattice._shared_rung.cache_clear()
    strat = stratify_model("square", 2)
    base = LatticeGrid(2, 8, 1.0 / 8)
    keys = [(0.4, base), (0.3, base), (0.4, LatticeGrid(2, 16, 1.0 / 16)),
            (0.4, LatticeGrid(2, 8, 1.0 / 10)),
            (0.4, LatticeGrid(2, 8, 1.0 / 8, origin=(1.0 / 16, 0.0)))]
    rungs = []
    for k, (eps, grid) in enumerate(keys, start=1):
        rungs.append(lattice._rung(strat, eps, grid)[1])
        assert lattice._shared_rung.cache_info().misses == k
    assert len({id(geo) for geo in rungs}) == len(keys)
    # a list origin makes the same, hashable grid
    assert lattice._rung(strat, 0.4, LatticeGrid(
        2, 8, 1.0 / 8, origin=[1.0 / 16, 0.0]))[1] is rungs[-1]
    size = lattice._RUNG_CACHE_SIZE
    for eps in np.linspace(0.45, 0.2, 2 * size):
        lattice._rung(strat, float(eps), base)
        assert lattice._shared_rung.cache_info().currsize <= size
    assert lattice._shared_rung.cache_info().currsize == size


@pytest.mark.parametrize("eps, grid, error", [
    (0.6, LatticeGrid(2, 8, 1.0 / 8), ValueError),
    (0.4, LatticeGrid(2, 8, 1.0 / 8, origin=(2.0, 2.0)),
     CoverageError)])
def test_rung_errors_are_raised_on_every_call_and_never_kept(eps, grid,
                                                             error):
    strat = stratify_model("square", 2)
    sym = Symbol.parse(FAMILY_SYMBOLS[0], 1.0, 2)
    src, dst = _spaces(grid, 1.0)
    kept = lattice._shared_rung.cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises(error) as got:
            lattice.assemble_rung(sym, strat, eps, grid, src, dst)
        messages.append(str(got.value))
    assert messages[0] == messages[1]
    assert lattice._shared_rung.cache_info().currsize == kept
