"""Ellipticity certificates and order fitting."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symstrat import symbols
from symstrat.analysis import AnalysisConfig, dump_json, run_analysis
from symstrat.dsl import BinOp, Num, SymbolExpr, eval_on_grid
from symstrat.errors import (DegenerateFit, EvalError, GridError,
                             OrderMismatch)
from symstrat.symbols import (EllipticityReport, Symbol, check_ellipticity,
                              fit_order)

X0 = [[0.0, 0.0]]


def test_sqrt_symbol_elliptic_with_analytic_bounds():
    # (1+|xi|)/sqrt(2) <= (1+|xi|^2)^(1/2) <= 1+|xi| gives the constants
    s = Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 2)
    rep = check_ellipticity(s, X0)
    assert rep.elliptic
    assert rep.c1 >= 1.0 / np.sqrt(2.0) - 1e-12
    assert rep.c2 <= 1.0 + 1e-12
    assert rep.c1 <= rep.c2


def test_constant_symbol():
    s = Symbol.parse("5", 0.0, 2)
    rep = check_ellipticity(s, X0)
    assert rep.elliptic
    assert rep.c1 == pytest.approx(5.0, abs=1e-12)
    assert rep.c2 == pytest.approx(5.0, abs=1e-12)


def test_degenerate_symbol_has_witness_on_axis():
    s = Symbol.parse("k1", 1.0, 2)
    rep = check_ellipticity(s, X0)
    assert not rep.elliptic
    assert rep.c1 is None and rep.c2 is None
    assert rep.witness is not None
    assert abs(complex(*rep.witness["xi"][0])) < 1e-12


def test_grid_preconditions():
    s = Symbol.parse("1", 0.0, 2)
    with pytest.raises(GridError):
        check_ellipticity(s, [[0.0, 0.0, 0.0]])


def test_report_serializes():
    s = Symbol.parse("k1", 1.0, 2)
    rep = check_ellipticity(s, X0)
    blob = dump_json(rep.to_dict())
    assert '"elliptic": false' in blob
    assert '"witness"' in blob


def test_report_with_nan_is_refused():
    rep = EllipticityReport(elliptic=True, c1=math.nan, c2=1.0, witness=None)
    with pytest.raises(ValueError):
        dump_json(rep.to_dict())
    json.loads(dump_json(
        check_ellipticity(Symbol.parse("k1", 1.0, 2), X0).to_dict()))


def _per_x_reference(s, x_samples):
    """(c1_raw, c2_raw, witness) by one evaluation per x sample."""
    xi_pts = symbols.frequency_grid(s.dim)
    x_arr = np.atleast_2d(np.asarray(x_samples, dtype=float))
    scale = (1.0 + np.linalg.norm(xi_pts, axis=1)) ** (-s.order_alpha)
    c1 = math.inf
    c2 = -math.inf
    witness = None
    for x in x_arr:
        vals = eval_on_grid(s.expr, x[None, :], xi_pts.astype(complex))
        ratio = np.abs(vals) * scale
        j = int(np.argmin(ratio))
        if ratio[j] < c1:
            c1 = float(ratio[j])
            witness = {"x": x.tolist(),
                       "xi": [[v, 0.0] for v in xi_pts[j].tolist()]}
        c2 = max(c2, float(np.max(ratio)))
    return c1, c2, witness


_RNG_X = np.random.default_rng(7)
_CUBE_30 = _RNG_X.uniform(0.0, 1.0, (30, 3))
_CUBE_30_ZERO = _CUBE_30.copy()
_CUBE_30_ZERO[17, 0] = 0.4      # a zero at the 18th x sample only
_SQUARE_5 = [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [0.25, 1.0], [0.9, 0.1]]
# a grid: the symbols.GRID_* constants it sets
_COARSE = {"GRID_POINTS_PER_AXIS": 9, "GRID_RANDOM_PER_DECADE": 8,
           "GRID_SEED": 2}


def _use_grid(monkeypatch, grid):
    """Set the constants of ``grid`` in symbols."""
    for name, value in grid.items():
        monkeypatch.setattr(symbols, name, value)


# (symbol, alpha, dim, x samples, grid, ELL_BLOCK_POINTS or None)
BLOCK_CASES = {
    "square-elliptic": ("(2+x1-x2)*(1+abs2(k))^(1/2)", 1.0, 2, _SQUARE_5,
                        {}, None),
    "square-nonelliptic": ("(x1-0.5)*k1+x2*k2", 1.0, 2, _SQUARE_5,
                           {"GRID_SEED": 4}, None),
    "cube-elliptic-30x": (
        "(1.5-0.2*x1+0.1*x3+0.3*normx2(x))*((k3-i)/(k3+i))^2*(1+abs2(k))",
        2.0, 3, _CUBE_30, {}, None),
    "cube-nonelliptic-30x": ("(x1-0.4)*(1+abs2(k))^(1/2)+k2", 1.0, 3,
                             _CUBE_30_ZERO, {"GRID_SEED": 1}, None),
    "cube-one-frequency-blocks": ("(x1+x2*k3)*(1+abs2(k))^(1/2)", 1.0,
                                  3, _CUBE_30, _COARSE, 1),
    "cube-uneven-blocks": ("(1+x1*x2)*(2+abs2(k))^(3/2)", 3.0, 3,
                           _CUBE_30, _COARSE, 3000),
    "tie-x-independent": ("k1", 1.0, 2, _SQUARE_5[1:4], {}, None),
    "tie-across-blocks": ("k1", 1.0, 2, _SQUARE_5[1:4], _COARSE, 1),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_sweep_equals_per_x_evaluation(case, monkeypatch):
    text, alpha, dim, x_samples, grid, block = BLOCK_CASES[case]
    if block is not None:
        monkeypatch.setattr(symbols, "ELL_BLOCK_POINTS", block)
    s = Symbol.parse(text, alpha, dim)
    _use_grid(monkeypatch, grid)
    c1, c2, witness = _per_x_reference(s, x_samples)
    rep = check_ellipticity(s, x_samples)
    assert rep.sample_spec["c1_raw"] == c1
    assert rep.sample_spec["c2_raw"] == c2
    assert rep.elliptic is (c1 > symbols.TOL_ELL)
    if rep.elliptic:
        assert (rep.c1, rep.c2, rep.witness) == (c1, c2, None)
    else:
        assert (rep.c1, rep.c2) == (None, None)
        assert rep.witness == witness
    if case.startswith("tie"):
        assert rep.witness["x"] == list(x_samples[0])


def test_block_sweep_refuses_a_nan_ratio(monkeypatch):
    # at x1 = 1, |a| overflows to inf for |xi| > 2.4, and beyond about
    # |xi| = 1700 the weight (1+|xi|)^-100 underflows to 0, so inf * 0 is
    # nan there; the sweep refuses the symbol rather than let that sample
    # count towards neither bound, and no numpy warning escapes
    monkeypatch.setattr(symbols, "ELL_BLOCK_POINTS", 90)
    _use_grid(monkeypatch, _COARSE)
    s = Symbol.parse("x1*(abs2(k)/(1+abs2(k)))*1.5e308*(1+i)", 100.0, 2)
    with pytest.raises(GridError, match=r"ratio .* is not finite at "
                       r"x=\[1\.0, 0\.0\].*alpha=100"):
        check_ellipticity(s, [[0.5, 0.0], [1.0, 0.0]])
    # the x sample that stays finite is unaffected
    rep = check_ellipticity(s, [[0.5, 0.0]])
    assert rep.sample_spec["c1_raw"] == 0.0 and 0 < rep.sample_spec["c2_raw"]


# (symbol, x samples): the first failing x sample fails in the second
# subexpression, a later one in the first
@pytest.mark.parametrize("text, x_samples", [
    ("abs2(k)/x1", [[0.5, 0.5], [0.0, 0.5], [0.2, 0.1]]),
    ("1/x1+exp(x2*1000)", [[0.5, 0.1], [1.0, 1.0], [0.0, 0.2]]),
])
def test_block_sweep_raises_the_first_failing_samples_error(text, x_samples):
    s = Symbol.parse(text, 2.0, 2)
    with pytest.raises(EvalError) as ref:
        _per_x_reference(s, x_samples)
    with pytest.raises(EvalError) as got:
        check_ellipticity(s, x_samples)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)


def test_cube_ellipticity_evaluates_in_few_blocks(monkeypatch):
    # the factor split evaluates each factor once on its own samples and
    # the symbol at a few candidates, never the 9 x n_xi product grid; the
    # projections are built once per grid, before the count
    n_axis = len(symbols.grid_projection(3, {3})[0])
    n_radial = len(symbols.radial_projection(3)[0])
    calls = []

    def counting(expr, x, xi):
        out = eval_on_grid(expr, x, xi)
        calls.append(out.size)
        return out

    monkeypatch.setattr(symbols, "eval_on_grid", counting)
    m = run_analysis(AnalysisConfig(
        symbol_text="(2+x1)*((k3-i)/(k3+i))*(1+abs2(k))^(1/2)", alpha=1.0,
        model="cube"))
    n_xi = symbols.frequency_grid(3).shape[0]
    assert m.stages["ellipticity"]["grid"]["x_samples"] == 9
    assert m.stages["ellipticity"]["elliptic"]
    # one pass per factor (2+x1, k3-i, k3+i, (1+abs2(k))^(1/2)), one per
    # candidate rectangle, and the order fit at one x sample: no factor is
    # mixed, so 3 axes and the diagonal at 12 radii
    assert len(calls) == 7 and calls[-1] == 4 * 12
    # the x samples, the k3 nodes with the far field for k3-i and for
    # k3+i, and one frequency per distinct |xi|^2
    assert calls[:4] == [9, n_axis, n_axis, n_radial]
    assert max(calls) <= symbols.ELL_BLOCK_POINTS
    assert sum(calls) < 2 * n_xi


def _hex(value):
    """``value`` with every float as float.hex, for bit-exact comparison."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value


def _forced_sweep(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(symbols, "_split_extremes", lambda *a: None)
        return check_ellipticity(*args)


def _recorded(monkeypatch, name):
    """A list with an entry per call of ``symbols.<name>``: its result, or
    None while it runs or if it raised."""
    calls = []
    fn = getattr(symbols, name)

    def recording(*args):
        calls.append(None)
        calls[-1] = fn(*args)
        return calls[-1]

    monkeypatch.setattr(symbols, name, recording)
    return calls


_SQUARE_9 = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.0],
             [0.5, 1.0], [0.0, 0.5], [1.0, 0.5], [0.5, 0.5]]
_CUBE_9 = [[a, b, c] for a in (0.0, 1.0) for b in (0.0, 1.0)
           for c in (0.0, 1.0)] + [[0.5, 0.5, 0.5]]
_SEGMENT = [[0.0], [0.25], [0.5], [1.0]]

# (symbol, alpha, dim, x samples, grid): symbols with no mixed factor
SPLIT_CASES = {
    "square-product": ("(2+x1-x2)*(1+abs2(k))^(1/2)", 1.0, 2, _SQUARE_9,
                       {}),
    "square-quotient-powers": ("(2+x1)/(3-x2)^2*(k1-2*i)^2/(1+abs2(k))",
                               0.0, 2, _SQUARE_5, {"GRID_SEED": 5}),
    "square-negated-exp": ("-exp(x1*x2)*(k1+i)*(k2-i)", 1.0, 2, _SQUARE_9,
                           _COARSE),
    "square-xi-only-ties": ("(1+abs2(k))^(1/2)", 1.0, 2, _SQUARE_9, {}),
    "square-x-only": ("1+normx2(x)", 0.0, 2, _SQUARE_9, {}),
    "square-constant": ("5*(1+i)", 0.0, 2, _SQUARE_5, _COARSE),
    "cube-face-factor": ("(2+x1)*((k3-i)/(k3+i))*(1+abs2(k))^(1/2)", 1.0, 3,
                         _CUBE_9, {}),
    "cube-benchmark-form": (
        "(1.5-0.2*x1+0.1*x3+0.3*normx2(x))*((k3-i)/(k3+i))^2*(1+abs2(k))",
        2.0, 3, _CUBE_30, {"GRID_SEED": 3}),
    "cube-xi-only-ties": ("(1+abs2(k))^(1/2)", 1.0, 3, _CUBE_9, _COARSE),
    "cube-two-axis-factor": ("(1+x2)^-1*(k1+3+i)*(k2-1-2*i)*(4+abs2(k))^-1",
                             0.0, 3, _CUBE_9, _COARSE),
    # X_i is 1 up to rounding, and the symbol exactly 1 times its k factor
    "square-rounding-ties": ("(1+x1)*(3-x2)/((1+x1)*(3-x2))*(2+abs2(k))",
                             2.0, 2, _CUBE_30[:, :2], {}),
    # radial factors, evaluated once per distinct |xi|^2
    "segment-radial-cubed": ("(2+x1)*(1+abs2(k))^(3/2)", 3.0, 1, _SEGMENT,
                             {}),
    "square-radial-cubed": ("(2+x1)*(1+abs2(k))^(3/2)", 3.0, 2, _SQUARE_9,
                            {}),
    "cube-radial-cubed": ("(2+x1)*(1+abs2(k))^(3/2)", 3.0, 3, _CUBE_9, {}),
    "square-normx2-factor": ("(1+x2)*(k1-2*i)*(3+normx2(k))^(1/2)", 2.0, 2,
                             _SQUARE_9, {"GRID_SEED": 6}),
    "cube-radial-divisor": ("(2+x1*x2)*(k3+2*i)/(1+abs2(k))", -1.0, 3,
                            _CUBE_9, {}),
    # nodes -31.7 + j*1.98125 are not exact: mirrored or permuted nodes
    # can have squared norms that differ in the last bits
    "cube-radial-inexact-nodes": ("(2+x1)*(1+abs2(k))^(3/2)", 3.0, 3,
                                  _CUBE_9, {"GRID_BOX_RADIUS": 31.7}),
}


@pytest.mark.parametrize("dim, axes", [(1, (1,)), (2, (2,)), (3, (1, 3)),
                                       (3, (2,)), (3, ())])
def test_projection_shares_one_evaluation_per_node_tuple(dim, axes,
                                                         monkeypatch):
    _use_grid(monkeypatch, {"GRID_POINTS_PER_AXIS": 5,
                            "GRID_RANDOM_PER_DECADE": 3})
    pts = symbols.frequency_grid(dim)
    rep, inv = symbols.grid_projection(dim, axes)
    cols = [a - 1 for a in axes]
    np.testing.assert_array_equal(pts[rep][inv][:, cols], pts[:, cols])
    # every node tuple once, then every far-field point
    assert len(rep) == 5 ** len(axes) + len(pts) - 5 ** dim
    assert len(np.unique(pts[rep[:5 ** len(axes)]][:, cols], axis=0)) \
        == 5 ** len(axes)
    assert sorted(set(inv.tolist())) == list(range(len(rep)))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius", [32.0, 31.7])
def test_radial_projection_shares_one_evaluation_per_squared_norm(
        dim, radius, monkeypatch):
    _use_grid(monkeypatch, {"GRID_POINTS_PER_AXIS": 9,
                            "GRID_RANDOM_PER_DECADE": 3,
                            "GRID_BOX_RADIUS": radius})
    xi_c = symbols.frequency_grid(dim).astype(complex)
    norm2 = eval_on_grid(Symbol.parse("abs2(k)", 2.0, dim).expr,
                         np.zeros((1, dim)), xi_c)
    rep, inv = symbols.radial_projection(dim)
    # every point's abs2(k) is its representative's, bit for bit
    assert norm2[rep][inv].tobytes() == norm2.tobytes()
    # the representatives are the distinct values, each once
    assert sorted(norm2[rep].real.tolist()) == sorted(set(norm2.real.tolist()))
    assert len(rep) < len(norm2)
    # built once per grid, read-only
    assert symbols.radial_projection(dim) is symbols.radial_projection(dim)
    for arr in (rep, inv):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    with monkeypatch.context() as patch:
        patch.setattr(symbols, "GRID_SEED", 1)
        other, _ = symbols.radial_projection(dim)
        assert other is not rep and len(other) == len(rep)


def test_a_factor_reading_k_both_ways_is_not_projected_radially(monkeypatch):
    # k1+i+abs2(k) reads k1 itself: its values are no function of |xi|^2,
    # so only the factor 1+abs2(k) takes the radial projection
    _use_grid(monkeypatch, _COARSE)
    radial = _recorded(monkeypatch, "radial_projection")
    sweeps = _recorded(monkeypatch, "_sweep_extremes")
    s = Symbol.parse("(2+x1)*(k1+i+abs2(k))/(1+abs2(k))", 0.0, 2)
    got = check_ellipticity(s, _SQUARE_9)
    assert len(radial) == 1 and not sweeps
    want = _forced_sweep(monkeypatch, s, _SQUARE_9)
    assert _hex(got.to_dict()) == _hex(want.to_dict())


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_factor_split_equals_the_sweep_bit_for_bit(case, monkeypatch):
    text, alpha, dim, x_samples, grid = SPLIT_CASES[case]
    s = Symbol.parse(text, alpha, dim)
    _use_grid(monkeypatch, grid)
    sweeps = _recorded(monkeypatch, "_sweep_extremes")
    splits = _recorded(monkeypatch, "_split_extremes")
    got = check_ellipticity(s, x_samples)
    assert not sweeps and splits[0] is not None
    want = _forced_sweep(monkeypatch, s, x_samples)
    assert got.elliptic
    assert _hex(got.to_dict()) == _hex(want.to_dict())
    # (c1, c2, argmin x sample, argmin frequency): the split's argmin
    # follows the sweep's tie rule, though an elliptic report omits it
    assert _hex(splits[0]) == _hex(sweeps[0])


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_forced_sweep_equals_per_x_evaluation(case, monkeypatch):
    # the blocked sweep, the path of every symbol the split leaves to it
    text, alpha, dim, x_samples, grid, block = BLOCK_CASES[case]
    if block is not None:
        monkeypatch.setattr(symbols, "ELL_BLOCK_POINTS", block)
    s = Symbol.parse(text, alpha, dim)
    _use_grid(monkeypatch, grid)
    c1, c2, witness = _per_x_reference(s, x_samples)
    rep = _forced_sweep(monkeypatch, s, x_samples)
    assert (rep.sample_spec["c1_raw"], rep.sample_spec["c2_raw"]) == (c1, c2)
    assert rep.witness == (None if rep.elliptic else witness)


# (symbol, alpha, x samples on the square, ELL_BLOCK_POINTS or None):
# each input trips one of the split's refusals, so the sweep reports it
FALLBACK_CASES = {
    "mixed-factor": ("(2+x1*k1)*(1+abs2(k))^(1/2)", 1.0, _SQUARE_5, None),
    "factor-raises": ("(2+1/x1)*(1+abs2(k))", 2.0, _SQUARE_5, None),
    "zero-factor": ("x2*(1+abs2(k))^(1/2)", 1.0, _SQUARE_5, None),
    "non-finite-factor": ("(1.5e308*(1+i))*(2+x1)", 0.0, _SQUARE_5, None),
    "weight-not-finite": ("2+x1", -400.0, _SQUARE_5, None),
    "product-overflows": ("(1e200+x1)*(1e200+abs2(k))/(1e200+abs2(k))",
                          0.0, _SQUARE_5, None),
    "product-underflows": ("(2+x1)/(1e302+abs2(k))*1e300", 0.0, _SQUARE_5,
                           None),
    "lower-bound-near-tol": ("1e-11*(2+x1)*(1+abs2(k))^(1/2)", 1.0,
                             _SQUARE_5, None),
    "too-many-candidates": ("(1+abs2(k))^(1/2)", 1.0, _SQUARE_5, 9),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_factor_split_falls_back_to_the_sweep(case, monkeypatch):
    text, alpha, x_samples, block = FALLBACK_CASES[case]
    if block is not None:
        monkeypatch.setattr(symbols, "ELL_BLOCK_POINTS", block)
    s = Symbol.parse(text, alpha, 2)
    _use_grid(monkeypatch, _COARSE)
    sweeps = _recorded(monkeypatch, "_sweep_extremes")
    try:
        rep = check_ellipticity(s, x_samples)
    except (EvalError, GridError) as exc:
        assert len(sweeps) == 1
        # an error of the sweep's, as the sweep raises it
        with pytest.raises(type(exc)) as ref:
            _forced_sweep(monkeypatch, s, x_samples)
        assert str(ref.value) == str(exc)
    else:
        assert len(sweeps) == 1
        want = _forced_sweep(monkeypatch, s, x_samples)
        assert _hex(rep.to_dict()) == _hex(want.to_dict())


@given(st.floats(min_value=0.1, max_value=50).map(float))
@settings(max_examples=20, deadline=None)
def test_scale_covariance(c):
    s = Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 2)
    scaled = Symbol(SymbolExpr(BinOp("*", Num(complex(c)), s.expr.ast), 2),
                    1.0)
    rep = check_ellipticity(s, X0)
    rep_scaled = check_ellipticity(scaled, X0)
    assert rep_scaled.c1 == pytest.approx(c * rep.c1, rel=1e-12)
    assert rep_scaled.c2 == pytest.approx(c * rep.c2, rel=1e-12)


def test_monotone_refinement(monkeypatch):
    # nested grids: every coarse tensor node appears in the fine grid
    s = Symbol.parse("(2+abs2(k))^(1/2)*(1+normx2(x))", 1.0, 2)
    x_samples = [[0.0, 0.0], [0.7, 0.3]]

    def grid_and_report(points_per_axis):
        _use_grid(monkeypatch, {
            "GRID_POINTS_PER_AXIS": points_per_axis,
            "GRID_RANDOM_PER_DECADE": 16, "GRID_SEED": 3})
        return (symbols.frequency_grid(2),
                check_ellipticity(s, x_samples))

    pts_c, rep_c = grid_and_report(17)
    pts_f, rep_f = grid_and_report(33)
    as_set = {tuple(p) for p in np.round(pts_f, 12)}
    assert all(tuple(p) in as_set for p in np.round(pts_c[:17 * 17], 12))
    assert rep_f.c1 <= rep_c.c1 + 1e-15
    assert rep_f.c2 >= rep_c.c2 - 1e-15


def test_the_grid_is_built_once_per_dimension_and_constants(monkeypatch):
    monkeypatch.setattr(symbols, "_GRIDS", {})
    s = Symbol.parse("(2+x1)*((k3-i)/(k3+i))*(1+abs2(k))^(1/2)", 1.0, 3)
    built = []
    for x in np.random.default_rng(5).uniform(0.0, 1.0, (32, 2, 3)):
        assert check_ellipticity(s, x).elliptic
        built.append(symbols._grid_arrays(3))
    # one build: the same three arrays after every call
    assert len(symbols._GRIDS) == 1
    assert all(b is built[0] for b in built)
    base = symbols.frequency_grid(3)
    assert base is built[0][0]
    for arr in symbols._grid_arrays(3):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # each constant, the seed included, keys a grid of its own
    for name, value in (("GRID_POINTS_PER_AXIS", 9), ("GRID_BOX_RADIUS", 8.0),
                        ("GRID_RANDOM_PER_DECADE", 4),
                        ("GRID_MAX_RADIUS", 1.0e3), ("GRID_SEED", 1)):
        with monkeypatch.context() as patch:
            patch.setattr(symbols, name, value)
            grid = symbols.frequency_grid(3)
            assert grid.shape != base.shape or not np.array_equal(grid, base)
            xi, norms, xi_c = symbols._grid_arrays(3)
            assert np.array_equal(norms, np.linalg.norm(grid, axis=1))
            assert np.array_equal(xi_c, grid.astype(complex))
    assert symbols.frequency_grid(3) is base


# --------------------------------------------------------------------------
# order fitting

RADII = np.logspace(1, 4, 12)


def test_fit_order_sqrt_symbol():
    s = Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 2)
    assert fit_order(s, [1.0, 0.0], RADII) == pytest.approx(1.0, abs=0.05)


def test_fit_order_constant():
    s = Symbol.parse("1", 0.0, 2)
    assert fit_order(s, [0.6, 0.8], RADII) == pytest.approx(0.0, abs=1e-9)


def test_fit_order_quadratic():
    s = Symbol.parse("abs2(k)", 2.0, 2)
    assert fit_order(s, [0.6, 0.8], RADII) == pytest.approx(2.0, abs=0.05)


def test_fit_order_preconditions():
    s = Symbol.parse("1", 0.0, 2)
    with pytest.raises(GridError):
        fit_order(s, [1, 0], np.logspace(1, 4, 5))
    with pytest.raises(GridError):
        fit_order(s, [1, 0], np.linspace(1, 50, 12))
    with pytest.raises(GridError):
        fit_order(s, [0, 0], RADII)


def test_fit_order_degenerate_ray():
    s = Symbol.parse("k1", 1.0, 2)
    with pytest.raises(DegenerateFit):
        fit_order(s, [0.0, 1.0], RADII)


def test_fit_order_multiplicative():
    s1 = Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 2)
    s2 = Symbol.parse("(2+abs2(k))", 2.0, 2)
    prod = Symbol(SymbolExpr(BinOp("*", s1.expr.ast, s2.expr.ast), 2), 3.0)
    f1 = fit_order(s1, [1, 0], RADII)
    f2 = fit_order(s2, [1, 0], RADII)
    fp = fit_order(prod, [1, 0], RADII)
    assert fp == pytest.approx(f1 + f2, abs=0.1)


def test_fit_order_covers_many_rays_and_points_in_one_evaluation():
    s = Symbol.parse("(1+x1)*(1+abs2(k))+x2*k1^3", 2.0, 2)
    rays = [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]
    x0 = [[0.0, 0.0], [0.5, 0.5]]
    got = fit_order(s, rays, RADII, x0)
    assert got.shape == (2, 3)
    for j, x in enumerate(x0):
        assert fit_order(s, rays, RADII, x).shape == (3,)
        for r, ray in enumerate(rays):
            assert got[j, r] == pytest.approx(fit_order(s, ray, RADII, x),
                                              abs=1e-12)
    assert got[0] == pytest.approx([2.0] * 3, abs=0.05)
    assert got[1, 0] == pytest.approx(3.0, abs=0.05)


@pytest.mark.parametrize("alpha", [1.0, 3.0])
def test_a_wrong_declared_order_stops_the_ellipticity_stage(alpha):
    # 1+|xi|^2 has order 2 and is elliptic on the bounded grid whatever
    # alpha says; the order fit refuses the other alphas
    m = run_analysis(AnalysisConfig("1+abs2(k)", alpha, "square", 0.5))
    ell = m.stages["ellipticity"]
    assert not m.ok
    assert ell["status"] == "error" and ell["error_type"] == "OrderMismatch"
    for part in ("fitted order 2.019 along the ray [1.0, 0.0] at x=",
                 f"declared order alpha={alpha:g}"):
        assert part in ell["error"]
    for name in ("factorization", "fredholm"):
        assert m.stages[name] == {"status": "skipped",
                                  "reason": "ellipticity stage failed"}


def test_a_zero_between_grid_nodes_names_the_ray_radius_and_x():
    # (k1-r)^2 + k2^2 with r = ORDER_RADII[1] vanishes on the k1 axis
    # between the nodes of the ellipticity grid, which certifies it; the
    # order fit then meets the zero and names where |a| fell below 1e-300
    assert symbols.ORDER_RADII[1] == 18.73817422860384
    m = run_analysis(AnalysisConfig("(k1-18.73817422860384)^2+k2^2", 2.0,
                                    "square"))
    ell = m.stages["ellipticity"]
    assert ell["error_type"] == "DegenerateFit"
    assert ell["error"] == ("symbol vanishes along the ray [1.0, 0.0] at "
                            "radius 18.73817422860384, x=[0.0, 0.0]: "
                            "|a| < 1e-300")


def test_a_degenerate_fit_names_the_first_failing_ray_and_x():
    # rays and x samples are both axes of the fit: the first zero in
    # (x, ray, radius) order is named
    k1 = Symbol.parse("k1", 1.0, 2)
    with pytest.raises(DegenerateFit, match=r"the ray \[0\.0, 1\.0\] at "
                       r"radius 10\.0, x=\[0\.0, 0\.0\]"):
        fit_order(k1, [[1.0, 0.0], [0.0, 1.0]], RADII)
    x_zero = Symbol.parse("(x1-0.5)*(1+abs2(k))", 2.0, 2)
    with pytest.raises(DegenerateFit, match=r"the ray \[1\.0, 0\.0\] at "
                       r"radius 10\.0, x=\[0\.5, 0\.25\]"):
        fit_order(x_zero, np.eye(2), RADII, [[0.0, 0.0], [0.5, 0.25]])


def test_the_declared_order_is_fitted_and_recorded():
    m = run_analysis(AnalysisConfig("1+abs2(k)", 2.0, "square", 0.5))
    ell = m.stages["ellipticity"]
    assert m.ok and ell["status"] == "ok"
    fit = ell["order_fit"]
    assert fit["rays"][:2] == [[1.0, 0.0], [0.0, 1.0]]
    assert fit["rays"][2] == pytest.approx([0.5 ** 0.5] * 2)
    # no mixed factor: one x sample stands for all
    assert fit["orders"] == [pytest.approx([2.019] * 3, abs=1e-3)]


def test_a_mixed_symbol_is_fitted_at_every_x_sample():
    # order 2 at x1 = 0, order 4 elsewhere
    s = Symbol.parse("1+abs2(k)+x1*abs2(k)^2", 2.0, 2)
    assert len(symbols.check_order(s, [[0.0, 0.0], [0.0, 1.0]])["orders"]) \
        == 2
    with pytest.raises(OrderMismatch, match=r"fitted order 4\.0.* along "
                       r"the ray \[1\.0, 0\.0\] at x=\[0\.5, 0\.0\]"):
        symbols.check_order(s, [[0.0, 0.0], [0.5, 0.0]])
