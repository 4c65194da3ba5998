"""Ellipticity certificates and order fitting."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symstrat import symbols
from symstrat.analysis import AnalysisConfig, run_analysis
from symstrat.dsl import BinOp, EvalPoint, Num, SymbolExpr, eval_on_grid
from symstrat.errors import DegenerateFit, EvalError, GridError
from symstrat.symbols import (EllipticityReport, FrequencyGridSpec, Symbol,
                              check_ellipticity, fit_order)

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
    assert abs(rep.witness.xi[0]) < 1e-12


def test_grid_preconditions():
    s = Symbol.parse("1", 0.0, 2)
    with pytest.raises(GridError):
        check_ellipticity(s, X0, FrequencyGridSpec(points_per_axis=1))
    with pytest.raises(GridError):
        check_ellipticity(s, X0, FrequencyGridSpec(box_radius=2.0,
                                                   max_radius=5.0))
    with pytest.raises(GridError):
        check_ellipticity(s, [[0.0, 0.0, 0.0]])


def test_report_serializes():
    s = Symbol.parse("k1", 1.0, 2)
    rep = check_ellipticity(s, X0)
    blob = rep.to_json()
    assert '"elliptic": false' in blob
    assert '"witness"' in blob


def test_report_with_nan_is_refused():
    rep = EllipticityReport(elliptic=True, c1=math.nan, c2=1.0, witness=None)
    with pytest.raises(ValueError):
        rep.to_json()
    json.loads(check_ellipticity(Symbol.parse("k1", 1.0, 2), X0).to_json())


def _per_x_reference(s, x_samples, xi_grid):
    """(c1_raw, c2_raw, witness) by one evaluation per x sample."""
    xi_pts = xi_grid.points(s.dim)
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
            witness = EvalPoint.make(x, xi_pts[j])
        c2 = max(c2, float(np.max(ratio)))
    return c1, c2, witness


_RNG_X = np.random.default_rng(7)
_CUBE_30 = _RNG_X.uniform(0.0, 1.0, (30, 3))
_CUBE_30_ZERO = _CUBE_30.copy()
_CUBE_30_ZERO[17, 0] = 0.4      # a zero at the 18th x sample only
_SQUARE_5 = [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [0.25, 1.0], [0.9, 0.1]]
_COARSE = FrequencyGridSpec(points_per_axis=9, random_per_decade=8, seed=2)


# (symbol, alpha, dim, x samples, grid, ELL_BLOCK_POINTS or None)
BLOCK_CASES = {
    "square-elliptic": ("(2+x1-x2)*(1+abs2(k))^(1/2)", 1.0, 2, _SQUARE_5,
                        FrequencyGridSpec(), None),
    "square-nonelliptic": ("(x1-0.5)*k1+x2*k2", 1.0, 2, _SQUARE_5,
                           FrequencyGridSpec(seed=4), None),
    "cube-elliptic-30x": (
        "(1.5-0.2*x1+0.1*x3+0.3*normx2(x))*((k3-i)/(k3+i))^2*(1+abs2(k))",
        2.0, 3, _CUBE_30, FrequencyGridSpec(), None),
    "cube-nonelliptic-30x": ("(x1-0.4)*(1+abs2(k))^(1/2)+k2", 1.0, 3,
                             _CUBE_30_ZERO, FrequencyGridSpec(seed=1), None),
    "cube-one-frequency-blocks": ("(x1+x2*k3)*(1+abs2(k))^(1/2)", 1.0,
                                  3, _CUBE_30, _COARSE, 1),
    "cube-uneven-blocks": ("(1+x1*x2)*(2+abs2(k))^(3/2)", 3.0, 3,
                           _CUBE_30, _COARSE, 3000),
    "tie-x-independent": ("k1", 1.0, 2, _SQUARE_5[1:4],
                          FrequencyGridSpec(), None),
    "tie-across-blocks": ("k1", 1.0, 2, _SQUARE_5[1:4], _COARSE, 1),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_sweep_equals_per_x_evaluation(case, monkeypatch):
    text, alpha, dim, x_samples, grid, block = BLOCK_CASES[case]
    if block is not None:
        monkeypatch.setattr(symbols, "ELL_BLOCK_POINTS", block)
    s = Symbol.parse(text, alpha, dim)
    c1, c2, witness = _per_x_reference(s, x_samples, grid)
    rep = check_ellipticity(s, x_samples, grid)
    assert rep.sample_spec["c1_raw"] == c1
    assert rep.sample_spec["c2_raw"] == c2
    assert rep.elliptic is (c1 > symbols.TOL_ELL)
    if rep.elliptic:
        assert (rep.c1, rep.c2, rep.witness) == (c1, c2, None)
    else:
        assert (rep.c1, rep.c2) == (None, None)
        assert rep.witness == witness
    if case.startswith("tie"):
        assert rep.witness.x == tuple(x_samples[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_block_sweep_skips_a_sample_with_a_nan_ratio(monkeypatch):
    # alpha = -100 overflows the weight (1+|xi|)^100 to inf far out, and
    # 0 * inf is nan at the sample x1 = 0: as with np.min and np.max of its
    # row, that sample then counts towards neither bound (numpy warns of
    # the overflow and the nan, here as in one evaluation per x sample)
    monkeypatch.setattr(symbols, "ELL_BLOCK_POINTS", 90)
    s = Symbol.parse("x1", -100.0, 2)
    x_samples = [[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    c1, c2, _ = _per_x_reference(s, x_samples, _COARSE)
    assert (c1, c2) == (0.5, math.inf)
    rep = check_ellipticity(s, x_samples, _COARSE)
    assert (rep.sample_spec["c1_raw"], rep.sample_spec["c2_raw"]) == (c1, c2)


# (symbol, x samples): the first failing x sample fails in the second
# subexpression, a later one in the first
@pytest.mark.parametrize("text, x_samples", [
    ("abs2(k)/x1", [[0.5, 0.5], [0.0, 0.5], [0.2, 0.1]]),
    ("1/x1+exp(x2*1000)", [[0.5, 0.1], [1.0, 1.0], [0.0, 0.2]]),
])
def test_block_sweep_raises_the_first_failing_samples_error(text, x_samples):
    s = Symbol.parse(text, 2.0, 2)
    grid = FrequencyGridSpec()
    with pytest.raises(EvalError) as ref:
        _per_x_reference(s, x_samples, grid)
    with pytest.raises(EvalError) as got:
        check_ellipticity(s, x_samples, grid)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)


def test_cube_ellipticity_evaluates_in_few_blocks(monkeypatch):
    calls = []

    def counting(expr, x, xi):
        out = eval_on_grid(expr, x, xi)
        calls.append(out.size)
        return out

    monkeypatch.setattr(symbols, "eval_on_grid", counting)
    m = run_analysis(AnalysisConfig(
        symbol_text="(2+x1)*((k3-i)/(k3+i))*(1+abs2(k))^(1/2)", alpha=1.0,
        model="cube"))
    n_xi = FrequencyGridSpec().points(3).shape[0]
    assert m.stages["ellipticity"]["grid"]["x_samples"] == 9
    assert 1 <= len(calls) <= 3
    assert max(calls) <= symbols.ELL_BLOCK_POINTS
    assert sum(calls) == 9 * n_xi


@given(st.floats(min_value=0.1, max_value=50).map(float))
@settings(max_examples=20, deadline=None)
def test_scale_covariance(c):
    s = Symbol.parse("(1+abs2(k))^(1/2)", 1.0, 2)
    scaled = Symbol(SymbolExpr(BinOp("*", Num(complex(c)), s.expr.ast), 2),
                    1.0, 2)
    rep = check_ellipticity(s, X0)
    rep_scaled = check_ellipticity(scaled, X0)
    assert rep_scaled.c1 == pytest.approx(c * rep.c1, rel=1e-12)
    assert rep_scaled.c2 == pytest.approx(c * rep.c2, rel=1e-12)


def test_monotone_refinement():
    # nested grids: every coarse tensor node appears in the fine grid
    s = Symbol.parse("(2+abs2(k))^(1/2)*(1+normx2(x))", 1.0, 2)
    coarse = FrequencyGridSpec(points_per_axis=17, random_per_decade=16, seed=3)
    fine = FrequencyGridSpec(points_per_axis=33, random_per_decade=16, seed=3)
    pts_c = coarse.points(2)
    pts_f = fine.points(2)
    as_set = {tuple(p) for p in np.round(pts_f, 12)}
    assert all(tuple(p) in as_set for p in np.round(pts_c[:17 * 17], 12))
    x_samples = [[0.0, 0.0], [0.7, 0.3]]
    rep_c = check_ellipticity(s, x_samples, coarse)
    rep_f = check_ellipticity(s, x_samples, fine)
    assert rep_f.c1 <= rep_c.c1 + 1e-15
    assert rep_f.c2 >= rep_c.c2 - 1e-15


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
    prod = Symbol(SymbolExpr(BinOp("*", s1.expr.ast, s2.expr.ast), 2), 3.0, 2)
    f1 = fit_order(s1, [1, 0], RADII)
    f2 = fit_order(s2, [1, 0], RADII)
    fp = fit_order(prod, [1, 0], RADII)
    assert fp == pytest.approx(f1 + f2, abs=0.1)
