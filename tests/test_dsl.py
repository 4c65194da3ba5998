"""Parser, printer and evaluator tests for the symbol expression language."""

import cmath
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symstrat.dsl import (BinOp, Call, Coord, Neg, Num, Pow, SymbolExpr,
                          VecRef, depends_on_x, eval_on_grid,
                          frequency_leaves, frequency_support, parse_symbol,
                          print_symbol, product_factors)
from symstrat.errors import DimensionError, EvalError, SymbolSyntaxError


# --------------------------------------------------------------------------
# parsing basics

def test_parse_constant_one():
    expr = parse_symbol("1", 3)
    assert expr.ast == Num(1.0 + 0j)
    assert expr.dim == 3


def test_parse_sqrt_symbol_shape():
    expr = parse_symbol("(1 + abs2(k))^(1/2)", 2)
    assert isinstance(expr.ast, Pow)
    assert expr.ast.num == 1 and expr.ast.den == 2
    base = expr.ast.base
    assert base == BinOp("+", Num(1.0 + 0j), Call("abs2", VecRef("k")))


def test_parse_product_two_factors():
    expr = parse_symbol("(k1 + i)*(k2 + i)", 2)
    assert isinstance(expr.ast, BinOp) and expr.ast.op == "*"
    assert expr.ast.lhs == BinOp("+", Coord("k", 1), Num(1j))
    assert expr.ast.rhs == BinOp("+", Coord("k", 2), Num(1j))


def test_whitespace_insensitive():
    assert parse_symbol("k1+ i * 2", 1) == parse_symbol("k1+i*2", 1)


def test_dimension_errors():
    with pytest.raises(DimensionError):
        parse_symbol("k3", 2)
    with pytest.raises(DimensionError):
        parse_symbol("x0", 2)
    with pytest.raises(DimensionError):
        parse_symbol("1", 0)


def test_syntax_error_carries_offset():
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("k1 + ", 1)
    assert err.value.offset == 5
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("k1 @ 2", 1)
    assert err.value.offset == 3


def test_half_integer_power_needs_nonnegative_base():
    # fine: 1 + |xi|^2 is positive on real arguments
    parse_symbol("(1+abs2(k))^(1/2)", 2)
    parse_symbol("exp(x1)^(1/2)", 2)
    # the square of a real scalar is nonnegative, and exp of it positive
    parse_symbol("abs2(x1)^(1/2)", 2)
    parse_symbol("exp(abs2(k1))^(1/2)", 2)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("k1^(1/2)", 2)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("(k1+k2)^(3/2)", 2)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("(1+abs2(k))^(1/3)", 2)
    # the square of a non-real scalar is not: abs2(i*k1) = -k1^2 <= 0
    for bad in ("abs2(i*k1)^(1/2)", "normx2(i)^(1/2)",
                "(abs2(i)^3)^(-1/2)"):
        with pytest.raises(SymbolSyntaxError):
            parse_symbol(bad, 2)


def test_bare_vector_only_under_norm_functions():
    parse_symbol("abs2(k)+normx2(x)", 2)
    for bad in ("k", "k + 1", "exp(k)", "abs2(k*2)", "abs2(k)+x",
                "abs2((k))"):
        with pytest.raises(SymbolSyntaxError):
            parse_symbol(bad, 2)


def test_exponent_grammar():
    assert parse_symbol("k1^2", 1).ast == Pow(Coord("k", 1), 2, 1)
    assert parse_symbol("k1^-2", 1).ast == Pow(Coord("k", 1), -2, 1)
    assert parse_symbol("abs2(k)^(-1/2)", 1).ast == Pow(
        Call("abs2", VecRef("k")), -1, 2)
    # (2/2) reduces to an integer
    assert parse_symbol("k1^(2/2)", 1).ast == Pow(Coord("k", 1), 1, 1)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("k1^(1/0)", 1)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("k1^k2", 2)


# --------------------------------------------------------------------------
# evaluation

def test_eval_constant():
    expr = parse_symbol("1", 2)
    assert eval_on_grid(expr, [[3, 4]], [[5, 6]])[0] == 1 + 0j


def test_eval_sqrt_at_zero():
    expr = parse_symbol("(1+abs2(k))^(1/2)", 2)
    assert eval_on_grid(expr, [[0, 0]], [[0, 0]])[0] == pytest.approx(1.0)


def test_eval_product_complex():
    # (1+i)*(1+i) = 2i, plain complex arithmetic oracle
    expr = parse_symbol("(k1+i)*(k2+i)", 2)
    val = eval_on_grid(expr, [[0, 0]], [[1, 1]])[0]
    assert val == pytest.approx((1 + 1j) * (1 + 1j))
    assert val == pytest.approx(2j)


def test_eval_division_by_zero():
    expr = parse_symbol("1/k1", 1)
    with pytest.raises(EvalError):
        eval_on_grid(expr, [[0]], [[0]])


def test_eval_branch_cut_refused():
    expr = parse_symbol("sqrt(1 - abs2(k))", 1)
    with pytest.raises(EvalError):
        eval_on_grid(expr, [[0]], [[2]])
    # off the cut the principal branch is fine
    val = eval_on_grid(expr, [[0]], [[2 + 1j]])[0]
    assert np.isfinite(val)


def test_eval_zero_negative_power():
    expr = parse_symbol("k1^-1", 1)
    with pytest.raises(EvalError):
        eval_on_grid(expr, [[0]], [[0]])


def test_abs2_of_scalar_is_square():
    expr = parse_symbol("abs2(k1+i)", 1)
    assert eval_on_grid(expr, [[0]], [[2]])[0] == pytest.approx((2 + 1j) ** 2)


def test_eval_dimension_mismatch():
    expr = parse_symbol("k1", 2)
    with pytest.raises(DimensionError):
        eval_on_grid(expr, [[0]], [[0]])


def test_structural_queries():
    assert depends_on_x(parse_symbol("normx2(x)+abs2(k)", 2))
    assert not depends_on_x(parse_symbol("(k1+i)*(k2+i)", 2))
    assert frequency_support(parse_symbol("(k1+i)", 3)) == frozenset({1})
    assert frequency_support(parse_symbol("abs2(k)", 3)) == frozenset({1, 2, 3})
    # the frequency leaves: k_a as a, abs2(k)/normx2(k) as 0
    for text, leaves in [("(1+abs2(k))^(3/2)", {0}),
                         ("exp(-normx2(k))/(2+abs2(k))", {0}),
                         ("k1+i+abs2(k)", {0, 1}), ("abs2(k2)", {2}),
                         ("(k1+i)*(k2+i)*k1", {1, 2}), ("1+normx2(x)", set()),
                         ("5", set())]:
        expr = parse_symbol(text, 2)
        assert frequency_leaves(expr) == frozenset(leaves), text
        want = {1, 2} if 0 in leaves else leaves
        assert frequency_support(expr) == frozenset(want), text


def test_product_factors_flatten_products_and_quotients():
    expr = parse_symbol("-3*(1+x1)/(k1*(x2+k2))*exp(k2)^2", 2)
    got = [(print_symbol(f), e, kind) for f, e, kind in product_factors(expr)]
    assert got == [("-3", 1, "const"), ("1+x1", 1, "x"), ("k1", -1, "k"),
                   ("x2+k2", -1, "mixed"), ("exp(k2)^2", 1, "k")]
    # a sum, a negation and a power are single factors
    for text, kind in [("x1+k1", "mixed"), ("-(x1*x2)", "x"),
                       ("(k1/k2)^2", "k"), ("2", "const")]:
        expr = parse_symbol(text, 2)
        assert product_factors(expr) == [(expr, 1, kind)]


@pytest.mark.parametrize("shape", [(37, 1), (37, 2), (37, 3), (5, 1, 1),
                                   (5, 1, 2), (5, 1, 3)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_abs2_of_a_vector_is_bit_identical_to_a_sum_of_squares(shape, kind):
    # the running sum reproduces np.sum's order for m <= 3, signed zeros
    # included (a negative real squares to an imaginary part of -0.0)
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    src = rng.standard_normal(shape)
    src[::3] = 0.0
    src[1::3] *= -1.0
    if kind == "complex":
        src = src + 1j * rng.standard_normal(shape)
    m = shape[-1]
    old = np.sum(np.asarray(src, dtype=complex) ** 2, axis=-1)
    xi = src if kind == "complex" else src.astype(complex)
    other = np.zeros(shape[:-1] + (m,))
    got_k = eval_on_grid(parse_symbol("abs2(k)", m), other, xi)
    assert got_k.view(np.int64).tolist() == old.view(np.int64).tolist()
    if kind == "real":
        got_x = eval_on_grid(parse_symbol("normx2(x)", m), src, other)
        assert got_x.view(np.int64).tolist() == old.view(np.int64).tolist()


# --------------------------------------------------------------------------
# random AST corpus: print/parse round trip

_FUNCS = ("abs2", "normx2", "exp", "sqrt")


def _random_ast(rng, dim, depth):
    if depth == 0:
        choice = rng.randrange(4)
        if choice == 0:
            return Num(complex(round(rng.uniform(0, 9), 3)))
        if choice == 1:
            return Num(1j)
        axis = rng.choice("xk")
        return Coord(axis, rng.randrange(1, dim + 1))
    choice = rng.randrange(6)
    if choice < 3:
        op = rng.choice("+-*/")
        return BinOp(op, _random_ast(rng, dim, depth - 1),
                     _random_ast(rng, dim, depth - 1))
    if choice == 3:
        return Neg(_random_ast(rng, dim, depth - 1))
    if choice == 4:
        func = rng.choice(_FUNCS)
        if func in ("abs2", "normx2") and rng.random() < 0.5:
            return Call(func, VecRef(rng.choice("xk")))
        if func == "sqrt":
            return Call(func, Call("abs2", VecRef("k")))
        return Call(func, _random_ast(rng, dim, depth - 1))
    den = rng.choice((1, 2))
    if den == 2:
        # parser-canonical half-integer exponents are odd over 2
        num = rng.choice((-3, -1, 1, 3))
        base = Call("abs2", VecRef("k"))
    else:
        num = rng.randrange(-3, 4)
        base = _random_ast(rng, dim, depth - 1)
    return Pow(base, num, den)


def test_round_trip_seeded_corpus():
    rng = random.Random(20240817)
    n_checked = 0
    for _ in range(1000):
        dim = rng.randrange(1, 4)
        ast = _random_ast(rng, dim, rng.randrange(1, 4))
        expr = SymbolExpr(ast, dim)
        text = print_symbol(expr)
        reparsed = parse_symbol(text, dim)
        assert reparsed == expr, text
        n_checked += 1
    assert n_checked == 1000


_LEAVES = st.one_of(
    st.integers(0, 9).map(lambda n: Num(complex(n))),
    st.just(Num(1j)),
    st.sampled_from([Coord("x", 1), Coord("k", 1), Coord("k", 2)]),
)


def _combine(children):
    ops = st.sampled_from("+-*/")
    return st.one_of(
        st.tuples(ops, children, children).map(lambda t: BinOp(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(("exp", "abs2")), children).map(
            lambda t: Call(*t)),
        st.tuples(children, st.integers(-3, 3)).map(
            lambda t: Pow(t[0], t[1], 1)),
    )


@given(st.recursive(_LEAVES, _combine, max_leaves=12))
@settings(max_examples=200, deadline=None)
def test_round_trip_hypothesis(ast):
    expr = SymbolExpr(ast, 2)
    assert parse_symbol(print_symbol(expr), 2) == expr


# --------------------------------------------------------------------------
# evaluation properties

@given(st.sampled_from("+-*/"), st.integers(0, 2 ** 30))
@settings(max_examples=100, deadline=None)
def test_eval_homomorphism(op, seed):
    rng = random.Random(seed)
    a = _random_ast(rng, 2, 2)
    b = _random_ast(rng, 2, 2)
    x = [rng.uniform(-3, 3) for _ in range(2)]
    xi = [complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(2)]
    try:
        va = complex(eval_on_grid(SymbolExpr(a, 2), [x], [xi])[0])
        vb = complex(eval_on_grid(SymbolExpr(b, 2), [x], [xi])[0])
        combined = complex(eval_on_grid(SymbolExpr(BinOp(op, a, b), 2),
                                        [x], [xi])[0])
    except EvalError:
        return
    expected = {"+": va + vb, "-": va - vb, "*": va * vb,
                "/": va / vb if vb != 0 else None}[op]
    if expected is None or not np.isfinite([expected, combined]).all():
        return
    assert combined == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_conjugate_symmetry_even_symbols():
    # real coefficients, frequency dependence through abs2 only
    texts = ["(1+abs2(k))^(1/2)", "2+abs2(k)", "abs2(k)*abs2(k)+3",
             "exp(normx2(x))*(1+abs2(k))^2"]
    rng = np.random.default_rng(5)
    for text in texts:
        expr = parse_symbol(text, 2)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            xi = rng.uniform(-50, 50, 2)
            val = eval_on_grid(expr, [x], [xi])[0]
            assert abs(val.imag) <= 1e-12 * max(abs(val), 1.0)


# one expression per node kind, with its value written out by hand;
# abs2/normx2 square without conjugation, powers take the principal branch
_CLOSED_FORMS = [
    ("k1 + x1", lambda x, k: k[0] + x[0]),
    ("k1 - x2", lambda x, k: k[0] - x[1]),
    ("k1 * k2", lambda x, k: k[0] * k[1]),
    ("k2 / (k1 + i)", lambda x, k: k[1] / (k[0] + 1j)),
    ("-k1", lambda x, k: -k[0]),
    ("(k1 + i)^-2", lambda x, k: 1 / ((k[0] + 1j) * (k[0] + 1j))),
    ("(1 + abs2(k))^(3/2)",
     lambda x, k: cmath.sqrt(1 + k[0] * k[0] + k[1] * k[1]) ** 3),
    ("abs2(k)", lambda x, k: k[0] * k[0] + k[1] * k[1]),
    ("abs2(k1 + i)", lambda x, k: (k[0] + 1j) * (k[0] + 1j)),
    ("normx2(x)", lambda x, k: x[0] * x[0] + x[1] * x[1]),
    ("exp(i*k1)", lambda x, k: cmath.exp(1j * k[0])),
    ("sqrt(abs2(k))", lambda x, k: cmath.sqrt(k[0] * k[0] + k[1] * k[1])),
]


def test_vectorized_matches_scalar():
    x = [0.3, -1.2]
    xi = [[0.5 + 0.1j, -2.0], [1.0, 3.0 - 0.4j], [-0.7 + 0.2j, 0.25 + 1j]]
    for text, value in _CLOSED_FORMS:
        expr = parse_symbol(text, 2)
        expected = [value(x, row) for row in xi]
        np.testing.assert_allclose(
            eval_on_grid(expr, np.array([x]), np.array(xi)), expected,
            rtol=1e-12, atol=1e-15, err_msg=text)
        for row, want in zip(xi, expected):
            got = eval_on_grid(expr, [x], [row])[0]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), text


def test_eval_overflow_is_an_eval_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalError):
            eval_on_grid(parse_symbol("exp(k1)", 1), [[0]], [[1000]])
        # also where a later step would bring the overflow back to 0
        with pytest.raises(EvalError):
            eval_on_grid(parse_symbol("1/exp(k1)", 1), [[0]], [[1000]])
        assert eval_on_grid(parse_symbol("exp(k1)", 1), [[0]], [[700]])[0] \
            == pytest.approx(cmath.exp(700))


def test_grid_overflow_is_an_eval_error():
    # one overflowing node refuses the whole grid, even under a division
    # that would bring it back to 0
    expr = parse_symbol("1/exp(k1)", 1)
    with pytest.raises(EvalError):
        eval_on_grid(expr, np.zeros((1, 1)), np.array([[0.0], [1000.0]]))
    np.testing.assert_allclose(
        eval_on_grid(expr, np.zeros((1, 1)), np.array([[0.0], [700.0]])),
        [1.0, np.exp(-700.0)], rtol=1e-12)


def test_asts_are_immutable():
    expr = parse_symbol("k1+1", 1)
    with pytest.raises(Exception):
        expr.ast.op = "*"
