"""Expression language for classical symbols a(x, xi) on R^m x R^m.

Grammar (whitespace-insensitive)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := atom ('^' rational)?
    atom     := number | 'i' | var | func '(' expr ')'
              | ('abs2'|'normx2') '(' ('x'|'k') ')' | '(' expr ')' | '-' atom
    var      := ('x'|'k') digits
    func     := 'abs2' | 'normx2' | 'exp' | 'sqrt'
    rational := integer | '(' integer '/' integer ')'

``x1..xm`` are spatial coordinates, ``k1..km`` frequency coordinates.  The
bare names ``x`` and ``k`` are allowed only as the whole argument of
``abs2``/``normx2`` and denote the whole vector, so ``abs2(k)`` is the
squared frequency norm; anywhere else, ``abs2((k))`` included, they are a
syntax error.  On complex arguments ``abs2``/``normx2`` compute the sum of
squared components without conjugation (the analytic continuation of the
squared norm off the real axis), and ``abs2``/``normx2`` of a scalar
subexpression ``e`` is its plain square ``e*e``.

Exponents are integers or half-integers.  A half-integer exponent is
accepted only on a subexpression that is guaranteed nonnegative-real for
real arguments, so evaluation at real frequencies is single-valued.  The
guarantee is a conservative sign class: ``abs2``/``normx2`` of a vector or
of a real scalar is nonnegative-real, of a possibly non-real scalar it is
not (``abs2(i*k1)`` is -k1^2), and purely imaginary values are not
tracked, so ``exp(abs2(i*k1))^(1/2)`` is refused though its base is
positive.
Evaluation at complex frequencies uses the principal branch and raises
:class:`~symstrat.errors.EvalError` on an exact branch-cut hit (negative
real base with zero imaginary part) instead of guessing a branch.

ASTs are immutable after parsing and evaluation is pure, so a parsed
expression may be evaluated concurrently from many threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Union

import numpy as np

from .errors import DimensionError, EvalError, SymbolSyntaxError

__all__ = [
    "Num", "Coord", "VecRef", "Neg", "BinOp", "Pow", "Call", "SymbolExpr",
    "parse_symbol", "print_symbol", "eval_on_grid",
    "depends_on_x", "frequency_support", "reads_k_radially",
    "product_factors",
]


# --------------------------------------------------------------------------
# AST nodes

@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Coord:
    axis: str        # 'x' or 'k'
    index: int       # 1-based


@dataclass(frozen=True)
class VecRef:
    axis: str        # whole-vector reference, only under abs2/normx2


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str          # '+', '-', '*', '/'
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    num: int
    den: int         # 1 or 2 after reduction


@dataclass(frozen=True)
class Call:
    func: str        # 'abs2' | 'normx2' | 'exp' | 'sqrt'
    arg: "Node"


Node = Union[Num, Coord, VecRef, Neg, BinOp, Pow, Call]

_FUNCS = ("abs2", "normx2", "exp", "sqrt")


@dataclass(frozen=True)
class SymbolExpr:
    """A parsed symbol expression together with its ambient dimension."""

    ast: Node
    dim: int

    def __str__(self):
        return print_symbol(self)


# --------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SymbolSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# --------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise SymbolSyntaxError(f"expected {op!r}", off)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                node = BinOp(val, node, rhs)
            else:
                return node

    # term := factor (('*'|'/') factor)*
    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = BinOp(val, node, rhs)
            else:
                return node

    # factor := atom ('^' rational)?
    def parse_factor(self):
        node = self.parse_atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            num, den = self.parse_rational()
            if den == 2 and _sign(node) != _NONNEG:
                raise SymbolSyntaxError(
                    "half-integer power applied to a subexpression not "
                    "guaranteed nonnegative-real on real arguments", off)
            node = Pow(node, num, den)
        return node

    # rational := integer | '(' integer '/' integer ')'
    def parse_rational(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "(":
            self.advance()
            p = self._parse_signed_int()
            self.expect_op("/")
            q = self._parse_signed_int()
            self.expect_op(")")
        else:
            p = self._parse_signed_int()
            q = 1
        if q == 0:
            raise SymbolSyntaxError("zero denominator in exponent", off)
        if q < 0:
            p, q = -p, -q
        g = gcd(abs(p), q)
        if g:
            p, q = p // g, q // g
        if q not in (1, 2):
            raise SymbolSyntaxError(
                f"exponent {p}/{q} is not an integer or half-integer", off)
        return p, q

    def _parse_signed_int(self):
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
            kind, val, off = self.peek()
        if kind != "number" or not val.isdigit():
            raise SymbolSyntaxError("expected an integer", off)
        self.advance()
        return sign * int(val)

    # atom := number | 'i' | var | func '(' expr ')'
    #       | ('abs2'|'normx2') '(' ('x'|'k') ')' | '(' expr ')' | '-' atom
    def parse_atom(self):
        kind, val, off = self.advance()
        if kind == "number":
            return Num(complex(float(val)))
        if kind == "op" and val == "-":
            return Neg(self.parse_atom())
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if val == "i":
                return Num(1j)
            if val in _FUNCS:
                self.expect_op("(")
                _, arg, _ = self.peek()
                if (val in ("abs2", "normx2") and arg in ("x", "k")
                        and self.tokens[self.pos + 1][:2] == ("op", ")")):
                    self.advance()
                    node = Call(val, VecRef(arg))
                else:
                    node = Call(val, self.parse_expr())
                self.expect_op(")")
                return node
            m = re.fullmatch(r"([xk])(\d*)", val)
            if m:
                axis, digits = m.groups()
                if not digits:
                    raise SymbolSyntaxError(
                        f"bare vector {axis!r} outside abs2/normx2", off)
                index = int(digits)
                if index < 1 or index > self.dim:
                    raise DimensionError(
                        f"variable {val!r} out of range for dimension {self.dim}")
                return Coord(axis, index)
            raise SymbolSyntaxError(f"unknown name {val!r}", off)
        raise SymbolSyntaxError(f"unexpected token {val!r}", off)


def _children(node):
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.lhs, node.rhs)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def _leaves(node):
    """The leaf nodes under ``node``, left to right."""
    children = _children(node)
    if not children:
        yield node
    for child in children:
        yield from _leaves(child)


# sign classes on real coordinates, ordered so that max() joins them
_NONNEG, _REAL, _ANY = range(3)


def _sign(node):
    """Conservative sign class of the node whenever all coordinates are
    real: _NONNEG (nonnegative-real), _REAL or _ANY."""
    if isinstance(node, Num):
        if node.value.imag != 0:
            return _ANY
        return _NONNEG if node.value.real >= 0 else _REAL
    if isinstance(node, (Coord, VecRef)):
        return _REAL
    if isinstance(node, Neg):
        return max(_REAL, _sign(node.arg))
    if isinstance(node, BinOp):
        joined = max(_sign(node.lhs), _sign(node.rhs))
        return max(_REAL, joined) if node.op == "-" else joined
    if isinstance(node, Pow):
        # a half-integer power only ever sits on a _NONNEG base
        return _sign(node.base)
    arg = _sign(node.arg)
    if node.func == "sqrt":
        return _NONNEG if arg == _NONNEG else _ANY
    # exp of a real is positive; abs2/normx2 square a real vector or scalar
    return _NONNEG if arg <= _REAL else _ANY


def parse_symbol(text: str, dim: int) -> SymbolExpr:
    """Parse ``text`` into a :class:`SymbolExpr` over m = ``dim`` coordinates."""
    if not text or not text.strip():
        raise SymbolSyntaxError("empty symbol text", 0)
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    parser = _Parser(text, dim)
    node = parser.parse_expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise SymbolSyntaxError(f"trailing input {val!r}", off)
    return SymbolExpr(node, dim)


# --------------------------------------------------------------------------
# Printer (round-trips through parse_symbol for parser-produced trees)

_PREC_ADD, _PREC_MUL, _PREC_ATOM = 1, 2, 3


def _fmt_real(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _fmt_num(value):
    if value.imag == 0:
        return _fmt_real(value.real), _PREC_ATOM
    if value == 1j:
        return "i", _PREC_ATOM
    # Programmatic constants outside the literal grammar: print a
    # value-preserving arithmetic form.
    re_s = _fmt_real(value.real)
    im_s = _fmt_real(value.imag)
    return f"({re_s}+{im_s}*i)", _PREC_ATOM


def _print(node):
    """Return (text, precedence-class of the produced form)."""
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, Coord):
        return f"{node.axis}{node.index}", _PREC_ATOM
    if isinstance(node, VecRef):
        return node.axis, _PREC_ATOM
    if isinstance(node, Neg):
        inner, prec = _print(node.arg)
        # '-atom^r' parses as (-atom)^r, so a Pow child needs parentheses
        if prec < _PREC_ATOM or isinstance(node.arg, Pow):
            inner = f"({inner})"
        return f"-{inner}", _PREC_ATOM
    if isinstance(node, Call):
        inner, _ = _print(node.arg)
        return f"{node.func}({inner})", _PREC_ATOM
    if isinstance(node, Pow):
        base, prec = _print(node.base)
        # the grammar forbids chained '^', so a Pow base gets parentheses
        if prec < _PREC_ATOM or isinstance(node.base, Pow) \
                or (isinstance(node.base, Num) and base.startswith("-")):
            base = f"({base})"
        if node.den == 1:
            exp = str(node.num)
        else:
            exp = f"({node.num}/{node.den})"
        return f"{base}^{exp}", _PREC_ATOM
    if isinstance(node, BinOp):
        my = _PREC_ADD if node.op in "+-" else _PREC_MUL
        lhs, lp = _print(node.lhs)
        rhs, rp = _print(node.rhs)
        if lp < my:
            lhs = f"({lhs})"
        # left-associative: the right operand must bind strictly tighter
        if rp <= my:
            rhs = f"({rhs})"
        return f"{lhs}{node.op}{rhs}", my
    raise TypeError(f"not an AST node: {node!r}")


def print_symbol(expr: SymbolExpr) -> str:
    text, _ = _print(expr.ast)
    return text


# --------------------------------------------------------------------------
# Evaluation on frequency/space grids

def eval_on_grid(expr: SymbolExpr, x, xi) -> np.ndarray:
    """Evaluate on arrays of points.

    ``x`` has shape (..., m) real and ``xi`` shape (..., m) complex; leading
    shapes broadcast against each other.  Returns a complex array of the
    broadcast shape.  Raises :class:`EvalError` anywhere on the grid on
    division by zero, on exact branch-cut hits (negative real base of a
    half-integer power or sqrt), on an overflow in any subexpression (so
    exp(1000) is refused even under a division that would bring it back
    to 0), and on a non-finite value.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=complex))
    if x.shape[-1] != expr.dim or xi.shape[-1] != expr.dim:
        raise DimensionError(
            f"grid component count {x.shape[-1]}/{xi.shape[-1]} does not "
            f"match expression dimension {expr.dim}")
    with np.errstate(all="ignore", over="raise"):
        try:
            out = _eval_vec(expr.ast, x, xi)
        except FloatingPointError as exc:
            raise EvalError(f"{exc} on the grid") from exc
    out = np.asarray(out, dtype=complex)
    if not np.all(np.isfinite(out)):
        raise EvalError("non-finite value on the grid")
    shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
    return np.broadcast_to(out, shape).copy()


def _vec_pow(base, exponent):
    base = np.asarray(base, dtype=complex)
    on_cut = (base.imag == 0) & (base.real < 0)
    if np.any(on_cut):
        raise EvalError(
            "non-principal-branch demand: negative real base under "
            "fractional power on the grid")
    zero = base == 0
    has_zero = bool(np.any(zero))
    if has_zero and exponent < 0:
        raise EvalError("zero base with negative exponent on the grid")
    out = np.asarray(base ** exponent)
    if has_zero:
        out[zero] = 0
    return out


def _eval_vec(node, x, xi):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Coord):
        src = x if node.axis == "x" else xi
        return src[..., node.index - 1]
    if isinstance(node, Neg):
        return -_eval_vec(node.arg, x, xi)
    if isinstance(node, BinOp):
        a = _eval_vec(node.lhs, x, xi)
        b = _eval_vec(node.rhs, x, xi)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if np.any(np.asarray(b) == 0):
            raise EvalError("division by zero on the grid")
        return a / b
    if isinstance(node, Pow):
        base = _eval_vec(node.base, x, xi)
        if node.den == 1:
            base = np.asarray(base, dtype=complex)
            if node.num < 0 and np.any(base == 0):
                raise EvalError("zero base with negative exponent on the grid")
            with np.errstate(divide="ignore", invalid="ignore"):
                return base ** node.num
        return _vec_pow(base, node.num / node.den)
    if isinstance(node, Call):
        if node.func in ("abs2", "normx2"):
            if isinstance(node.arg, VecRef):
                src = np.asarray(x if node.arg.axis == "x" else xi,
                                 dtype=complex)
                # a running sum from 0, the order of np.sum(src ** 2, -1)
                # for m <= 3 (signed zeros included), at a quarter the cost
                out = 0
                for a in range(src.shape[-1]):
                    out = out + src[..., a] * src[..., a]
                return out
            val = _eval_vec(node.arg, x, xi)
            return np.asarray(val) * val
        val = _eval_vec(node.arg, x, xi)
        if node.func == "exp":
            return np.exp(val)
        return _vec_pow(val, 0.5)
    raise TypeError(f"not an AST node: {node!r}")


# --------------------------------------------------------------------------
# Structural queries used by the pipeline

def depends_on_x(expr: SymbolExpr) -> bool:
    """Does the expression reference any spatial coordinate?"""
    return any(isinstance(leaf, (Coord, VecRef)) and leaf.axis == "x"
               for leaf in _leaves(expr.ast))


def frequency_support(expr: SymbolExpr) -> frozenset:
    """The set of 1-based frequency component indices the expression reads.

    ``abs2(k)``/``normx2(k)`` read every component.
    """
    found = set()
    for leaf in _leaves(expr.ast):
        if isinstance(leaf, VecRef) and leaf.axis == "k":
            return frozenset(range(1, expr.dim + 1))
        if isinstance(leaf, Coord) and leaf.axis == "k":
            found.add(leaf.index)
    return frozenset(found)


def reads_k_radially(expr: SymbolExpr) -> bool:
    """Does the expression read the frequency, and only through
    ``abs2(k)``/``normx2(k)``, with no ``k1..km`` leaf?  Then its values
    depend on xi through the squared norm alone."""
    k_leaves = [leaf for leaf in _leaves(expr.ast)
                if isinstance(leaf, (Coord, VecRef)) and leaf.axis == "k"]
    return bool(k_leaves) and all(isinstance(leaf, VecRef)
                                  for leaf in k_leaves)


def product_factors(expr: SymbolExpr) -> list:
    """The factors of the top-level products and quotients, left to right.

    Descends through every ``*`` and ``/`` node from the root, so
    ``a*(b/c)`` gives a, b and c.  Each factor is a triple (factor as a
    :class:`SymbolExpr`, exponent +1 or -1 for a divisor, kind), the kind
    being ``"const"``, ``"x"`` (spatial coordinates only), ``"k"``
    (frequency coordinates only) or ``"mixed"``.  Every ``*`` and ``/``
    node of the product evaluates the product of a subset of the factors
    to their exponents, or its reciprocal under a divisor.
    """
    factors = []

    def walk(node, exponent):
        if isinstance(node, BinOp) and node.op in "*/":
            walk(node.lhs, exponent)
            walk(node.rhs, -exponent if node.op == "/" else exponent)
            return
        factor = SymbolExpr(node, expr.dim)
        on_x, on_k = depends_on_x(factor), bool(frequency_support(factor))
        kind = ("mixed" if on_x and on_k else "x" if on_x
                else "k" if on_k else "const")
        factors.append((factor, exponent, kind))

    walk(expr.ast, 1)
    return factors
