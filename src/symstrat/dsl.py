"""Expression language for classical symbols a(x, xi) on R^m x R^m.

Grammar (whitespace-insensitive)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := atom ('^' rational)?
    atom     := number | 'i' | var | func '(' expr ')' | '(' expr ')' | '-' atom
    var      := ('x'|'k') digits
    func     := 'abs2' | 'normx2' | 'exp' | 'sqrt'
    rational := integer | '(' integer '/' integer ')'

``x1..xm`` are spatial coordinates, ``k1..km`` frequency coordinates.  The
bare names ``x`` and ``k`` are allowed only as the direct argument of
``abs2``/``normx2`` and denote the whole vector, so ``abs2(k)`` is the
squared frequency norm.  On complex arguments ``abs2``/``normx2`` compute
the sum of squared components without conjugation (the analytic
continuation of the squared norm off the real axis), and ``abs2`` of a
scalar subexpression is its plain square.

Exponents are integers or half-integers.  A half-integer exponent is
accepted only on a subexpression that is guaranteed nonnegative-real for
real arguments, so evaluation at real frequencies is single-valued.
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
    "Num", "Coord", "VecRef", "Neg", "BinOp", "Pow", "Call",
    "SymbolExpr", "EvalPoint",
    "parse_symbol", "print_symbol", "eval_symbol", "eval_on_grid",
    "depends_on_x", "frequency_support",
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


@dataclass(frozen=True)
class EvalPoint:
    """Evaluation point: real spatial vector and complex frequency vector.

    Nonzero imaginary parts of ``xi`` realize continuation arguments
    ``xi + i*tau``.
    """

    x: tuple
    xi: tuple

    @staticmethod
    def make(x, xi):
        return EvalPoint(tuple(float(v) for v in x), tuple(complex(v) for v in xi))


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
        self.vec_offsets = {}

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
            if den == 2 and not _nonneg_real(node):
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

    # atom := number | 'i' | var | func '(' expr ')' | '(' expr ')' | '-' atom
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
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(val, arg)
            m = re.fullmatch(r"([xk])(\d*)", val)
            if m:
                axis, digits = m.groups()
                if not digits:
                    node = VecRef(axis)
                    self.vec_offsets[id(node)] = off
                    return node
                index = int(digits)
                if index < 1 or index > self.dim:
                    raise DimensionError(
                        f"variable {val!r} out of range for dimension {self.dim}")
                return Coord(axis, index)
            raise SymbolSyntaxError(f"unknown name {val!r}", off)
        raise SymbolSyntaxError(f"unexpected token {val!r}", off)

    def validate_vecrefs(self, node, allowed=False):
        # A bare vector name is legal only as the *entire* argument of
        # abs2/normx2; anywhere else it has no scalar value.
        if isinstance(node, VecRef):
            if not allowed:
                raise SymbolSyntaxError(
                    f"bare vector {node.axis!r} outside abs2/normx2",
                    self.vec_offsets.get(id(node), 0))
            return
        if isinstance(node, Call):
            self.validate_vecrefs(node.arg, node.func in ("abs2", "normx2"))
            return
        for child in _children(node):
            self.validate_vecrefs(child, allowed=False)


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


def _nonneg_real(node):
    """Conservative static check: is the node nonnegative-real whenever all
    coordinates are real?"""
    if isinstance(node, Num):
        return node.value.imag == 0 and node.value.real >= 0
    if isinstance(node, Call):
        if node.func in ("abs2", "normx2"):
            return True
        if node.func == "exp":
            return _real_on_real(node.arg)
        if node.func == "sqrt":
            return _nonneg_real(node.arg)
    if isinstance(node, BinOp) and node.op in "+*/":
        return _nonneg_real(node.lhs) and _nonneg_real(node.rhs)
    if isinstance(node, Pow):
        return _nonneg_real(node.base)
    return False


def _real_on_real(node):
    if isinstance(node, Num):
        return node.value.imag == 0
    if isinstance(node, Coord):
        return True
    if isinstance(node, VecRef):
        return False
    if isinstance(node, Neg):
        return _real_on_real(node.arg)
    if isinstance(node, BinOp):
        return _real_on_real(node.lhs) and _real_on_real(node.rhs)
    if isinstance(node, Pow):
        if node.den == 2:
            return _nonneg_real(node.base)
        return _real_on_real(node.base)
    if isinstance(node, Call):
        if node.func in ("abs2", "normx2"):
            return True
        if node.func == "exp":
            return _real_on_real(node.arg)
        if node.func == "sqrt":
            return _nonneg_real(node.arg)
    return False


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
    parser.validate_vecrefs(node)
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
    broadcast shape.  Raises :class:`EvalError` on division by zero and on
    exact branch-cut hits (negative real base of a half-integer power or
    sqrt) anywhere on the grid.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=complex))
    if x.shape[-1] != expr.dim or xi.shape[-1] != expr.dim:
        raise DimensionError(
            f"grid component count {x.shape[-1]}/{xi.shape[-1]} does not "
            f"match expression dimension {expr.dim}")
    out = _eval_vec(expr.ast, x, xi)
    shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
    return np.broadcast_to(np.asarray(out, dtype=complex), shape).copy()


def eval_symbol(expr: SymbolExpr, p: EvalPoint) -> complex:
    """Evaluate the expression at a single point, as :func:`eval_on_grid`
    on the one-point grid (p.x, p.xi).

    Raises :class:`EvalError` where :func:`eval_on_grid` does, on an
    overflow in any subexpression (so exp(1000) is refused even under a
    division that would bring it back to 0), and when the value is not
    finite.
    """
    with np.errstate(all="ignore", over="raise"):
        try:
            val = complex(eval_on_grid(expr, [p.x], [p.xi])[0])
        except FloatingPointError as exc:
            raise EvalError(f"{exc} at {p}") from exc
    if not np.isfinite(val):
        raise EvalError(f"non-finite value {val!r} at {p}")
    return val


def _vec_pow(base, exponent):
    base = np.asarray(base, dtype=complex)
    on_cut = (base.imag == 0) & (base.real < 0)
    if np.any(on_cut):
        raise EvalError(
            "non-principal-branch demand: negative real base under "
            "fractional power on the grid")
    zero = base == 0
    if np.any(zero) and exponent < 0:
        raise EvalError("zero base with negative exponent on the grid")
    out = np.zeros_like(base)
    nz = ~zero
    out[nz] = base[nz] ** exponent
    return out


def _eval_vec(node, x, xi):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Coord):
        src = x if node.axis == "x" else xi
        return src[..., node.index - 1]
    if isinstance(node, VecRef):
        raise EvalError("bare vector reference outside abs2/normx2")
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
                src = x if node.arg.axis == "x" else xi
                return np.sum(np.asarray(src, dtype=complex) ** 2, axis=-1)
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
    def walk(node):
        if isinstance(node, Coord) and node.axis == "x":
            return True
        if isinstance(node, VecRef) and node.axis == "x":
            return True
        return any(walk(c) for c in _children(node))
    return walk(expr.ast)


def frequency_support(expr: SymbolExpr) -> frozenset:
    """The set of 1-based frequency component indices the expression reads.

    ``abs2(k)``/``normx2(k)`` read every component.
    """
    found = set()
    def walk(node):
        if isinstance(node, Coord) and node.axis == "k":
            found.add(node.index)
        elif isinstance(node, VecRef) and node.axis == "k":
            found.update(range(1, expr.dim + 1))
        for c in _children(node):
            walk(c)
    walk(expr.ast)
    return frozenset(found)
