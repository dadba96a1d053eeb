"""Arithmetic expressions in spatial coordinates with exact differentiation.

The little language understood here covers numeric literals, the variables
``x1 .. xn`` (n <= 3), the binary operators ``+ - * / ^``, unary minus,
parentheses and the functions ``sin cos exp log sqrt abs min max``.
``^`` is right-associative and binds tighter than unary minus, so
``-2^2 == -4`` (the usual written-math convention).

Expression trees are immutable; evaluation and differentiation never mutate
them, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DomainError",
    "Expression",
    "ExpressionError",
    "NonDifferentiableError",
    "ParseError",
    "parse_expression",
]

FUNCTION_ARITY = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
}
_NONSMOOTH = ("abs", "min", "max")

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 9


class ExpressionError(ValueError):
    """Anything the expression layer can reject."""


class ParseError(ExpressionError):
    """Syntax or identifier error, carrying the byte offset into the source."""

    def __init__(self, message: str, source: str, position: int, expected: Sequence[str] = ()):
        self.source = source
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at offset {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class DomainError(ExpressionError):
    """Evaluation hit a point outside a sub-expression's domain.

    ``mask`` flags the offending entries; it broadcasts to the shape of the
    evaluation.
    """

    def __init__(self, message: str, node: "_Node", mask):
        self.node = node
        self.mask = np.asarray(mask)
        super().__init__(f"{message} in sub-expression '{node}'")


class NonDifferentiableError(ExpressionError):
    """Differentiation requested through abs/min/max."""


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class _Node:
    precedence = _PREC_ATOM

    def __str__(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(_Node):
    value: float

    @property
    def precedence(self):
        return _PREC_NEG if self.value < 0 else _PREC_ATOM

    def __str__(self):
        if self.value < 0:
            return "-" + repr(-self.value)
        return repr(self.value)


@dataclass(frozen=True)
class Var(_Node):
    index: int  # zero-based

    precedence = _PREC_ATOM

    def __str__(self):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Neg(_Node):
    arg: _Node

    precedence = _PREC_NEG

    def __str__(self):
        return "-" + _child(self.arg, _PREC_NEG)


@dataclass(frozen=True)
class BinOp(_Node):
    op: str
    left: _Node
    right: _Node

    @property
    def precedence(self):
        if self.op in "+-":
            return _PREC_ADD
        if self.op in "*/":
            return _PREC_MUL
        return _PREC_POW

    def __str__(self):
        prec = self.precedence
        if self.op == "^":
            # right-associative: parenthesize an exponent-shaped left operand
            left = _child(self.left, prec + 1)
            right = _child(self.right, prec)
        else:
            # left-associative: keep the exact tree shape on the right so a
            # round-trip re-parse evaluates bit-identically
            left = _child(self.left, prec)
            right = _child(self.right, prec + 1)
        return f"{left} {self.op} {right}" if self.op in "+-" else f"{left}{self.op}{right}"


@dataclass(frozen=True)
class Call(_Node):
    name: str
    args: tuple

    precedence = _PREC_ATOM

    def __str__(self):
        return self.name + "(" + ", ".join(str(a) for a in self.args) + ")"


def _child(node: _Node, minimum: int) -> str:
    text = str(node)
    if node.precedence < minimum:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# Folding constructors (used by differentiation; the parser builds raw nodes)
# ---------------------------------------------------------------------------


def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    if _is_num(a) and _is_num(b) and b.value != 0:
        return Num(a.value / b.value)
    if _is_num(b, 1.0):
        return a
    if _is_num(a, 0.0):
        # best-effort fold; widens the domain of derivative trees at poles
        return Num(0.0)
    return BinOp("/", a, b)


def _pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b):
        try:
            value = math.pow(a.value, b.value)
        except (ValueError, OverflowError):
            return BinOp("^", a, b)
        return Num(value)
    return BinOp("^", a, b)


def _neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}
_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}


def _check(bad, message, node):
    if np.any(bad):
        raise DomainError(message, node, bad)


def _eval_array(node, coords):
    """Evaluate over broadcastable coordinate arrays (0-d ones for a point).

    Every operator and function result must be finite: the first that is not
    raises :class:`DomainError` with the mask of offending entries.  Callers
    silence numpy's floating-point warnings (see :func:`_evaluate`).
    """
    if isinstance(node, Num):
        return np.asarray(node.value)
    if isinstance(node, Var):
        return np.asarray(coords[node.index], dtype=float)
    if isinstance(node, Neg):
        return -_eval_array(node.arg, coords)
    if isinstance(node, BinOp):
        left = _eval_array(node.left, coords)
        right = _eval_array(node.right, coords)
        if node.op == "/":
            _check(right == 0.0, "division by zero", node)
        out = _BINARY[node.op](left, right)
        message = "invalid power" if node.op == "^" else "non-finite value"
    else:
        args = [_eval_array(a, coords) for a in node.args]
        if node.name == "log":
            _check(args[0] <= 0.0, "log of a non-positive value", node)
        elif node.name == "sqrt":
            _check(args[0] < 0.0, "sqrt of a negative value", node)
        out = _FUNCTIONS[node.name](*args)
        message = "overflow" if node.name == "exp" else "non-finite value"
    _check(~np.isfinite(out), message, node)
    return out


def _evaluate(node, coords):
    with np.errstate(all="ignore"):
        return _eval_array(node, coords)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def _constant_value(node):
    """Numeric value of a variable-free subtree, or None."""
    try:
        return None if _has_variable(node) else float(_evaluate(node, ()))
    except DomainError:
        return None


def _has_variable(node):
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return _has_variable(node.arg)
    if isinstance(node, BinOp):
        return _has_variable(node.left) or _has_variable(node.right)
    if isinstance(node, Call):
        return any(_has_variable(a) for a in node.args)
    return False


def _reject_nonsmooth(node):
    if isinstance(node, Call):
        if node.name in _NONSMOOTH:
            raise NonDifferentiableError(
                f"cannot differentiate through '{node.name}' in '{node}'"
            )
        for a in node.args:
            _reject_nonsmooth(a)
    elif isinstance(node, Neg):
        _reject_nonsmooth(node.arg)
    elif isinstance(node, BinOp):
        _reject_nonsmooth(node.left)
        _reject_nonsmooth(node.right)


def _diff(node, index):
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.index == index else 0.0)
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, index))
    if isinstance(node, BinOp):
        left, right = node.left, node.right
        dleft = _diff(left, index)
        dright = _diff(right, index)
        op = node.op
        if op == "+":
            return _add(dleft, dright)
        if op == "-":
            return _sub(dleft, dright)
        if op == "*":
            return _add(_mul(dleft, right), _mul(left, dright))
        if op == "/":
            return _div(_sub(_mul(dleft, right), _mul(left, dright)), _mul(right, right))
        # power: prefer the constant-exponent rule, which stays defined for
        # negative bases; fall back to the exp/log form for variable exponents
        cexp = _constant_value(right)
        if cexp is not None:
            return _mul(_mul(Num(cexp), _pow(left, Num(cexp - 1.0))), dleft)
        cbase = _constant_value(left)
        if cbase is not None and cbase > 0:
            return _mul(_mul(node, Num(math.log(cbase))), dright)
        return _mul(node, _add(_mul(dright, Call("log", (left,))), _div(_mul(right, dleft), left)))
    # Call (abs/min/max were rejected upfront)
    arg = node.args[0]
    darg = _diff(arg, index)
    name = node.name
    if name == "sin":
        return _mul(Call("cos", (arg,)), darg)
    if name == "cos":
        return _neg(_mul(Call("sin", (arg,)), darg))
    if name == "exp":
        return _mul(node, darg)
    if name == "log":
        return _div(darg, arg)
    # sqrt
    return _div(darg, _mul(Num(2.0), node))


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expression:
    """An immutable arithmetic expression over ``dimension`` coordinates."""

    root: _Node
    dimension: int

    def __str__(self):
        return str(self.root)

    def evaluate_array(self, coords) -> np.ndarray:
        """Vectorized evaluation over per-axis coordinate arrays.

        ``coords`` is a sequence of ``dimension`` broadcastable arrays; the
        result has their broadcast shape.
        """
        if len(coords) != self.dimension:
            raise ExpressionError(
                f"got {len(coords)} coordinate arrays, expression expects {self.dimension}"
            )
        arrays = [np.asarray(c, dtype=float) for c in coords]
        out = _evaluate(self.root, arrays)
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        return np.broadcast_to(out, shape).astype(float, copy=True) if out.shape != shape else out

    def differentiate(self, variable_index: int) -> "Expression":
        """Exact partial derivative with respect to ``x{variable_index+1}``."""
        if not 0 <= variable_index < self.dimension:
            raise ExpressionError(
                f"variable index {variable_index} out of range for dimension {self.dimension}"
            )
        _reject_nonsmooth(self.root)
        return Expression(_diff(self.root, variable_index), self.dimension)

    # -- symbolic arithmetic, used to build manufactured right-hand sides ----

    @staticmethod
    def constant(value: float, dimension: int) -> "Expression":
        return Expression(Num(float(value)), dimension)

    @staticmethod
    def variable(index: int, dimension: int) -> "Expression":
        if not 0 <= index < dimension:
            raise ExpressionError(f"variable index {index} out of range")
        return Expression(Var(index), dimension)

    def _coerce(self, other) -> _Node:
        if isinstance(other, Expression):
            if other.dimension != self.dimension:
                raise ExpressionError("cannot combine expressions of different dimensions")
            return other.root
        return Num(float(other))

    def __add__(self, other):
        return Expression(_add(self.root, self._coerce(other)), self.dimension)

    def __radd__(self, other):
        return Expression(_add(self._coerce(other), self.root), self.dimension)

    def __sub__(self, other):
        return Expression(_sub(self.root, self._coerce(other)), self.dimension)

    def __rsub__(self, other):
        return Expression(_sub(self._coerce(other), self.root), self.dimension)

    def __mul__(self, other):
        return Expression(_mul(self.root, self._coerce(other)), self.dimension)

    def __rmul__(self, other):
        return Expression(_mul(self._coerce(other), self.root), self.dimension)

    def __truediv__(self, other):
        return Expression(_div(self.root, self._coerce(other)), self.dimension)

    def __rtruediv__(self, other):
        return Expression(_div(self._coerce(other), self.root), self.dimension)

    def __pow__(self, other):
        return Expression(_pow(self.root, self._coerce(other)), self.dimension)

    def __neg__(self):
        return Expression(_neg(self.root), self.dimension)


# ---------------------------------------------------------------------------
# Lexer / parser (recursive descent with precedence climbing)
#
#   expr   := term (('+' | '-') term)*
#   term   := unary (('*' | '/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' unary)?
#   atom   := NUMBER | VARIABLE | FUNC '(' expr (',' expr)* ')' | '(' expr ')'
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR_RE = re.compile(r"x([1-9][0-9]*)$")


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUM_RE.match(source, i)
        if m:
            value = float(m.group())
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {m.group()!r} overflows", source, i)
            tokens.append(("num", value, i))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", source, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, source, dimension):
        self.tokens = tokens
        self.source = source
        self.dimension = dimension
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.peek()
        if kind == "op" and value == symbol:
            return self.advance()
        raise ParseError("unexpected token", self.source, pos, expected=(f"'{symbol}'",))

    def at_op(self, symbols):
        kind, value, _ = self.peek()
        return kind == "op" and value in symbols

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected token", self.source, pos, expected=("end of input",))
        return node

    def expr(self):
        node = self.term()
        while self.at_op("+-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.at_op("*/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.at_op("-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            return Num(value)
        if kind == "ident":
            self.advance()
            if self.at_op("("):
                return self.call(value, pos)
            m = _VAR_RE.match(value)
            if not m:
                raise ParseError(f"unknown identifier '{value}'", self.source, pos)
            index = int(m.group(1))
            if index > self.dimension:
                raise ParseError(
                    f"variable '{value}' exceeds dimension {self.dimension}", self.source, pos
                )
            return Var(index - 1)
        if kind == "op" and value == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(
            "unexpected token",
            self.source,
            pos,
            expected=("a number", "a variable", "a function", "'('"),
        )

    def call(self, name, pos):
        if name not in FUNCTION_ARITY:
            raise ParseError(f"unknown function '{name}'", self.source, pos)
        self.expect_op("(")
        args = [self.expr()]
        while self.at_op(","):
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        arity = FUNCTION_ARITY[name]
        if len(args) != arity:
            raise ParseError(
                f"function '{name}' takes {arity} argument{'s' if arity > 1 else ''}, "
                f"got {len(args)}",
                self.source,
                pos,
            )
        return Call(name, tuple(args))


def parse_expression(source: str, dimension: int) -> Expression:
    """Parse ``source`` into an :class:`Expression` over ``dimension`` variables."""
    if dimension not in (2, 3):
        raise ExpressionError(f"dimension must be 2 or 3, got {dimension}")
    if not source or not source.strip():
        raise ParseError("empty expression", source or "", 0)
    tokens = _tokenize(source)
    return Expression(_Parser(tokens, source, dimension).parse(), dimension)
