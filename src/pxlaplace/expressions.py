"""Arithmetic expressions in spatial coordinates: parsed, printed, evaluated.

The little language understood here covers numeric literals, the variables
``x1 .. xn`` (n <= 3), the binary operators ``+ - * / ^``, unary minus,
parentheses and the functions ``sin cos exp log sqrt abs min max``.
``^`` is right-associative and binds tighter than unary minus, so
``-2^2 == -4`` (the usual written-math convention).

Expression trees are immutable; evaluation never mutates them, so instances
can be shared freely across threads.
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
    "ParseError",
    "parse_expression",
]

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 9


class ExpressionError(ValueError):
    """Anything the expression layer can reject."""


class ParseError(ExpressionError):
    """Syntax or identifier error, carrying the byte offset into the source."""

    def __init__(self, message: str, position: int, expected: Sequence[str] = ()):
        self.position = position
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
        self.mask = np.asarray(mask)
        super().__init__(f"{message} in sub-expression '{node}'")


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class _Node:
    precedence = _PREC_ATOM


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

    def __str__(self):
        return self.name + "(" + ", ".join(str(a) for a in self.args) + ")"


def _children(node: _Node) -> tuple:
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return node.args if isinstance(node, Call) else ()


def _child(node: _Node, minimum: int) -> str:
    text = str(node)
    if node.precedence < minimum:
        return "(" + text + ")"
    return text


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
#: The functions of the language; a ufunc's ``nin`` is its arity.
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

#: The most levels an expression may nest, parentheses included: parsing and
#: every walk of the tree recurse per level, and must not exhaust the stack.
MAX_DEPTH = 100


def _height(root: _Node) -> int:
    """The number of levels of the tree under ``root``, found without recursion."""
    height, level = 0, [root]
    while level:
        height, level = height + 1, [c for node in level for c in _children(node)]
    return height


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
                raise ParseError(f"numeric literal {m.group()!r} overflows", i)
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
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, dimension):
        self.tokens = tokens
        self.dimension = dimension
        self.pos = 0
        self.nesting = 0  # open unary() calls: parentheses, arguments, signs, exponents

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
        raise ParseError("unexpected token", pos, expected=(f"'{symbol}'",))

    def at_op(self, symbols):
        kind, value, _ = self.peek()
        return kind == "op" and value in symbols

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected token", pos, expected=("end of input",))
        # a long sum or product nests its tree without nesting the parser
        if _height(node) > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
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
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", self.peek()[2])
        if self.at_op("-"):
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.nesting -= 1
        return node

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
                raise ParseError(f"unknown identifier '{value}'", pos)
            index = int(m.group(1))
            if index > self.dimension:
                raise ParseError(f"variable '{value}' exceeds dimension {self.dimension}", pos)
            return Var(index - 1)
        if kind == "op" and value == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(
            "unexpected token", pos, expected=("a number", "a variable", "a function", "'('")
        )

    def call(self, name, pos):
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function '{name}'", pos)
        self.expect_op("(")
        args = [self.expr()]
        while self.at_op(","):
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        arity = _FUNCTIONS[name].nin
        if len(args) != arity:
            raise ParseError(
                f"function '{name}' takes {arity} argument{'s' if arity > 1 else ''}, "
                f"got {len(args)}",
                pos,
            )
        return Call(name, tuple(args))


def parse_expression(source: str, dimension: int) -> Expression:
    """Parse ``source`` into an :class:`Expression` over ``dimension`` variables.

    An expression that nests deeper than :data:`MAX_DEPTH` levels raises
    :class:`ParseError`.
    """
    if dimension not in (2, 3):
        raise ExpressionError(f"dimension must be 2 or 3, got {dimension}")
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    tokens = _tokenize(source)
    return Expression(_Parser(tokens, dimension).parse(), dimension)
