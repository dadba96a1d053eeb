"""Arithmetic expressions in spatial coordinates: parsed and evaluated.

The little language understood here covers numeric literals, the variables
``x1 .. xn`` (n <= 3), the binary operators ``+ - * / ^``, unary minus,
parentheses and the functions ``sin cos exp log sqrt abs min max``.
``^`` is right-associative and binds tighter than unary minus, so
``-2^2 == -4`` (the usual written-math convention).  With ``^`` read as
``**`` that is Python's own precedence and associativity, so the source is
parsed by :func:`ast.parse` and only the language's nodes are admitted from
the tree.  The text is never compiled or executed, and evaluation never
mutates the tree, so instances can be shared freely across threads.
"""

from __future__ import annotations

import ast
import bisect
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "DomainError",
    "Expression",
    "ExpressionError",
    "ParseError",
    "parse_expression",
]


class ExpressionError(ValueError):
    """Anything the expression layer can reject."""


class ParseError(ExpressionError):
    """Syntax or identifier error, carrying the character offset into the source."""

    def __init__(self, message: str, position: int, expected: Sequence[str] = ()):
        self.position = position
        detail = f"{message} at offset {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class DomainError(ExpressionError):
    """Evaluation hit a point outside a sub-expression's domain; ``mask``,
    which broadcasts to the evaluation's shape, flags the offending entries."""

    def __init__(self, message: str, segment: str, mask):
        self.mask = np.asarray(mask)
        super().__init__(f"{message} in sub-expression '{segment}'")


_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
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


def _check(bad, message, node, text):
    if np.any(bad):
        segment = ast.get_source_segment(text, node).replace("**", "^")
        raise DomainError(message, segment, bad)


def _eval_array(node, coords, text):
    """Evaluate over broadcastable coordinate arrays (0-d ones for a point).

    The first operator or function result that is not finite raises
    :class:`DomainError`, quoting its segment of ``text``.  The caller
    silences numpy's floating-point warnings.
    """
    if isinstance(node, ast.Constant):
        return np.asarray(float(node.value))
    if isinstance(node, ast.Name):
        return np.asarray(coords[int(node.id[1:]) - 1], dtype=float)
    if isinstance(node, ast.UnaryOp):
        return -_eval_array(node.operand, coords, text)
    if isinstance(node, ast.BinOp):
        left = _eval_array(node.left, coords, text)
        right = _eval_array(node.right, coords, text)
        if isinstance(node.op, ast.Div):
            _check(right == 0.0, "division by zero", node, text)
        out = _BINARY[type(node.op)](left, right)
        message = "invalid power" if isinstance(node.op, ast.Pow) else "non-finite value"
    else:
        name = node.func.id
        args = [_eval_array(a, coords, text) for a in node.args]
        if name == "log":
            _check(args[0] <= 0.0, "log of a non-positive value", node, text)
        elif name == "sqrt":
            _check(args[0] < 0.0, "sqrt of a negative value", node, text)
        out = _FUNCTIONS[name](*args)
        message = "overflow" if name == "exp" else "non-finite value"
    _check(~np.isfinite(out), message, node, text)
    return out


@dataclass(frozen=True)
class Expression:
    """An immutable arithmetic expression over ``dimension`` coordinates; ``str`` is its source."""

    source: str
    dimension: int
    text: str = field(compare=False, repr=False)  # the source as Python reads it
    tree: ast.expr = field(compare=False, repr=False)

    def __str__(self):
        return self.source

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
        with np.errstate(all="ignore"):
            out = _eval_array(self.tree, arrays, self.text)
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        return np.broadcast_to(out, shape).astype(float, copy=True) if out.shape != shape else out


_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"x([1-9][0-9]*)$")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
#: One token: a number, a word, a whitespace character, an operator (with
#: the ``**`` and ``//`` Python reads as one) or any other character.
_TOKEN_RE = re.compile(rf"({_NUM_RE.pattern})|({_WORD_RE.pattern})|(\s)|\*\*|//|[-+*/^(),]|(.)")
_CALL_RE = re.compile(r" *\(")
_CLOSING_RE = re.compile(r"[ )]*")
_OPERAND = ("a number", "a variable", "a function", "'('")

#: The most levels an expression may nest, counted twice: its parentheses
#: with the top level as one, and the height of its tree.  Evaluation
#: recurses per level of the tree, and must not exhaust the stack.
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


def _python_text(source: str):
    """``source`` as parenthesized Python text, and the offsets in it of each ``*`` added for ``^``.

    Rejects characters outside the language, ``**``, ``//``, non-finite literals, ``(`` or ``,``
    before ``)``, and unbalanced or too deep parentheses.  Whitespace becomes spaces; an integer
    keeps its length but not the leading zeros Python rejects.
    """
    parts, added, depth, previous = ["("], [], 1, "("
    for match in _TOKEN_RE.finditer(source):
        token, at = match.group(), match.start()
        number, word, space, other = match.groups()
        if space:
            parts.append(" ")
            continue
        if other:
            raise ParseError(f"unexpected character {other!r}", at)
        if depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, at)
        if word and (source[at - 1 : at].isdecimal() or source[at - 1 : at] == "."):
            raise _unexpected(source, at)  # Python reads 0x10, 1_0 or 1j as one literal
        if token in ("**", "//"):  # the second character is the unexpected one
            raise ParseError("unexpected token", at + 1, _OPERAND)
        if token == ")" and previous in ("(", ","):
            raise ParseError("unexpected token", at, _OPERAND)
        depth += (token == "(") - (token == ")")
        if depth == 0:
            raise ParseError("unexpected token", at, ("end of input",))
        if number:
            if not math.isfinite(float(number)):
                raise ParseError(f"numeric literal {number!r} overflows", at)
            token = "".join(str(int(c)) if c.isdecimal() else c for c in number)  # in ASCII
            if token.isdigit():
                token = (token.lstrip("0") or "0").rjust(len(token))
        elif token == "^":
            token = "**"
            added.append(at + len(added) + 2)
        parts.append(token)
        previous = token
    if depth > 1:
        raise ParseError("unexpected token", len(source), ("')'",))
    return "".join(parts) + ")", added


def _unexpected(source: str, at: int) -> ParseError:
    """The error for a token at ``at`` that follows a complete operand."""
    inside = source.count("(", 0, at) > source.count(")", 0, at)
    return ParseError("unexpected token", at, ("')'",) if inside else ("end of input",))


def _operands(node, source, text, offset, dimension) -> list:
    """The operands of ``node``; :class:`ParseError` if the language lacks it."""
    at = offset(node.col_offset)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):  # True is no number
        return []
    if isinstance(node, ast.Name) and _VAR_RE.match(node.id):
        if int(node.id[1:]) > dimension:
            raise ParseError(f"variable '{node.id}' exceeds dimension {dimension}", at)
        return []
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return [node.operand]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return [node.left, node.right]
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Name) and _CALL_RE.match(text, func.end_col_offset):
        if func.id not in _FUNCTIONS:
            raise ParseError(f"unknown function '{func.id}'", at)
        if node.keywords:  # **x1, spelled ^x1; a *x1 fails as an operand
            raise ParseError("unexpected token", offset(node.keywords[0].col_offset), _OPERAND)
        arity, count = _FUNCTIONS[func.id].nin, len(node.args)
        if count != arity:
            arguments = "arguments" if arity > 1 else "argument"
            raise ParseError(f"function '{func.id}' takes {arity} {arguments}, got {count}", at)
        return node.args
    # Python syntax outside the language: an infix form (if, and, is, a comma,
    # a call of a non-name) fails after its first operand, a prefix form
    # (not, unary +, True, an unknown name) at its first token
    children = [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.expr)]
    first = min(children, key=lambda child: child.col_offset, default=node)
    if first is not node and not text[node.col_offset : first.col_offset].strip("( "):
        raise _unexpected(source, offset(_CLOSING_RE.match(text, first.end_col_offset).end()))
    word = _WORD_RE.match(source, at)
    if word:
        raise ParseError(f"unknown identifier '{word.group()}'", at)
    raise ParseError("unexpected token", at, _OPERAND)


def parse_expression(source: str, dimension: int) -> Expression:
    """Parse ``source`` into an :class:`Expression` over ``dimension`` variables.

    A source outside the language or deeper than :data:`MAX_DEPTH` raises :class:`ParseError`.
    """
    if dimension not in (2, 3):
        raise ExpressionError(f"dimension must be 2 or 3, got {dimension}")
    if not source.strip():
        raise ParseError("empty expression", 0)
    text, added = _python_text(source)

    def offset(position):  # in ``source``, of a position in ``text``
        return max(0, position - 1 - bisect.bisect_left(added, position))

    try:
        tree = ast.parse(text, mode="eval").body
    except SyntaxError as err:
        raise ParseError("invalid syntax", offset(err.offset - 1)) from None
    except (RecursionError, MemoryError):  # Python's own limits on nesting
        raise ParseError(_TOO_DEEP, 0) from None
    # level by level: nothing may recurse over the tree before its height is known
    level, height = [tree], 0
    while level:
        height += 1
        if height > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, offset(level[0].col_offset))
        level = [c for node in level for c in _operands(node, source, text, offset, dimension)]
    return Expression(source, dimension, text, tree)
