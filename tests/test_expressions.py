import operator

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pxlaplace.expressions import (
    DomainError,
    MAX_DEPTH,
    ExpressionError,
    ParseError,
    parse_expression,
)
from pxlaplace.identities import random_polynomial


def at(expr, point):
    """The value of ``expr`` at one point: one 0-d coordinate per axis."""
    return float(expr.evaluate_array(point))


def polynomial_source(exponents, coefficients):
    """Source text of the polynomial ``sum_k c_k x^alpha_k``."""
    return " + ".join(
        repr(float(c)) + "".join(f"*x{i + 1}^{a}" for i, a in enumerate(alpha) if a)
        for c, alpha in zip(coefficients, exponents)
    )


#: Sources nesting ``k`` levels deep: ``k - 1`` parentheses around the top
#: level, or a tree ``k`` levels high.
DEPTH_SHAPES = {
    "parentheses": lambda k: "(" * (k - 1) + "x1" + ")" * (k - 1),
    "sum": lambda k: " + ".join(["x1"] * k),
    "signs": lambda k: "-" * (k - 1) + "x1",
    "powers": lambda k: "1^" * (k - 1) + "x1",
}


# ---------------------------------------------------------------------------
# A sympy oracle over generated expression trees.  A tree is a nested tuple:
# ("var", i), ("num", value), ("neg", t), ("bin", op, t, t) or
# ("call", name, t); it is printed as fully parenthesized source for the
# parser and built independently as an unevaluated sympy expression.
# ---------------------------------------------------------------------------

SYMBOLS = sympy.symbols("x1 x2")
SYMPY_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}
SYMPY_FUNCTIONS = {
    "sin": sympy.sin,
    "cos": sympy.cos,
    "exp": sympy.exp,
    "log": sympy.log,
    "sqrt": sympy.sqrt,
    "abs": sympy.Abs,
}
# columns are points (x1, x2); zeros put poles and log/sqrt boundaries in reach
ORACLE_POINTS = np.concatenate(
    [np.random.default_rng(5).uniform(-2.0, 2.0, size=(2, 12)), [[0.0, 1.0, -1.5], [0.5, 0.0, 0.0]]],
    axis=1,
)
ORACLE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def trees(functions):
    leaves = st.one_of(
        st.tuples(st.just("var"), st.integers(0, 1)),
        st.tuples(st.just("num"), st.sampled_from([0.5, 1.5, 2.0, 3.0])),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(st.just("neg"), children),
            st.tuples(st.just("bin"), st.sampled_from(sorted(SYMPY_OPERATORS)), children, children),
            st.tuples(st.just("call"), st.sampled_from(functions), children),
        ),
        max_leaves=6,
    )


def tree_source(tree):
    kind = tree[0]
    if kind == "var":
        return f"x{tree[1] + 1}"
    if kind == "num":
        return repr(tree[1])
    if kind == "neg":
        return f"-({tree_source(tree[1])})"
    if kind == "bin":
        return f"({tree_source(tree[2])}){tree[1]}({tree_source(tree[3])})"
    return f"{tree[1]}({tree_source(tree[2])})"


def tree_sympy(tree):
    """Unevaluated sympy expression of the tree (call under ``sympy.evaluate(False)``)."""
    kind = tree[0]
    if kind == "var":
        return SYMBOLS[tree[1]]
    if kind == "num":
        return sympy.Float(tree[1])
    if kind == "neg":
        return -tree_sympy(tree[1])
    if kind == "bin":
        return SYMPY_OPERATORS[tree[1]](tree_sympy(tree[2]), tree_sympy(tree[3]))
    return SYMPY_FUNCTIONS[tree[1]](tree_sympy(tree[2]))


def operations(tree):
    """Every operator and function sub-tree, innermost first."""
    if tree[0] in ("var", "num"):
        return []
    if tree[0] == "neg":
        return operations(tree[1])
    return [sub for child in tree[2:] for sub in operations(child)] + [tree]


def sympy_oracle(tree):
    """``sympy.lambdify`` values of the whole tree and of each operation.

    Variable-free operations come back as Python numbers, complex for a
    negative base under a fractional power.
    """
    with sympy.evaluate(False):
        exprs = [tree_sympy(t) for t in [tree] + operations(tree)]
    function = sympy.lambdify(SYMBOLS, exprs, "numpy")
    with np.errstate(all="ignore"):
        values = [np.broadcast_to(v, ORACLE_POINTS[0].shape) for v in function(*ORACLE_POINTS)]
    return values[0], values[1:]


class TestParsing:
    def test_constant_literal(self):
        e = parse_expression("2", 2)
        assert at(e, (5.0, -3.0)) == 2.0

    def test_saddle_grammar(self):
        e = parse_expression("x1^2 - x2^2", 2)
        assert at(e, (1.0, 2.0)) == -3.0

    def test_syntax_error_offset(self):
        source = "2 + (p-?)"
        with pytest.raises(ParseError) as err:
            parse_expression(source, 2)
        assert err.value.position == source.index("?")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expression("2 + foo", 2)

    def test_variable_beyond_dimension(self):
        with pytest.raises(ParseError, match="exceeds dimension"):
            parse_expression("x3 + 1", 2)
        parse_expression("x3 + 1", 3)  # fine in 3-d

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="takes 1 argument"):
            parse_expression("sin(x1, x2)", 2)
        with pytest.raises(ParseError, match="takes 2 arguments"):
            parse_expression("min(x1)", 2)

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_expression("tan(x1)", 2)

    def test_non_finite_literal_rejected(self):
        for source in ("1e999", "sin(1e999)", "x1 + 3e400*x2"):
            with pytest.raises(ParseError, match="overflows") as err:
                parse_expression(source, 2)
            literal = source[err.value.position :]
            assert literal.startswith(("1e999", "3e400"))
        assert at(parse_expression("1e-999", 2), (0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("nest", DEPTH_SHAPES.values(), ids=DEPTH_SHAPES.keys())
    def test_depth_bound(self, nest):
        # the deepest accepted expression still evaluates
        assert np.isfinite(at(parse_expression(nest(MAX_DEPTH), 2), (1.0, 0.0)))
        with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH} levels"):
            parse_expression(nest(MAX_DEPTH + 1), 2)

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_expression("   ", 2)

    def test_bad_dimension(self):
        with pytest.raises(ExpressionError):
            parse_expression("x1", 4)

    def test_precedence(self):
        assert at(parse_expression("2+3*4^2", 2), (0.0, 0.0)) == 50.0

    def test_unary_minus_binds_looser_than_power(self):
        assert at(parse_expression("-2^2", 2), (0.0, 0.0)) == -4.0

    def test_power_right_associative(self):
        assert at(parse_expression("2^3^2", 2), (0.0, 0.0)) == 512.0

    def test_unary_minus_tighter_than_binary(self):
        # 3 - -2^2 == 3 - (-(2^2)) == 7
        assert at(parse_expression("3 - -2^2", 2), (0.0, 0.0)) == 7.0

    def test_parsing_deterministic(self):
        a = parse_expression("sin(x1)*exp(x2) - 3/x1", 2)
        b = parse_expression("sin(x1)*exp(x2) - 3/x1", 2)
        assert a == b


#: The parser's verdict on sources near the edges of the language, pinned at
#: the point (x1, x2) = (0.7, 0.3): an accepted source with its value, bit
#: for bit, and a rejected one with its error class and offset.
PARITY_POINT = (0.7, 0.3)
PARITY = [
    ("01", 1.0),
    ("007*x1", 4.8999999999999995),
    (" x1", 0.7),
    ("x1\n+1", 1.7),
    ("-2^2", -4.0),
    ("2^-x1", 0.6155722066724582),
    ("3 - -2^2", 7.0),
    ("x1^2 - x2^2", 0.3999999999999999),
    ("-x1^2", -0.48999999999999994),
    ("2 + 3*x1 - x2/4", 4.0249999999999995),
    ("sin(x1)*cos(x2) + exp(x1*x2)", 1.8491227235150167),
    ("min(x1, max(x2, 0.5))", 0.5),
    ("-(x1 + x2)^3", -1.0),
    ("1/(1 + x1^2)", 0.6711409395973155),
    *(
        pytest.param(shape(MAX_DEPTH), value, id=f"{name}-{MAX_DEPTH}")
        for (name, shape), value in zip(DEPTH_SHAPES.items(), (0.7, 70.00000000000013, -0.7, 1.0))
    ),
    # 50 parentheses and a tree 51 levels high: within both bounds
    pytest.param("-(" * 50 + "x1" + ")" * 50, 0.7, id="signs-in-parentheses-50"),
    ("x1**2", (ParseError, 3)),
    ("+x1", (ParseError, 0)),
    ("0x10", (ParseError, 1)),
    ("1_0", (ParseError, 1)),
    ("1j", (ParseError, 1)),
    ("True", (ParseError, 0)),
    ("x1 if x2 else 1", (ParseError, 3)),
    ("not x1", (ParseError, 0)),
    ("x1 and x2", (ParseError, 3)),
    ("x1 is x2", (ParseError, 3)),
    ("max(x1, x2,)", (ParseError, 11)),
    ("x1.real", (ParseError, 2)),
    ("x1 # c", (ParseError, 3)),
    ("\uff581", (ParseError, 0)),  # a full-width x
    ("x1 (2)", (ParseError, 0)),
    ("sin()", (ParseError, 4)),
    ("()", (ParseError, 1)),
    ("2 +", (ParseError, 3)),
    ("x1^^2", (ParseError, 3)),
    *(
        pytest.param(shape(MAX_DEPTH + 1), (ParseError, offset), id=f"{name}-{MAX_DEPTH + 1}")
        for (name, shape), offset in zip(DEPTH_SHAPES.items(), (100, 0, 100, 198))
    ),
    pytest.param(" + ".join(["x1"] * 5000), (ParseError, 0), id="sum-5000"),
    pytest.param("-" * 100000 + "x1", (ParseError, 0), id="signs-100000"),
]


@pytest.mark.parametrize("source, outcome", PARITY)
def test_parser_parity(source, outcome):
    if isinstance(outcome, float):
        assert at(parse_expression(source, 2), PARITY_POINT) == outcome
        return
    kind, offset = outcome
    with pytest.raises(kind) as err:
        parse_expression(source, 2)
    assert err.value.position == offset


class TestEvaluation:
    def test_abs(self):
        assert at(parse_expression("abs(x1)", 2), (-4.0, 0.0)) == 4.0

    def test_exp_identity(self):
        e = parse_expression("exp(0*x1)", 2)
        for point in [(0.3, 1.0), (-2.0, 5.0)]:
            assert at(e, point) == 1.0

    def test_min_max(self):
        assert at(parse_expression("min(x1, x2)", 2), (2.0, -1.0)) == -1.0
        assert at(parse_expression("max(x1, 0)", 2), (-2.0, 0.0)) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError, match="division by zero"):
            at(parse_expression("1/x1", 2), (0.0, 1.0))

    def test_log_of_negative(self):
        with pytest.raises(DomainError, match="log"):
            at(parse_expression("log(x1)", 2), (-1.0, 0.0))

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError, match="sqrt"):
            at(parse_expression("sqrt(x1)", 2), (-1.0, 0.0))

    def test_domain_error_names_subexpression(self):
        with pytest.raises(DomainError, match="log\\(x2\\)"):
            at(parse_expression("x1 + log(x2)", 2), (1.0, -1.0))

    def test_point_dimension_checked(self):
        with pytest.raises(ExpressionError, match="1 coordinate arrays, expression expects 2"):
            parse_expression("x1", 2).evaluate_array((1.0,))

    @ORACLE_SETTINGS
    @given(trees(sorted(SYMPY_FUNCTIONS)))
    def test_array_matches_sympy_oracle(self, tree):
        # one domain rule: reject exactly when some operation is non-finite
        # at some point, and agree to a few ulps otherwise
        expr = parse_expression(tree_source(tree), 2)
        whole, parts = sympy_oracle(tree)
        if any(np.iscomplexobj(part) or not np.isfinite(part).all() for part in parts):
            with pytest.raises(DomainError):
                expr.evaluate_array(ORACLE_POINTS)
            return
        values = expr.evaluate_array(ORACLE_POINTS)
        assert np.all(np.abs(values - whole) <= 4.0 * np.spacing(np.abs(whole)))

    def test_point_and_array_share_the_domain_rule(self):
        e = parse_expression("x1*1e308 + x2*1e308", 2)
        with pytest.raises(DomainError, match="non-finite value") as point_err:
            at(e, (1.0, 1.0))
        with pytest.raises(DomainError, match="non-finite value") as array_err:
            e.evaluate_array([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        assert str(point_err.value) == str(array_err.value)
        assert array_err.value.mask.tolist() == [True, False]

    def test_domain_error_mask_flags_offending_entries(self):
        xs = np.array([2.0, -1.0, 0.5, 0.0])
        with pytest.raises(DomainError, match="log") as err:
            parse_expression("x2 + log(x1)", 2).evaluate_array([xs, 1.0])
        assert err.value.mask.tolist() == [False, True, False, True]

    def test_array_domain_error(self):
        with pytest.raises(DomainError):
            parse_expression("log(x1)", 2).evaluate_array([np.array([1.0, -1.0]), np.zeros(2)])


class TestRoundTrip:
    CASES = [
        "x1^2 - x2^2",
        "-x1^2",
        "2 + 3*x1 - x2/4",
        "sin(x1)*cos(x2) + exp(x1*x2)",
        "min(x1, max(x2, 0.5))",
        "-(x1 + x2)^3",
        "1/(1 + x1^2)",
        "2^-x1",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_print_parse_evaluates_identically(self, source):
        e = parse_expression(source, 2)
        back = parse_expression(str(e), 2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            point = tuple(rng.uniform(-1.0, 1.0, 2))
            assert at(back, point) == at(e, point)

    def test_random_polynomial_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(2, 4))
            exponents, coefficients = random_polynomial(rng, dim, degree=4)
            e = parse_expression(polynomial_source(exponents, coefficients), dim)
            back = parse_expression(str(e), dim)
            point = tuple(rng.uniform(-1.0, 1.0, dim))
            assert at(back, point) == at(e, point)
            table = np.sum(coefficients * np.prod(np.array(point) ** exponents, axis=-1))
            assert at(e, point) == pytest.approx(table, abs=1e-15)
