"""The canonical fixture problem that the tests solve.

One problem on the unit square with a spatially varying exponent and saddle
boundary data; with the eps schedule of :mod:`pxlaplace.fixtures` it
exercises every audit.
"""

from pxlaplace.expressions import parse_expression
from pxlaplace.fields import GridSpec
from pxlaplace.solver import ProblemSpec


def fixture_problem(points: int = 65, eps: float = 1e-2) -> ProblemSpec:
    """Unit-square problem: p = 2 + sin(x1)/2, f = 0, saddle boundary data."""
    return ProblemSpec(
        grid=GridSpec(lo=(0.0, 0.0), hi=(1.0, 1.0), shape=(points, points)),
        p_expr=parse_expression("2 + 0.5*sin(x1)", 2),
        f_expr=parse_expression("0", 2),
        boundary_expr=parse_expression("x1^2 - x2^2", 2),
        eps=eps,
    )
