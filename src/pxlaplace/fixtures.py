"""Canonical regression fixture shared by the audits and the test suite.

One problem on the unit square with a spatially varying exponent and saddle
boundary data; solved along a fixed eps schedule, it exercises every audit.
The frozen Gehring budget below was recorded at the first verified run of
this exact configuration and pins the regression.
"""

from __future__ import annotations

from .expressions import parse_expression
from .fields import BallRegion, GridSpec
from .solver import ProblemSpec

__all__ = [
    "FIXTURE_BALL_SEED",
    "FIXTURE_SCHEDULE",
    "REGRESSION_GEHRING_BUDGET",
    "caccioppoli_balls",
    "fixture_grid",
    "fixture_problem",
]

#: eps schedule of the canonical continuation run.
FIXTURE_SCHEDULE = (0.1, 0.03, 0.01, 0.003, 0.001, 0.0003, 0.0001)

#: Budget constant for the delta search on the canonical run, frozen at the
#: first verified run (worst delta=0.5 ratio 2.6904 times a 1.25 safety
#: factor).
REGRESSION_GEHRING_BUDGET = 3.36

#: Seed of the jittered ball lattice used by the canonical delta search.
FIXTURE_BALL_SEED = 2024


def fixture_grid(points: int = 65) -> GridSpec:
    return GridSpec(lo=(0.0, 0.0), hi=(1.0, 1.0), shape=(points, points))


def fixture_problem(points: int = 65, eps: float = 1e-2) -> ProblemSpec:
    """Unit-square problem: p = 2 + sin(x1)/2, f = 0, saddle boundary data."""
    return ProblemSpec(
        grid=fixture_grid(points),
        p_expr=parse_expression("2 + 0.5*sin(x1)", 2),
        f_expr=parse_expression("0", 2),
        boundary_expr=parse_expression("x1^2 - x2^2", 2),
        eps=eps,
    )


def caccioppoli_balls() -> list:
    """Five concentric balls, radii 0.1 .. 0.3, centered in the unit square."""
    return [BallRegion((0.5, 0.5), r) for r in (0.1, 0.15, 0.2, 0.25, 0.3)]
