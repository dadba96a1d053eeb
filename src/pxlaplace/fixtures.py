"""Data of the canonical regression fixture, shared by the configuration
loader, the benchmark and the test suite.

The fixture is one problem on the unit square, ``p = 2 + sin(x1)/2``,
``f = 0`` and saddle boundary data ``x1^2 - x2^2``, solved along the eps
schedule below.  The frozen Gehring budget below was recorded at the first
verified run of this exact configuration and pins the regression.
"""

from __future__ import annotations

from .fields import BallRegion

__all__ = [
    "FIXTURE_BALL_SEED",
    "FIXTURE_SCHEDULE",
    "REGRESSION_GEHRING_BUDGET",
    "caccioppoli_balls",
]

#: eps schedule of the canonical continuation run.
FIXTURE_SCHEDULE = (0.1, 0.03, 0.01, 0.003, 0.001, 0.0003, 0.0001)

#: Budget constant for the delta search on the canonical run, frozen at the
#: first verified run (worst delta=0.5 ratio 2.6904 times a 1.25 safety
#: factor).
REGRESSION_GEHRING_BUDGET = 3.36

#: Seed of the jittered ball lattice used by the canonical delta search.
FIXTURE_BALL_SEED = 2024


def caccioppoli_balls() -> list:
    """Five concentric balls, radii 0.1 .. 0.3, centered in the unit square."""
    return [BallRegion((0.5, 0.5), r) for r in (0.1, 0.15, 0.2, 0.25, 0.3)]
