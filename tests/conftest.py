import time

import pytest

from pxlaplace.fixtures import FIXTURE_SCHEDULE
from pxlaplace.solver import build_problem, epsilon_continuation

from canonical import fixture_problem


@pytest.fixture(scope="session")
def canonical_run():
    """The canonical regression continuation (65x65, full eps schedule).

    Returns ``(continuation, build_seconds)`` so acceptance tests can charge
    the shared solve time against their runtime budgets.
    """
    start = time.monotonic()
    continuation = epsilon_continuation(build_problem(fixture_problem(points=65)), FIXTURE_SCHEDULE)
    return continuation, time.monotonic() - start
