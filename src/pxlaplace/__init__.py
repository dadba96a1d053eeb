"""Numerical verification lab for regularized normalized p(x)-Laplace problems.

Submodules (import them directly; the package root imports none of them):

- ``expressions``: parsed arithmetic expressions and their vectorized evaluation
- ``fields``: grids, sampled fields, mollification, balls, cutoffs
- ``diffops``: discrete derivatives and the stretched-gradient calculus
- ``constants``: explicit estimate constants
- ``identities``: checkers for the underlying algebraic identities, fed
  power-rule derivatives of random polynomials
- ``solver``: Newton-type solver and eps continuation
- ``audits``: pointwise/integral estimate audits and the delta search
- ``config``: run configuration files, loaded and validated
- ``fixtures``: data of the canonical regression fixture and its frozen budget
- ``cli``: configuration-driven command line front end
"""

__version__ = "0.1.0"

__all__ = [
    "audits",
    "cli",
    "config",
    "constants",
    "diffops",
    "expressions",
    "fields",
    "fixtures",
    "identities",
    "solver",
]
