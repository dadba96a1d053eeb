"""Manufactured right-hand sides for the solver and audit tests, by sympy.

A solve with ``f = manufactured_rhs(u, p, eps)`` and boundary data ``u``
admits ``u`` as the exact continuum solution of
``-A(x) : D^2 u + u = f + u``; ``include_reaction=True`` adds ``u`` and
gives the data ``g`` of that zeroth-order form directly.
"""

import sympy

from pxlaplace.expressions import Expression, parse_expression


def manufactured_rhs(
    u: Expression, p: Expression, eps: float, include_reaction: bool = False
) -> Expression:
    """``-lap(u) - (p-2) inf_lap(u)/(|Du|^2 + eps)``, plus ``u`` on request.

    ``u`` and ``p`` are read back from their printed source, differentiated
    exactly by sympy, and the result is parsed from sympy's printed form.
    """
    assert u.dimension == p.dimension
    n = u.dimension
    x = sympy.symbols(f"x1:{n + 1}")
    names = {str(symbol): symbol for symbol in x}
    su, sp = (sympy.sympify(str(e), locals=names, rational=True) for e in (u, p))
    grad = [sympy.diff(su, xi) for xi in x]
    hess = [[sympy.diff(gi, xj) for xj in x] for gi in grad]
    lap = sum(hess[i][i] for i in range(n))
    inf_lap = sum(hess[i][j] * grad[i] * grad[j] for i in range(n) for j in range(n))
    norm2 = sum(gi**2 for gi in grad)
    rhs = -lap - (sp - 2) * inf_lap / (norm2 + sympy.Rational(repr(eps)))
    if include_reaction:
        rhs += su
    return parse_expression(str(rhs).replace("**", "^"), n)
