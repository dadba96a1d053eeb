"""Executable checks of the algebra behind the sigma_2 estimates.

Two facts carry the second-order bounds and are checked here numerically:

* the product-rule expansion of ``sigma_2`` of a stretched-gradient Jacobian
  into a Frobenius/trace part plus a ``beta``-weighted correction,
* the trace contraction relating ``[|H|^2 - (tr H)^2] |g|^2`` to ``|Hg|^2``
  and ``<Hg, g> tr H`` (an identity in 2-d, a one-sided bound in 3-d).

Each check works on raw gradient/Hessian values, so exact power-rule
derivatives of random polynomials can be fed in as the oracle, and so can
the values of :func:`pxlaplace.diffops.gradient` and
:func:`pxlaplace.diffops.hessian` of a sampled field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diffops import infinity_laplacian_values, sigma2_values, stretched_jacobian_values

__all__ = [
    "CheckReport",
    "polynomial_derivative_samples",
    "random_polynomial",
    "run_identity_suite",
    "sigma2_structure_residual",
    "trace_identity_residual_2d",
    "trace_inequality_slack_3d",
]


#: Every check passes when its worst residual is within this bound.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class CheckReport:
    name: str
    count: int
    worst: float
    tolerance: float
    passed: bool


def _pieces(grad, hess):
    g2 = np.sum(grad**2, axis=-1)
    frob = np.sum(hess**2, axis=(-2, -1))
    lap = np.trace(hess, axis1=-2, axis2=-1)
    hg = np.einsum("...ij,...j->...i", hess, grad)
    hg2 = np.sum(hg**2, axis=-1)
    inf_lap = infinity_laplacian_values(grad, hess)
    return g2, frob, lap, hg2, inf_lap


def sigma2_structure_residual(grad, hess, beta: float, eps: float) -> np.ndarray:
    """LHS - RHS of the sigma_2 product-rule identity, from node values.

    The left side is ``sigma_2`` of the product-rule Jacobian of
    ``(|g|^2+eps)^(beta/2) g``; the right side is
    ``(|g|^2+eps)^beta [|H|^2 - (tr H)^2] / 2
    + beta (|g|^2+eps)^(beta-1) [|Hg|^2 - tr H <Hg, g>]``.
    """
    if eps <= 0:
        raise ValueError("the structural identity check needs eps > 0")
    g2, frob, lap, hg2, inf_lap = _pieces(grad, hess)
    base = g2 + eps
    lhs = sigma2_values(stretched_jacobian_values(grad, hess, beta, eps))
    rhs = 0.5 * base**beta * (frob - lap**2) + beta * base ** (beta - 1.0) * (
        hg2 - lap * inf_lap
    )
    return lhs - rhs


def trace_identity_residual_2d(grad, hess) -> np.ndarray:
    """LHS - RHS of ``[|H|^2 - (tr H)^2]|g|^2 = 2|Hg|^2 - 2 <Hg,g> tr H`` (n = 2)."""
    g2, frob, lap, hg2, inf_lap = _pieces(grad, hess)
    return (frob - lap**2) * g2 - (2.0 * hg2 - 2.0 * inf_lap * lap)


def trace_inequality_slack_3d(grad, hess) -> np.ndarray:
    """LHS - RHS of the dimension >= 3 trace bound; nonnegative when it holds."""
    n = grad.shape[-1]
    g2, frob, lap, hg2, inf_lap = _pieces(grad, hess)
    lhs = (frob - lap**2) * g2**2
    rhs = (
        n / (n - 1.0) * hg2 * g2
        - (n - 2.0) / (n - 1.0) * lap**2 * g2**2
        - 2.0 / (n - 1.0) * inf_lap * lap * g2
        + (n - 2.0) / (n - 1.0) * (hg2 * g2 - inf_lap**2)
    )
    return lhs - rhs


# ---------------------------------------------------------------------------
# Random-polynomial suite (power-rule derivatives as the oracle)
# ---------------------------------------------------------------------------


def random_polynomial(rng, dimension: int, degree: int = 3) -> tuple:
    """Dense random polynomial with coefficient mass <= 1.

    Returns the exponents ``(K, dimension)`` of its monomials, all with total
    degree at most ``degree``, and their coefficients ``(K,)``.  The scaling
    keeps the identity terms at unit magnitude, so round-off in the residuals
    stays far below the 1e-9 acceptance tolerance.
    """
    exponents = np.array(
        [
            alpha
            for alpha in itertools.product(range(degree + 1), repeat=dimension)
            if sum(alpha) <= degree
        ]
    )
    coefficients = rng.uniform(-1.0, 1.0, len(exponents)) / len(exponents)
    return exponents, coefficients


def polynomial_derivative_samples(exponents, coefficients, points) -> tuple:
    """Exact gradient/Hessian values of ``sum_k c_k x^alpha_k`` at sample points.

    Takes the power rule on every monomial at once: returns arrays of shapes
    ``(N, n)`` and ``(N, n, n)`` for ``N`` points in ``n`` dimensions.
    """
    exponents = np.asarray(exponents)
    pts = np.asarray(points, dtype=float)
    n = pts.shape[-1]
    unit = np.eye(n, dtype=int)
    # powers[N, i, k] = x_i^k for every power a derivative can need
    powers = pts[:, :, None] ** np.arange(exponents.max() + 1.0)

    def partial(order):
        # d^order x^alpha = perm(alpha, order) x^(alpha - order); perm is 0
        # where order exceeds alpha, which also zeroes the clipped power
        factors = [math.prod(map(math.perm, alpha, order)) for alpha in exponents.tolist()]
        monomials = np.prod(powers[:, np.arange(n), np.maximum(exponents - order, 0)], axis=-1)
        return np.sum(monomials * (coefficients * np.array(factors)), axis=-1)

    grad = np.stack([partial(unit[i]) for i in range(n)], axis=-1)
    hess = np.empty(grad.shape + (n,))
    for i in range(n):
        for j in range(i, n):
            hess[:, i, j] = hess[:, j, i] = partial(unit[i] + unit[j])
    return grad, hess


def run_identity_suite(seed: int = 0, count: int = 100) -> list:
    """Check the structural identities on random cubics with exact derivatives.

    ``count`` polynomials (alternating between 2-d and 3-d) feed the sigma_2
    structure residual with random ``beta`` in (-0.9, 3) and ``eps`` in
    (0.1, 2); the 2-d cases also exercise the trace identity.  The 3-d trace
    inequality is sampled at ten thousand further points.  Each check
    passes within :data:`TOLERANCE`.  A ``count`` below 1 would let the
    checks pass over nothing and raises :class:`ValueError`.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    points_per_poly = 120
    worst_structure = 0.0
    worst_trace = 0.0
    trace_count = 0
    for k in range(count):
        dimension = 2 if k % 2 == 0 else 3
        polynomial = random_polynomial(rng, dimension)
        beta = float(rng.uniform(-0.9, 3.0))
        eps = float(rng.uniform(0.1, 2.0))
        pts = rng.uniform(-1.0, 1.0, size=(points_per_poly, dimension))
        grad, hess = polynomial_derivative_samples(*polynomial, pts)
        residual = sigma2_structure_residual(grad, hess, beta, eps)
        worst_structure = max(worst_structure, float(np.abs(residual).max()))
        if dimension == 2:
            trace = trace_identity_residual_2d(grad, hess)
            worst_trace = max(worst_trace, float(np.abs(trace).max()))
            trace_count += points_per_poly

    slack_points = 10_000
    batch = 500
    worst_slack = np.inf
    for _ in range(slack_points // batch):
        polynomial = random_polynomial(rng, 3)
        pts = rng.uniform(-1.0, 1.0, size=(batch, 3))
        grad, hess = polynomial_derivative_samples(*polynomial, pts)
        worst_slack = min(worst_slack, float(trace_inequality_slack_3d(grad, hess).min()))

    checks = (  # name, samples, worst value, and the value that must not pass TOLERANCE
        ("sigma2-structure", count * points_per_poly, worst_structure, worst_structure),
        ("trace-identity-2d", trace_count, worst_trace, worst_trace),
        ("trace-inequality-3d", slack_points, worst_slack, -worst_slack),
    )
    return [
        CheckReport(name, samples, worst, TOLERANCE, excess <= TOLERANCE)
        for name, samples, worst, excess in checks
    ]
