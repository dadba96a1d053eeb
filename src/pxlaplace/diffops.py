"""Discrete differential operators and the stretched-gradient calculus.

Every difference formula of the lab lives here.  On node arrays,
:func:`_central_difference` and :func:`_stencil_hessian` (the 3-point
second difference on the diagonal, the 4-point cross difference off it,
exact on quadratics) return the interior block; the solver's residual and
Jacobian read them.  :func:`gradient` and :func:`hessian` lay the same
values out on a field's full grid, derivative axes last, with 0 on the
Dirichlet nodes, where no central stencil fits: read-only arrays, computed
once per field, that callers read on the interior nodes.  So the audits
differentiate with the operator the solver solved.  Jacobians of stretched
gradients are formed with the product rule from the discrete gradient and
Hessian, which keeps the algebraic sigma_2 identities exact at the node
level; ``sigma_2`` and the squared Frobenius norm are their matrix
invariants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import ScalarField, _prepare

__all__ = [
    "StretchParams",
    "frobenius_sq",
    "gradient",
    "hessian",
    "infinity_laplacian_values",
    "sigma2_values",
    "stretched_gradient_values",
    "stretched_jacobian_values",
]


@dataclass(frozen=True)
class StretchParams:
    """Exponent and regularization of the stretch ``(|Dv|^2 + eps)^(beta/2) Dv``."""

    beta: float
    eps: float = 0.0

    def __post_init__(self):
        if not self.beta > -1.0:
            raise ValueError(f"stretch exponent must exceed -1, got {self.beta}")
        if self.eps < 0.0:
            raise ValueError(f"regularization must be nonnegative, got {self.eps}")


def _once_per_field(compute):
    """Store ``compute(v)`` on the field ``v`` and return it on later calls.

    Fields are frozen and their arrays read-only, so the stored result stays
    exact; recomputing it would give the same values.
    """
    name = "_" + compute.__name__

    @functools.wraps(compute)
    def stored(v):
        result = v.__dict__.get(name)
        if result is None:
            result = compute(v)
            object.__setattr__(v, name, result)
        return result

    return stored


def _shifted(v: np.ndarray, steps: Optional[dict] = None) -> np.ndarray:
    """The interior block of ``v``, moved ``steps[k]`` (-1 or 1) nodes along
    each axis ``k`` in ``steps``; a view."""
    offsets = [(steps or {}).get(k, 0) for k in range(v.ndim)]
    return v[tuple(slice(1 + o, m - 1 + o) for o, m in zip(offsets, v.shape))]


def _central_difference(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """``(v[i+1] - v[i-1]) / 2h`` along ``axis`` on the interior nodes."""
    return (_shifted(values, {axis: 1}) - _shifted(values, {axis: -1})) / (2.0 * h)


def _stencil_hessian(v: np.ndarray, spacing: tuple) -> dict:
    """The stencil Hessian ``D^2_h v`` on the interior nodes.

    ``hess[i, j]`` (``i <= j``) holds the 3-point second difference along
    axis ``i`` (``i == j``) or the 4-point cross difference of axes ``i``
    and ``j``: the differences the solver's stencil applies.
    """
    n = v.ndim
    h = spacing
    centre = _shifted(v)
    hess = {}
    for i in range(n):
        second = _shifted(v, {i: 1}) - 2.0 * centre + _shifted(v, {i: -1})
        hess[i, i] = second / h[i] ** 2
        for j in range(i + 1, n):
            cross = (
                _shifted(v, {i: 1, j: 1})
                + _shifted(v, {i: -1, j: -1})
                - _shifted(v, {i: 1, j: -1})
                - _shifted(v, {i: -1, j: 1})
            )
            hess[i, j] = cross / (4.0 * h[i] * h[j])
    return hess


@_once_per_field
def gradient(v: ScalarField) -> np.ndarray:
    """Central differences on the interior nodes, 0 on the Dirichlet nodes.

    Shape ``grid.shape + (n,)``; a non-finite entry raises :class:`FieldError`.
    """
    grid = v.grid
    n = grid.dimension
    out = np.zeros(grid.shape + (n,))
    for i in range(n):
        _shifted(out[..., i])[...] = _central_difference(v.values, i, grid.spacing[i])
    return _prepare(out, grid.shape + (n,), "gradient")


@_once_per_field
def hessian(v: ScalarField) -> np.ndarray:
    """The symmetric stencil Hessian on the interior nodes, 0 on the
    Dirichlet nodes; exact on quadratics.

    Shape ``grid.shape + (n, n)``; a non-finite entry raises :class:`FieldError`.
    """
    grid = v.grid
    n = grid.dimension
    out = np.zeros(grid.shape + (n, n))
    for (i, j), block in _stencil_hessian(v.values, grid.spacing).items():
        _shifted(out[..., i, j])[...] = block
        _shifted(out[..., j, i])[...] = block
    return _prepare(out, grid.shape + (n, n), "Hessian")


def infinity_laplacian_values(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """The quadratic form ``<H g, g>`` per node."""
    return np.einsum("...ij,...i,...j->...", hess, grad, grad)


# ---------------------------------------------------------------------------
# Stretched gradient and its product-rule Jacobian
# ---------------------------------------------------------------------------


def _check_stretch(beta: float, eps: float):
    if eps == 0.0 and beta < 0.0:
        raise ValueError("eps = 0 requires a nonnegative stretch exponent")
    if eps < 0.0:
        raise ValueError("regularization must be nonnegative")


def stretched_gradient_values(grad: np.ndarray, beta: float, eps: float) -> np.ndarray:
    _check_stretch(beta, eps)
    base = np.sum(grad**2, axis=-1) + eps
    factor = np.power(base, beta / 2.0, out=np.zeros_like(base), where=base > 0.0)
    return factor[..., None] * grad


def stretched_jacobian_values(grad: np.ndarray, hess: np.ndarray, beta: float, eps: float) -> np.ndarray:
    """Product-rule Jacobian of the stretched gradient from node values.

    Entry (a, b) is ``d_b [ (|g|^2+eps)^(beta/2) g_a ]`` evaluated exactly from
    the supplied gradient/Hessian values:
    ``s * (H + beta * g (Hg)^T / (|g|^2+eps))`` with ``s = (|g|^2+eps)^(beta/2)``.
    """
    _check_stretch(beta, eps)
    base = np.sum(grad**2, axis=-1) + eps
    if beta == 0.0:
        return hess.copy()
    s = np.power(base, beta / 2.0, out=np.zeros_like(base), where=base > 0.0)
    hg = np.einsum("...ij,...j->...i", hess, grad)
    outer = grad[..., :, None] * hg[..., None, :]
    rank1 = np.zeros_like(outer)
    np.divide(beta * outer, base[..., None, None], out=rank1, where=base[..., None, None] > 0.0)
    return s[..., None, None] * (hess + rank1)


# ---------------------------------------------------------------------------
# Matrix invariants
# ---------------------------------------------------------------------------


def sigma2_values(matrices: np.ndarray) -> np.ndarray:
    """Negated sum of 2x2 principal minors, per the pair-sum definition."""
    n = matrices.shape[-1]
    if n not in (2, 3):
        raise ValueError(f"sigma_2 is defined for 2x2 and 3x3 matrices, got {n}x{n}")
    m = matrices
    out = np.zeros(m.shape[:-2])
    for i in range(n):
        for j in range(i + 1, n):
            out -= m[..., i, i] * m[..., j, j] - m[..., i, j] * m[..., j, i]
    return out


def frobenius_sq(matrices: np.ndarray) -> np.ndarray:
    return np.sum(np.asarray(matrices) ** 2, axis=(-2, -1))
