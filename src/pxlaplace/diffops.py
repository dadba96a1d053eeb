"""Discrete differential operators and the stretched-gradient calculus.

Gradients use second-order central differences (one-sided second order at
the box boundary); Hessians pair the compact 3-point second difference on
the diagonal with the symmetric 4-point cross stencil off it, so they are
exact on quadratics.  Both are computed once per field and stored on it.
The interior central difference alone, which the solver's frozen
coefficient and the Caccioppoli cutoff slope read, is
:func:`_central_difference`.  Jacobians of stretched gradients are formed
with the product rule from the discrete gradient and Hessian, which keeps
the algebraic sigma_2 identities exact at the node level; ``sigma_2`` and
the squared Frobenius norm are their matrix invariants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .fields import MatrixField, ScalarField, VectorField

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


def _shrunk_valid(field) -> np.ndarray:
    """Validity after one stencil application: box-erode and drop the boundary."""
    grid = field.grid
    eroded = ndimage.minimum_filter(field.valid, size=3, mode="constant", cval=False)
    return eroded & grid.interior_mask()


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


@_once_per_field
def gradient(v: ScalarField) -> VectorField:
    """Central differences inside, one-sided second order on the boundary."""
    grid = v.grid
    comps = np.gradient(v.values, *grid.spacing, edge_order=2)
    return VectorField(grid, np.stack(comps, axis=-1), _shrunk_valid(v))


def _central_difference(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """``(v[i+1] - v[i-1]) / 2h`` along ``axis`` on the interior nodes: the
    interior of ``np.gradient``, bitwise."""
    ahead = [slice(1, -1)] * values.ndim
    behind = list(ahead)
    ahead[axis], behind[axis] = slice(2, None), slice(None, -2)
    return (values[tuple(ahead)] - values[tuple(behind)]) / (2.0 * h)


def _second_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    a = np.moveaxis(values, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / h**2
    out[0] = (2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]) / h**2
    out[-1] = (2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]) / h**2
    return np.moveaxis(out, 0, axis)


@_once_per_field
def hessian(v: ScalarField) -> MatrixField:
    """Symmetric discrete Hessian, exact on quadratics."""
    grid = v.grid
    n = grid.dimension
    h = grid.spacing
    out = np.empty(grid.shape + (n, n))
    for i in range(n):
        out[..., i, i] = _second_diff(v.values, i, h[i])
    for i in range(n):
        for j in range(i + 1, n):
            dj = np.gradient(v.values, h[j], axis=j, edge_order=2)
            out[..., i, j] = out[..., j, i] = np.gradient(dj, h[i], axis=i, edge_order=2)
    return MatrixField(grid, out, _shrunk_valid(v))


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
