"""Discrete differential operators and the stretched-gradient calculus.

Every difference formula of the lab lives here, on one layout: the *flat
range* of the raveled grid (:func:`_flat_range`), the positions
``[s, N - s)``, with ``s`` the sum of the strides, which hold every
interior node.  Each neighbour is the same range moved by a fixed flat
offset, a contiguous slice.  The range also holds Dirichlet positions,
where the offsets wrap across a boundary row; the kernels set their values
there to 0.  :func:`_central_difference` and :func:`_stencil_hessian` (the
3-point second difference on the diagonal, the 4-point cross difference
off it, exact on quadratics) are the kernels.  The solver's sweeps read
them through :func:`_stencil_derivatives`, the Caccioppoli audit its
cutoff slope on the range of its ball's box, and :func:`gradient` and
:func:`hessian` write their values into a field's full grid, derivative
axes last, with 0 on the Dirichlet nodes, where no central stencil fits:
read-only arrays, kept in the field's store (:func:`fields.stored`), that
callers read on the interior nodes.  So the audits differentiate with the
operator the solver solved.  Jacobians of stretched gradients are formed
with the product rule from the discrete gradient and Hessian, which keeps
the algebraic sigma_2 identities exact at the node level; ``sigma_2`` and
the squared Frobenius norm are their matrix invariants.

The stretched-gradient calculus takes and returns stacked arrays
(components last) but computes per gradient component and per Hessian
entry, on whole-grid arrays, with no ``np.einsum`` and no reduction over a
trailing axis.  Its sums add their terms in the order numpy's stacked
formulas did, so every value keeps its bits: ``|g|^2`` and every sum of
two or three terms in sequence; ``H g`` and ``<H g, g>`` from +0.0, as
``np.einsum`` accumulates, with ``(H g)_i = (H_i0 g_0 + H_i2 g_2) + H_i1 g_1``
in 3-d; and ``|M|^2`` of a 3x3 matrix in numpy's pairwise order
``(((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)))+a8`` over its row-major entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .fields import ScalarField, _prepare, stored

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
    """``compute(v)``, kept in the store of the field ``v`` under its name."""

    @functools.wraps(compute)
    def once(v):
        return stored(v, compute.__name__, lambda: compute(v))

    return once


class _FlatRange(NamedTuple):
    """The flat range ``[start, stop)`` of one grid shape's raveled nodes.

    ``start = sum(strides)`` is the flat index of the first interior node
    and ``stop = N - start`` one past the last, so the range holds every
    interior node, and a neighbour at most one step away along each axis
    stays inside ``[0, N)``.  ``dirichlet`` holds the positions in the
    range (counted from ``start``) of the Dirichlet nodes inside it.
    """

    shape: tuple
    strides: tuple
    start: int
    stop: int
    dirichlet: np.ndarray

    def shifted(self, flat: np.ndarray, steps: Optional[dict] = None) -> np.ndarray:
        """The range of the raveled array ``flat``, moved ``steps[k]`` (-1 or
        1) nodes along each axis ``k`` in ``steps``; a contiguous view."""
        offset = 0
        for k, s in (steps or {}).items():
            offset += s * self.strides[k]
        return flat[self.start + offset : self.stop + offset]

    def interior(self, values: np.ndarray) -> np.ndarray:
        """The interior block of ``values``, a contiguous array over the
        range, as a read-only view.

        The interior node ``(i_0, ..., i_{n-1})`` sits at the position
        ``sum_k (i_k - 1) strides[k]``; the last one, at ``stop - start - 1``.
        """
        return np.lib.stride_tricks.as_strided(
            values,
            tuple(m - 2 for m in self.shape),
            tuple(s * values.itemsize for s in self.strides),
            writeable=False,
        )


@functools.lru_cache(maxsize=8)
def _flat_range(shape: tuple) -> _FlatRange:
    """The :class:`_FlatRange` of ``shape``; its ``dirichlet`` array is
    shared by every sweep on the grid shape, so it is read-only."""
    strides = tuple(math.prod(shape[k + 1 :]) for k in range(len(shape)))
    start = sum(strides)
    stop = math.prod(shape) - start
    boundary = np.ones(shape, dtype=bool)
    boundary[(slice(1, -1),) * len(shape)] = False
    dirichlet = np.flatnonzero(boundary.ravel()[start:stop])
    dirichlet.setflags(write=False)
    return _FlatRange(shape, strides, start, stop, dirichlet)


def _central_difference(flat: np.ndarray, table: _FlatRange, axis: int, h: float) -> np.ndarray:
    """``(v[i+1] - v[i-1]) / 2h`` along ``axis`` on the flat range ``table``
    of the raveled node array ``flat``, 0 at the range's Dirichlet positions.

    Here and in :func:`_stencil_hessian` each operation of the formula
    writes into the array of the one before it, in the formula's order, so
    the values are the formula's, bitwise, with fewer arrays allocated.
    """
    out = np.subtract(table.shifted(flat, {axis: 1}), table.shifted(flat, {axis: -1}))
    out /= 2.0 * h
    out[table.dirichlet] = 0.0
    return out


def _stencil_hessian(flat: np.ndarray, table: _FlatRange, h: tuple) -> dict:
    """The stencil Hessian ``D^2_h v``, with the spacings ``h``, on the flat
    range ``table`` of the raveled node array ``flat``, 0 at the range's
    Dirichlet positions.

    ``hess[i, j]`` (``i <= j``) holds the 3-point second difference along
    axis ``i`` (``i == j``) or the 4-point cross difference of axes ``i``
    and ``j``: the differences the solver's stencil applies.
    """
    n = len(h)
    centre = table.shifted(flat)
    hess = {}
    for i in range(n):
        # (v[+1] - 2 v) + v[-1], over h^2
        second = np.multiply(2.0, centre)
        np.subtract(table.shifted(flat, {i: 1}), second, out=second)
        second += table.shifted(flat, {i: -1})
        second /= h[i] ** 2
        hess[i, i] = second
        for j in range(i + 1, n):
            # v[+1, +1] + v[-1, -1] - v[+1, -1] - v[-1, +1], over 4 h_i h_j
            cross = np.add(table.shifted(flat, {i: 1, j: 1}), table.shifted(flat, {i: -1, j: -1}))
            cross -= table.shifted(flat, {i: 1, j: -1})
            cross -= table.shifted(flat, {i: -1, j: 1})
            cross /= 4.0 * h[i] * h[j]
            hess[i, j] = cross
    for block in hess.values():
        block[table.dirichlet] = 0.0
    return hess


def _stencil_derivatives(v: np.ndarray, spacing: tuple) -> tuple:
    """The central gradient ``q`` (one array per axis) and the stencil
    Hessian ``hess`` of the node array ``v`` on its flat range.

    At the Dirichlet positions of the range every entry is 0, so a check
    over the range sees the interior nodes' values only.
    """
    table = _flat_range(v.shape)
    flat = v.ravel()
    q = [_central_difference(flat, table, i, h) for i, h in enumerate(spacing)]
    return q, _stencil_hessian(flat, table, spacing)


@_once_per_field
def gradient(v: ScalarField) -> np.ndarray:
    """Central differences on the interior nodes, 0 on the Dirichlet nodes.

    Shape ``grid.shape + (n,)``; a non-finite entry raises :class:`FieldError`.
    """
    grid = v.grid
    n = grid.dimension
    table = _flat_range(grid.shape)
    out = np.zeros(grid.shape + (n,))
    rows = out.reshape(-1, n)[table.start : table.stop]
    for i in range(n):
        rows[:, i] = _central_difference(v.values.ravel(), table, i, grid.spacing[i])
    return _prepare(out, grid.shape + (n,), "gradient")


@_once_per_field
def hessian(v: ScalarField) -> np.ndarray:
    """The symmetric stencil Hessian on the interior nodes, 0 on the
    Dirichlet nodes; exact on quadratics.

    Shape ``grid.shape + (n, n)``; a non-finite entry raises :class:`FieldError`.
    """
    grid = v.grid
    n = grid.dimension
    table = _flat_range(grid.shape)
    out = np.zeros(grid.shape + (n, n))
    rows = out.reshape(-1, n, n)[table.start : table.stop]
    for (i, j), block in _stencil_hessian(v.values.ravel(), table, grid.spacing).items():
        rows[:, i, j] = rows[:, j, i] = block
    return _prepare(out, grid.shape + (n, n), "Hessian")


def _sum_from_zero(terms) -> np.ndarray:
    """``0 + t_0 + t_1 + ...``, added in the order given, into the first term.

    ``np.einsum`` accumulates its sums of products from +0.0 in this way: a
    sum whose value is 0 comes out +0.0 even where every term is -0.0.
    Adding the terms in sequence and then +0.0 gives the same bits, because
    the sums differ at most in the sign of a zero.
    """
    total = terms[0]
    for term in terms[1:]:
        total += term
    total += 0.0
    return total


def _sum_sq(parts) -> np.ndarray:
    """The squares of the arrays ``parts`` added in sequence: the order of
    numpy's sum over a trailing axis of length 2 or 3."""
    parts = iter(parts)
    total = next(parts) ** 2
    for part in parts:
        total += part**2
    return total


def _norm_sq(vectors: np.ndarray) -> np.ndarray:
    """``|g|^2`` per node of ``vectors``, components last, summed over the
    components by :func:`_sum_sq`."""
    return _sum_sq(np.moveaxis(vectors, -1, 0))


def infinity_laplacian_values(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """The quadratic form ``<H g, g>`` per node.

    The terms ``(H_ij g_i) g_j`` are added in row-major order of ``(i, j)``,
    from +0.0, as ``np.einsum("...ij,...i,...j->...")`` adds them.
    """
    n = grad.shape[-1]
    terms = []
    for i in range(n):
        for j in range(n):
            term = hess[..., i, j] * grad[..., i]
            term *= grad[..., j]
            terms.append(term)
    return _sum_from_zero(terms)


# ---------------------------------------------------------------------------
# Stretched gradient and its product-rule Jacobian
# ---------------------------------------------------------------------------


def _check_stretch(beta: float, eps: float):
    if eps == 0.0 and beta < 0.0:
        raise ValueError("eps = 0 requires a nonnegative stretch exponent")
    if eps < 0.0:
        raise ValueError("regularization must be nonnegative")


def _stretch(grad: np.ndarray, beta: float, eps: float) -> tuple:
    """``d = |g|^2 + eps`` and the stretch factor ``s = d^(beta/2)``, 0
    where ``d`` is 0, per node."""
    base = _norm_sq(grad)
    base += eps
    factor = np.power(base, beta / 2.0, out=np.zeros_like(base), where=base > 0.0)
    return base, factor


def stretched_gradient_values(grad: np.ndarray, beta: float, eps: float) -> np.ndarray:
    _check_stretch(beta, eps)
    _, factor = _stretch(grad, beta, eps)
    out = np.empty(grad.shape)
    for i in range(grad.shape[-1]):
        np.multiply(factor, grad[..., i], out=out[..., i])
    return out


def _hess_times_grad(hess: np.ndarray, grad: np.ndarray, i: int) -> np.ndarray:
    """``(H g)_i`` per node, its terms ``H_ij g_j`` added from +0.0 in the
    order of ``np.einsum("...ij,...j->...i")``: ``j = 0, 1`` in 2-d and
    ``j = 0, 2, 1`` in 3-d."""
    order = (0, 1) if grad.shape[-1] == 2 else (0, 2, 1)
    return _sum_from_zero([hess[..., i, j] * grad[..., j] for j in order])


def stretched_jacobian_values(grad: np.ndarray, hess: np.ndarray, beta: float, eps: float) -> np.ndarray:
    """Product-rule Jacobian of the stretched gradient from node values.

    Entry (a, b) is ``d_b [ (|g|^2+eps)^(beta/2) g_a ]`` evaluated exactly from
    the supplied gradient/Hessian values:
    ``s * (H + beta * g (Hg)^T / (|g|^2+eps))`` with ``s = (|g|^2+eps)^(beta/2)``.
    The rank-one term is 0 where ``|g|^2 + eps`` is 0.  Each entry is
    computed on its own; the result is a view of shape ``grad.shape + (n,)``
    whose entries ``[..., a, b]`` are contiguous arrays.
    """
    _check_stretch(beta, eps)
    if beta == 0.0:
        return hess.copy()
    n = grad.shape[-1]
    base, factor = _stretch(grad, beta, eps)
    positive = base > 0.0
    blank = None if positive.all() else ~positive
    # the nodes where |g|^2 + eps is 0 divide by 1, then their term is set to 0
    divisor = base if blank is None else np.where(positive, base, 1.0)
    hg = [_hess_times_grad(hess, grad, b) for b in range(n)]
    out = np.empty((n, n) + base.shape)
    for a in range(n):
        for b in range(n):
            rank1 = np.multiply(grad[..., a], hg[b], out=out[a, b, ...])
            rank1 *= beta
            rank1 /= divisor
            if blank is not None:
                rank1[blank] = 0.0
            rank1 += hess[..., a, b]
            rank1 *= factor
    return np.moveaxis(out, (0, 1), (-2, -1))


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
    """``sum_ab M_ab^2`` per matrix, added as numpy sums a contiguous run of
    4 or 9 values: in sequence for 2x2, and for 3x3 as
    ``(((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)))+a8`` over the row-major entries."""
    m = np.asarray(matrices)
    n = m.shape[-1]
    if n not in (2, 3):
        raise ValueError(f"the squared norm is summed for 2x2 and 3x3 matrices, got {n}x{n}")
    a = [m[..., i, j] ** 2 for i in range(n) for j in range(n)]
    if n == 2:
        return ((a[0] + a[1]) + a[2]) + a[3]
    return (((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))) + a[8]
