"""Newton-type solver for the regularized Dirichlet problem.

The discrete problem on a grid box is

    -A(x) : D^2 v + v = g      in the interior,
    v = boundary data          on the box boundary,

with ``A = I + (p - 2) Dv (x) Dv / (|Dv|^2 + eps)``.  Each sweep takes the
correction step ``v <- v + J^-1 (g - A(v) v)``, where ``J^-1`` solves with
the Jacobian ``J`` of the residual at the current or an earlier iterate.
The residual ``g - A(v) v`` comes straight from the 9-point (2-d)
or 19-point (3-d) stencil, matrix-free, with the difference formulas of
:mod:`pxlaplace.diffops` that the audits read too.  Every stencil pass of
a sweep (the derivatives, ``A(v)``, the residual, the Poisson step's
renormalization and its ``J(0)`` product) runs on the grid's flat range
(:func:`pxlaplace.diffops._flat_range`): 1-d contiguous slices of the
raveled grid at fixed offsets, one value per position from the first
interior node to the last.  The Dirichlet positions inside that range get
zero differences, so ``A`` is the identity there, and the residual and
the product give those rows back their own values: no check reads them.
``J(v) = K(v) - (p - 2) b . D_h`` is the frozen operator
``K(v) = 1 - A(v) : D^2_h`` plus a first-order term on the axis neighbours.
Every operator is one table (:func:`_stencil`): the rows of ``K(v)`` or
``J(v)`` as weighted neighbour steps in the column order of the assembled
rows.  Every solver applies its table on the flat range
(:func:`_stencil_action`) and takes its max norm from the weights
(:func:`_stencil_norm`); only the 2-d LU factor assembles the table into
a sparse matrix.  Each iterate is differentiated once: its
residual, ``A(v)`` and ``J(v)`` read one pass of
:func:`pxlaplace.diffops._stencil_derivatives`, and ``p - 2`` is taken
once per solve.  At ``v = 0``, where ``A`` is the
identity whatever ``p`` is, ``J`` is the ``p = 2`` operator
``1 - Delta_h``, and the solver is a direct fast Poisson solve: two DST-I
transforms, in 2-d and 3-d alike, whose table is the 5-point (2-d) or
7-point (3-d) stencil with number weights.  On a grid whose interior axes
have at most :data:`SINE_PRODUCT_MAX` nodes each, every grid below 129
nodes per axis, a transform is one dense orthonormal sine matrix product
per axis on numpy's BLAS; a grid with a longer interior axis imports
``scipy.fft`` for its transforms when it first builds the fast Poisson
inverse (:func:`_poisson_inverse`).  ``scipy.sparse`` is imported when a
run first builds an LU factor (2-d) or a GMRES solver (3-d), so a run that
builds neither on a grid below 129 nodes per axis loads no scipy module.
A cold solve starts with the fast Poisson solve, and the
sweep loop keeps that solver while it contracts: each later
sweep solves ``J(0) x = gamma r``, with ``gamma = tr A / |A|^2`` per interior
node (1 on the Dirichlet rows), which renormalizes the nondivergence
operator so that the Laplacian preconditions it under the Cordes condition
(Smears and Sueli, SIAM J. Numer. Anal. 51 (2013) 2088-2106).  Where a
Poisson sweep contracts too little, the loop builds the solver of ``J(v)``:
in 2-d a sparse LU factor (the stencil pattern is structurally symmetric
with a diagonal of at least 1, so the factor eliminates the nodes in a
geometric nested-dissection order, built once per grid shape with the
permuted matrix's pattern, and pivots on the diagonal); in 3-d, where LU
fill grows faster than the grid, GMRES on ``J``, preconditioned by the
same fast Poisson solve.
Every solve is checked against a measured normwise backward error, and one
that misses its bound raises :class:`SolverError` naming the bound.  Every
2-d solve, and a solve given no bound, is held to
``CONTRACT_BOUND = 1e-12``.  A 3-d Newton step is inexact: GMRES stops at
the forcing term ``FORCING_MAX = 1e-5``, and the step is checked against it.

Each solver class states, with its build cost, its ``keep_ratio``: the
sweep loop keeps the solver while every sweep cuts the nonlinear residual
to at most that fraction of its previous value, and builds the solver of
``J(v)`` at the current iterate when one does not.  The fast Poisson solve
is kept below ``POISSON_KEEP_RATIO``, the 2-d LU factor below
``REFACTOR_RATIO`` (a chord-Newton iteration), and the 3-d GMRES solver,
with a ratio of 0, is rebuilt at every sweep (a Newton iteration).  The
cold sweep is not judged: its ratio measures the data, not a contraction.
An eps continuation hands the kept solver on from one level to the next.
Which ``J`` a sweep solves with, and how exactly, changes only the path:
the fixed point ``A(v) v = g`` stays.  Sweeps repeat until both the update
and the nonlinear residual are tiny.  The right-hand data is ``g = f_eps +
u0_eps``: :func:`build_problem` (or :func:`pxlaplace.config.load_config`)
samples the fields once, and an eps continuation mollifies them with a
radius tied to ``eps``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .constants import ExponentWindow
from .diffops import _flat_range, _stencil_derivatives, gradient
from .expressions import Expression
from .fields import BallRegion, GridSpec, ScalarField, ball_mask, mollify, sample

if TYPE_CHECKING:  # scipy.sparse loads only with an LU or GMRES solver
    from scipy.sparse import csr_matrix

__all__ = [
    "ContinuationResult",
    "DiscreteProblem",
    "ProblemSpec",
    "SolveOptions",
    "SolveResult",
    "SolverError",
    "assemble_frozen_operator",
    "build_problem",
    "epsilon_continuation",
    "solve_regularized",
]


#: A sweep on the 2-d LU factor that leaves the nonlinear residual above
#: this fraction of its previous value makes the loop refactor at the
#: current iterate.  A fresh factor (assembly, gather and ``splu``) costs
#: about 9 sweeps at 65^2, 9-10 at 129^2 and 10-11 at 257^2 (the p = 4
#: fixture-data continuation, against the mean of the rest of its work per
#: sweep) and brings the contraction from the
#: 0.4-0.5 of a stale one to under 0.1, so it pays back within the level.
#: 0.2 and 0.3 were both measured: on the fixture data at 65^2 the
#: exponents p = 1.2, 3 + sin(x2) and 4 take 45, 53 and 52 sweeps at 0.2,
#: 68, 70 and 66 at 0.3 and 107, 99 and 121 at 0.5, and 0.2 was the
#: fastest.
REFACTOR_RATIO = 0.2

#: A renormalized fast Poisson sweep that leaves the nonlinear residual
#: above this fraction of its previous value makes the loop build the solver
#: of ``J(v)``.  On the fixture data (7-level eps schedule) the median
#: per-sweep ratio is 0.14-0.18 at every grid from 33^2 to 513^2, and the
#: largest one-sweep ratio 0.16, 0.17, 0.24, 0.31 and 0.39 at 33^2, 65^2,
#: 129^2, 257^2 and 513^2, so the fixture is solved with no LU factor.  The
#: exponents p = 1.2, 3 + sin(x2) and 4 on the same data at 65^2 read 0.65,
#: 0.40-0.50 and 0.52 and fall back to LU within a few sweeps.
POISSON_KEEP_RATIO = 0.5

#: The normwise backward error a linear solve meets unless a sweep asks for
#: an inexact Newton step.
CONTRACT_BOUND = 1e-12

#: The forcing term of every inexact Newton step (every 3-d sweep past the
#: cold one).  A looser one adds a sweep to the fixture's first eps level:
#: 1e-4 at 17^3 and 33^3, 1e-2 at 13^3 and 33^3.  Tighter terms where the
#: residual contracts fast (Eisenstat and Walker's choice 2) saved no sweep
#: on the fixture data or at p = 4, 6 and 9, at 17^3 or 33^3.
FORCING_MAX = 1e-5


class SolverError(RuntimeError):
    """Numerical failure: ellipticity loss, linear breakdown, bad problem data."""


@dataclass(frozen=True)
class ProblemSpec:
    """Symbolic description of one regularized Dirichlet problem."""

    grid: GridSpec
    p_expr: Expression
    f_expr: Expression
    boundary_expr: Expression
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise SolverError(f"regularization eps must lie in (0, 1), got {self.eps}")
        for name, expr in (("p", self.p_expr), ("f", self.f_expr), ("boundary", self.boundary_expr)):
            if expr.dimension != self.grid.dimension:
                raise SolverError(f"{name} expression dimension does not match the grid")


@dataclass(frozen=True)
class SolveOptions:
    """The stopping constants of :func:`solve_regularized`."""

    tolerance: float = 1e-10
    max_iterations: int = 500


@dataclass(frozen=True)
class DiscreteProblem:
    """Sampled (and, on an eps continuation level, mollified) problem data on a grid."""

    grid: GridSpec
    p: ScalarField
    f: ScalarField
    g: ScalarField
    boundary: ScalarField
    eps: float
    window: ExponentWindow


@dataclass
class SolveResult:
    v: ScalarField
    iterations: int
    residual: float
    ellipticity: tuple
    converged: bool
    dominance_violations: int
    value_range: tuple
    principle_range: tuple
    problem: DiscreteProblem


@dataclass
class ContinuationResult:
    results: list
    increments: list


# ---------------------------------------------------------------------------
# Problem discretization
# ---------------------------------------------------------------------------


def build_problem(spec: ProblemSpec) -> DiscreteProblem:
    """The problem of ``spec`` with its boundary, ``p`` and ``f`` sampled on
    its grid, unmollified; the sampled boundary is the data field ``u0`` too.

    :func:`epsilon_continuation` builds each level from this one by
    mollifying ``p``, ``f`` and ``u0``; :func:`pxlaplace.config.load_config`
    builds the same problem from the fields it samples and checks.
    """
    exprs = (spec.boundary_expr, spec.p_expr, spec.f_expr)
    boundary, p, f = (sample(expr, spec.grid) for expr in exprs)
    return _discretized(spec.eps, boundary, p, f, u0=boundary)


def _discretized(eps: float, boundary, p, f, u0) -> DiscreteProblem:
    """The problem at ``eps`` from the sampled ``boundary`` and the fields
    ``p``, ``f`` and ``u0`` as they are, mollified or not: ``g = f + u0``."""
    t_minus = float(p.values.min())
    if t_minus <= 1.0:
        raise SolverError(f"p leaves the ellipticity window (min p <= 1): min p = {t_minus}")
    return DiscreteProblem(
        grid=boundary.grid,
        p=p,
        f=f,
        g=ScalarField(boundary.grid, f.values + u0.values),
        boundary=boundary,
        eps=eps,
        window=ExponentWindow(t_minus, float(p.values.max())),
    )


# ---------------------------------------------------------------------------
# The stencil and its operators
# ---------------------------------------------------------------------------


def _neighbours(n: int) -> list:
    """The offsets of an interior row's neighbours in ``n`` dimensions, the
    node included: each one differs from the node along at most two axes.
    They come in lexicographic order, the column order of the row."""
    return [off for off in itertools.product((-1, 0, 1), repeat=n) if n - off.count(0) <= 2]


@functools.lru_cache(maxsize=8)
def _stencil_pattern(shape: tuple) -> tuple:
    """The CSR structure ``(indptr, indices, starts)`` of the stencil on one grid shape.

    A Dirichlet row holds its diagonal alone.  An interior row holds its
    :func:`_neighbours`, in their lexicographic order, which is the column
    order: every axis has at least 3 nodes, so a stride exceeds twice the
    sum of the smaller ones.  ``starts`` holds, per interior node in C
    order, the position in ``data`` of its row's first entry; the ``k``-th
    row of a full :func:`_stencil` table fills ``starts + k``.  The arrays
    are shared by every matrix assembled on the grid shape, so they are
    read-only.
    """
    from scipy.sparse import get_index_dtype

    table = _flat_range(shape)
    interior = table.interior(np.arange(table.start, table.stop)).ravel()
    offsets = _neighbours(len(shape))
    width = np.ones(math.prod(shape), dtype=np.intp)
    width[interior] = len(offsets)
    indptr = np.concatenate([[0], np.cumsum(width)])
    indices = np.repeat(np.arange(width.size), width)
    starts = indptr[interior]
    for k, off in enumerate(offsets):
        indices[starts + k] = interior + np.dot(off, table.strides)
    # the index type scipy gives the matrix, so no assembly converts them
    index = get_index_dtype(maxval=indptr[-1])
    indptr, indices = indptr.astype(index), indices.astype(index)
    for array in (indptr, indices, starts):
        array.setflags(write=False)
    return indptr, indices, starts


#: A block of at most this many nodes is not dissected further.  Factor
#: time in ms (with ``_LUFactor``'s options, against SuperLU's default
#: ``panel_size``) and factor nonzeros of the first ``J(v)`` that the
#: fixture-data continuation factors, p = 1.2 at 65^2 and p = 4 at 129^2
#: and 257^2; medians of 25, 11 and 5 interleaved factors on a 2-core
#: x86-64 host, scipy 1.17.1.  With diagonal pivots the fill depends on
#: the pattern alone, so the nonzeros hold for every ``J(v)`` of the shape:
#:
#:     leaf    65^2 ms   129^2 ms   257^2 ms   nonzeros 65^2 / 129^2 / 257^2
#:       4   6.1 / 7.4  50 / 60   204 / 241   202,311 / 1,047,927 / 5,176,551
#:       8   6.3 / 7.4  49 / 58   197 / 254   202,311 / 1,047,927 / 5,176,551
#:      16   6.8 / 8.2  51 / 63   226 / 244   206,663 / 1,065,847 / 5,249,255
#:      32   8.3 / 9.5                        231,327 at 65^2
#:
#: Leaves of 4 and 8 fill alike and factor alike within the spread.
DISSECTION_LEAF = 8


@functools.lru_cache(maxsize=8)
def _dissection_order(shape: tuple) -> np.ndarray:
    """A geometric nested-dissection order of the nodes of one grid shape.

    The Dirichlet nodes come first: their rows are rows of the identity, so
    eliminating them makes no fill.  The interior block of node indices is
    then split recursively (George, SIAM J. Numer. Anal. 10 (1973)
    345-363): its longest axis (the first, on a tie) is cut at its middle
    line, the separator, into a low and a high half.  The stencil couples
    nodes at most one step apart per axis, so no entry of the operator
    joins the halves.  Each block is ordered as its low half, its high half
    and last its separator; a separator, and a block of at most
    :data:`DISSECTION_LEAF` nodes, keep their natural order.  ``order[k]``
    is the node eliminated k-th.  The array is shared by every factor on
    the grid shape, so it is read-only.
    """
    nodes = np.arange(math.prod(shape)).reshape(shape)
    interior = nodes[(slice(1, -1),) * len(shape)]

    def dissect(block):
        if block.size <= DISSECTION_LEAF:
            return [block.ravel()]
        axis = max(range(block.ndim), key=block.shape.__getitem__)  # the first longest
        mid = block.shape[axis] // 2
        cut = (slice(None),) * axis  # every index of the axes before it
        low, high = block[cut + (slice(mid),)], block[cut + (slice(mid + 1, None),)]
        return dissect(low) + dissect(high) + [block[cut + (mid,)].ravel()]

    order = np.concatenate([np.setdiff1d(nodes, interior)] + dissect(interior))
    order.setflags(write=False)
    return order


@functools.lru_cache(maxsize=8)
def _permuted_pattern(shape: tuple) -> tuple:
    """The CSC structure ``(indptr, indices, gather)`` of ``P A P^T`` on one
    grid shape, ``A`` a matrix of the :func:`_stencil_pattern` and ``P`` the
    :func:`_dissection_order`.

    Entry ``(i, j)`` of ``A`` moves to ``(position[i], position[j])``, with
    ``position`` the inverse of the order; the entries are sorted by column
    and then by row, as ``A[order][:, order].tocsc()`` sorts them, and
    ``gather`` lists their positions in ``A``'s CSR ``data``.  So
    ``data[gather]`` is the permuted matrix's ``data``.  The arrays are
    shared by every factor on the grid shape, so they are read-only.
    """
    indptr, indices, _ = _stencil_pattern(shape)
    order = _dissection_order(shape)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    rows = np.repeat(position, np.diff(indptr))
    columns = position[indices]
    gather = np.lexsort((rows, columns))
    permuted_indptr = np.concatenate([[0], np.cumsum(np.bincount(columns, minlength=order.size))])
    permuted_indptr = permuted_indptr.astype(indptr.dtype)
    permuted_indices = rows[gather].astype(indices.dtype)
    for array in (permuted_indptr, permuted_indices, gather):
        array.setflags(write=False)
    return permuted_indptr, permuted_indices, gather


@dataclass(frozen=True)
class _Coefficients:
    """One iterate's stencil data on the flat range, and ``A(v)``.

    ``q`` is the central gradient, ``hess[i, j]`` (``i <= j``) the stencil
    Hessian, ``d = |q|^2 + eps`` and ``coef = (p - 2) / d``; ``a[i, j]``
    holds ``delta_ij + coef q_i q_j`` and ``lam`` ``1 + coef |q|^2``, the
    eigenvalue of ``A`` along ``q`` (the others are 1).  ``shape`` is the
    grid's; every array is 1-d and holds one value per position of the
    grid's flat range (:func:`pxlaplace.diffops._flat_range`).  At its
    Dirichlet positions ``q`` and ``hess`` are 0, so ``A`` is the identity
    and ``lam`` is 1 there: the range's minimum, maximum and dominance
    count are its interior nodes', and the operators of :func:`_stencil`
    read the interior positions alone.
    """

    q: list
    hess: dict
    d: np.ndarray
    coef: np.ndarray
    a: dict
    lam: np.ndarray
    shape: tuple
    spacing: tuple

    @property
    def ellipticity(self) -> tuple:
        return (min(1.0, float(self.lam.min())), max(1.0, float(self.lam.max())))

    @property
    def dominance_violations(self) -> int:
        """Interior nodes where the stencil is not diagonally dominant."""
        a, h = self.a, self.spacing
        n = len(h)
        violations = np.zeros(self.lam.shape, dtype=bool)
        for i in range(n):
            off = np.zeros(self.lam.shape)
            for j in range(n):
                if j != i:
                    off += np.abs(a[min(i, j), max(i, j)]) / (h[i] * h[j])
            violations |= a[i, i] / h[i] ** 2 < off - 1e-14
        return int(violations.sum())


def _exponent_offset(p: np.ndarray) -> np.ndarray:
    """``p - 2`` on the flat range of the exponent's node values ``p``,
    which must exceed 1 at every node."""
    if float(p.min()) <= 1.0:
        raise SolverError("exponent field leaves the ellipticity window (p <= 1 somewhere)")
    return _flat_range(p.shape).shifted(p.ravel()) - 2.0


def _frozen_coefficients(
    v: np.ndarray, offset: np.ndarray, eps: float, spacing: tuple
) -> _Coefficients:
    """The stencil data of ``v``: its central gradient and stencil Hessian on
    the flat range, and ``A(v)`` from them.  ``offset`` is the
    :func:`_exponent_offset` of the exponent's node values; the sweep loop
    takes it once per solve."""
    if eps <= 0:
        raise SolverError("frozen operator needs eps > 0")
    n = v.ndim
    q, hess = _stencil_derivatives(v, spacing)
    # each operation below writes into the array of the one before it, in
    # the order of the formulas of _Coefficients, so the values are theirs
    g2 = q[0] ** 2
    for qi in q[1:]:
        g2 += qi**2
    if not np.isfinite(g2).all():  # a gradient component overflowed, or its square
        raise SolverError("frozen operator needs a finite gradient: |Dv|^2 overflowed")
    d = g2 + eps
    coef = offset / d
    a = {}
    for i in range(n):
        for j in range(i, n):
            a[i, j] = coef * q[i]
            a[i, j] *= q[j]
        a[i, i] += 1.0
    lam = np.multiply(coef, g2, out=g2)
    lam += 1.0
    return _Coefficients(q, hess, d, coef, a, lam, v.shape, tuple(spacing))


def _nonlinear_residual(
    v: np.ndarray, offset: np.ndarray, eps: float, spacing: tuple, rhs: np.ndarray
):
    """``rhs - A(v) v`` (flat) and the stencil data of ``v``, with no matrix.

    Interior rows are ``g - v + A(v) : D^2_h v`` with the stencil Hessian;
    Dirichlet rows are ``boundary - v``.  ``offset`` is passed on to
    :func:`_frozen_coefficients`.
    """
    coeffs = _frozen_coefficients(v, offset, eps, spacing)
    table = _flat_range(v.shape)
    r = rhs - v.ravel()
    rows = table.shifted(r)  # a view: the updates land in r
    dirichlet = rows[table.dirichlet]  # the updates must leave these rows as they are
    term = np.empty_like(rows)
    for (i, j), block in coeffs.hess.items():
        if i == j:  # the factor 1 is left out: 1 * x is x, bitwise
            np.multiply(coeffs.a[i, j], block, out=term)
        else:
            np.multiply(2.0, coeffs.a[i, j], out=term)
            term *= block
        rows += term
    rows[table.dirichlet] = dirichlet
    if not np.isfinite(r).all():
        raise SolverError("sweep needs a finite gradient and Hessian: g - A(v) v overflowed")
    return r, coeffs


def _stencil(a: dict, spacing: tuple, drift: Optional[list] = None) -> list:
    """The rows of ``K = 1 - A : D^2_h`` as a table of ``(steps, weight)``
    pairs, in the column order of the assembled rows; with ``drift``, the
    rows of ``J(v)``.

    ``a[i, j]`` (``i <= j``) holds ``A_ij``, an array over the flat range or
    a number; a missing ``a[i, j]``, ``i < j``, drops its four cross
    neighbours, so ``_stencil({(i, i): 1.0 ...}, spacing)`` is the 5-point
    (2-d) or 7-point (3-d) ``J(0) = 1 - Delta_h`` with number weights.
    ``steps`` maps each axis the neighbour moves along to its step, -1 or
    1, as :meth:`pxlaplace.diffops._FlatRange.shifted` reads it.  The rows
    come in the order of :func:`_neighbours`, the lexicographic order of the
    offsets, which the flat offsets follow too.  ``drift[i]`` is
    subtracted on the ``+e_i`` neighbour and added on the ``-e_i`` one.
    Each weight is computed once, over the whole flat range, so the
    product and the assembled matrix read the same values.
    """
    h = spacing
    n = len(h)
    center = 1.0
    for i in range(n):
        center = center + 2.0 * a[i, i] / h[i] ** 2
    cross = {(i, j): a[i, j] / (2.0 * h[i] * h[j]) for i, j in a if i != j}
    rows = []
    for off in _neighbours(n):
        steps = {i: s for i, s in enumerate(off) if s}
        axes = tuple(steps)
        if not axes:
            weight = center
        elif len(axes) == 1:
            (i,) = axes
            weight = -a[i, i] / h[i] ** 2
            if drift is not None:
                weight = weight - drift[i] if off[i] > 0 else weight + drift[i]
        elif axes in cross:
            weight = -off[axes[0]] * off[axes[1]] * cross[axes]
        else:
            continue
        rows.append((steps, weight))
    return rows


def _drift(coeffs: _Coefficients) -> list:
    """The first-order term of the Jacobian ``J(v)`` of ``A(v) v - g``, per
    axis on the flat range: the ``drift`` of :func:`_stencil`.

    Differentiating ``A(v) : D^2_h v`` through ``A`` gives
    ``J(v) w = K(v) w - (p - 2) b . D_h w`` with ``K(v)`` the frozen operator,
    ``b = 2 H q / d - 2 (q^T H q) q / d^2``, ``q`` the central gradient, ``H``
    the stencil Hessian of ``v`` and ``d = |q|^2 + eps``.  The central
    difference ``D_h w`` reads only the axis neighbours, so ``J`` adds
    ``-/+ (p - 2) b_i / (2 h_i)`` on the ``+/- e_i`` neighbours of ``K``.
    """
    q, hess, d, h = coeffs.q, coeffs.hess, coeffs.d, coeffs.spacing
    n = len(h)
    hq = [sum(hess[min(i, j), max(i, j)] * q[j] for j in range(n)) for i in range(n)]
    qhq = sum(qi * hqi for qi, hqi in zip(q, hq))
    scale = 2.0 * coeffs.coef
    return [scale * (hq[i] - qhq * q[i] / d) / (2.0 * h[i]) for i in range(n)]


def _stencil_action(rows: list, shape: tuple, x: np.ndarray) -> np.ndarray:
    """The product of the :func:`_stencil` table ``rows`` with ``x`` on one
    grid shape, with no matrix.

    Each interior row adds its terms to 0 in the table's order, the column
    order of the assembled row, as the CSR product does, so the product is
    bitwise the assembled one's on finite vectors.  The rows are summed
    over the grid's flat range, whose Dirichlet positions then take their
    identity rows back; the rows outside the range are Dirichlet rows too.
    """
    table = _flat_range(shape)
    x = x.ravel()
    y = x.copy()  # the identity on the Dirichlet rows
    out = table.shifted(y)  # a view: the sums land in y
    out[...] = 0.0
    term = np.empty_like(out)
    for steps, weight in rows:
        out += np.multiply(weight, table.shifted(x, steps), out=term)
    out[table.dirichlet] = table.shifted(x)[table.dirichlet]
    return y


def _stencil_norm(rows: list, shape: tuple) -> float:
    """The max norm of the :func:`_stencil` table ``rows`` on one grid shape,
    its largest absolute row sum: the interior maximum of ``sum |weight|``,
    and 1 on the Dirichlet rows."""
    total = sum(abs(weight) for _, weight in rows)
    if np.ndim(total):
        total = _flat_range(shape).interior(total)
    return max(1.0, float(np.max(total)))


def assemble_frozen_operator(rows: list, shape: tuple) -> csr_matrix:
    """The CSR matrix of a full :func:`_stencil` table ``rows`` on one grid
    shape, every ``a[i, j]`` given as an array: ``K(v)``, or ``J(v)`` with
    the drift.

    Interior rows carry the 9-point (2-d) / 19-point (3-d) stencil; boundary
    rows are Dirichlet identities.  The sparsity pattern is built once per
    grid shape; each call only fills in the interior positions of the
    weights, one table row per column of the pattern.
    """
    from scipy.sparse import csr_matrix

    indptr, indices, starts = _stencil_pattern(shape)
    interior = _flat_range(shape).interior
    data = np.ones(indices.size)  # the Dirichlet rows keep their 1
    for k, (_, weight) in enumerate(rows):
        data[starts + k] = interior(weight).ravel()
    size = math.prod(shape)
    return csr_matrix((data, indices, indptr), shape=(size, size))


class _CheckedSolver:
    """A linear solver of one operator whose every solve is checked.

    The operator comes as its :func:`_stencil` table on a grid shape:
    ``J(v)`` for the LU and GMRES solvers, ``J(0)`` for the fast Poisson
    solve.  The check applies it with :func:`_stencil_action` and scales
    by its :func:`_stencil_norm`.  A solution meets a
    normwise backward error (residual relative to ``|A| |x| + |b|``, in
    the max norm) of ``bound`` against the operator, after at most one
    refinement step, or the solve
    raises :class:`SolverError` naming the bound; an inaccurate or
    non-finite solution is never used.  The bound is :data:`CONTRACT_BOUND`
    unless the caller passes a looser one.  Subclasses supply the unchecked
    solve ``_apply(rhs, bound)``, which a direct solver solves to round-off
    whatever the bound, and state their policy in their own class body:
    ``keep_ratio``, the largest residual contraction per sweep under which
    the sweep loop keeps the solver (0: rebuild it at every sweep), and
    ``inexact``, whether a sweep stops the solve at :data:`FORCING_MAX`,
    above the contract bound (an inexact Newton step).
    """

    def __init__(self, rows: list, shape: tuple):
        self._product = functools.partial(_stencil_action, rows, shape)
        self._norm = _stencil_norm(rows, shape)

    def _backward_error(self, rhs: np.ndarray, x: np.ndarray):
        r = rhs - self._product(x)
        scale = self._norm * float(np.abs(x).max()) + float(np.abs(rhs).max()) + 1e-300
        return float(np.abs(r).max()) / scale, r

    def solve(self, rhs: np.ndarray, bound: float = CONTRACT_BOUND) -> np.ndarray:
        x = self._apply(rhs, bound)
        error, residual = self._backward_error(rhs, x)
        if not error <= bound:  # a NaN error misses the bound too
            x = x + self._apply(residual, bound)
            error, _ = self._backward_error(rhs, x)
            if not error <= bound:
                raise SolverError(
                    f"linear solve reached a normwise backward error of {error:.3g}, "
                    f"above the {bound:.3g} bound"
                )
        return x

    def step(self, r: np.ndarray, coeffs: _Coefficients) -> np.ndarray:
        """The sweep's correction for the nonlinear residual ``r`` at the
        iterate of stencil data ``coeffs``: the checked solve of ``r``."""
        return self.solve(r, FORCING_MAX if self.inexact else CONTRACT_BOUND)


def splu(matrix: csr_matrix, **options):
    """:func:`scipy.sparse.linalg.splu`, imported at the first factor."""
    from scipy.sparse.linalg import splu as factor

    return factor(matrix, **options)


def gmres(operator, rhs: np.ndarray, **options):
    """:func:`scipy.sparse.linalg.gmres`, imported at the first call."""
    from scipy.sparse.linalg import gmres as krylov

    return krylov(operator, rhs, **options)


class _LUFactor(_CheckedSolver):
    """Sparse LU factor of one stencil table's matrix, reused for any number
    of solves.

    The table is assembled (:func:`assemble_frozen_operator`) for the
    factor alone; the checks apply the table, as every solver's do.  It
    factors ``P A P^T``, with ``P`` the
    :func:`_dissection_order` of the grid shape, in that order
    (``permc_spec="NATURAL"``) and with every pivot on the diagonal
    (``diag_pivot_thresh=0`` in ``SymmetricMode``), so the row and column
    permutations stay ``P``.  That fits the Jacobian:
    its stencil pattern is structurally symmetric (an interior node couples
    to an interior neighbour exactly when the neighbour couples back; a
    Dirichlet row is a row of the identity) and every diagonal entry is at
    least 1.  On the fixture's 129^2 Jacobian the order holds 1,047,927
    nonzeros against 1,153,652 for minimum degree on ``A + A^T``, and a
    factor, assembly included, takes about 0.6 of the time of the
    minimum-degree ``splu`` alone (29 against 49 ms).  Diagonal pivots are
    not proven stable for a nonsymmetric operator, which is one reason
    every solve is checked against the backward-error contract.

    ``P A P^T`` is ``data[gather]`` on the cached CSC pattern of
    :func:`_permuted_pattern`: one gather of the assembled data, no sparse
    copy, and bitwise ``A[order][:, order].tocsc()``.  The gather takes
    0.04 ms at 65^2 and 0.18 ms at 129^2, against 0.47 and 2.4 ms for
    those two copies and 0.18 and 0.66 ms for the fill.  SuperLU factors it
    one column per panel (``panel_size=1``): on the first p = 1.2
    fixture-data ``J(v)`` at 65^2, panel sizes 1, 2, 4, 8 and SuperLU's
    default read 6.3, 6.8, 7.1, 7.4 and 7.4 ms, and a solve takes
    0.3-0.4 ms at each.  Pass no ``relax``, and keep ``panel_size`` at
    most 20: ``relax=8, panel_size=24`` and ``relax=32, panel_size=2``
    made scipy 1.17.1 abort at process exit.
    """

    #: A factor costs about as much as 9 sweeps to build at 65^2, 9-10 at
    #: 129^2: keep it while the sweeps contract.
    keep_ratio = REFACTOR_RATIO
    inexact = False

    def __init__(self, rows: list, shape: tuple):
        super().__init__(rows, shape)
        from scipy.sparse import csc_matrix

        matrix = assemble_frozen_operator(rows, shape)
        self._order = _dissection_order(shape)
        indptr, indices, gather = _permuted_pattern(shape)
        try:
            self._lu = splu(
                csc_matrix((matrix.data[gather], indices, indptr), shape=matrix.shape),
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                panel_size=1,
                options={"SymmetricMode": True},
            )
        except (RuntimeError, MemoryError) as err:  # singular factorization, memory
            raise SolverError(f"linear solve breakdown: {err}") from err

    def _apply(self, rhs: np.ndarray, bound: float = CONTRACT_BOUND) -> np.ndarray:
        x = np.empty_like(rhs)
        x[self._order] = self._lu.solve(rhs[self._order])
        return x


#: Krylov vectors GMRES keeps before it restarts.
GMRES_RESTART = 40
#: Restart cycles one GMRES call may take; the contract check then decides.
GMRES_MAX_CYCLES = 10


#: A grid whose interior axes have at most this many nodes each takes its
#: DST-I as products with the dense orthonormal sine matrix
#: (:func:`_sine_matrix`); a grid with a longer interior axis takes
#: ``scipy.fft``'s.  Every grid below 129 nodes per axis, 2-d or 3-d, so
#: solves with no ``scipy.fft``.  One inverse in microseconds, ``scipy.fft``
#: against dense, each the median of 5 interleaved rounds of the fastest of
#: 200 calls (20 from 65^3), on a 2-core x86-64 host, numpy 2.4.6 on
#: OpenBLAS 0.3.31 and scipy 1.17.1:
#:
#:     2-d nodes   33^2   65^2   97^2  113^2  128^2  129^2  257^2
#:     scipy.fft     50    119    365    663  5,368    576  3,654
#:     dense         16     54    201    351    467    466  3,644
#:
#:     3-d nodes   17^3   33^3   65^3   97^3  129^3
#:     scipy.fft    213  1,252 21,015 56,860 131,792
#:     dense         63    688 13,701 40,433 111,250
#:
#: Where ``2 (m + 1)``, the FFT length of ``m`` interior nodes, is a power
#: of 2 the FFT is at its fastest: at 129^2 the dense inverse read between
#: 0.85 and 1.2 times ``scipy.fft``'s over repeated rounds, and a fixture
#: continuation at 129^2 took a median 1.03-1.11 times as long on it in
#: paired runs.  So the crossover sits just below 127, the interior of a
#: 129-node axis.  The product's work per node grows like ``m``, the FFT's
#: like ``log m``: they tie again at 257^2, and the FFT wins beyond.
SINE_PRODUCT_MAX = 126


@functools.lru_cache(maxsize=8)
def _sine_matrix(m: int) -> np.ndarray:
    """The orthonormal DST-I matrix of ``m`` nodes,
    ``sqrt(2 / (m + 1)) sin(pi j k / (m + 1))`` for ``j, k = 1..m``.

    It is symmetric and its own inverse.  The angle is reduced first,
    ``j k mod 2 (m + 1)``, so every sine reads an argument in
    ``[0, 2 pi)``.  Shared by every inverse on an axis of ``m`` interior
    nodes, so it is read-only.
    """
    k = np.arange(1, m + 1)
    angle = np.outer(k, k) % (2 * (m + 1)) * (np.pi / (m + 1))
    matrix = np.sqrt(2.0 / (m + 1)) * np.sin(angle)
    matrix.setflags(write=False)
    return matrix


def _sine_transform(block: np.ndarray) -> np.ndarray:
    """The orthonormal DST-I of ``block`` along every axis, as one dense
    :func:`_sine_matrix` product per axis: ``S0 @ B @ S1`` in 2-d and, in
    3-d, ``S0`` on the first axis of the block reshaped to a matrix, ``S1``
    batched over the first axis and ``S2`` from the right."""
    s = [_sine_matrix(m) for m in block.shape]
    if block.ndim == 2:
        return s[0] @ block @ s[1]
    m0, m1, m2 = block.shape
    first = (s[0] @ block.reshape(m0, m1 * m2)).reshape(m0, m1, m2)
    return (s[1] @ first) @ s[2]


def _poisson_inverse(grid: GridSpec):
    """The exact inverse of the ``p = 2`` operator ``J(0)`` on a residual.

    It is the identity on the Dirichlet rows and, on the interior block,
    the inverse of the 5-point (2-d) or 7-point (3-d) ``1 - Delta_h``: a
    diagonal scaling, by the operator's symbol, between two DST-I
    transforms.  So it inverts ``J(0)`` exactly on a vector whose Dirichlet
    rows are 0, where no boundary value couples into the interior rows.
    When no interior axis is longer than :data:`SINE_PRODUCT_MAX` the
    transform is the orthonormal one of :func:`_sine_transform`, dense
    matrix products on numpy's BLAS, and the inverse is
    ``T(T(B) / symbol)``.  A longer axis takes ``scipy.fft``'s
    ``idstn(dstn(B) / symbol)``, which is the same map; ``scipy.fft`` is
    imported in that branch alone, so a run on no such grid never loads it.
    """
    # eigenvalues of the 1-d Dirichlet -D^2_h per axis, summed over an
    # open mesh onto the 1: the symbol of 1 - Delta_h in the sine basis
    eigenvalues = [
        (2.0 - 2.0 * np.cos(np.arange(1, m - 1) * np.pi / (m - 1))) / h**2
        for m, h in zip(grid.shape, grid.spacing)
    ]
    symbol = sum(np.ix_(*eigenvalues), 1.0)
    inner = tuple(slice(1, -1) for _ in grid.shape)
    if max(grid.shape) - 2 <= SINE_PRODUCT_MAX:

        def solve(block):
            return _sine_transform(_sine_transform(block) / symbol)

    else:
        from scipy.fft import dstn, idstn

        def solve(block):
            return idstn(dstn(block, type=1) / symbol, type=1)

    def apply(x):
        y = x.copy()  # the identity on the Dirichlet rows
        block = y.reshape(grid.shape)
        block[inner] = solve(block[inner])
        return y

    return apply


class _FastPoisson(_CheckedSolver):
    """The direct solve of ``J(0)``, the ``p = 2`` operator, by fast Poisson.

    At ``v = 0`` the frozen coefficient is the identity whatever ``p`` is,
    so ``J(0) = 1 - Delta_h`` on the interior rows.  The solve lifts
    non-zero Dirichlet rows first: ``x0`` holds the right-hand side on them
    and 0 inside, and ``x0 + M (rhs - J x0)`` with ``M`` the
    :func:`_poisson_inverse` is the exact solution, with no matrix
    factorized.  Past the cold sweep the residual's Dirichlet rows are 0,
    so the solve is ``M rhs`` alone: four dense sine products in 2-d and
    six in 3-d, or two ``scipy.fft`` transforms on a grid with an interior
    axis past :data:`SINE_PRODUCT_MAX`.  No matrix is assembled either:
    ``J x0`` and the backward-error check apply the 5-point (2-d) or
    7-point (3-d) :func:`_stencil` table of ``J(0)``, whose weights are
    numbers.

    Away from ``v = 0`` a sweep's step solves ``J(0) x = gamma r``: the
    renormalization ``gamma = tr A / |A|^2`` of Smears and Sueli makes
    ``gamma A`` close to the identity in the Cordes sense, so ``J(0)``
    approximates ``gamma J(v)`` and the sweeps contract where the exponent
    stays near 2.  With ``lam`` the eigenvalue of ``A`` along ``q`` and the
    ``n - 1`` others equal to 1, ``gamma = (n - 1 + lam) / (n - 1 + lam^2)``;
    at ``v = 0``, where ``lam = 1``, it is exactly 1.
    """

    #: It costs no factor, only two DST-I transforms per solve (under a
    #: millisecond up to 129^2 and 33^3, 14 ms at 65^3): keep it
    #: while each sweep contracts by :data:`POISSON_KEEP_RATIO`.
    keep_ratio = POISSON_KEEP_RATIO
    inexact = False

    def __init__(self, grid: GridSpec):
        identity = {(i, i): 1.0 for i in range(grid.dimension)}
        super().__init__(_stencil(identity, grid.spacing), grid.shape)
        self._inverse = _poisson_inverse(grid)
        self._boundary = ~grid.interior_mask().ravel()

    def _apply(self, rhs: np.ndarray, bound: float = CONTRACT_BOUND) -> np.ndarray:
        if not rhs[self._boundary].any():
            return self._inverse(rhs)
        lifted = np.where(self._boundary, rhs, 0.0)
        return lifted + self._inverse(rhs - self._product(lifted))

    def step(self, r: np.ndarray, coeffs: _Coefficients) -> np.ndarray:
        # gamma is 1 exactly at the range's Dirichlet positions, where lam is 1
        others = len(coeffs.shape) - 1
        gamma = coeffs.lam + others
        gamma /= coeffs.lam**2 + others
        scaled = r.copy()
        _flat_range(coeffs.shape).shifted(scaled)[...] *= gamma
        return super().step(scaled, coeffs)


class _PoissonGMRES(_CheckedSolver):
    """GMRES on a stencil table, preconditioned by a fast Poisson solve.

    GMRES multiplies by the table with :func:`_stencil_action`, wrapped in
    a ``LinearOperator``: no matrix is assembled.

    The frozen coefficient ``A = I + (p - 2) s e (x) e`` satisfies the Cordes
    condition (in 3-d when its largest eigenvalue is below 4, so for every
    ``s`` when ``p < 5``), and under it the frozen operator is close to the
    Laplacian uniformly in ``h`` (Smears and Sueli, SINUM 51 (2013)); the
    Jacobian adds only a first-order term to it.  The preconditioner is
    :func:`_poisson_inverse`, the exact inverse of the ``p = 2`` operator,
    by dense sine products on every 3-d grid below 129 nodes per axis.
    The GMRES iteration count then does not grow as the grid is refined,
    while LU fill in 3-d grows faster than the number of unknowns.

    GMRES stops once its residual is ``bound`` times the right-hand side's
    (2-norms), with ``bound`` the contract's 1e-12 for a direct call and
    :data:`FORCING_MAX` for a Newton step; the check
    then measures the backward error against the same bound.  Measured at
    17^3 and 33^3, a Newton step takes 5-6 iterations for the fixture
    exponent and 15-20 at ``p = 9``, where solves to 1e-12 took 10-12 and
    33-42.
    """

    #: Building one costs about a millisecond: rebuild it at every sweep.
    keep_ratio = 0.0
    #: A Newton step stops GMRES at the forcing term.
    inexact = True

    def __init__(self, rows: list, grid: GridSpec):
        from scipy.sparse.linalg import LinearOperator

        super().__init__(rows, grid.shape)
        size = (math.prod(grid.shape),) * 2
        self._operator = LinearOperator(size, matvec=self._product, dtype=float)
        self._preconditioner = LinearOperator(size, matvec=_poisson_inverse(grid), dtype=float)

    def _apply(self, rhs: np.ndarray, bound: float = CONTRACT_BOUND) -> np.ndarray:
        if not np.isfinite(rhs).all():
            # GMRES would only spin on it until its cycles run out; the NaN
            # fails the contract check at once
            return np.full_like(rhs, np.nan)
        # a missed tolerance is left to the contract check, not to ``info``
        x, _ = gmres(
            self._operator,
            rhs,
            rtol=bound,
            atol=0.0,
            restart=GMRES_RESTART,
            maxiter=GMRES_MAX_CYCLES,
            M=self._preconditioner,
        )
        return x


def _linear_solver(coeffs: _Coefficients, v: np.ndarray, grid: GridSpec) -> _CheckedSolver:
    """The solver of ``J(v)`` on ``grid``, from the stencil data ``coeffs``
    of ``v``: fast Poisson at ``v = 0``, where ``J`` is the ``p = 2``
    operator; else, on the :func:`_stencil` table of ``J(v)``, GMRES in
    3-d, where LU fill grows faster than the grid, and sparse LU in 2-d,
    where it is cheaper.  Only the LU factor assembles a matrix."""
    if not v.any():
        return _FastPoisson(grid)
    rows = _stencil(coeffs.a, grid.spacing, _drift(coeffs))
    if grid.dimension == 3:
        return _PoissonGMRES(rows, grid)
    return _LUFactor(rows, grid.shape)


# ---------------------------------------------------------------------------
# The sweep loop: renormalized fast Poisson sweeps, with Newton (3-d) or
# chord-Newton (2-d) as the fallback
# ---------------------------------------------------------------------------


def solve_regularized(
    prob: DiscreteProblem,
    warm_start: Optional[ScalarField] = None,
    held: Optional[list] = None,
) -> SolveResult:
    """Newton-type iteration on the residual ``g - A(v) v``.

    Each sweep takes ``v <- v + J^-1 (g - A(v) v)`` with ``J`` the
    residual's Jacobian or, while the fast Poisson solve is kept, the step
    ``J(0)^-1 (gamma (g - A(v) v))`` of :class:`_FastPoisson`.  Without
    ``warm_start`` the sweeps start at ``v = 0``, where ``J`` is the
    ``p = 2`` operator, so the first sweep, the cold one, is a fast Poisson
    solve of the ``p = 2`` problem, with no LU factor and no GMRES call.
    The loop keeps its linear solver, the cold sweep's or the one ``held``
    brings, while every later sweep cuts the nonlinear residual
    ``max |g - A(v) v|`` to at most the solver's ``keep_ratio`` of its
    previous value; it builds the solver of ``J(v)`` at the current iterate
    after a sweep that does not, at the first sweep when ``held`` brings
    none or one with a ratio of 0, and never after the cold sweep, whose
    ratio measures the data rather than a contraction.  An ``inexact``
    solver (3-d GMRES) solves each step to :data:`FORCING_MAX`; the others
    solve to :data:`CONTRACT_BOUND`.
    Convergence requires both a small relative update and a nonlinear
    residual below ``10 * tolerance * max(1, |g|_inf)``, within
    ``max_iterations`` sweeps (the constants of :class:`SolveOptions`); on
    non-convergence the last iterate is returned flagged, residual included.

    ``held``, by default a fresh ``[None]``, is the one-slot list of the
    linear solver: :func:`epsilon_continuation` hands the kept solver on
    from one eps level to the next in it.  On return it holds the last
    solver; it is emptied before a new one is built, so no old factor stays
    alive while ``splu`` allocates the next.
    """
    opts = SolveOptions()
    held = [None] if held is None else held
    grid = prob.grid
    interior = grid.interior_mask()
    rhs = np.where(interior, prob.g.values, prob.boundary.values).ravel()
    residual_target = 10.0 * opts.tolerance * max(1.0, float(np.abs(rhs).max()))

    if warm_start is not None:
        if warm_start.grid != grid:
            raise SolverError("warm start lives on a different grid")
        v = warm_start.values.copy()
    else:
        v = np.zeros(grid.shape)  # A(0) = I whatever p is: sweep 1 is the p = 2 solve

    offset = _exponent_offset(prob.p.values)  # once per level, not per sweep

    def nonlinear_residual(v):
        return _nonlinear_residual(v, offset, prob.eps, grid.spacing, rhs)

    r, coeffs = nonlinear_residual(v)
    residual = float(np.abs(r).max())
    rebuild = held[0] is None or not held[0].keep_ratio
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        if rebuild:
            held[0] = None  # release the old solver before the new one allocates
            held[0] = _linear_solver(coeffs, v, grid)
        judged = v.any()  # the cold sweep, from v = 0, is not
        step = held[0].step(r, coeffs).reshape(grid.shape)
        v = v + step
        delta = float(np.abs(step).max())
        r, coeffs = nonlinear_residual(v)
        previous, residual = residual, float(np.abs(r).max())
        rebuild = judged and residual > held[0].keep_ratio * previous
        if delta <= opts.tolerance * (1.0 + float(np.abs(v).max())) and residual <= residual_target:
            converged = True
            break

    bvals = prob.boundary.values[~interior]
    data_norm = float(np.abs(prob.g.values).max())
    return SolveResult(
        v=ScalarField(grid, v),
        iterations=iterations,
        residual=residual,
        ellipticity=coeffs.ellipticity,
        converged=converged,
        dominance_violations=coeffs.dominance_violations,
        value_range=(float(v.min()), float(v.max())),
        principle_range=(float(bvals.min()) - data_norm, float(bvals.max()) + data_norm),
        problem=prob,
    )


# ---------------------------------------------------------------------------
# eps -> 0 continuation
# ---------------------------------------------------------------------------


def _default_region(grid: GridSpec) -> BallRegion:
    center = tuple(0.5 * (a + b) for a, b in zip(grid.lo, grid.hi))
    radius = min(
        0.5 * ext - 3.0 * h for ext, h in zip(grid.extents, grid.spacing)
    )
    if radius <= 0:
        raise SolverError("grid too small for a continuation region")
    return BallRegion(center, radius)


def _clip_radius(eps: float, grid: GridSpec) -> float:
    """The mollification radius of level ``eps``: clipped to ``[2h, L/4]``
    (``L`` the shortest extent), which must not be empty."""
    lo = 2.0 * max(grid.spacing)
    hi = 0.25 * min(grid.extents)
    if lo > hi:
        raise SolverError(
            f"grid too coarse to mollify: the radius floor 2h = {lo:g} exceeds "
            f"a quarter of the shortest extent, {hi:g}"
        )
    return min(max(eps, lo), hi)


def _check_schedule(schedule) -> tuple:
    """The eps schedule as floats: non-empty, positive, strictly decreasing, below 1."""
    schedule = tuple(float(e) for e in schedule)
    if not schedule:
        raise SolverError("eps_schedule is empty")
    # written so that a NaN entry fails each check
    if any(not e > 0 for e in schedule):
        raise SolverError("eps_schedule must list positive values")
    if any(not b < a for a, b in zip(schedule, schedule[1:])):
        raise SolverError("eps_schedule must be strictly decreasing")
    if not schedule[0] < 1.0:
        raise SolverError(f"regularization eps must lie in (0, 1), got {schedule[0]}")
    return schedule


def epsilon_continuation(data: DiscreteProblem, schedule) -> ContinuationResult:
    """Solve along a decreasing eps schedule, warm-starting each solve.

    The first level starts cold at ``v = 0``.  Each later level starts from
    the solution of the level before and from its last linear solver, the
    fast Poisson solve or the 2-d LU factor, so a solver is built only
    where a sweep contracts the residual by less than the held solver's
    ``keep_ratio``.

    ``data`` is the raw problem, sampled and unmollified, that
    :func:`build_problem` returns and :func:`pxlaplace.config.load_config`
    keeps as ``RunConfig.problem``; its ``p`` exceeds 1, checked when it was
    built.  The continuation samples nothing, and reads neither its ``eps``
    nor its ``g``.  Each level mollifies ``p`` and ``f`` (once
    per distinct radius; an identically zero ``f`` is its own mollification,
    so it is kept as sampled) and the interior data field ``u0``, the previous
    solution or at the first level the boundary, with a radius that follows
    the schedule, clipped to what the grid can resolve.  So the data term
    ``g - v = f_eps + u0_eps - v`` contracts along the schedule and the final
    iterate approximates the unregularized problem.  The Cauchy increments
    ``max |D(v_k - v_{k-1})|`` over a ball two nodes inside the grid, where
    every difference is central, are recorded as the convergence evidence;
    the discrete gradient is linear, so no level keeps a gradient of its own.
    """
    schedule = _check_schedule(schedule)
    grid = data.grid
    mask = ball_mask(_default_region(grid).scaled(0.75), grid)
    radii = [_clip_radius(eps, grid) for eps in schedule]

    held = [None]  # the last linear solver, which the next eps level reuses
    results = []
    increments = []
    prev = None
    mollified_at = None
    for eps, radius in zip(schedule, radii):
        if radius != mollified_at:  # radii only shrink, so a repeat is the last
            mollified_at = radius
            p = mollify(data.p, radius)
            f = mollify(data.f, radius) if data.f.values.any() else data.f
        u0 = mollify(data.boundary if prev is None else prev, radius)
        prob = _discretized(eps, data.boundary, p, f, u0)
        result = solve_regularized(prob, warm_start=prev, held=held)
        if not result.converged:
            raise SolverError(f"continuation member solve at eps={eps} did not converge")
        if prev is not None:
            diff = gradient(ScalarField(grid, result.v.values - prev.values))
            increments.append(float(np.linalg.norm(diff, axis=-1)[mask].max()))
        results.append(result)
        prev = result.v
    return ContinuationResult(results=results, increments=increments)
