"""Newton-type solver for the regularized Dirichlet problem.

The discrete problem on a grid box is

    -A(x) : D^2 v + v = g      in the interior,
    v = boundary data          on the box boundary,

with ``A = I + (p - 2) Dv (x) Dv / (|Dv|^2 + eps)``.  Each sweep takes the
correction step ``v <- v + theta J^-1 (g - A(v) v)``, where ``J^-1`` solves
with the Jacobian ``J`` of the residual at the current or an earlier
iterate.  The residual ``g - A(v) v`` comes straight from the 9-point (2-d)
or 19-point (3-d) stencil, matrix-free, with the difference kernels of
:mod:`pxlaplace.diffops` that the audits read too.
``J(v) = K(v) - (p - 2) b . D_h``
is the frozen operator ``K(v) = 1 - A(v) : D^2_h`` plus a first-order term
on the axis neighbours, so it has the stencil's sparsity pattern; it is
assembled only when a linear solver is built.  In 2-d the solver is a
sparse LU factor: the stencil pattern is structurally symmetric with a
diagonal of at least 1, so the factor orders by minimum degree on
``J + J^T`` and pivots on the diagonal.  In 3-d, where LU fill grows faster
than the grid, it is GMRES on ``J``, preconditioned by a DST-I fast Poisson
solve.  Every solve is checked against a 1e-12 normwise backward error, and
one that misses it raises :class:`SolverError`.

In 3-d the GMRES solver costs about a millisecond to build, so it is
rebuilt from ``J(v)`` at every sweep: a damped Newton iteration.  In 2-d an
LU factor costs about as much as 17 sweeps, so the factor is kept while
every sweep at least halves the nonlinear residual (``REFACTOR_RATIO``) and
rebuilt from the current iterate when one does not (a chord-Newton
iteration), and an eps continuation hands it on from one level to the
next.  Which ``J`` a sweep solves with changes only the path: the fixed
point ``A(v) v = g`` stays.  A cold solve starts at ``v = 0``, where ``A`` is
the identity and ``J`` is the ``p = 2`` operator, so its first sweep takes
``theta`` times the ``p = 2`` solution for damping ``theta``; its second
sweep rebuilds from ``J(v)``.  Sweeps repeat until both the update and the
nonlinear residual are tiny.  The right-hand data is ``g = f_eps +
u0_eps``: sampled coefficient/data fields, optionally mollified with a
radius tied to ``eps``.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .constants import ExponentWindow
from .diffops import _central_difference, _shifted, _stencil_hessian, gradient
from .expressions import Expression
from .fields import BallRegion, GridSpec, ScalarField, ball_mask, mollify, sample

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
    "manufactured_rhs",
    "solve_regularized",
]


#: In 2-d, a sweep that leaves the nonlinear residual above this fraction
#: of its previous value triggers a rebuild of the LU factor from the
#: current iterate.  (The 3-d solver is rebuilt at every sweep.)
REFACTOR_RATIO = 0.5


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
    mollify_radius: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise SolverError(f"regularization eps must lie in (0, 1), got {self.eps}")
        if self.mollify_radius < 0.0:
            raise SolverError("mollification radius must be nonnegative")
        for name, expr in (("p", self.p_expr), ("f", self.f_expr), ("boundary", self.boundary_expr)):
            if expr.dimension != self.grid.dimension:
                raise SolverError(f"{name} expression dimension does not match the grid")


@dataclass(frozen=True)
class SolveOptions:
    tolerance: float = 1e-10
    max_iterations: int = 500
    damping: float = 1.0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise SolverError("tolerance must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise SolverError("damping factor must lie in (0, 1]")


@dataclass(frozen=True)
class DiscreteProblem:
    """Sampled (and possibly mollified) problem data on a grid."""

    grid: GridSpec
    p: ScalarField
    f: ScalarField
    g: ScalarField
    boundary: ScalarField
    eps: float
    rho: float
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


def build_problem(spec: ProblemSpec, seed: Optional[ScalarField] = None) -> DiscreteProblem:
    """Sample the problem data; mollify it when a radius is set.

    ``seed`` replaces the sampled boundary expression as the interior data
    field ``u0`` (the Dirichlet trace always comes from the boundary
    expression).  Nodes where the mollifier lacks full support keep their raw
    values.
    """
    grid = spec.grid
    boundary = sample(spec.boundary_expr, grid)
    p_raw = sample(spec.p_expr, grid)
    f_raw = sample(spec.f_expr, grid)
    u0_raw = boundary if seed is None else seed
    if seed is not None and seed.grid != grid:
        raise SolverError("seed field lives on a different grid")
    if spec.mollify_radius > 0.0:
        p_used = mollify(p_raw, spec.mollify_radius)
        f_used = mollify(f_raw, spec.mollify_radius)
        u0_used = mollify(u0_raw, spec.mollify_radius)
    else:
        p_used, f_used, u0_used = p_raw, f_raw, u0_raw
    t_minus = float(p_used.values.min())
    t_plus = float(p_used.values.max())
    if t_minus <= 1.0:
        raise SolverError(f"exponent field leaves the ellipticity window: min p = {t_minus} <= 1")
    g = ScalarField(grid, f_used.values + u0_used.values)
    return DiscreteProblem(
        grid=grid,
        p=p_used,
        f=f_used,
        g=g,
        boundary=boundary,
        eps=spec.eps,
        rho=spec.mollify_radius,
        window=ExponentWindow(t_minus, t_plus),
    )


# ---------------------------------------------------------------------------
# Stencil assembly
# ---------------------------------------------------------------------------


#: ``(si, sj, sign)`` of the four cross-derivative entries ``u(x + si h_i e_i
#: + sj h_j e_j)`` of the stencil, in assembly order.
_CROSS_TERMS = ((+1, +1, -1.0), (-1, -1, -1.0), (+1, -1, +1.0), (-1, +1, +1.0))


@dataclass(frozen=True)
class _StencilPattern:
    """CSR structure of the frozen operator on one grid shape.

    ``slots[k]`` holds, per interior node, the position in ``data`` of the
    ``k``-th stencil entry (the centre, the axis neighbours ``+e_i, -e_i``,
    then the cross terms of each axis pair in ``_CROSS_TERMS`` order);
    ``boundary_slots`` holds the Dirichlet diagonal.  The arrays are shared
    by every matrix assembled on the grid shape, so they are read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    boundary_slots: np.ndarray


@functools.lru_cache(maxsize=8)
def _stencil_pattern(shape: tuple) -> _StencilPattern:
    n = len(shape)
    size = int(np.prod(shape))
    strides = [int(np.prod(shape[i + 1 :])) for i in range(n)]
    mesh = np.meshgrid(*(np.arange(1, m - 1) for m in shape), indexing="ij")
    interior = np.ravel_multi_index(tuple(mesh), shape).ravel()
    boundary = np.setdiff1d(np.arange(size), interior, assume_unique=True)
    offsets = [0]
    for i in range(n):
        offsets += [strides[i], -strides[i]]
    for i in range(n):
        for j in range(i + 1, n):
            offsets += [si * strides[i] + sj * strides[j] for si, sj, _ in _CROSS_TERMS]
    rows = np.concatenate([np.tile(interior, len(offsets)), boundary])
    cols = np.concatenate([interior + off for off in offsets] + [boundary])
    # scipy's own COO -> CSR conversion fixes the entry order; its data
    # carries each entry's stencil-order position along.  No entry repeats.
    order = csr_matrix((np.arange(rows.size), (rows, cols)), shape=(size, size))
    slots = np.empty(rows.size, dtype=np.intp)
    slots[order.data] = np.arange(rows.size)
    for array in (order.indptr, order.indices, slots):
        array.setflags(write=False)
    return _StencilPattern(
        indptr=order.indptr,
        indices=order.indices,
        slots=slots[: -boundary.size].reshape(len(offsets), interior.size),
        boundary_slots=slots[-boundary.size :],
    )


@dataclass(frozen=True)
class _Coefficients:
    """The frozen coefficient ``A(v)`` on the interior nodes.

    ``a[i, j]`` (``i <= j``) holds ``delta_ij + coef Dv_i Dv_j`` with
    ``coef = (p - 2) / (|Dv|^2 + eps)``; ``lam`` holds ``1 + coef |Dv|^2``,
    the eigenvalue of ``A`` along ``Dv`` (the others are 1).  All arrays
    have the shape of the interior block.
    """

    a: dict
    lam: np.ndarray
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


def _frozen_coefficients(v: np.ndarray, p: np.ndarray, eps: float, spacing: tuple) -> _Coefficients:
    """``A(v)`` from the central-difference gradient of ``v`` on the interior
    nodes."""
    if eps <= 0:
        raise SolverError("frozen operator needs eps > 0")
    if float(p.min()) <= 1.0:
        raise SolverError("exponent field leaves the ellipticity window (p <= 1 somewhere)")
    n = v.ndim
    grads = [_central_difference(v, i, spacing[i]) for i in range(n)]
    g2 = grads[0] ** 2
    for grad in grads[1:]:
        g2 = g2 + grad**2
    if not np.isfinite(g2).all():  # a gradient component overflowed, or its square
        raise SolverError("frozen operator needs a finite gradient: |Dv|^2 overflowed")
    coef = (_shifted(p) - 2.0) / (g2 + eps)
    a = {}
    for i in range(n):
        a[i, i] = 1.0 + coef * grads[i] * grads[i]
        for j in range(i + 1, n):
            a[i, j] = coef * grads[i] * grads[j]
    return _Coefficients(a, 1.0 + coef * g2, tuple(spacing))


def _nonlinear_residual(v: np.ndarray, p: np.ndarray, eps: float, spacing: tuple, rhs: np.ndarray):
    """``rhs - A(v) v`` (flat) and the coefficients ``A(v)``, with no matrix.

    Interior rows are ``g - v + A(v) : D^2_h v`` with the stencil Hessian;
    Dirichlet rows are ``boundary - v``.
    """
    coeffs = _frozen_coefficients(v, p, eps, spacing)
    r = (rhs - v.ravel()).reshape(v.shape)
    interior = _shifted(r)  # a view: the updates land in r
    for (i, j), block in _stencil_hessian(v, spacing).items():
        interior += (1.0 if i == j else 2.0) * coeffs.a[i, j] * block
    if not np.isfinite(r).all():
        raise SolverError("sweep needs a finite gradient and Hessian: g - A(v) v overflowed")
    return r.ravel(), coeffs


def assemble_frozen_operator(v_current: ScalarField, p: ScalarField, eps: float) -> csr_matrix:
    """Assemble ``-A(x):D^2 + 1`` with coefficients frozen at ``v_current``.

    Interior rows carry the 9-point (2-d) / 19-point (3-d) stencil; boundary
    rows are Dirichlet identities.  The sparsity pattern is built once per
    grid shape; each call only fills in the coefficients.
    """
    grid = v_current.grid
    n = grid.dimension
    h = grid.spacing
    coeffs = _frozen_coefficients(v_current.values, p.values, eps, h)
    a = {key: block.ravel() for key, block in coeffs.a.items()}

    pattern = _stencil_pattern(grid.shape)
    data = np.empty(pattern.indices.size)
    slots = iter(pattern.slots)

    center = np.ones(pattern.slots.shape[1])
    for i in range(n):
        center += 2.0 * a[i, i] / h[i] ** 2
    data[next(slots)] = center

    for i in range(n):
        coeff = -a[i, i] / h[i] ** 2
        data[next(slots)] = coeff
        data[next(slots)] = coeff

    for i in range(n):
        for j in range(i + 1, n):
            q = a[i, j] / (2.0 * h[i] * h[j])
            for _, _, sign in _CROSS_TERMS:
                data[next(slots)] = sign * q

    data[pattern.boundary_slots] = 1.0
    size = int(np.prod(grid.shape))
    return csr_matrix((data, pattern.indices, pattern.indptr), shape=(size, size))


def _jacobian(v: ScalarField, p: ScalarField, eps: float) -> csr_matrix:
    """The Jacobian ``J(v)`` of ``A(v) v - g``, on the frozen operator's pattern.

    Differentiating ``A(v) : D^2_h v`` through ``A`` gives
    ``J(v) w = K(v) w - (p - 2) b . D_h w`` with ``K(v)`` the frozen operator,
    ``b = 2 H q / d - 2 (q^T H q) q / d^2``, ``q`` the central gradient, ``H``
    the stencil Hessian of ``v`` and ``d = |q|^2 + eps``.  The central
    difference ``D_h w`` reads only the axis neighbours, so ``J`` adds
    ``-/+ (p - 2) b_i / (2 h_i)`` on the ``+/- e_i`` slots of ``K``.
    """
    matrix = assemble_frozen_operator(v, p, eps)
    h = v.grid.spacing
    n = len(h)
    q = [_central_difference(v.values, i, h[i]) for i in range(n)]
    hess = _stencil_hessian(v.values, h)
    d = sum(qi**2 for qi in q) + eps
    hq = [sum(hess[min(i, j), max(i, j)] * q[j] for j in range(n)) for i in range(n)]
    qhq = sum(qi * hqi for qi, hqi in zip(q, hq))
    scale = (_shifted(p.values) - 2.0) * 2.0 / d
    slots = _stencil_pattern(v.grid.shape).slots
    for i in range(n):
        drift = (scale * (hq[i] - qhq * q[i] / d) / (2.0 * h[i])).ravel()
        matrix.data[slots[1 + 2 * i]] -= drift
        matrix.data[slots[2 + 2 * i]] += drift
    return matrix


class _CheckedSolver:
    """A linear solver of one matrix whose every solve is checked.

    A solution meets a normwise backward error (residual relative to
    ``|A| |x| + |b|``, in the max norm) of 1e-12 against the matrix, after at
    most one refinement step, or the solve raises :class:`SolverError`; an
    inaccurate or non-finite solution is never used.  Subclasses supply the
    unchecked solve ``_apply``.
    """

    def __init__(self, matrix: csr_matrix):
        self._matrix = matrix
        self._norm = float(np.abs(matrix).sum(axis=1).max())

    def _backward_error(self, rhs: np.ndarray, x: np.ndarray):
        r = rhs - self._matrix @ x
        scale = self._norm * float(np.abs(x).max()) + float(np.abs(rhs).max()) + 1e-300
        return float(np.abs(r).max()) / scale, r

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._apply(rhs)
        error, residual = self._backward_error(rhs, x)
        if not error <= 1e-12:  # a NaN error misses the bound too
            x = x + self._apply(residual)
            error, _ = self._backward_error(rhs, x)
            if not error <= 1e-12:
                raise SolverError(
                    f"linear solve reached a normwise backward error of {error:.3g}, "
                    "above the 1e-12 bound"
                )
        return x


class _LUFactor(_CheckedSolver):
    """Sparse LU factor of one matrix, reused for any number of solves.

    The factor uses a symmetric minimum-degree ordering on the pattern of
    ``A + A^T`` and takes every pivot on the diagonal, which keeps the fill
    well below the default column ordering with partial pivoting.  That
    fits the Jacobian: its stencil pattern is structurally symmetric
    (an interior node couples to an interior neighbour exactly when the
    neighbour couples back; a Dirichlet row is a row of the identity) and
    every diagonal entry is at least 1.  Diagonal pivots are not proven
    stable for a nonsymmetric operator, which is one reason every solve is
    checked against the backward-error contract.
    """

    def __init__(self, matrix: csr_matrix):
        super().__init__(matrix)
        try:
            self._lu = splu(
                matrix.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except (RuntimeError, MemoryError) as err:  # singular factorization, memory
            raise SolverError(f"linear solve breakdown: {err}") from err

    def _apply(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


#: GMRES stops at this residual relative to the right-hand side (2-norm).
#: 1e-10 misses the 1e-12 backward-error contract; 1e-13 stagnates at
#: round-off.
GMRES_RTOL = 1e-11
#: Krylov vectors GMRES keeps before it restarts.
GMRES_RESTART = 40
#: Restart cycles one GMRES call may take; the contract check then decides.
GMRES_MAX_CYCLES = 10


class _PoissonGMRES(_CheckedSolver):
    """GMRES on the assembled matrix, preconditioned by a fast Poisson solve.

    The frozen coefficient ``A = I + (p - 2) s e (x) e`` satisfies the Cordes
    condition (in 3-d when its largest eigenvalue is below 4, so for every
    ``s`` when ``p < 5``), and under it the frozen operator is close to the
    Laplacian uniformly in ``h`` (Smears and Sueli, SINUM 51 (2013)); the
    Jacobian adds only a first-order term to it.  The
    preconditioner is the identity on the Dirichlet rows and, on the
    interior block, the exact inverse of the 7-point ``1 - Delta_h`` (the
    ``p = 2`` operator): a diagonal scaling between two DST-I transforms.
    The GMRES iteration count then does not grow as the grid is refined,
    while LU fill in 3-d grows faster than the number of unknowns.
    """

    def __init__(self, matrix: csr_matrix, grid: GridSpec):
        super().__init__(matrix)
        from scipy.fft import dstn, idstn  # only the 3-d solver loads scipy.fft

        # eigenvalues of the 1-d Dirichlet -D^2_h per axis, summed over an
        # open mesh onto the 1: the symbol of 1 - Delta_h in the sine basis
        eigenvalues = [
            (2.0 - 2.0 * np.cos(np.arange(1, m - 1) * np.pi / (m - 1))) / h**2
            for m, h in zip(grid.shape, grid.spacing)
        ]
        symbol = sum(np.ix_(*eigenvalues), 1.0)
        inner = tuple(slice(1, -1) for _ in grid.shape)

        def precondition(x):
            y = x.copy()  # the identity on the Dirichlet rows
            block = y.reshape(grid.shape)
            block[inner] = idstn(dstn(block[inner], type=1) / symbol, type=1)
            return y

        self._preconditioner = LinearOperator(matrix.shape, matvec=precondition, dtype=float)

    def _apply(self, rhs: np.ndarray) -> np.ndarray:
        if not np.isfinite(rhs).all():
            # GMRES would only spin on it until its cycles run out; the NaN
            # fails the contract check at once
            return np.full_like(rhs, np.nan)
        # a missed tolerance is left to the contract check, not to ``info``
        x, _ = gmres(
            self._matrix,
            rhs,
            rtol=GMRES_RTOL,
            atol=0.0,
            restart=GMRES_RESTART,
            maxiter=GMRES_MAX_CYCLES,
            M=self._preconditioner,
        )
        return x


def _linear_solver(matrix: csr_matrix, grid: GridSpec) -> _CheckedSolver:
    """The solver of a Jacobian on ``grid``: GMRES in 3-d, where LU
    fill grows faster than the grid; sparse LU in 2-d, where it is cheaper."""
    if grid.dimension == 3:
        return _PoissonGMRES(matrix, grid)
    return _LUFactor(matrix)


# ---------------------------------------------------------------------------
# Newton (3-d) and chord-Newton (2-d) iteration
# ---------------------------------------------------------------------------


def solve_regularized(
    problem,
    options: Optional[SolveOptions] = None,
    warm_start: Optional[ScalarField] = None,
) -> SolveResult:
    """Damped Newton-type iteration on the residual ``g - A(v) v``.

    Each sweep takes ``v <- v + damping * J^-1 (g - A(v) v)`` with ``J`` the
    residual's Jacobian.  In 3-d ``J^-1``, preconditioned GMRES, is rebuilt
    from ``J(v)`` at every sweep.  In 2-d ``J^-1``, a sparse LU factor, is
    built at the first sweep and again after any sweep that fails to cut
    the nonlinear residual ``max |g - A(v) v|`` to ``REFACTOR_RATIO`` of its
    previous value.  Without ``warm_start`` the sweeps start at ``v = 0``,
    where ``J`` is the ``p = 2`` operator, so the first sweep solves the
    ``p = 2`` problem; with damping ``theta`` the first iterate is
    ``theta`` times that solution.  That solver ignores ``p``, so the
    second sweep always rebuilds.  (Within :func:`epsilon_continuation`
    each later 2-d eps level starts from the previous level's solution and
    LU factor instead.)  Convergence requires both a small relative update
    and a nonlinear residual below ``10 * tolerance * max(1, |g|_inf)``; on
    non-convergence the last iterate is returned flagged, residual
    included.
    """
    prob = problem if isinstance(problem, DiscreteProblem) else build_problem(problem)
    return _chord_solve(prob, options or SolveOptions(), warm_start, [None])


def _chord_solve(prob: DiscreteProblem, opts: SolveOptions, warm_start, held: list) -> SolveResult:
    """The sweeps of :func:`solve_regularized`, from ``warm_start`` (or
    ``v = 0``) with the linear solver in the one-slot list ``held``
    (``[None]``, always so for a cold start: build one at the first sweep).
    Every linear solver is built here, in the sweep loop, from ``J(v)``:
    at every sweep in 3-d, under ``REFACTOR_RATIO`` in 2-d.

    On return ``held`` holds the last solver.  The slot is emptied before a
    new solver is built, so the caller never keeps an old LU factor alive
    while ``splu`` allocates the next one.
    """
    grid = prob.grid
    interior = grid.interior_mask()
    rhs = np.where(interior, prob.g.values, prob.boundary.values).ravel()
    g_scale = max(1.0, float(np.abs(rhs).max()))
    residual_target = 10.0 * opts.tolerance * g_scale

    if warm_start is not None:
        if warm_start.grid != grid:
            raise SolverError("warm start lives on a different grid")
        v = warm_start.values.copy()
    else:
        v = np.zeros(grid.shape)  # A(0) = I whatever p is: sweep 1 is the p = 2 solve

    def nonlinear_residual(v):
        return _nonlinear_residual(v, prob.p.values, prob.eps, grid.spacing, rhs)

    # a GMRES solver costs about a millisecond to build, an LU factor about
    # as much as 17 sweeps: only 2-d keeps a solver while it contracts well
    newton = grid.dimension == 3
    r, coeffs = nonlinear_residual(v)
    residual = float(np.abs(r).max())
    refactor = newton or held[0] is None
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        if refactor:
            held[0] = None  # release the old solver before the new one allocates
            held[0] = _linear_solver(_jacobian(ScalarField(grid, v), prob.p, prob.eps), grid)
        step = opts.damping * held[0].solve(r).reshape(grid.shape)
        v = v + step
        delta = float(np.abs(step).max())
        r, coeffs = nonlinear_residual(v)
        previous, residual = residual, float(np.abs(r).max())
        # J(0) ignores p, so a cold start rebuilds at sweep 2
        refactor = (
            newton
            or residual > REFACTOR_RATIO * previous
            or (warm_start is None and iterations == 1)
        )
        if delta <= opts.tolerance * (1.0 + float(np.abs(v).max())) and residual <= residual_target:
            converged = True
            break

    vfield = ScalarField(grid, v)
    bvals = prob.boundary.values[~interior]
    data_norm = float(np.abs(prob.g.values).max())
    return SolveResult(
        v=vfield,
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
# Manufactured right-hand sides
# ---------------------------------------------------------------------------


def manufactured_rhs(
    u_expr: Expression, p_expr: Expression, eps: float, include_reaction: bool = False
) -> Expression:
    """Symbolic ``-lap(u) - (p-2) inf_lap(u)/(|Du|^2 + eps)``, optionally ``+ u``.

    Built from exact symbolic derivatives, so a solve with this data admits
    ``u`` as the exact continuum solution (``include_reaction=True`` targets
    the zeroth-order form actually solved by :func:`solve_regularized` via
    ``g = rhs``).
    """
    if u_expr.dimension != p_expr.dimension:
        raise SolverError("solution and exponent expressions disagree in dimension")
    n = u_expr.dimension
    grads = [u_expr.differentiate(i) for i in range(n)]
    hess = [[grads[i].differentiate(j) for j in range(n)] for i in range(n)]
    lap = hess[0][0]
    for i in range(1, n):
        lap = lap + hess[i][i]
    g2 = grads[0] * grads[0]
    for i in range(1, n):
        g2 = g2 + grads[i] * grads[i]
    inf_lap = Expression.constant(0.0, n)
    for i in range(n):
        for j in range(n):
            inf_lap = inf_lap + hess[i][j] * grads[i] * grads[j]
    rhs = -lap - (p_expr - 2.0) * inf_lap / (g2 + eps)
    if include_reaction:
        rhs = rhs + u_expr
    return rhs


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
    lo = 2.0 * max(grid.spacing)
    hi = 0.25 * min(grid.extents)
    if lo > hi:
        raise SolverError("grid too coarse to mollify")
    return min(max(eps, lo), hi)


def epsilon_continuation(
    spec: ProblemSpec, schedule, options: Optional[SolveOptions] = None
) -> ContinuationResult:
    """Solve along a decreasing eps schedule, warm-starting each solve.

    The first level starts cold at ``v = 0``.  Each later level starts from
    the solution of the level before and, in 2-d, from its last LU factor,
    so a factor is rebuilt only where a sweep fails to halve the residual.

    The mollification radius follows the schedule (clipped to what the grid
    can resolve).  The interior data field ``u0`` is rebuilt from the
    previous solution each step, so the data term
    ``g - v = f_eps + u0_eps - v`` contracts along the schedule and the final
    iterate approximates the unregularized problem.  The Cauchy increments
    ``max |D(v_k - v_{k-1})|`` over a ball two nodes inside the grid, where
    every difference is central, are recorded as the convergence evidence;
    the discrete gradient is linear, so no level keeps a gradient of its own.
    """
    schedule = tuple(float(e) for e in schedule)
    if not schedule:
        raise SolverError("empty eps schedule")
    # written so that a NaN entry fails each check
    if any(not e > 0 for e in schedule):
        raise SolverError("schedule entries must be positive")
    if any(not b < a for a, b in zip(schedule, schedule[1:])):
        raise SolverError("schedule must be strictly decreasing")
    grid = spec.grid
    mask = ball_mask(_default_region(grid).scaled(0.75), grid)

    opts = options or SolveOptions()
    held = [None]  # the last linear solver, which the next eps level reuses in 2-d
    results = []
    increments = []
    prev = None
    for eps in schedule:
        step_spec = dataclasses.replace(spec, eps=eps, mollify_radius=_clip_radius(eps, grid))
        prob = build_problem(step_spec, seed=prev)
        result = _chord_solve(prob, opts, prev, held)
        if not result.converged:
            raise SolverError(f"continuation member solve at eps={eps} did not converge")
        if prev is not None:
            diff = gradient(ScalarField(grid, result.v.values - prev.values))
            increments.append(float(np.linalg.norm(diff, axis=-1)[mask].max()))
        results.append(result)
        prev = result.v
    return ContinuationResult(results=results, increments=increments)
