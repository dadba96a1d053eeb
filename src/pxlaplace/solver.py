"""Frozen-coefficient solver for the regularized Dirichlet problem.

The discrete problem on a grid box is

    -A(x) : D^2 v + v = g      in the interior,
    v = boundary data          on the box boundary,

with ``A = I + (p - 2) Dv (x) Dv / (|Dv|^2 + eps)`` frozen at the current
iterate.  Each sweep assembles the 9-point (2-d) or 19-point (3-d) stencil
``A(v)`` and takes the correction step ``v <- v + theta LU^-1 (g - A(v) v)``
with a sparse LU factor of an earlier frozen operator (a chord iteration).
The factor is kept while every sweep at least halves the nonlinear residual
and rebuilt from the current ``A(v)`` when one does not; with a fresh factor
the step is exactly the damped Picard step, so the fixed point
``A(v) v = g`` does not depend on how often the factor is rebuilt.  Sweeps
repeat until both the update and the nonlinear residual are tiny.  The
right-hand data is ``g = f_eps + u0_eps``: sampled coefficient/data fields,
optionally mollified with a radius tied to ``eps``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from .constants import ExponentWindow
from .diffops import gradient
from .expressions import Expression
from .fields import BallRegion, FieldError, GridSpec, ScalarField, ball_mask, mollify, sample

__all__ = [
    "ContinuationResult",
    "DiscreteProblem",
    "FrozenOperator",
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


#: A sweep that leaves the nonlinear residual above this fraction of its
#: previous value triggers a refactorization from the current iterate.
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
    u0: ScalarField
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
class FrozenOperator:
    matrix: csr_matrix
    ellipticity: tuple
    dominance_violations: int


@dataclass
class ContinuationResult:
    results: list
    increments: list
    schedule: tuple
    region: BallRegion


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
        u0=u0_used,
        g=g,
        boundary=boundary,
        eps=spec.eps,
        rho=spec.mollify_radius,
        window=ExponentWindow(t_minus, t_plus),
    )


# ---------------------------------------------------------------------------
# Stencil assembly
# ---------------------------------------------------------------------------


def _interior_flat(grid: GridSpec) -> np.ndarray:
    mesh = np.meshgrid(*(np.arange(1, m - 1) for m in grid.shape), indexing="ij")
    return np.ravel_multi_index(tuple(mesh), grid.shape).ravel()


def assemble_frozen_operator(v_current: ScalarField, p: ScalarField, eps: float) -> FrozenOperator:
    """Assemble ``-A(x):D^2 + 1`` with coefficients frozen at ``v_current``.

    Interior rows carry the 9-point (2-d) / 19-point (3-d) stencil; boundary
    rows are Dirichlet identities.  The coefficient matrix eigenvalues and
    the 9-point positivity (diagonal-dominance) condition are inspected on
    the fly.
    """
    if eps <= 0:
        raise SolverError("frozen operator needs eps > 0")
    grid = v_current.grid
    n = grid.dimension
    shape = grid.shape
    h = grid.spacing
    size = int(np.prod(shape))
    strides = [int(np.prod(shape[i + 1 :])) for i in range(n)]

    if float(p.values.min()) <= 1.0:
        raise SolverError("exponent field leaves the ellipticity window (p <= 1 somewhere)")

    try:
        grads = gradient(v_current).values
    except FieldError as err:  # the difference quotients overflowed
        raise SolverError(f"frozen operator needs a finite gradient: {err}") from err
    g2 = np.sum(grads**2, axis=-1)
    if not np.isfinite(g2).all():
        raise SolverError("frozen operator needs a finite gradient: |Dv|^2 overflowed")
    coef = (p.values - 2.0) / (g2 + eps)
    inner = tuple(slice(1, -1) for _ in range(n))
    # rank-one structure: eigenvalues are 1 (n-1 fold) and 1 + (p-2)|Dv|^2/(|Dv|^2+eps)
    lam = 1.0 + coef[inner] * g2[inner]
    ellipticity = (min(1.0, float(lam.min())), max(1.0, float(lam.max())))

    a = {}
    for i in range(n):
        a[i, i] = (1.0 + coef * grads[..., i] * grads[..., i])[inner].ravel()
        for j in range(i + 1, n):
            a[i, j] = (coef * grads[..., i] * grads[..., j])[inner].ravel()

    idx = _interior_flat(grid)
    rows, cols, data = [], [], []

    center = np.ones_like(idx, dtype=float)
    for i in range(n):
        center += 2.0 * a[i, i] / h[i] ** 2
    rows.append(idx)
    cols.append(idx)
    data.append(center)

    for i in range(n):
        coeff = -a[i, i] / h[i] ** 2
        for sign in (+1, -1):
            rows.append(idx)
            cols.append(idx + sign * strides[i])
            data.append(coeff)

    for i in range(n):
        for j in range(i + 1, n):
            q = a[i, j] / (2.0 * h[i] * h[j])
            for si, sj, sign in ((+1, +1, -1.0), (-1, -1, -1.0), (+1, -1, +1.0), (-1, +1, +1.0)):
                rows.append(idx)
                cols.append(idx + si * strides[i] + sj * strides[j])
                data.append(sign * q)

    boundary = np.setdiff1d(np.arange(size), idx, assume_unique=True)
    rows.append(boundary)
    cols.append(boundary)
    data.append(np.ones(boundary.size))

    matrix = csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )

    violations = np.zeros(idx.size, dtype=bool)
    for i in range(n):
        off = np.zeros(idx.size)
        for j in range(n):
            if j != i:
                key = (i, j) if i < j else (j, i)
                off += np.abs(a[key]) / (h[i] * h[j])
        violations |= a[i, i] / h[i] ** 2 < off - 1e-14
    return FrozenOperator(matrix, ellipticity, int(violations.sum()))


class _LUFactor:
    """Sparse LU factor of one matrix, reused for any number of solves.

    Every solve meets a normwise backward error (residual relative to
    ``|A| |x| + |b|``) of 1e-12 against the factorized matrix, after at
    most one refinement step.
    """

    def __init__(self, matrix: csr_matrix):
        self._matrix = matrix
        self._norm = float(np.abs(matrix).sum(axis=1).max())
        try:
            self._lu = splu(matrix.tocsc())
        except (RuntimeError, MemoryError) as err:  # singular factorization, memory
            raise SolverError(f"linear solve breakdown: {err}") from err

    def _backward_error(self, rhs: np.ndarray, x: np.ndarray):
        r = rhs - self._matrix @ x
        scale = self._norm * float(np.abs(x).max()) + float(np.abs(rhs).max()) + 1e-300
        return float(np.abs(r).max()) / scale, r

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._lu.solve(rhs)
        error, residual = self._backward_error(rhs, x)
        if error > 1e-12:
            x = x + self._lu.solve(residual)
            error, _ = self._backward_error(rhs, x)
            if error > 1e-12:
                raise SolverError("linear solve did not meet the 1e-12 residual contract")
        return x


# ---------------------------------------------------------------------------
# Chord / Picard iteration
# ---------------------------------------------------------------------------


def solve_regularized(
    problem,
    options: Optional[SolveOptions] = None,
    warm_start: Optional[ScalarField] = None,
) -> SolveResult:
    """Damped chord iteration on the frozen-coefficient linearization.

    Each sweep takes ``v <- v + damping * LU^-1 (g - A(v) v)``.  ``LU`` is
    factorized from ``A(v)`` at the first sweep and again after any sweep
    that fails to cut the nonlinear residual ``max |g - A(v) v|`` to
    ``REFACTOR_RATIO`` of its previous value; a sweep right after a
    refactorization is a damped Picard step.  Convergence requires both a
    small relative update and a nonlinear residual below
    ``10 * tolerance * max(1, |g|_inf)``; on non-convergence the last
    iterate is returned flagged, residual included.
    """
    prob = problem if isinstance(problem, DiscreteProblem) else build_problem(problem)
    opts = options or SolveOptions()
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
        flat = ScalarField(grid, np.zeros(grid.shape))
        p2 = ScalarField(grid, np.full(grid.shape, 2.0))
        op0 = assemble_frozen_operator(flat, p2, prob.eps)
        v = _LUFactor(op0.matrix).solve(rhs).reshape(grid.shape)

    op = assemble_frozen_operator(ScalarField(grid, v), prob.p, prob.eps)
    r = rhs - op.matrix @ v.ravel()
    residual = float(np.abs(r).max())
    factor = None
    refactor = True
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        if refactor:
            factor = None  # release the old factor before splu allocates the new one
            factor = _LUFactor(op.matrix)
        step = opts.damping * factor.solve(r).reshape(grid.shape)
        v = v + step
        delta = float(np.abs(step).max())
        op = assemble_frozen_operator(ScalarField(grid, v), prob.p, prob.eps)
        r = rhs - op.matrix @ v.ravel()
        previous, residual = residual, float(np.abs(r).max())
        refactor = not residual <= REFACTOR_RATIO * previous  # true for a NaN residual too
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
        ellipticity=op.ellipticity,
        converged=converged,
        dominance_violations=op.dominance_violations,
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
    spec: ProblemSpec,
    schedule,
    options: Optional[SolveOptions] = None,
    refresh_seed: bool = True,
    region: Optional[BallRegion] = None,
) -> ContinuationResult:
    """Solve along a decreasing eps schedule, warm-starting each solve.

    The mollification radius follows the schedule (clipped to what the grid
    can resolve).  With ``refresh_seed`` the interior data field ``u0`` is
    rebuilt from the previous solution each step, so the data term
    ``g - v = f_eps + u0_eps - v`` contracts along the schedule and the final
    iterate approximates the unregularized problem; the Cauchy increments of
    the gradients are recorded as the convergence evidence.
    """
    schedule = tuple(float(e) for e in schedule)
    if not schedule:
        raise SolverError("empty eps schedule")
    if any(e <= 0 for e in schedule):
        raise SolverError("schedule entries must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise SolverError("schedule must be strictly decreasing")
    grid = spec.grid
    region = region or _default_region(grid)
    mask = ball_mask(region.scaled(0.75), grid)

    results = []
    increments = []
    seed = None
    prev = None
    prev_grad = None
    for eps in schedule:
        step_spec = dataclasses.replace(spec, eps=eps, mollify_radius=_clip_radius(eps, grid))
        prob = build_problem(step_spec, seed=seed)
        result = solve_regularized(prob, options, warm_start=prev)
        if not result.converged:
            raise SolverError(f"continuation member solve at eps={eps} did not converge")
        grad = gradient(result.v)
        if prev_grad is not None:
            sel = mask & grad.valid & prev_grad.valid
            diff = np.linalg.norm(grad.values - prev_grad.values, axis=-1)
            increments.append(float(diff[sel].max()))
        results.append(result)
        prev = result.v
        prev_grad = grad
        if refresh_seed:
            seed = result.v
    return ContinuationResult(results=results, increments=increments, schedule=schedule, region=region)
