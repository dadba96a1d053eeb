"""Numerical audits of the quantitative estimates.

Each audit takes discrete fields, evaluates both sides of one claimed
inequality with the explicit constants from :mod:`pxlaplace.constants`, and
reports the worst node or ball together with the measured ratio, so constant
looseness stays observable.  Pointwise inequalities are audited against the
tolerance model ``LHS - RHS <= kappa * h^2 * scale`` that accounts for the
O(h^2) bias of discrete derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import ConstantSet, ExponentWindow, constant_set
from .diffops import (
    StretchParams,
    _central_difference,
    frobenius_sq,
    gradient,
    hessian,
    infinity_laplacian_values,
    sigma2_values,
    stretched_gradient_values,
    stretched_jacobian_values,
)
from .fields import (
    BallRegion,
    FieldError,
    GridSpec,
    ScalarField,
    ball_box,
    ball_mask,
    cutoff,
    require_inside,
)

__all__ = [
    "AuditError",
    "EstimateReport",
    "GehringResult",
    "ball_family",
    "caccioppoli_audit",
    "equation_residual",
    "gehring_delta_search",
    "pointwise_stretch_audit",
    "quasiregularity_audit",
]

DISTORTION_FLOOR = 1e-12


class AuditError(RuntimeError):
    """An audit could not be run meaningfully."""


@dataclass
class EstimateReport:
    audit: str
    region: str
    n: int
    t_minus: float
    t_plus: float
    beta: float
    eps: float
    h: float
    constants: Optional[ConstantSet]
    worst: float
    worst_location: Optional[tuple]
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class GehringResult:
    delta: float
    c_target: float
    feasible_at_zero: bool
    balls: list
    ratios: list
    worst_ratio: float


def _stretched_fields(v: ScalarField, beta: float, eps: float):
    """The stretched gradient ``F``, ``|DF|^2`` and ``sigma_2(DF)`` per node.

    All three depend only on ``v``, ``beta`` and ``eps``, so they are
    computed once per ``(beta, eps)`` and stored on ``v``, read-only, next
    to its gradient and Hessian.  Every audit reads them from here; the
    Jacobian ``DF`` itself is not kept.
    """
    store = v.__dict__.setdefault("_stretched_fields", {})
    key = (beta, eps)
    if key not in store:
        grad, hess = gradient(v), hessian(v)
        f_vals = stretched_gradient_values(grad, beta, eps)
        df = stretched_jacobian_values(grad, hess, beta, eps)
        fields = (f_vals, frobenius_sq(df), sigma2_values(df))
        for array in fields:
            array.setflags(write=False)
        store[key] = fields
    return store[key]


def _worst_location(values: np.ndarray, mask: np.ndarray, grid: GridSpec):
    """The first node in C order whose value lies within ``1e-12 max(1,
    |worst|)`` of the masked maximum, so that a round-off change does not
    move the location between nodes that tie."""
    masked = np.where(mask, values, -np.inf)
    first = int(np.argmax(masked))  # a NaN wins here
    worst = float(masked.flat[first])
    if np.isfinite(worst):
        first = int(np.argmax(masked >= worst - 1e-12 * max(1.0, abs(worst))))
    index = np.unravel_index(first, grid.shape)
    return tuple(float(grid.axis(i)[index[i]]) for i in range(grid.dimension))


def equation_residual(v: ScalarField, p: ScalarField, g: ScalarField, eps: float) -> float:
    """Max-norm residual of the discrete regularized equation at interior nodes."""
    grad, hess, interior = gradient(v), hessian(v), v.grid.interior_mask()
    g2 = np.sum(grad**2, axis=-1)
    lap = np.trace(hess, axis1=-2, axis2=-1)
    inf_lap = infinity_laplacian_values(grad, hess)
    res = -lap - (p.values - 2.0) * inf_lap / (g2 + eps) + v.values - g.values
    return float(np.abs(res[interior]).max())


# ---------------------------------------------------------------------------
# Pointwise stretched-gradient bound
# ---------------------------------------------------------------------------


def pointwise_stretch_audit(
    v: ScalarField,
    p: ScalarField,
    g: ScalarField,
    params: StretchParams,
    window: ExponentWindow,
    kappa: float = 10.0,
    constants: Optional[ConstantSet] = None,
) -> EstimateReport:
    """Audit ``|DF|^2 <= C* sigma_2(DF) + C~* (|Dv|^2+eps)^beta (g-v)^2`` per node.

    ``v`` must (approximately) solve the regularized equation with data
    ``(p, g, eps)``: the residual is checked first, because the bound is an
    algebraic consequence of the equation.
    """
    if params.eps <= 0:
        raise AuditError("the pointwise audit targets the regularized equation: eps > 0")
    grid = v.grid
    n = grid.dimension
    hmax = max(grid.spacing)
    consts = constants or constant_set(window, n, params.beta)
    tolerance = kappa * hmax**2

    eq_res = equation_residual(v, p, g, params.eps)
    eq_budget = tolerance * max(1.0, float(np.abs(g.values).max()))
    if eq_res > eq_budget:
        raise AuditError(
            f"equation residual {eq_res:.3e} too large to audit meaningfully "
            f"(budget {eq_budget:.3e})"
        )

    grad, interior = gradient(v), grid.interior_mask()
    _, lhs, s2 = _stretched_fields(v, params.beta, params.eps)
    base = np.sum(grad**2, axis=-1) + params.eps
    data_term = consts.c_tilde_star * base**params.beta * (g.values - v.values) ** 2
    residual = lhs - consts.c_star * s2 - data_term
    normalized = residual / (lhs + 1.0)

    worst = float(normalized[interior].max())
    location = _worst_location(normalized, interior, grid)
    return EstimateReport(
        audit="pointwise-stretch",
        region="interior",
        n=n,
        t_minus=window.t_minus,
        t_plus=window.t_plus,
        beta=params.beta,
        eps=params.eps,
        h=hmax,
        constants=consts,
        worst=worst,
        worst_location=location,
        tolerance=tolerance,
        passed=worst <= tolerance,
        details={
            "worst_raw": float(residual[interior].max()),
            "equation_residual": eq_res,
            "nodes": int(interior.sum()),
        },
    )


# ---------------------------------------------------------------------------
# Quasiregularity / distortion
# ---------------------------------------------------------------------------


def quasiregularity_audit(
    u: ScalarField,
    beta: float,
    region: Optional[BallRegion] = None,
    budget: Optional[float] = None,
    window: Optional[ExponentWindow] = None,
) -> EstimateReport:
    """Distortion ``K = |DF|^2 / sigma_2(DF)`` of the stretched-gradient map.

    Nodes where ``|DF|`` sits below the relative floor are excluded (0/0
    territory); nodes above it with ``sigma_2 <= 0`` are counted as
    violations.  In dimension 2 ``sigma_2`` is exactly ``-det``.
    """
    if beta < 0:
        raise AuditError("distortion audit requires a nonnegative stretch exponent")
    grid = u.grid
    nodes = grid.interior_mask()
    if region is not None:
        nodes &= ball_mask(region, grid)
        if not nodes.any():
            raise AuditError("audit region holds no interior nodes")
    _, lhs, s2 = _stretched_fields(u, beta, 0.0)

    norm = np.sqrt(lhs)
    floor = DISTORTION_FLOOR * float(norm[nodes].max())
    audited = nodes & (norm > floor)
    positive = audited & (s2 > 0.0)
    violations = int(np.sum(audited & (s2 <= 0.0)))

    distortion = np.zeros_like(lhs)
    np.divide(lhs, s2, out=distortion, where=positive)
    sup = float(distortion[positive].max()) if positive.any() else 0.0
    location = _worst_location(distortion, positive, grid) if positive.any() else None

    passed = violations == 0 and (budget is None or sup <= budget)
    return EstimateReport(
        audit="quasiregularity",
        region="interior" if region is None else _ball_name(region),
        n=grid.dimension,
        t_minus=window.t_minus if window else float("nan"),
        t_plus=window.t_plus if window else float("nan"),
        beta=beta,
        eps=0.0,
        h=max(grid.spacing),
        constants=None,
        worst=sup,
        worst_location=location,
        tolerance=budget if budget is not None else float("inf"),
        passed=passed,
        details={
            "violations": violations,
            "audited_nodes": int(audited.sum()),
            "floor": floor,
        },
    )


# ---------------------------------------------------------------------------
# Caccioppoli (cutoff energy) bound
# ---------------------------------------------------------------------------


def caccioppoli_audit(
    v: ScalarField,
    p: ScalarField,
    g: ScalarField,
    params: StretchParams,
    window: ExponentWindow,
    ball: BallRegion,
    c: Optional[np.ndarray] = None,
    constants: Optional[ConstantSet] = None,
) -> EstimateReport:
    """Audit the cutoff energy bound on one ball; the pass mark is ratio <= 1.

    LHS integrates ``|DF|^2 phi^2``; RHS is ``C#`` times the oscillation of
    the stretched gradient around ``c`` under ``|Dphi|^2`` plus the data
    term.  ``c`` defaults to the mean of the stretched gradient over the
    three-quarter ball, the variance-minimizing choice.
    """
    grid = v.grid
    n = grid.dimension
    consts = constants or constant_set(window, n, params.beta)
    three_quarter = ball.scaled(0.75)
    # Every term vanishes off the cutoff's support and its one-node rim.  The
    # box holds the support with two nodes to spare, so its inner nodes
    # (``core``) are interior nodes that hold every nonzero term, and their
    # central differences of phi are the full-grid gradient's.  It checks
    # the margin first.
    box = ball_box(three_quarter, grid, margin_nodes=2)
    core = tuple(slice(part.start + 1, part.stop - 1) for part in box)
    inner = (slice(1, -1),) * n
    phi = cutoff(ball, grid, box)
    grad = gradient(v)

    f_vals, df_sq, _ = _stretched_fields(v, params.beta, params.eps)
    if c is None:
        mean_mask = ball_mask(three_quarter, grid, box)
        c = f_vals[box][mean_mask].mean(axis=0)
    c = np.asarray(c, dtype=float)
    dphi = np.stack(
        [_central_difference(phi, axis, h) for axis, h in enumerate(grid.spacing)], axis=-1
    )
    phi_sq = phi[inner] ** 2

    vol = grid.cell_volume
    base = np.sum(grad[core] ** 2, axis=-1) + params.eps
    gap = g.values[core] - v.values[core]
    lhs = float(np.sum(df_sq[core] * phi_sq) * vol)
    osc = float(np.sum(np.sum((f_vals[core] - c) ** 2, axis=-1) * np.sum(dphi**2, axis=-1)) * vol)
    data = float(np.sum(base**params.beta * gap**2 * phi_sq) * vol)
    rhs = consts.c_sharp * (osc + data)
    ratio = 0.0 if lhs == 0.0 else (np.inf if rhs == 0.0 else lhs / rhs)

    return EstimateReport(
        audit="caccioppoli",
        region=_ball_name(ball),
        n=n,
        t_minus=window.t_minus,
        t_plus=window.t_plus,
        beta=params.beta,
        eps=params.eps,
        h=max(grid.spacing),
        constants=consts,
        worst=ratio,
        worst_location=None,
        tolerance=1.0,
        passed=ratio <= 1.0,
        details={"lhs": lhs, "oscillation": osc, "data_term": data, "rhs": rhs},
    )


# ---------------------------------------------------------------------------
# Reverse Holder and the exponent-gain search
# ---------------------------------------------------------------------------


def _ball_name(ball: BallRegion) -> str:
    center = ",".join(f"{c:g}" for c in ball.center)
    return f"B(({center}),{ball.effective_radius:g})"


def ball_family(grid: GridSpec, r_max: Optional[float] = None, seed: int = 0) -> list:
    """Concentric shrinking balls plus a jittered lattice of off-center balls.

    Radii halve from ``r_max`` down to the resolvable ``8 h``.  The
    three-quarter scaling of every concentric ball, which the audits read,
    must sit inside the grid margin, and ``r_max`` must be finite and at
    least ``8 h`` (:class:`FieldError` otherwise); a
    lattice ball is kept only if the whole ball does.  Deterministic for a
    fixed seed.
    """
    h = max(grid.spacing)
    r_min = 8.0 * h
    default = r_max is None
    if default:
        r_max = 0.25 * min(grid.extents)
    if not np.isfinite(r_max):
        raise FieldError(f"r_max must be finite, got {r_max}")
    if r_max < r_min:
        message = f"r_max {r_max} below the resolvable radius {r_min} (8h)"
        if default:
            message = (
                f"default gehring_{message}: the default is a quarter of the shortest "
                f"extent; set gehring_r_max >= {r_min} to resolve the balls"
            )
        raise FieldError(message)
    center = tuple(0.5 * (a + b) for a, b in zip(grid.lo, grid.hi))
    radii = []
    r = float(r_max)
    while r >= r_min:
        radii.append(r)
        r *= 0.5
    rng = np.random.default_rng(seed)
    balls = []
    for radius in radii:
        ball = BallRegion(center, radius)
        require_inside(ball.scaled(0.75), grid)
        balls.append(ball)
    fractions = (0.35, 0.65)
    lattice_radius = radii[min(1, len(radii) - 1)]
    for offsets in np.stack(
        np.meshgrid(*(fractions,) * grid.dimension, indexing="ij"), axis=-1
    ).reshape(-1, grid.dimension):
        point = tuple(
            a + frac * ext + float(rng.uniform(-0.02, 0.02)) * ext
            for a, ext, frac in zip(grid.lo, grid.extents, offsets)
        )
        candidate = BallRegion(point, lattice_radius)
        try:
            require_inside(candidate, grid)
        except FieldError:  # outside the grid margin
            continue
        balls.append(candidate)
    return balls


def _holder_ratio(ball_data, delta):
    """Worst per-ball ratio of the higher-integrability bound at one delta."""
    ratios = []
    for dfnorm_q, osc, fweight_3 in ball_data:
        lhs = float(np.mean(dfnorm_q ** (2.0 + delta)) ** (1.0 / (2.0 + delta)))
        rhs = osc
        if fweight_3 is not None:
            rhs += float(np.mean(fweight_3 ** (2.0 + delta)) ** (1.0 / (2.0 + delta)))
        if rhs == 0.0:
            ratios.append(0.0 if lhs == 0.0 else np.inf)
        else:
            ratios.append(lhs / rhs)
    return ratios


def _holder_data(u: ScalarField, f: Optional[ScalarField], beta: float, balls):
    """Per ball, what every delta reads: ``|DF|`` on the quarter ball, the
    delta-free oscillation ``|F - mean F| / R`` over the three-quarter ball
    and the data weight there (``None`` without data)."""
    grid = u.grid
    grad = gradient(u)
    fvals, df_sq, _ = _stretched_fields(u, beta, 0.0)
    dfnorm = np.sqrt(df_sq)
    fweight = None
    if f is not None and float(np.abs(f.values).max()) > 0.0:
        gnorm = np.sqrt(np.sum(grad**2, axis=-1))
        fweight = gnorm**beta * np.abs(f.values)
    ball_data = []
    for ball in balls:
        three_quarter = ball.scaled(0.75)
        box = ball_box(three_quarter, grid, margin_nodes=0)
        m3 = ball_mask(three_quarter, grid, box)
        mq = ball_mask(ball.scaled(0.25), grid, box)
        if not mq.any():
            raise AuditError(f"quarter ball of {_ball_name(ball)} contains no nodes")
        f3 = fvals[box][m3]
        cbar = f3.mean(axis=0)
        osc = np.sqrt(float(np.mean(np.sum((f3 - cbar) ** 2, axis=-1)))) / ball.radius
        ball_data.append((dfnorm[box][mq], osc, None if fweight is None else fweight[box][m3]))
    return ball_data


def gehring_delta_search(
    u: ScalarField,
    f: Optional[ScalarField],
    beta: float,
    balls,
    c_target: float,
    resolution: float = 1e-3,
) -> GehringResult:
    """Largest delta in [0, 2] whose worst per-ball ratio stays under budget.

    Bisection at the stated resolution; if even delta = 0 misses the budget
    the result reports that instead of failing.  A worst ratio that is not
    ``<= c_target``, NaN included, misses it.
    """
    if not balls:
        raise AuditError("empty ball family")
    ball_data = _holder_data(u, f, beta, balls)

    def worst(delta):
        return float(np.max(_holder_ratio(ball_data, delta)))

    def result(delta, feasible):
        ratios = _holder_ratio(ball_data, delta)
        return GehringResult(
            delta=delta,
            c_target=c_target,
            feasible_at_zero=feasible,
            balls=list(balls),
            ratios=ratios,
            worst_ratio=float(np.max(ratios)),
        )

    if not worst(0.0) <= c_target:
        return result(0.0, False)
    if worst(2.0) <= c_target:
        return result(2.0, True)
    lo, hi = 0.0, 2.0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if worst(mid) <= c_target:
            lo = mid
        else:
            hi = mid
    return result(lo, True)
