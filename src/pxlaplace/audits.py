"""Numerical audits of the quantitative estimates.

Each audit takes discrete fields, evaluates both sides of one claimed
inequality with the explicit constants from :mod:`pxlaplace.constants`, and
reports the worst node or ball together with the measured ratio, so constant
looseness stays observable.  Pointwise inequalities are audited against the
tolerance model ``LHS - RHS <= kappa * h^2 * scale`` that accounts for the
O(h^2) bias of discrete derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import ExponentWindow, constant_set
from .diffops import (
    StretchParams,
    _central_difference,
    _flat_range,
    _norm_sq,
    _sum_sq,
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
    node_distance,
    require_inside,
    stored,
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

#: A node whose stencil Hessian has a Frobenius norm of at most this many
#: unit round-offs ``u = 2^-53`` times ``max |v| / h^2`` (``h`` the smallest
#: spacing) is left out of the distortion audit: there ``D^2_h v`` is the
#: rounding of ``v``'s node values, not a second derivative, and the
#: distortion is a ratio of rounding errors.  On exact affine solutions,
#: solved to round-off on 9^2 to 257^2 and 17^3 nodes, the stencil Hessian
#: reads at most 3.8 u max |v| / h^2; on the fixture it is about 2.
HESSIAN_ROUNDOFF = 64.0
DELTA_RESOLUTION = 1e-3


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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _stretched_fields(v: ScalarField, beta: float, eps: float):
    """The stretched gradient ``F``, ``|DF|^2`` and ``sigma_2(DF)`` per node.

    All three depend only on ``v``, ``beta`` and ``eps``, so they are
    kept in ``v``'s store, read-only, once per ``(beta, eps)``.  Every
    audit reads them from here; the Jacobian ``DF`` itself is not kept.
    """

    def compute():
        grad, hess = gradient(v), hessian(v)
        f_vals = stretched_gradient_values(grad, beta, eps)
        df = stretched_jacobian_values(grad, hess, beta, eps)
        return tuple(map(_read_only, (f_vals, frobenius_sq(df), sigma2_values(df))))

    return stored(v, ("stretched", beta, eps), compute)


def _gradient_sq(v: ScalarField) -> np.ndarray:
    """``|Dv|^2`` per node, kept in ``v``'s store, read-only."""
    return stored(v, "gradient_sq", lambda: _read_only(_norm_sq(gradient(v))))


def _data_weight(v: ScalarField, beta: float, eps: float) -> np.ndarray:
    """The data weight ``(|Dv|^2 + eps)^beta`` per node, kept in ``v``'s
    store, read-only, once per ``(beta, eps)``."""
    return stored(v, ("data_weight", beta, eps), lambda: _read_only((_gradient_sq(v) + eps) ** beta))


def _resolved(u: ScalarField) -> np.ndarray:
    """Per node, whether ``u``'s stencil Hessian lies above its round-off
    level: a Frobenius norm above :data:`HESSIAN_ROUNDOFF` unit round-offs
    times ``max |u| / h^2``.  Kept in ``u``'s store, read-only."""

    def compute():
        unit_roundoff = np.finfo(float).eps / 2.0
        noise = HESSIAN_ROUNDOFF * unit_roundoff * float(np.abs(u.values).max()) / min(u.grid.spacing) ** 2
        return _read_only(frobenius_sq(hessian(u)) > noise**2)

    return stored(u, "resolved", compute)


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
    """Max-norm residual of the discrete regularized equation at interior nodes.

    It is kept in ``v``'s store under the ``p`` and ``g`` objects and the
    ``eps`` it was computed for, so the pointwise audit of each stretch
    exponent reads one value; other data compute their own.
    """

    def compute():
        grad, hess = gradient(v), hessian(v)
        lap = hess[..., 0, 0].copy()
        for i in range(1, grad.shape[-1]):
            lap += hess[..., i, i]
        inf_lap = infinity_laplacian_values(grad, hess)
        res = -lap - (p.values - 2.0) * inf_lap / (_gradient_sq(v) + eps) + v.values - g.values
        return float(np.abs(res[v.grid.interior_mask()]).max())

    return stored(v, ("equation_residual", p, g, eps), compute)


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
    consts = constant_set(window, n, params.beta)
    tolerance = kappa * hmax**2

    eq_res = equation_residual(v, p, g, params.eps)
    eq_budget = tolerance * max(1.0, float(np.abs(g.values).max()))
    if eq_res > eq_budget:
        raise AuditError(
            f"equation residual {eq_res:.3e} too large to audit meaningfully "
            f"(budget {eq_budget:.3e})"
        )

    interior = grid.interior_mask()
    _, lhs, s2 = _stretched_fields(v, params.beta, params.eps)
    weight = _data_weight(v, params.beta, params.eps)
    data_term = consts.c_tilde_star * weight * (g.values - v.values) ** 2
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
    budget: float = math.inf,
    window: Optional[ExponentWindow] = None,
) -> EstimateReport:
    """Distortion ``K = |DF|^2 / sigma_2(DF)`` of the stretched-gradient map.

    Nodes where ``|DF|`` sits below the relative floor, taken from the
    largest finite ``|DF|``, are excluded (0/0 territory), and so are nodes
    whose stencil Hessian lies at its round-off level
    (:data:`HESSIAN_ROUNDOFF`), where ``DF`` is rounding noise; on an affine
    solution no node is audited and the bound holds as ``0 <= budget``.
    Audited nodes with ``sigma_2 <= 0``, and nodes where ``|DF|^2`` or
    ``sigma_2`` is not finite (an overflow), are counted as violations.  In
    dimension 2 ``sigma_2`` is exactly ``-det``.
    """
    if beta < 0:
        raise AuditError("distortion audit requires a nonnegative stretch exponent")
    grid = u.grid
    interior = grid.interior_mask()
    _, lhs, s2 = _stretched_fields(u, beta, 0.0)
    finite = interior & np.isfinite(lhs) & np.isfinite(s2)

    norm = np.sqrt(lhs)
    floor = DISTORTION_FLOOR * float(norm[finite].max()) if finite.any() else 0.0
    audited = finite & (norm > floor) & _resolved(u)
    positive = audited & (s2 > 0.0)
    violations = int(np.sum(audited & (s2 <= 0.0))) + int(np.sum(interior & ~finite))

    distortion = np.zeros_like(lhs)
    np.divide(lhs, s2, out=distortion, where=positive)
    sup = float(distortion[positive].max()) if positive.any() else 0.0
    location = _worst_location(distortion, positive, grid) if positive.any() else None

    passed = violations == 0 and sup <= budget
    return EstimateReport(
        audit="quasiregularity",
        region="interior",
        n=grid.dimension,
        t_minus=window.t_minus if window else float("nan"),
        t_plus=window.t_plus if window else float("nan"),
        beta=beta,
        eps=0.0,
        h=max(grid.spacing),
        worst=sup,
        worst_location=location,
        tolerance=budget,
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


def _cutoff_box(ball: BallRegion, grid: GridSpec) -> tuple:
    """The index box of ``ball``'s three-quarter scaling, two nodes wider on
    each side, the distance of its nodes from the center and the cutoff of
    ``ball`` on it.

    The box checks the grid margin first.  A ball with no node strictly
    inside its three-quarter scaling has a cutoff of 0 at every node, which
    makes every Caccioppoli term 0 and the verdict a pass over nothing: it
    raises :class:`AuditError`.
    """
    box = ball_box(ball.scaled(0.75), grid, margin_nodes=2)
    distance = node_distance(grid, ball.center, box)
    phi = cutoff(ball, grid, distance)
    if not phi.any():
        raise AuditError(
            f"no node lies inside the three-quarter ball of {_ball_name(ball)}, "
            "so its cutoff is 0 at every node"
        )
    return box, distance, phi


def caccioppoli_audit(
    v: ScalarField,
    p: ScalarField,
    g: ScalarField,
    params: StretchParams,
    window: ExponentWindow,
    ball: BallRegion,
) -> EstimateReport:
    """Audit the cutoff energy bound on one ball; the pass mark is ratio <= 1.

    LHS integrates ``|DF|^2 phi^2``; RHS is ``C#`` times the oscillation of
    the stretched gradient around its mean ``c`` over the three-quarter
    ball (the variance-minimizing offset) under ``|Dphi|^2``, plus the data
    term.  The LHS leaves out the nodes whose stencil Hessian lies at its
    round-off level (:data:`HESSIAN_ROUNDOFF`): there ``|DF|^2`` is rounding
    noise, and on an affine solution the ratio would be noise over noise.
    The RHS keeps every node, since neither of its terms reads the Hessian.
    """
    grid = v.grid
    n = grid.dimension
    consts = constant_set(window, n, params.beta)
    # Every term vanishes off the cutoff's support and its one-node rim.  The
    # box holds the support with two nodes to spare, so its inner nodes
    # (``core``) are interior nodes that hold every nonzero term, and their
    # central differences of phi are the full-grid gradient's.
    box, distance, phi = _cutoff_box(ball, grid)
    core = tuple(slice(part.start + 1, part.stop - 1) for part in box)

    f_vals, df_sq, _ = _stretched_fields(v, params.beta, params.eps)
    c = f_vals[box][ball_mask(ball.scaled(0.75), grid, distance)].mean(axis=0)
    table = _flat_range(phi.shape)
    slope = (_central_difference(phi.ravel(), table, axis, h) for axis, h in enumerate(grid.spacing))
    dphi_sq = table.interior(_sum_sq(slope))
    phi_sq = phi[(slice(1, -1),) * n] ** 2

    vol = grid.cell_volume
    weight = _data_weight(v, params.beta, params.eps)
    gap = g.values[core] - v.values[core]
    lhs = float(np.sum(np.where(_resolved(v)[core], df_sq[core], 0.0) * phi_sq) * vol)
    osc = float(np.sum(_norm_sq(f_vals[core] - c) * dphi_sq) * vol)
    data = float(np.sum(weight[core] * gap**2 * phi_sq) * vol)
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
    return f"B(({center}),{ball.radius:g})"


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
    fvals, df_sq, _ = _stretched_fields(u, beta, 0.0)
    dfnorm = np.sqrt(df_sq)
    fweight = None
    if f is not None and float(np.abs(f.values).max()) > 0.0:
        fweight = np.sqrt(_gradient_sq(u)) ** beta * np.abs(f.values)
    ball_data = []
    for ball in balls:
        three_quarter = ball.scaled(0.75)
        box = ball_box(three_quarter, grid, margin_nodes=0)
        distance = node_distance(grid, ball.center, box)
        m3 = ball_mask(three_quarter, grid, distance)
        mq = ball_mask(ball.scaled(0.25), grid, distance)
        if not mq.any():
            raise AuditError(f"quarter ball of {_ball_name(ball)} contains no nodes")
        f3 = fvals[box][m3]
        cbar = f3.mean(axis=0)
        osc = np.sqrt(float(np.mean(_norm_sq(f3 - cbar)))) / ball.radius
        ball_data.append((dfnorm[box][mq], osc, None if fweight is None else fweight[box][m3]))
    return ball_data


def gehring_delta_search(
    u: ScalarField,
    f: Optional[ScalarField],
    beta: float,
    balls,
    c_target: float,
) -> GehringResult:
    """Largest delta in [0, 2] whose worst per-ball ratio stays under budget.

    Bisection down to ``DELTA_RESOLUTION``; if even delta = 0 misses the budget
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
    while hi - lo > DELTA_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if worst(mid) <= c_target:
            lo = mid
        else:
            hi = mid
    return result(lo, True)
