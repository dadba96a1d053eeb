"""Uniform Cartesian grids, sampled fields, mollification, balls and cutoffs.

Rectangular boxes discretized with node-centered uniform spacing carry all
discrete data.  Fields keep a per-node ``valid`` mask: operations that lose
accuracy near the box boundary (one-sided stencils, partial mollifier
support) clear it there, and every estimate audit restricts itself to nodes
that are still flagged valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from .expressions import DomainError, Expression

__all__ = [
    "BallRegion",
    "FieldError",
    "GridSpec",
    "MatrixField",
    "ScalarField",
    "VectorField",
    "ball_box",
    "ball_mask",
    "cutoff",
    "mollify",
    "sample",
]

BALL_SCALES = (0.25, 0.5, 0.75, 1.0)


class FieldError(ValueError):
    """Invalid grid/field/ball construction or use."""


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box ``[lo_i, hi_i]`` sampled with ``shape_i`` nodes per axis."""

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(a) for a in self.lo))
        object.__setattr__(self, "hi", tuple(float(b) for b in self.hi))
        object.__setattr__(self, "shape", tuple(int(m) for m in self.shape))
        n = len(self.shape)
        if n not in (2, 3):
            raise FieldError(f"grid dimension must be 2 or 3, got {n}")
        if len(self.lo) != n or len(self.hi) != n:
            raise FieldError("lo/hi/shape lengths disagree")
        for a, b, m in zip(self.lo, self.hi, self.shape):
            if not b > a:
                raise FieldError(f"degenerate axis [{a}, {b}]")
            if m < 8:
                raise FieldError(f"need at least 8 nodes per axis, got {m}")
        h = self.spacing
        if max(h) > 2.0 * min(h):
            raise FieldError(f"grid too anisotropic: spacings {h}")

    @property
    def dimension(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple:
        return tuple(
            (b - a) / (m - 1) for a, b, m in zip(self.lo, self.hi, self.shape)
        )

    @property
    def extents(self) -> tuple:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis(self, i: int) -> np.ndarray:
        return np.linspace(self.lo[i], self.hi[i], self.shape[i])

    def coords(self) -> tuple:
        """Dense meshgrid coordinate arrays, ``ij`` indexing."""
        return tuple(np.meshgrid(*(self.axis(i) for i in range(self.dimension)), indexing="ij"))

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[tuple(slice(1, -1) for _ in self.shape)] = True
        return mask


def _prepare(values, shape, what):
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise FieldError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise FieldError(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


def _prepare_valid(valid, shape):
    if valid is None:
        arr = np.ones(shape, dtype=bool)
    else:
        arr = np.array(valid, dtype=bool)
        if arr.shape != shape:
            raise FieldError(f"valid mask has shape {arr.shape}, expected {shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    values: np.ndarray
    valid: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "values", _prepare(self.values, self.grid.shape, "scalar field"))
        object.__setattr__(self, "valid", _prepare_valid(self.valid, self.grid.shape))


@dataclass(frozen=True)
class VectorField:
    grid: GridSpec
    values: np.ndarray
    valid: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.grid.dimension
        object.__setattr__(
            self, "values", _prepare(self.values, self.grid.shape + (n,), "vector field")
        )
        object.__setattr__(self, "valid", _prepare_valid(self.valid, self.grid.shape))


@dataclass(frozen=True)
class MatrixField:
    grid: GridSpec
    values: np.ndarray
    valid: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.grid.dimension
        object.__setattr__(
            self, "values", _prepare(self.values, self.grid.shape + (n, n), "matrix field")
        )
        object.__setattr__(self, "valid", _prepare_valid(self.valid, self.grid.shape))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(expression: Expression, grid: GridSpec) -> ScalarField:
    """Evaluate ``expression`` at every grid node."""
    if expression.dimension != grid.dimension:
        raise FieldError(
            f"expression dimension {expression.dimension} != grid dimension {grid.dimension}"
        )
    coords = grid.coords()
    try:
        values = expression.evaluate_array(coords)
    except DomainError as err:
        first = int(np.argmax(np.broadcast_to(err.mask, grid.shape)))
        node = tuple(float(c.flat[first]) for c in coords)
        raise FieldError(f"expression domain error at node {node}: {err}") from err
    return ScalarField(grid, np.broadcast_to(values, grid.shape))


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------


def mollifier_kernel(spacing, eps: float) -> np.ndarray:
    """Discrete bump ``exp(-1/(1-|x/eps|^2))`` on the node lattice, sum-normalized."""
    radii = [int(np.floor(eps / h)) for h in spacing]
    axes = [np.arange(-r, r + 1) * h for r, h in zip(radii, spacing)]
    grids = np.meshgrid(*axes, indexing="ij")
    r2 = sum(g**2 for g in grids) / eps**2
    with np.errstate(divide="ignore", over="ignore"):
        weights = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
    total = weights.sum()
    if total <= 0:
        raise FieldError("mollifier kernel degenerate")
    return weights / total


def mollify(field: ScalarField, eps: float) -> ScalarField:
    """Convolve with the normalized bump of radius ``eps``.

    Output values equal the raw input wherever the kernel support leaves the
    grid (or touches invalid input nodes); those nodes are flagged invalid.
    """
    grid = field.grid
    h = grid.spacing
    if eps <= 0:
        raise FieldError("mollification radius must be positive")
    if eps < 2.0 * max(h):
        raise FieldError(f"mollification radius {eps} too small for grid spacing {max(h)}")
    if eps > 0.5 * min(grid.extents):
        raise FieldError(f"mollification radius {eps} exceeds half the domain width")
    kernel = mollifier_kernel(h, eps)

    full = np.zeros(grid.shape, dtype=bool)
    full[tuple(slice(r, m - r) for r, m in zip((s // 2 for s in kernel.shape), grid.shape))] = True
    if field.valid.all():
        new_valid = full  # the eroded mask of an all-valid input contains ``full``
    else:
        support = kernel > 0
        eroded = ndimage.minimum_filter(field.valid, footprint=support, mode="constant", cval=False)
        new_valid = full & eroded

    conv = ndimage.convolve(field.values, kernel, mode="nearest")
    return ScalarField(grid, np.where(new_valid, conv, field.values), new_valid)


# ---------------------------------------------------------------------------
# Balls and cutoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallRegion:
    """The ball ``B(center, scale * radius)`` inside a grid box."""

    center: tuple
    radius: float
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "scale", float(self.scale))
        if self.radius <= 0:
            raise FieldError("ball radius must be positive")
        if self.scale not in BALL_SCALES:
            raise FieldError(f"ball scale must be one of {BALL_SCALES}")

    @property
    def effective_radius(self) -> float:
        return self.scale * self.radius

    def scaled(self, scale: float) -> "BallRegion":
        return BallRegion(self.center, self.radius, scale)


def require_inside(ball: BallRegion, grid: GridSpec, margin_nodes: int = 2) -> None:
    """Check the (scaled) ball sits strictly inside the grid box with a node margin."""
    if len(ball.center) != grid.dimension:
        raise FieldError("ball center dimension does not match grid")
    r = ball.effective_radius
    for c, a, b, h in zip(ball.center, grid.lo, grid.hi, grid.spacing):
        if c - r < a + margin_nodes * h or c + r > b - margin_nodes * h:
            raise FieldError(
                f"ball of radius {r} at {ball.center} leaves the grid margin"
            )


def ball_box(ball: BallRegion, grid: GridSpec, margin_nodes: int = 2) -> tuple:
    """Index box around the (scaled) ball, one slice per axis.

    Per axis it holds every node whose offset from the center, computed as
    in the distance of :func:`ball_mask`, is at most the ball's radius (and
    the nearest node, so it is never empty), widened by ``margin_nodes`` on
    each side.  It therefore holds the nodes of :func:`ball_mask`, and the
    box of a three-quarter scaling holds the support of :func:`cutoff`.
    The ball must keep the same node margin (:func:`require_inside`), so
    the box fits the grid.
    """
    require_inside(ball, grid, margin_nodes)
    r = ball.effective_radius
    box = []
    for i, c in enumerate(ball.center):
        offsets = np.sqrt((grid.axis(i) - c) ** 2)
        near = np.flatnonzero(offsets <= max(r, offsets.min()))
        box.append(slice(int(near[0]) - margin_nodes, int(near[-1]) + 1 + margin_nodes))
    return tuple(box)


def _distance(grid: GridSpec, center, box=None) -> np.ndarray:
    """Distance of every node (of ``box``, when given) from ``center``."""
    if box is None:
        box = (slice(None),) * grid.dimension
    axes = np.meshgrid(
        *(grid.axis(i)[part] for i, part in enumerate(box)), indexing="ij", sparse=True
    )
    return np.sqrt(sum((c - z) ** 2 for c, z in zip(axes, center)))


def ball_mask(ball: BallRegion, grid: GridSpec, box=None) -> np.ndarray:
    """Nodes whose cell centers lie inside the (scaled) ball.

    With an index ``box`` from :func:`ball_box` the mask covers only the
    nodes of that box.
    """
    require_inside(ball, grid)
    return _distance(grid, ball.center, box) <= ball.effective_radius


def cutoff(ball: BallRegion, grid: GridSpec, box=None):
    """Radial cutoff: 1 on the half ball, 0 outside the three-quarter ball.

    The ramp is a clamped smoothstep over the annulus ``[R/2, 3R/4]``; its
    analytic slope peaks at ``6/R``, inside the admissible ``8/R`` budget.
    Returns a field on the grid or, given an index ``box`` from
    :func:`ball_box`, the array of its values on that box.
    """
    require_inside(ball.scaled(0.75), grid)
    radius = ball.effective_radius
    r = _distance(grid, ball.center, box)
    t = np.clip((r - 0.5 * radius) / (0.25 * radius), 0.0, 1.0)
    phi = 1.0 - t * t * (3.0 - 2.0 * t)
    return phi if box is not None else ScalarField(grid, phi)
