"""Uniform Cartesian grids, sampled fields, mollification, balls and cutoffs.

Rectangular boxes discretized with node-centered uniform spacing carry all
discrete data.  Derivatives are read on the interior nodes alone
(:meth:`GridSpec.interior_mask`), where every difference stencil is
central, so a field is its grid, its node values and the store of what is
computed from them, and nothing more.  A grid builds its axis coordinates
once, at the first :meth:`GridSpec.axis` call, and every caller shares
them read-only; :meth:`GridSpec.coords` returns fresh arrays.  Everything
the lab derives from a field (its gradient and Hessian, ``|Dv|^2``, the
audits' stretched fields, data weights and equation residuals) is kept in
the field's one store, :attr:`ScalarField.derived`, filled through
:func:`stored`.  The per-ball helpers read the distance of the nodes from
the ball's center (:func:`node_distance`), which balls with one center can
share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .expressions import DomainError, Expression

__all__ = [
    "BallRegion",
    "FieldError",
    "GridSpec",
    "ScalarField",
    "ball_box",
    "ball_mask",
    "cutoff",
    "mollify",
    "node_distance",
    "sample",
    "stored",
]

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

    @functools.cached_property
    def _axes(self) -> tuple:
        """The node coordinates of every axis, built at the first read and
        kept on the grid.  Callers share them, so they are read-only; the
        grid's equality and hash read its fields only."""
        axes = tuple(np.linspace(a, b, m) for a, b, m in zip(self.lo, self.hi, self.shape))
        for axis in axes:
            axis.setflags(write=False)
        return axes

    def axis(self, i: int) -> np.ndarray:
        """The node coordinates along axis ``i``, a read-only array."""
        return self._axes[i]

    def coords(self) -> tuple:
        """Dense meshgrid coordinate arrays, ``ij`` indexing."""
        return tuple(np.meshgrid(*(self.axis(i) for i in range(self.dimension)), indexing="ij"))

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[tuple(slice(1, -1) for _ in self.shape)] = True
        return mask


def _prepare(values, shape, what):
    """``values`` as a read-only float array of ``shape``, checked finite; a
    float array is checked and frozen in place, not copied."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise FieldError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise FieldError(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A grid and its read-only node values.

    ``derived`` is the field's store of the arrays and numbers computed
    from it, keyed by what they are (:func:`stored`).  A field compares
    and hashes by identity, so it can be part of a key.
    """

    grid: GridSpec
    values: np.ndarray
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # the caller's array stays theirs
        object.__setattr__(self, "values", _prepare(values, self.grid.shape, "scalar field"))


def stored(v: ScalarField, key, compute):
    """The entry ``key`` of ``v``'s store, ``compute()`` at its first read.

    A field's values are read-only, so an entry stays exact; two threads
    that race to fill one compute equal values, and the first one stored
    is the one every later read returns.
    """
    try:
        return v.derived[key]
    except KeyError:
        return v.derived.setdefault(key, compute())


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(expression: Expression, grid: GridSpec) -> ScalarField:
    """Evaluate ``expression`` at every grid node.

    The expression reads the grid's axes as an open mesh (``np.ix_``), which
    the evaluator broadcasts, so no dense coordinate array is built.
    """
    if expression.dimension != grid.dimension:
        raise FieldError(
            f"expression dimension {expression.dimension} != grid dimension {grid.dimension}"
        )
    axes = [grid.axis(i) for i in range(grid.dimension)]
    try:
        values = expression.evaluate_array(np.ix_(*axes))
    except DomainError as err:
        first = np.unravel_index(int(np.argmax(np.broadcast_to(err.mask, grid.shape))), grid.shape)
        node = tuple(float(axis[i]) for axis, i in zip(axes, first))
        raise FieldError(f"expression domain error at node {node}: {err}") from err
    return ScalarField(grid, values)


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


def _fast_period(m: int) -> int:
    """The least 5-smooth number (``2^a 3^b 5^c``) not below ``m``: the
    period of a real FFT convolution on an axis of ``m`` nodes, the length
    ``scipy.fft.next_fast_len(m, real=True)`` gives."""
    n = m
    while True:
        rest = n
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=8)
def _kernel_transform(spacing: tuple, eps: float, period: tuple) -> tuple:
    """The shape of :func:`mollifier_kernel` and its ``numpy.fft`` real
    transform of ``period``, built once per spacing, radius and period.  The
    transform is shared by every field mollified with them (an eps
    continuation mollifies ``p``, ``f`` and ``u0`` at each radius), so it is
    read-only."""
    kernel = mollifier_kernel(spacing, eps)
    transform = np.fft.rfftn(kernel, period, axes=range(kernel.ndim))
    transform.setflags(write=False)
    return kernel.shape, transform


def mollify(field: ScalarField, eps: float) -> ScalarField:
    """Convolve with the normalized bump of radius ``eps``.

    Output values equal the raw input wherever the kernel support leaves
    the grid.  Elsewhere, on the valid region of the convolution, they come
    from one real FFT product on ``numpy.fft``: a circular convolution of
    period at least the grid's (:func:`_fast_period` per axis), which wraps
    only outside that region, so no padding is needed.  No scipy module is
    loaded.
    """
    grid = field.grid
    h = grid.spacing
    if eps <= 0:
        raise FieldError("mollification radius must be positive")
    if eps < 2.0 * max(h):
        raise FieldError(f"mollification radius {eps} too small for grid spacing {max(h)}")
    if eps > 0.5 * min(grid.extents):
        raise FieldError(f"mollification radius {eps} exceeds half the domain width")
    period = tuple(_fast_period(m) for m in grid.shape)
    shape, transform = _kernel_transform(h, eps, period)
    axes = range(grid.dimension)
    conv = np.fft.irfftn(np.fft.rfftn(field.values, period, axes) * transform, period, axes)
    values = field.values.copy()
    # the full convolution's index k - 1 + i lands on node i + k // 2
    values[tuple(slice(k // 2, m - k // 2) for k, m in zip(shape, grid.shape))] = conv[
        tuple(slice(k - 1, m) for k, m in zip(shape, grid.shape))
    ]
    return ScalarField(grid, values)


# ---------------------------------------------------------------------------
# Balls and cutoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallRegion:
    """The ball ``B(center, radius)`` inside a grid box."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:  # NaN fails too
            raise FieldError(f"ball radius must be positive, got {self.radius}")

    def scaled(self, factor: float) -> "BallRegion":
        """The concentric ball of radius ``factor * radius``."""
        return BallRegion(self.center, factor * self.radius)


def require_inside(ball: BallRegion, grid: GridSpec, margin_nodes: int = 2) -> None:
    """Check the ball sits strictly inside the grid box with a node margin."""
    if len(ball.center) != grid.dimension:
        raise FieldError("ball center dimension does not match grid")
    r = ball.radius
    for c, a, b, h in zip(ball.center, grid.lo, grid.hi, grid.spacing):
        if not (a + margin_nodes * h <= c - r and c + r <= b - margin_nodes * h):  # NaN fails
            raise FieldError(
                f"ball of radius {r} at {ball.center} leaves the grid margin"
            )


def ball_box(ball: BallRegion, grid: GridSpec, margin_nodes: int = 2) -> tuple:
    """Index box around the ball, one slice per axis.

    Per axis it holds every node whose offset from the center, computed as
    in :func:`node_distance`, is at most the ball's radius (and
    the nearest node, so it is never empty), widened by ``margin_nodes`` on
    each side.  It therefore holds the nodes of :func:`ball_mask`, and the
    box of a three-quarter scaling holds the support of :func:`cutoff`.
    The ball must keep the same node margin (:func:`require_inside`), so
    the box fits the grid.
    """
    require_inside(ball, grid, margin_nodes)
    r = ball.radius
    box = []
    for i, c in enumerate(ball.center):
        offsets = np.sqrt((grid.axis(i) - c) ** 2)
        near = np.flatnonzero(offsets <= max(r, offsets.min()))
        box.append(slice(int(near[0]) - margin_nodes, int(near[-1]) + 1 + margin_nodes))
    return tuple(box)


def node_distance(grid: GridSpec, center, box=None) -> np.ndarray:
    """Distance of every node (of ``box``, when given) from ``center``."""
    if box is None:
        box = (slice(None),) * grid.dimension
    axes = np.meshgrid(
        *(grid.axis(i)[part] for i, part in enumerate(box)), indexing="ij", sparse=True
    )
    return np.sqrt(sum((c - z) ** 2 for c, z in zip(axes, center)))


def ball_mask(ball: BallRegion, grid: GridSpec, distance=None) -> np.ndarray:
    """Nodes whose cell centers lie inside the ball.

    The mask covers the grid or, given the :func:`node_distance` of the
    ball's center on an index box from :func:`ball_box`, that box; balls
    with one center share the distance.
    """
    require_inside(ball, grid)
    if distance is None:
        distance = node_distance(grid, ball.center)
    return distance <= ball.radius


def cutoff(ball: BallRegion, grid: GridSpec, distance=None) -> np.ndarray:
    """Radial cutoff: 1 on the half ball, 0 outside the three-quarter ball.

    The ramp is a clamped smoothstep over the annulus ``[R/2, 3R/4]``; its
    analytic slope peaks at ``6/R``, inside the admissible ``8/R`` budget.
    Returns the array of its values on the grid or, given the node
    ``distance`` of an index box as in :func:`ball_mask`, on that box.
    """
    require_inside(ball.scaled(0.75), grid)
    radius = ball.radius
    if distance is None:
        distance = node_distance(grid, ball.center)
    t = np.clip((distance - 0.5 * radius) / (0.25 * radius), 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)
