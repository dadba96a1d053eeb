"""The lab's difference formulas on strided interior blocks: the reference
that the flat-range kernels of :mod:`pxlaplace.diffops` are pinned to.

Each formula is written once, in the order of operations of the kernels,
so a kernel that keeps its arithmetic gives these values bitwise.
"""

from pxlaplace.fields import GridSpec

#: Grids of the pattern tests: square, oblong with unequal spacings, cube.
PATTERN_GRIDS = [
    GridSpec((0.0, 0.0), (1.0, 1.0), (33, 33)),
    GridSpec((0.0, 0.0), (1.0, 1.0), (17, 9)),
    GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (9, 9, 9)),
]
PATTERN_IDS = ["33x33", "17x9", "9x9x9"]


def strided(v, steps=None):
    """The interior block of ``v`` moved by ``steps``, a strided view."""
    offsets = [(steps or {}).get(k, 0) for k in range(v.ndim)]
    return v[tuple(slice(1 + o, m - 1 + o) for o, m in zip(offsets, v.shape))]


def strided_gradient(v, h):
    """The central difference along each axis on the interior block."""
    return [(strided(v, {i: 1}) - strided(v, {i: -1})) / (2.0 * h[i]) for i in range(v.ndim)]


def strided_hessian(v, h):
    """The stencil Hessian on the interior block, ``hess[i, j]`` for ``i <= j``:
    the 3-point second difference on the diagonal, the 4-point cross
    difference off it."""
    n = v.ndim
    hess = {}
    for i in range(n):
        second = strided(v, {i: 1}) - 2.0 * strided(v) + strided(v, {i: -1})
        hess[i, i] = second / h[i] ** 2
        for j in range(i + 1, n):
            cross = (
                strided(v, {i: 1, j: 1})
                + strided(v, {i: -1, j: -1})
                - strided(v, {i: 1, j: -1})
                - strided(v, {i: -1, j: 1})
            )
            hess[i, j] = cross / (4.0 * h[i] * h[j])
    return hess
