import dataclasses
import functools
import math
import types

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu, spsolve

from pxlaplace import diffops, solver
from pxlaplace.audits import quasiregularity_audit
from pxlaplace.diffops import gradient
from pxlaplace.expressions import parse_expression
from pxlaplace.fields import GridSpec, ScalarField, mollify, sample
from pxlaplace.fixtures import FIXTURE_SCHEDULE
from pxlaplace.solver import (
    ProblemSpec,
    SolveOptions,
    SolverError,
    assemble_frozen_operator,
    build_problem,
    epsilon_continuation,
    solve_regularized,
)

from canonical import fixture_problem
from manufactured import manufactured_rhs
from strided import PATTERN_GRIDS, PATTERN_IDS, strided, strided_gradient, strided_hessian


def at(expr, point):
    """The value of ``expr`` at one point: one 0-d coordinate per axis."""
    return float(expr.evaluate_array(point))


def unit_square(m=33):
    return GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))


P_VARIABLE = "2 + 0.5*sin(x1)"


def make_spec(boundary, p=P_VARIABLE, f="0", m=33, eps=1e-2):
    return ProblemSpec(
        grid=unit_square(m),
        p_expr=parse_expression(p, 2),
        f_expr=parse_expression(f, 2),
        boundary_expr=parse_expression(boundary, 2),
        eps=eps,
    )


def set_stopping(monkeypatch, **constants):
    """Every later solve stops by ``constants`` in place of the defaults of
    :class:`SolveOptions`, which it reads from the module."""
    monkeypatch.setattr(solver, "SolveOptions", functools.partial(SolveOptions, **constants))


CUBE_SCHEDULE = (0.1, 0.01, 0.001)

#: An exponent at which the renormalized fast Poisson sweep contracts too
#: little on the cube data, so 3-d continuations reach GMRES.
P_GMRES = "9"


def cube_spec(m, p=P_VARIABLE, boundary="x1^2 - x2^2"):
    """The fixture data on the unit cube."""
    return ProblemSpec(
        grid=GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (m, m, m)),
        p_expr=parse_expression(p, 3),
        f_expr=parse_expression("0", 3),
        boundary_expr=parse_expression(boundary, 3),
        eps=0.1,
    )


class TestProblemSpec:
    def test_eps_range_enforced(self):
        with pytest.raises(SolverError):
            make_spec("x1", eps=0.0)
        with pytest.raises(SolverError):
            make_spec("x1", eps=1.0)

    def test_exponent_window_checked_at_load(self):
        spec = make_spec("x1", p="0.5 + x1")  # dips below 1
        with pytest.raises(SolverError, match="window"):
            build_problem(spec)

    def test_window_recorded(self):
        prob = build_problem(make_spec("x1"))
        assert prob.window.t_minus == pytest.approx(2.0)
        assert prob.window.t_plus == pytest.approx(2.0 + 0.5 * np.sin(1.0))


def frozen_coefficients(v, p, eps):
    """The stencil data of ``v``, with ``A(v)``, that the sweeps, the
    assembly and the Jacobian share."""
    offset = solver._exponent_offset(p.values)
    return solver._frozen_coefficients(v.values, offset, eps, v.grid.spacing)


def frozen_stencil(coeffs):
    """The stencil table of the frozen operator ``K(v)``."""
    return solver._stencil(coeffs.a, coeffs.spacing)


def jacobian_stencil(coeffs):
    """The stencil table of the Jacobian ``J(v)``."""
    return solver._stencil(coeffs.a, coeffs.spacing, solver._drift(coeffs))


def poisson_stencil(spacing):
    """The 5-point (2-d) or 7-point (3-d) stencil table of ``J(0)``."""
    return solver._stencil({(i, i): 1.0 for i in range(len(spacing))}, spacing)


def frozen_operator(v, p, eps):
    """The frozen operator ``K(v)``, assembled from the stencil data of ``v``."""
    return assemble_frozen_operator(frozen_stencil(frozen_coefficients(v, p, eps)), v.grid.shape)


def assembled_jacobian(coeffs):
    """The Jacobian ``J(v)``, assembled from the stencil data of ``v``."""
    return assemble_frozen_operator(jacobian_stencil(coeffs), coeffs.shape)


def jacobian(v, p, eps):
    """The Jacobian ``J(v)``, assembled from the stencil data of ``v``."""
    return assembled_jacobian(frozen_coefficients(v, p, eps))


def row_sum_norm(matrix):
    """``|matrix|_inf`` read off the CSR data, as a reference: every row of
    a stencil matrix holds its diagonal, so none is empty."""
    return float(np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1]).max())


class TestAssembly:
    def test_p_equals_two_gives_identity_coefficients(self):
        grid = unit_square(9)
        v = sample(parse_expression("sin(4*x1)*x2", 2), grid)
        p2 = ScalarField(grid, np.full(grid.shape, 2.0))
        coeffs = frozen_coefficients(v, p2, 1e-2)
        assert coeffs.ellipticity == (1.0, 1.0)
        assert coeffs.dominance_violations == 0

    def test_zero_gradient_gives_identity_there(self):
        grid = unit_square(9)
        v = ScalarField(grid, np.zeros(grid.shape))
        p3 = ScalarField(grid, np.full(grid.shape, 3.0))
        assert frozen_coefficients(v, p3, 1.0).ellipticity == (1.0, 1.0)

    def test_rank_one_eigenvalues(self):
        # p = 3, Dv = (1, 0), eps = 1: A = I + e1 e1^T / 2, eigenvalues {1.5, 1}
        grid = unit_square(9)
        v = sample(parse_expression("x1", 2), grid)
        p3 = ScalarField(grid, np.full(grid.shape, 3.0))
        ellipticity = frozen_coefficients(v, p3, 1.0).ellipticity
        assert ellipticity[0] == pytest.approx(1.0, abs=1e-12)
        assert ellipticity[1] == pytest.approx(1.5, abs=1e-12)

    def test_rejects_p_out_of_window(self):
        grid = unit_square(9)
        v = ScalarField(grid, np.zeros(grid.shape))
        bad = ScalarField(grid, np.full(grid.shape, 0.9))
        with pytest.raises(SolverError, match="window"):
            frozen_coefficients(v, bad, 1e-2)

    def test_dominance_loss_detected_and_reported(self):
        # steep skewed gradient with large p breaks the 9-point positivity
        grid = unit_square(17)
        v = sample(parse_expression("10*(x1 + 3*x2)", 2), grid)
        p8 = ScalarField(grid, np.full(grid.shape, 8.0))
        assert frozen_coefficients(v, p8, 1e-3).dominance_violations > 0
        fixture = build_problem(make_spec("x1^2 - x2^2"))
        saddle = sample(parse_expression("x1^2 - x2^2", 2), fixture.grid)
        assert frozen_coefficients(saddle, fixture.p, fixture.eps).dominance_violations == 0

    def test_non_finite_gradient_rejected(self):
        # a diverging iterate: finite values whose gradient, or its square,
        # overflows must not reach the ellipticity bounds as NaN
        grid = unit_square(9)
        p3 = ScalarField(grid, np.full(grid.shape, 3.0))
        for spike in ((1e308, -1e308), (1e200, 0.0)):
            values = np.zeros(grid.shape)
            values[4, 3], values[4, 5] = spike
            with np.errstate(over="ignore"), pytest.raises(SolverError, match="finite gradient"):
                frozen_coefficients(ScalarField(grid, values), p3, 1e-2)


def reference_assembly(v, p, eps):
    """The frozen operator assembled through COO triplets, as a reference."""
    grid = v.grid
    n, shape, h = grid.dimension, grid.shape, grid.spacing
    size = int(np.prod(shape))
    strides = [int(np.prod(shape[i + 1 :])) for i in range(n)]
    grads = gradient(v)
    g2 = np.sum(grads**2, axis=-1)
    coef = (p.values - 2.0) / (g2 + eps)
    inner = tuple(slice(1, -1) for _ in range(n))
    lam = 1.0 + coef[inner] * g2[inner]
    ellipticity = (min(1.0, float(lam.min())), max(1.0, float(lam.max())))
    a = {}
    for i in range(n):
        a[i, i] = (1.0 + coef * grads[..., i] * grads[..., i])[inner].ravel()
        for j in range(i + 1, n):
            a[i, j] = (coef * grads[..., i] * grads[..., j])[inner].ravel()
    mesh = np.meshgrid(*(np.arange(1, m - 1) for m in shape), indexing="ij")
    idx = np.ravel_multi_index(tuple(mesh), shape).ravel()
    center = np.ones_like(idx, dtype=float)
    for i in range(n):
        center += 2.0 * a[i, i] / h[i] ** 2
    rows, cols, data = [idx], [idx], [center]
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
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    )
    violations = np.zeros(idx.size, dtype=bool)
    for i in range(n):
        off = np.zeros(idx.size)
        for j in range(n):
            if j != i:
                key = (i, j) if i < j else (j, i)
                off += np.abs(a[key]) / (h[i] * h[j])
        violations |= a[i, i] / h[i] ** 2 < off - 1e-14
    return matrix, ellipticity, int(violations.sum())


class TestAssemblyPattern:
    def test_bitwise_identical_to_coo_reference(self):
        rng = np.random.default_rng(3)
        violations = 0
        # twice round the grids, so each pattern is also served from the cache
        for grid in PATTERN_GRIDS + PATTERN_GRIDS:
            v = ScalarField(grid, rng.standard_normal(grid.shape))
            p = ScalarField(grid, 1.5 + 3.0 * rng.random(grid.shape))
            assembled = frozen_operator(v, p, 1e-2)
            matrix, ellipticity, dominance = reference_assembly(v, p, 1e-2)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(assembled, name), getattr(matrix, name)), name
            coeffs = frozen_coefficients(v, p, 1e-2)
            assert coeffs.ellipticity == ellipticity
            assert coeffs.dominance_violations == dominance
            violations += dominance
        assert violations > 0

    @pytest.mark.parametrize("grid", PATTERN_GRIDS, ids=PATTERN_IDS)
    def test_cached_pattern_is_read_only(self, grid):
        # every matrix assembled on the grid shape shares these arrays
        indptr, indices, starts = solver._stencil_pattern(grid.shape)
        assert solver._stencil_pattern(grid.shape)[2] is starts
        interior = grid.interior_mask().ravel()
        assert np.array_equal(starts, indptr[:-1][interior])
        assert set(np.diff(indptr)[interior]) == {9 if grid.dimension == 2 else 19}
        for array in (indptr, indices, starts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestStencilResidual:
    def test_matches_assembled_operator(self):
        # the sweep's matrix-free g - A(v) v against the CSR product, up to
        # round-off relative to the size of the product
        rng = np.random.default_rng(13)
        for grid in PATTERN_GRIDS:
            v = ScalarField(grid, rng.standard_normal(grid.shape))
            p = ScalarField(grid, 1.5 + 3.0 * rng.random(grid.shape))
            rhs = rng.standard_normal(v.values.size)
            matrix = frozen_operator(v, p, 1e-2)
            offset = solver._exponent_offset(p.values)
            r, coeffs = solver._nonlinear_residual(v.values, offset, 1e-2, grid.spacing, rhs)
            norm = np.abs(matrix).sum(axis=1).max()
            scale = norm * np.abs(v.values).max() + np.abs(rhs).max()
            assert np.abs(r - (rhs - matrix @ v.values.ravel())).max() <= 1e-14 * scale
            frozen = frozen_coefficients(v, p, 1e-2)
            assert coeffs.ellipticity == frozen.ellipticity
            assert coeffs.dominance_violations == frozen.dominance_violations

    def test_overflowing_warm_start_rejected(self):
        # finite values whose central differences overflow: the sweep must
        # stop before the residual reaches a solver
        spec = make_spec("x1")
        ramp = 1e308 * np.linspace(-1.0, 1.0, spec.grid.shape[0])[:, None]
        start = ScalarField(spec.grid, np.broadcast_to(ramp, spec.grid.shape))
        with np.errstate(over="ignore"), pytest.raises(SolverError, match="finite gradient"):
            solve_regularized(build_problem(spec), warm_start=start)


JACOBIAN_CASES = [
    (unit_square(17), "sin(2*x1)*exp(x2) + x1*x2", "2 + 0.5*sin(3*x1 + x2)"),
    (PATTERN_GRIDS[2], "sin(2*x1)*exp(x2) + x1*x3 + cos(x3)", "2 + 0.5*sin(3*x1 + x2 - x3)"),
]


class TestJacobian:
    @pytest.mark.parametrize("grid, v_expr, p_expr", JACOBIAN_CASES, ids=["2d", "3d"])
    def test_matches_central_difference_of_residual(self, grid, v_expr, p_expr):
        n = grid.dimension
        v = sample(parse_expression(v_expr, n), grid)
        p = sample(parse_expression(p_expr, n), grid)
        w = np.random.default_rng(2).standard_normal(grid.shape)
        rhs = np.zeros(w.size)
        t = 1e-4
        offset = solver._exponent_offset(p.values)

        def residual(values):
            return solver._nonlinear_residual(values, offset, 1e-2, grid.spacing, rhs)[0]

        dr = (residual(v.values + t * w) - residual(v.values - t * w)) / (2.0 * t)
        jw = jacobian(v, p, 1e-2) @ w.ravel()
        assert np.abs(-dr - jw).max() <= 1e-6 * np.abs(jw).max()
        # the frozen operator alone misses the derivative of A(v)
        kw = frozen_operator(v, p, 1e-2) @ w.ravel()
        assert np.abs(-dr - kw).max() > 1e-3 * np.abs(jw).max()

    def test_3d_newton_converges_superlinearly(self, monkeypatch):
        # at p = 9 the renormalized fast Poisson sweep contracts too little,
        # so every 3-d sweep after it solves with J(v): the residual ratio
        # keeps falling until the residual reaches round-off
        residuals = []
        original = solver._nonlinear_residual

        def recording(*args):
            r, coeffs = original(*args)
            residuals.append(float(np.abs(r).max()))
            return r, coeffs

        monkeypatch.setattr(solver, "_nonlinear_residual", recording)
        result = solve_regularized(build_problem(cube_spec(13, p=P_GMRES)))
        assert result.converged
        above_round_off = [r for r in residuals if r > 1e-12]
        ratios = [b / a for a, b in zip(above_round_off, above_round_off[1:])]
        assert len(ratios) >= 3
        assert all(b < a for a, b in zip(ratios, ratios[1:])), ratios


class TestDifferentiatedOnce:
    @pytest.mark.parametrize(
        "spec",
        [make_spec("x1^2 - x2^2", p="20", eps=0.1), cube_spec(13, p=P_GMRES)],
        ids=["2d", "3d"],
    )
    def test_one_stencil_pass_per_iterate(self, monkeypatch, spec):
        # the residual, A(v) and the Jacobian of an iterate read one pass of
        # the flat-range kernel (central gradient and stencil Hessian), when
        # a sweep rebuilds the linear solver too: at p = 20 (2-d) and p = 9
        # (3-d) the loop builds the solver of J(v) at least three times
        # after the cold sweep, whose fast Poisson solve builds no Jacobian
        passes, read = [], []

        def differentiating(*args, original=solver._stencil_derivatives):
            passes.append(original(*args))
            return passes[-1]

        def building(coeffs, original=solver._drift):
            read.append(coeffs)
            return original(coeffs)

        monkeypatch.setattr(solver, "_stencil_derivatives", differentiating)
        monkeypatch.setattr(solver, "_drift", building)
        result = solve_regularized(build_problem(spec))
        assert result.converged
        assert len(read) >= 3
        assert len(passes) == result.iterations + 1  # the start, then one per sweep
        # each Jacobian reads a pass its iterate's residual made
        for coeffs in read:
            assert any(coeffs.q is q and coeffs.hess is hess for q, hess in passes)


def strided_sweep_data(v, p, eps, spacing, rhs):
    """The sweep's stencil data and residual by the strided interior-block
    formulas, as a reference: each array of the interior block, raveled,
    and the residual on the whole grid."""
    q, hess = strided_gradient(v, spacing), strided_hessian(v, spacing)
    g2 = sum(qi**2 for qi in q)
    d = g2 + eps
    coef = (strided(p) - 2.0) / d
    a = {(i, j): coef * q[i] * q[j] for i, j in hess}
    for i in range(v.ndim):
        a[i, i] = 1.0 + a[i, i]
    r = (rhs - v.ravel()).reshape(v.shape)
    for key in hess:  # in the order (0, 0), (0, 1), ..., the sweep's
        strided(r)[...] += (1.0 if key[0] == key[1] else 2.0) * a[key] * hess[key]
    data = {"d": d, "coef": coef, "lam": 1.0 + coef * g2}
    data.update({("q", i): qi for i, qi in enumerate(q)})
    data.update({("a",) + key: block for key, block in a.items()})
    data.update({("hess",) + key: block for key, block in hess.items()})
    return {key: block.ravel() for key, block in data.items()}, r.ravel()


def strided_poisson_product(x, shape, spacing):
    """``J(0) x`` summed on strided interior blocks, as a reference."""
    axes = list(enumerate(-1.0 / h**2 for h in spacing))
    center = sum((2.0 / h**2 for h in spacing), 1.0)
    terms = (
        [(weight, {i: -1}) for i, weight in axes]
        + [(center, None)]
        + [(weight, {i: +1}) for i, weight in reversed(axes)]
    )
    x = x.reshape(shape)
    y = x.copy()
    strided(y)[...] = 0.0
    for weight, steps in terms:
        strided(y)[...] += weight * strided(x, steps)
    return y.ravel()


def flat_sweep_data(coeffs):
    data = {"d": coeffs.d, "coef": coeffs.coef, "lam": coeffs.lam}
    data.update({("q", i): qi for i, qi in enumerate(coeffs.q)})
    data.update({("a",) + key: block for key, block in coeffs.a.items()})
    data.update({("hess",) + key: block for key, block in coeffs.hess.items()})
    return data


#: Grid shapes with their spacings: the pattern grids, and the thinnest
#: ones, whose flat range holds no Dirichlet position.
FLAT_SHAPES = [(grid.shape, grid.spacing) for grid in PATTERN_GRIDS] + [
    ((3, 3), (0.5, 0.5)),
    ((3, 5), (0.5, 0.25)),
    ((3, 3, 3), (0.5, 0.5, 0.5)),
]
FLAT_IDS = PATTERN_IDS + ["3x3", "3x5", "3x3x3"]


class TestFlatRange:
    @pytest.mark.parametrize("shape, spacing", FLAT_SHAPES, ids=FLAT_IDS)
    def test_bitwise_the_strided_formulas(self, shape, spacing):
        rng = np.random.default_rng(29)
        v = rng.standard_normal(shape)
        p = 1.5 + 3.0 * rng.random(shape)
        rhs = rng.standard_normal(v.size)
        # -0.0 - 0.0 on some Dirichlet rows: the residual keeps their sign
        dirichlet = np.ones(shape, dtype=bool)
        strided(dirichlet)[...] = False
        zeros = np.flatnonzero(dirichlet)[::2]
        v.ravel()[zeros], rhs[zeros] = 0.0, -0.0
        r, coeffs = solver._nonlinear_residual(v, solver._exponent_offset(p), 1e-2, spacing, rhs)
        expected, expected_r = strided_sweep_data(v, p, 1e-2, spacing, rhs)
        assert r.tobytes() == expected_r.tobytes()
        table = diffops._flat_range(shape)
        for key, block in flat_sweep_data(coeffs).items():
            assert table.interior(block).tobytes() == expected[key].tobytes(), key
        # the Dirichlet positions of the range: no difference, A = I
        at = table.dirichlet
        assert not any(block[at].any() for block in (*coeffs.q, *coeffs.hess.values()))
        for (i, j), block in coeffs.a.items():
            assert (block[at] == (1.0 if i == j else 0.0)).all()
        assert (coeffs.lam[at] == 1.0).all()
        x = rng.standard_normal(v.size)
        product = solver._stencil_action(poisson_stencil(spacing), shape, x)
        assert product.tobytes() == strided_poisson_product(x, shape, spacing).tobytes()

    @pytest.mark.parametrize("shape, spacing", FLAT_SHAPES, ids=FLAT_IDS)
    def test_cached_table_is_read_only(self, shape, spacing):
        # every sweep on the grid shape shares the table
        table = diffops._flat_range(shape)
        assert diffops._flat_range(shape) is table
        assert table.strides == tuple(s // 8 for s in np.zeros(shape).strides)
        assert table.start == sum(table.strides) == math.prod(shape) - table.stop
        interior = np.zeros(shape, dtype=bool)
        strided(interior)[...] = True
        positions = np.arange(table.start, table.stop)
        # the interior view lists the interior nodes in C order, the
        # Dirichlet positions every other node of the range
        assert np.array_equal(table.interior(positions).ravel(), np.flatnonzero(interior))
        assert np.array_equal(np.flatnonzero(~interior.ravel()[table.start : table.stop]), table.dirichlet)
        for array in (table.dirichlet, table.interior(positions)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0


def stencil_tables(shape, spacing, seed):
    """``(table, assembled)`` pairs on one grid shape: the tables of ``J(v)``
    and ``K(v)`` at a random iterate and at 0, each with itself, and the
    number-weighted ``J(0)`` with the assembled ``K(0)``, which holds its
    zero cross entries too."""
    rng = np.random.default_rng(seed)
    offset = solver._exponent_offset(1.5 + 3.0 * rng.random(shape))
    moved, zero = (
        solver._frozen_coefficients(v, offset, 1e-2, spacing)
        for v in (rng.standard_normal(shape), np.zeros(shape))
    )
    pairs = [(rows, rows) for c in (moved, zero) for rows in (jacobian_stencil(c), frozen_stencil(c))]
    return pairs + [(poisson_stencil(spacing), frozen_stencil(zero))]


class TestStencilTable:
    """Every operator reads one table of weighted neighbour steps."""

    @pytest.mark.parametrize("shape, spacing", FLAT_SHAPES, ids=FLAT_IDS)
    def test_action_is_the_assembled_product(self, shape, spacing):
        # bitwise the CSR product: each row sums its terms in the assembled
        # row's column order
        x = np.random.default_rng(41).standard_normal(math.prod(shape))
        for rows, assembled in stencil_tables(shape, spacing, 31):
            matrix = assemble_frozen_operator(assembled, shape)
            assert solver._stencil_action(rows, shape, x).tobytes() == (matrix @ x).tobytes()

    @pytest.mark.parametrize("shape, spacing", FLAT_SHAPES, ids=FLAT_IDS)
    def test_norm_is_the_assembled_row_sum_norm(self, shape, spacing):
        for rows, assembled in stencil_tables(shape, spacing, 37):
            expected = row_sum_norm(assemble_frozen_operator(assembled, shape))
            assert abs(solver._stencil_norm(rows, shape) - expected) <= 4e-16 * expected


def random_state(grid):
    """A random iterate and exponent field on ``grid``."""
    rng = np.random.default_rng(5)
    v = ScalarField(grid, rng.standard_normal(grid.shape))
    p = ScalarField(grid, 1.5 + 3.0 * rng.random(grid.shape))
    return v, p


def random_stencil(grid):
    """The stencil table of ``K(v)`` at a random iterate and exponent field."""
    return frozen_stencil(frozen_coefficients(*random_state(grid), 1e-2))


def saddle_p20_stencil():
    # frozen at the 65^2 saddle data with p = 20: thousands of rows lose
    # diagonal dominance, so the stencil is far from monotone
    prob = build_problem(make_spec("x1^2 - x2^2", p="20", m=65, eps=0.1))
    coeffs = frozen_coefficients(prob.boundary, prob.p, prob.eps)
    assert coeffs.dominance_violations > 1000
    return frozen_stencil(coeffs)


def backward_error(matrix, x, rhs):
    scale = np.abs(matrix).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max()
    return np.abs(rhs - matrix @ x).max() / scale


def bisect(box):
    """The low and high halves of a box (one ``range`` of node indices per
    axis) and the middle line of its longest axis (the first, on a tie)
    between them."""
    axis = max(range(len(box)), key=lambda i: len(box[i]))
    cut = box[axis]
    mid = cut.start + len(cut) // 2
    parts = range(cut.start, mid), range(mid + 1, cut.stop), range(mid, mid + 1)
    return [box[:axis] + (part,) + box[axis + 1 :] for part in parts]


def dissection_boxes(box):
    """Every box the nested dissection of ``box`` splits, with its parts."""
    if np.prod([len(r) for r in box]) <= solver.DISSECTION_LEAF:
        return []
    low, high, separator = bisect(box)
    return [(box, low, high, separator)] + dissection_boxes(low) + dissection_boxes(high)


def box_nodes(shape, box):
    return np.ravel_multi_index(np.meshgrid(*box, indexing="ij"), shape).ravel()


class TestDissectionOrder:
    @pytest.mark.parametrize("grid", PATTERN_GRIDS, ids=PATTERN_IDS)
    def test_dirichlet_nodes_first_then_separators_last(self, grid):
        shape = grid.shape
        order = solver._dissection_order(shape)
        assert not order.flags.writeable
        assert np.array_equal(np.sort(order), np.arange(order.size))
        dirichlet = np.flatnonzero(~grid.interior_mask().ravel())
        assert np.array_equal(order[: dirichlet.size], dirichlet)
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        # the stencil graph: an edge per off-diagonal entry of the pattern
        indptr, cols, _ = solver._stencil_pattern(shape)
        rows = np.repeat(np.arange(order.size), np.diff(indptr))
        interior = tuple(range(1, m - 1) for m in shape)
        splits = dissection_boxes(interior)
        assert splits
        for box, low, high, separator in splits:
            nodes, low, high, separator = (box_nodes(shape, b) for b in (box, low, high, separator))
            assert np.array_equal(np.sort(np.concatenate([low, high, separator])), np.sort(nodes))
            assert low.size and high.size and separator.size
            # each box is eliminated as one block: low half, high half, separator
            assert np.ptp(position[nodes]) == nodes.size - 1
            assert position[low].max() < position[high].min()
            assert position[separator].min() > position[high].max()
            assert np.all(np.diff(position[separator]) == 1)  # in natural order
            # no stencil entry joins the two halves
            side = np.zeros(order.size, dtype=np.int8)
            side[low], side[high] = 1, 2
            assert not ((side[rows] * side[cols]) == 2).any()
        # the leaves keep their natural order
        leaves = [part for _, low, high, _ in splits for part in (low, high)]
        for leaf in leaves:
            if np.prod([len(r) for r in leaf]) <= solver.DISSECTION_LEAF:
                assert np.all(np.diff(position[box_nodes(shape, leaf)]) == 1)


FACTOR_CASES = pytest.mark.parametrize(
    "make_stencil, shape",
    [(functools.partial(random_stencil, grid), grid.shape) for grid in PATTERN_GRIDS]
    + [(saddle_p20_stencil, (65, 65))],
    ids=PATTERN_IDS + ["65x65-p20"],
)


class TestLUFactor:
    @FACTOR_CASES
    def test_diagonal_pivots_meet_contract(self, make_stencil, shape):
        rows = make_stencil()
        matrix = assemble_frozen_operator(rows, shape)
        factor = solver._LUFactor(rows, shape)
        # every pivot is a diagonal entry: the row permutation is the column one
        assert np.array_equal(factor._lu.perm_r, factor._lu.perm_c)
        rhs = np.random.default_rng(7).standard_normal(matrix.shape[0])
        x = factor.solve(rhs)
        assert backward_error(matrix, x, rhs) <= 1e-12

    def test_splu_gets_the_permuted_matrix_and_one_option_set(self, monkeypatch):
        # relax=8, panel_size=24 made scipy 1.17.1 abort at process exit
        # ("corrupted double-linked list") on the 129^2 Jacobian, and
        # relax=32, panel_size=2 aborted at exit in 1 of 3 runs (2 of 3 on a
        # recheck) on the first p = 1.2 fixture-data Jacobian at 65^2, where
        # panel sizes 1 to 8 with the default relax ran clean.  The rule:
        # pass no relax, and keep panel_size at most 20.  Any change to
        # this option set must be made here, on purpose
        calls = []
        original = solver.splu

        def recording(matrix, **options):
            calls.append((matrix, options))
            return original(matrix, **options)

        monkeypatch.setattr(solver, "splu", recording)
        grid = PATTERN_GRIDS[0]
        rows = random_stencil(grid)
        matrix = assemble_frozen_operator(rows, grid.shape)
        solver._LUFactor(rows, grid.shape)
        [(factored, options)] = calls
        assert options == {
            "permc_spec": "NATURAL",
            "diag_pivot_thresh": 0.0,
            "panel_size": 1,
            "options": {"SymmetricMode": True},
        }
        order = solver._dissection_order(grid.shape)
        assert (factored != matrix[order][:, order]).nnz == 0

    @FACTOR_CASES
    def test_permuted_fill_is_the_permuted_matrix(self, make_stencil, shape, monkeypatch):
        # one gather of the CSR fill's data gives splu the bits of
        # matrix[order][:, order].tocsc()
        calls = count_splu(monkeypatch)
        rows = make_stencil()
        matrix = assemble_frozen_operator(rows, shape)
        order = solver._dissection_order(shape)
        expected = matrix[order][:, order].tocsc()
        solver._LUFactor(rows, shape)
        [factored] = calls
        assert factored.format == "csc"
        for name in ("indptr", "indices", "data"):
            assert getattr(factored, name).tobytes() == getattr(expected, name).tobytes(), name
        pattern = solver._permuted_pattern(shape)
        for array in pattern:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        # a second factor on the shape reads the cached pattern
        misses = solver._permuted_pattern.cache_info().misses
        solver._LUFactor(rows, shape)
        assert solver._permuted_pattern.cache_info().misses == misses
        assert all(a is b for a, b in zip(solver._permuted_pattern(shape), pattern))

    def test_fixture_129_factor_has_less_fill_than_minimum_degree(self):
        # the fixture is solved with no factor: factor the Jacobian at its
        # first eps level's solution
        data = build_problem(fixture_problem(points=129))
        [level] = epsilon_continuation(data, FIXTURE_SCHEDULE[:1]).results
        rows = jacobian_stencil(frozen_coefficients(level.v, level.problem.p, level.problem.eps))
        matrix = assemble_frozen_operator(rows, level.v.grid.shape)
        factor = solver._LUFactor(rows, level.v.grid.shape)
        assert np.array_equal(factor._lu.perm_r, factor._lu.perm_c)
        minimum_degree = splu(
            matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        assert factor._lu.nnz < minimum_degree.nnz
        rhs = np.random.default_rng(13).standard_normal(matrix.shape[0])
        assert backward_error(matrix, factor._apply(rhs), rhs) <= 1e-12


def count_gmres(monkeypatch):
    """Record the inner iterations of every GMRES call the solver makes."""
    calls = []
    original = solver.gmres

    def counting(*args, **options):
        calls.append(0)

        def tick(_):
            calls[-1] += 1

        return original(*args, callback=tick, callback_type="pr_norm", **options)

    monkeypatch.setattr(solver, "gmres", counting)
    return calls


class TestPoissonGMRES:
    @pytest.mark.parametrize("p, growth", [(P_VARIABLE, 2), ("4", 2), ("6", 3)])
    def test_contract_met_with_mesh_independent_iterations(self, p, growth, monkeypatch):
        # frozen at the saddle data with a genuine x3 dependence.  p = 6
        # leaves the 3-d Cordes range, and there the count still creeps up
        # by about one per refinement (32 at 17^3, 35 at 33^3, 37 at 65^3)
        calls = count_gmres(monkeypatch)
        iterations = {}
        for m in (17, 33):
            prob = build_problem(cube_spec(m, p=p, boundary="x1^2 - x2^2 + x3*x1"))
            rows = frozen_stencil(frozen_coefficients(prob.boundary, prob.p, prob.eps))
            matrix = assemble_frozen_operator(rows, prob.grid.shape)
            linear = solver._PoissonGMRES(rows, prob.grid)
            rhs = np.random.default_rng(11).standard_normal(matrix.shape[0])
            calls.clear()
            x = linear.solve(rhs)
            assert backward_error(matrix, x, rhs) <= 1e-12
            iterations[m] = sum(calls)
        assert abs(iterations[33] - iterations[17]) <= growth, iterations


def zero_iterate(grid):
    return ScalarField(grid, np.zeros(grid.shape))


class TestFastPoisson:
    @pytest.mark.parametrize("grid", PATTERN_GRIDS, ids=PATTERN_IDS)
    def test_exact_solve_of_the_p2_operator(self, grid, monkeypatch):
        factors = count_splu(monkeypatch)
        krylov = count_gmres(monkeypatch)
        assembled = count_assembly(monkeypatch)
        # J(0) ignores p, so a random exponent field still gives 1 - Delta_h
        zero = zero_iterate(grid)
        coeffs = frozen_coefficients(zero, random_state(grid)[1], 1e-2)
        linear = solver._linear_solver(coeffs, zero.values, grid)
        assert isinstance(linear, solver._FastPoisson)
        assert assembled == []  # the solver reads the stencil, not a matrix
        matrix = assembled_jacobian(coeffs)
        # non-zero Dirichlet rows, which the solve lifts before inverting
        rhs = np.random.default_rng(17).standard_normal(matrix.shape[0])
        x = linear._apply(rhs)  # unchecked: no refinement step is needed
        assert backward_error(matrix, x, rhs) <= 1e-12
        expected = spsolve(matrix.tocsc(), rhs)
        # an M-matrix with row sums >= 1 has |A^-1| <= 1, so the condition
        # number is at most |A|: round-off times |A| |x| bounds the gap
        bound = 1e-14 * np.abs(matrix).sum(axis=1).max() * np.abs(expected).max()
        assert np.abs(linear.solve(rhs) - expected).max() <= bound
        assert factors == [] and krylov == []

    @pytest.mark.parametrize("grid", PATTERN_GRIDS, ids=PATTERN_IDS)
    def test_stencil_action_is_the_assembled_p2_operator(self, grid):
        # bitwise the CSR product of J(0) = K(0): each row sums its terms in
        # the assembled row's column order
        zero = zero_iterate(grid)
        coeffs = frozen_coefficients(zero, random_state(grid)[1], 1e-2)
        linear = solver._linear_solver(coeffs, zero.values, grid)
        x = np.random.default_rng(23).standard_normal(zero.values.size)
        frozen = assemble_frozen_operator(frozen_stencil(coeffs), grid.shape)
        for matrix in (frozen, assembled_jacobian(coeffs)):
            assert linear._product(x).tobytes() == (matrix @ x).tobytes()

    @pytest.mark.parametrize("grid", PATTERN_GRIDS, ids=PATTERN_IDS)
    def test_norm_is_the_assembled_row_sum_norm(self, grid):
        # the sum of the absolute number weights of J(0), 1 + 4 sum h_i^-2
        zero = zero_iterate(grid)
        matrix = jacobian(zero, random_state(grid)[1], 1e-2)
        expected = row_sum_norm(matrix)
        assert abs(solver._FastPoisson(grid)._norm - expected) <= 4e-16 * expected


def node_box(shape):
    """The shape and spacing of the unit box on ``shape`` nodes, all that
    :func:`solver._poisson_inverse` reads of a grid; unlike a ``GridSpec``
    it may have fewer than 8 nodes per axis."""
    return types.SimpleNamespace(shape=shape, spacing=tuple(1.0 / (m - 1) for m in shape))


def scipy_poisson_inverse(box, x):
    """``scipy.fft``'s inverse of ``1 - Delta_h`` on the interior block of
    ``x``, the identity on its Dirichlet rows."""
    from scipy.fft import dstn, idstn

    eigenvalues = [
        (2.0 - 2.0 * np.cos(np.arange(1, m - 1) * np.pi / (m - 1))) / h**2
        for m, h in zip(box.shape, box.spacing)
    ]
    symbol = sum(np.ix_(*eigenvalues), 1.0)
    inner = (slice(1, -1),) * len(box.shape)
    y = x.reshape(box.shape).copy()
    y[inner] = idstn(dstn(y[inner], type=1) / symbol, type=1)
    return y.ravel()


def interior_vector(shape, seed):
    """A random vector on ``shape`` whose Dirichlet rows are 0."""
    x = np.zeros(shape)
    inner = (slice(1, -1),) * len(shape)
    x[inner] = np.random.default_rng(seed).standard_normal(x[inner].shape)
    return x.ravel()


#: Node shapes with no folded axis, then with some or all of their
#: interior axes past ``solver.SINE_UNFOLDED_MAX`` (folded).
SINE_SHAPES = [(3, 3), (13, 11), (17, 9), (9, 7, 5), (65, 65), (17, 17, 17)]
SINE_SHAPES += [(103, 102), (102, 103), (129, 129), (129, 9), (9, 129), (7, 129, 9), (11, 9, 103)]
SINE_IDS = ["3x3", "13x11", "17x9", "9x7x5", "65^2", "17^3"]
SINE_IDS += ["103x102", "102x103", "129^2", "129x9", "9x129", "7x129x9", "11x9x103"]

#: Interior axis lengths on both sides of ``solver.SINE_UNFOLDED_MAX``,
#: odd and even, up to one past ``solver.SINE_PRODUCT_MAX``.
FOLD_LENGTHS = [95, 99, 100, 101, 102, 127, 128, 130]


def spectrum_order(m):
    """The order of the spectrum of an axis of ``m`` interior nodes: the
    natural one up to ``solver.SINE_UNFOLDED_MAX``, odd ``j`` first past it."""
    if m <= solver.SINE_UNFOLDED_MAX:
        return np.arange(m)
    return np.concatenate((np.arange(0, m, 2), np.arange(1, m, 2)))


class TestSineProductInverse:
    @pytest.mark.parametrize("shape", SINE_SHAPES, ids=SINE_IDS)
    def test_equals_the_scipy_fft_inverse(self, shape):
        box = node_box(shape)
        assert max(shape) - 2 <= solver.SINE_PRODUCT_MAX
        x = np.random.default_rng(41).standard_normal(math.prod(shape))
        got = solver._poisson_inverse(box)(x)
        expected = scipy_poisson_inverse(box, x)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("shape", SINE_SHAPES, ids=SINE_IDS)
    def test_inverts_the_p2_table(self, shape):
        box = node_box(shape)
        identity = {(i, i): 1.0 for i in range(len(shape))}
        rows = solver._stencil(identity, box.spacing)
        rhs = interior_vector(shape, 43)
        x = solver._poisson_inverse(box)(rhs)
        residual = rhs - solver._stencil_action(rows, shape, x)
        scale = solver._stencil_norm(rows, shape) * np.abs(x).max() + np.abs(rhs).max()
        assert np.abs(residual).max() / scale <= 1e-14

    def test_sine_matrix_is_symmetric_and_its_own_inverse(self):
        for m in (1, 7, 64, 127):
            s = solver._sine_matrix(m)
            assert np.array_equal(s, s.T)
            assert np.abs(s @ s - np.eye(m)).max() <= 1e-14
            assert not s.flags.writeable

    def test_sine_halves_are_read_only_blocks_of_the_matrix(self):
        for m in (101, 127):
            s = solver._sine_matrix(m)
            even, odd = solver._sine_halves(m)
            assert solver._sine_halves(m)[0] is even
            assert np.array_equal(even, s[0::2, : (m + 1) // 2])
            assert np.array_equal(odd, s[1::2, : m // 2])
            assert not even.flags.writeable and not odd.flags.writeable

    def test_two_calls_give_identical_bytes(self):
        for shape in ((65, 65), (17, 17, 17), (129, 129), (7, 129, 9)):
            inverse = solver._poisson_inverse(node_box(shape))
            x = np.random.default_rng(47).standard_normal(math.prod(shape))
            assert inverse(x).tobytes() == inverse(x).tobytes()
            assert inverse(x).tobytes() == solver._poisson_inverse(node_box(shape))(x).tobytes()

    @pytest.mark.parametrize("m", FOLD_LENGTHS)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_an_axis_transform_is_the_sine_product(self, m, axis):
        # forward: S along the axis, its spectrum in the axis's order;
        # backward: the same order read back, so S on the natural order
        block = np.random.default_rng(m).standard_normal((m, 7) if axis == 0 else (7, m))
        s = solver._sine_matrix(m)
        order = spectrum_order(m)
        plain = s @ block if axis == 0 else block @ s
        forward = solver._sine_axis(block, axis, False)
        expected = plain[order] if axis == 0 else plain[:, order]
        assert np.abs(forward - expected).max() <= 1e-13 * np.abs(expected).max()
        spectrum = np.ascontiguousarray(block[order] if axis == 0 else block[:, order])
        backward = solver._sine_axis(spectrum, axis, True)
        assert np.abs(backward - plain).max() <= 1e-13 * np.abs(plain).max()
        if m <= solver.SINE_UNFOLDED_MAX:
            assert forward.tobytes() == plain.tobytes() == backward.tobytes()

    @pytest.mark.parametrize("nodes, fft_calls", [(129, 0), (130, 2)], ids=["at", "past"])
    def test_an_axis_past_the_crossover_takes_the_fft(self, nodes, fft_calls, monkeypatch):
        # 129 nodes are 127 interior ones, the crossover; 130 are one past it
        import scipy.fft

        calls = []

        def recorded(name, transform):
            def call(*args, **options):
                calls.append(name)
                return transform(*args, **options)

            return call

        for name in ("dstn", "idstn"):
            monkeypatch.setattr(scipy.fft, name, recorded(name, getattr(scipy.fft, name)))
        grid = GridSpec((0.0, 0.0), ((nodes - 1) / 8.0, 1.0), (nodes, 9))
        x = interior_vector(grid.shape, 53)
        got = solver._poisson_inverse(grid)(x)
        assert len(calls) == fft_calls
        expected = scipy_poisson_inverse(grid, x)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


class TestContract:
    @pytest.mark.parametrize(
        "grid, cold, kind",
        [
            (unit_square(33), False, solver._LUFactor),
            (PATTERN_GRIDS[2], False, solver._PoissonGMRES),
            (unit_square(33), True, solver._FastPoisson),
        ],
        ids=["lu-2d", "gmres-3d", "poisson-2d"],
    )
    def test_non_finite_solution_rejected(self, grid, cold, kind):
        # a NaN backward error compares False against any bound
        v, p = random_state(grid)
        if cold:
            v = zero_iterate(grid)
        linear = solver._linear_solver(frozen_coefficients(v, p, 1e-2), v.values, grid)
        assert isinstance(linear, kind)
        rhs = np.ones(v.values.size)
        rhs[grid.shape[-1] + 1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
            SolverError, match=r"backward error of nan, above the 1e-12 bound"
        ):
            linear.solve(rhs)

    def test_gmres_not_run_on_non_finite_rhs(self, monkeypatch):
        calls = count_gmres(monkeypatch)
        grid = PATTERN_GRIDS[2]
        v, p = random_state(grid)
        linear = solver._linear_solver(frozen_coefficients(v, p, 1e-2), v.values, grid)
        rhs = np.ones(grid.shape).ravel()
        rhs[grid.shape[-1] + 1] = np.inf
        with pytest.raises(SolverError, match=r"backward error of nan"):
            linear.solve(rhs)
        assert sum(calls) == 0

    @pytest.mark.parametrize("grid", PATTERN_GRIDS, ids=PATTERN_IDS)
    def test_norm_is_the_largest_absolute_row_sum(self, grid):
        # read off the stencil table's weights in place of a copy of |J|
        coeffs = frozen_coefficients(*random_state(grid), 1e-2)
        matrix = assembled_jacobian(coeffs)
        expected = np.abs(matrix).sum(axis=1).max()
        norm = solver._stencil_norm(jacobian_stencil(coeffs), grid.shape)
        assert abs(norm - expected) <= 4e-16 * expected


class TestInexactNewton:
    """3-d Newton steps solved to a forcing term, not to round-off."""

    def test_every_step_meets_its_forcing_term(self, monkeypatch):
        # each step's bound, and its backward error measured here
        steps = []
        original, built = solver._PoissonGMRES.solve, solver._PoissonGMRES.__init__
        matrices = {}

        def building(self, rows, grid):
            built(self, rows, grid)
            matrices[id(self)] = assemble_frozen_operator(rows, grid.shape)

        def recording(self, rhs, bound=solver.CONTRACT_BOUND):
            x = original(self, rhs, bound)
            steps.append((bound, backward_error(matrices[id(self)], x, rhs)))
            return x

        monkeypatch.setattr(solver._PoissonGMRES, "__init__", building)
        monkeypatch.setattr(solver._PoissonGMRES, "solve", recording)
        result = epsilon_continuation(build_problem(cube_spec(13, p=P_GMRES)), CUBE_SCHEDULE)
        assert all(level.converged for level in result.results)
        assert steps
        for bound, error in steps:
            assert bound == solver.FORCING_MAX
            assert error <= bound

    def test_missed_forcing_term_names_the_bound(self, monkeypatch):
        bounds = []
        original = solver._PoissonGMRES.solve

        def recording(self, rhs, bound=solver.CONTRACT_BOUND):
            bounds.append(bound)
            return original(self, rhs, bound)

        monkeypatch.setattr(solver._PoissonGMRES, "solve", recording)
        monkeypatch.setattr(solver, "gmres", lambda matrix, rhs, **options: (np.zeros_like(rhs), 0))
        with pytest.raises(SolverError) as raised:
            solve_regularized(build_problem(cube_spec(13, p=P_GMRES)))
        # the cold sweep and the judged one after it are fast Poisson
        # solves; the third, GMRES, fails
        assert bounds == [solver.FORCING_MAX]
        assert "above the 1e-05 bound" in str(raised.value)

    def test_cube_continuation_one_call_per_gmres_sweep(self, monkeypatch):
        calls = count_gmres(monkeypatch)
        result = epsilon_continuation(build_problem(cube_spec(13, p=P_GMRES)), CUBE_SCHEDULE)
        sweeps = [level.iterations for level in result.results]
        assert sweeps == [7, 4, 3]
        # every sweep but the first two, the cold one and the Poisson sweep
        # that contracts too little, is a GMRES step, with no refinement
        # call after it
        assert len(calls) == sum(sweeps) - 2
        assert sum(calls) <= 190

    def test_p9_cube_iterations_well_below_restart(self, monkeypatch):
        # exact solves sat near the restart of 40 here (33-43 per call)
        calls = count_gmres(monkeypatch)
        spec = cube_spec(13, p=P_GMRES)
        result = epsilon_continuation(build_problem(spec), (0.1, 0.03, 0.01, 0.003, 0.001))
        assert [level.iterations for level in result.results] == [7, 4, 3, 3, 3]
        assert len(calls) == sum(level.iterations for level in result.results) - 2
        assert max(calls) < 20, calls


class TestSolve:
    def test_linear_boundary_reproduced_to_roundoff(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            a = rng.uniform(-2.0, 2.0, 2)
            boundary = f"{float(a[0])!r}*x1 + {float(a[1])!r}*x2"
            spec = make_spec(boundary)
            result = solve_regularized(build_problem(spec))
            exact = sample(spec.boundary_expr, spec.grid)
            assert result.converged
            assert np.abs(result.v.values - exact.values).max() < 1e-10

    def test_manufactured_quadratic_with_constant_p_is_exact(self):
        # f = -2, the classical manufactured quadratic: second-order
        # stencils reproduce it to round-off
        u = parse_expression("x1^2", 2)
        p2 = parse_expression("2", 2)
        f = manufactured_rhs(u, p2, 1e-2)
        spec = ProblemSpec(unit_square(33), p2, f, u, eps=1e-2)
        result = solve_regularized(build_problem(spec))
        exact = sample(u, spec.grid)
        assert np.abs(result.v.values - exact.values).max() < 1e-9

    def test_manufactured_harmonic_saddle_is_exact(self):
        u = parse_expression("x1^2 - x2^2", 2)
        p2 = parse_expression("2", 2)
        f = manufactured_rhs(u, p2, 1e-2)
        spec = ProblemSpec(unit_square(33), p2, f, u, eps=1e-2)
        result = solve_regularized(build_problem(spec))
        exact = sample(u, spec.grid)
        assert np.abs(result.v.values - exact.values).max() < 1e-9

    def test_manufactured_smooth_solution_second_order(self):
        u = parse_expression("sin(x1)*cos(x2)", 2)
        p = parse_expression(P_VARIABLE, 2)
        f = manufactured_rhs(u, p, 1e-2)
        errors = {}
        for m in (33, 65):
            spec = ProblemSpec(unit_square(m), p, f, u, eps=1e-2)
            result = solve_regularized(build_problem(spec))
            exact = sample(u, spec.grid)
            errors[m] = np.abs(result.v.values - exact.values).max()
        assert 3.2 <= errors[33] / errors[65] <= 4.8

    def test_residual_meets_contract(self):
        result = solve_regularized(build_problem(make_spec("x1^2 - x2^2")))
        g_norm = max(1.0, np.abs(result.problem.g.values).max())
        assert result.converged
        assert result.residual <= 10.0 * SolveOptions().tolerance * g_norm

    def test_maximum_principle_surrogate_for_constant_p(self):
        # f = 0, p constant, boundary data attaining its extremes on the
        # boundary: the solution stays inside the boundary range
        spec = make_spec("x1^2 - x2^2", p="2.5")
        result = solve_regularized(build_problem(spec))
        interior = spec.grid.interior_mask()
        bvals = result.problem.boundary.values[~interior]
        assert result.v.values.min() >= bvals.min() - 1e-8
        assert result.v.values.max() <= bvals.max() + 1e-8

    def test_nonconvergence_flagged_not_raised(self, monkeypatch):
        set_stopping(monkeypatch, tolerance=1e-14, max_iterations=2)
        result = solve_regularized(build_problem(make_spec("x1^2 - x2^2")))
        assert not result.converged
        assert np.isfinite(result.residual)

    def test_warm_start_grid_checked(self):
        prob = build_problem(make_spec("x1"))
        other = ScalarField(unit_square(17), np.zeros((17, 17)))
        with pytest.raises(SolverError, match="different grid"):
            solve_regularized(prob, warm_start=other)

    def test_observed_ellipticity_inside_theoretical_window(self):
        result = solve_regularized(build_problem(make_spec("x1^2 - x2^2")))
        window = result.problem.window
        lo, hi = result.ellipticity
        assert lo >= min(1.0, window.t_minus - 1.0) - 1e-12
        assert hi <= window.t_plus + 1.0 + 1e-12


def count_splu(monkeypatch):
    """Record every matrix the solver factorizes; returns the record."""
    calls = []
    original = solver.splu

    def counting(matrix, **options):
        calls.append(matrix)
        return original(matrix, **options)

    monkeypatch.setattr(solver, "splu", counting)
    return calls


def count_assembly(monkeypatch):
    """Record every assembly of the frozen operator; returns the record."""
    calls = []
    original = solver.assemble_frozen_operator

    def counting(rows, shape):
        calls.append(shape)
        return original(rows, shape)

    monkeypatch.setattr(solver, "assemble_frozen_operator", counting)
    return calls


class TestFactorReuse:
    def test_fixture_continuation_carries_factor_across_levels(self, monkeypatch):
        calls = count_splu(monkeypatch)
        assembled = count_assembly(monkeypatch)
        result = epsilon_continuation(build_problem(fixture_problem(points=33)), FIXTURE_SCHEDULE)
        # the first sweep solves J(0), the p = 2 operator, by fast Poisson;
        # that solver, renormalized, keeps halving the residual through
        # every later eps level, so no factor is built
        assert len(calls) == 0
        assert [r.iterations for r in result.results] == [12, 9, 9, 8, 7, 7, 6]
        # the sweeps take their residual from the stencil, and the fast
        # Poisson solve applies J(0) from it too: no matrix is assembled
        assert assembled == []

    def test_cube_continuation_makes_no_factorization(self, monkeypatch):
        calls = count_splu(monkeypatch)
        solves = count_gmres(monkeypatch)
        assembled = count_assembly(monkeypatch)
        result = epsilon_continuation(build_problem(cube_spec(13, p=P_GMRES)), CUBE_SCHEDULE)
        assert all(level.converged for level in result.results)
        assert len(calls) == 0
        assert len(solves) > len(CUBE_SCHEDULE)
        # a GMRES solver is rebuilt from J(v) at every sweep, levels
        # included, after the cold sweep and one kept Poisson sweep; it
        # multiplies by the stencil table, so no sweep assembles a matrix
        assert len(solves) == sum(level.iterations for level in result.results) - 2
        assert assembled == []

    def test_standalone_solve_factorizes_at_first_sweep(self, monkeypatch):
        calls = count_splu(monkeypatch)
        prob = build_problem(fixture_problem(points=33))
        first = solve_regularized(prob)
        assert first.converged
        calls.clear()
        set_stopping(monkeypatch, max_iterations=1)
        # a warm-started call starts with an empty solver slot, so its one
        # sweep can only run on a factor it built itself
        for _ in range(2):
            solve_regularized(prob, warm_start=first.v)
            assert len(calls) == 1
            calls.clear()

    def test_chord_matches_per_sweep_picard(self):
        # reference: plain Picard, a fresh direct solve of A(v) v = g per sweep
        prob = build_problem(make_spec("x1^2 - x2^2"))
        grid = prob.grid
        rhs = np.where(grid.interior_mask(), prob.g.values, prob.boundary.values).ravel()
        v = prob.boundary.values.copy()
        for _ in range(200):
            matrix = frozen_operator(ScalarField(grid, v), prob.p, prob.eps)
            vnew = spsolve(matrix.tocsc(), rhs).reshape(grid.shape)
            delta = np.abs(vnew - v).max()
            v = vnew
            if delta < 1e-11:
                break
        assert delta < 1e-11
        chord = solve_regularized(prob)
        assert chord.converged
        assert np.abs(chord.v.values - v).max() < 1e-8

    def test_cold_start_rebuilds_at_second_sweep(self, monkeypatch):
        # at p = 4 the renormalized Poisson sweep after the cold one
        # contracts the residual by less than POISSON_KEEP_RATIO, so the
        # third sweep runs on a factor of J(v) at the second sweep's iterate
        calls = count_splu(monkeypatch)
        prob = build_problem(make_spec("x1^2 - x2^2", p="4"))
        result = solve_regularized(prob)
        assert result.converged
        assert len(calls) == 1
        # the cold sweep and the judged one are fast Poisson solves
        calls.clear()
        iterates = []
        for sweeps in (1, 2, 3):
            set_stopping(monkeypatch, max_iterations=sweeps)
            iterates.append(solve_regularized(prob).v)
            assert len(calls) == (sweeps == 3)
        # splu factors P J P^T, with P the grid shape's dissection order
        order = solver._dissection_order(prob.grid.shape)
        [factored] = calls
        zero = zero_iterate(prob.grid)
        for v, same in ((iterates[1], True), (iterates[0], False), (zero, False)):
            permuted = jacobian(v, prob.p, prob.eps)[order][:, order]
            assert ((factored != permuted).nnz == 0) == same

    def test_cold_3d_sweep_makes_no_gmres_call(self, monkeypatch):
        calls = count_gmres(monkeypatch)
        set_stopping(monkeypatch, max_iterations=1)
        result = solve_regularized(build_problem(cube_spec(13)))
        assert result.iterations == 1
        assert calls == []

    def test_first_cold_sweep_is_p2_solve(self, monkeypatch):
        # at v = 0 the frozen coefficient is the identity whatever p is
        prob = build_problem(make_spec("x1^2 - x2^2"))
        grid = prob.grid
        rhs = np.where(grid.interior_mask(), prob.g.values, prob.boundary.values).ravel()
        zero = ScalarField(grid, np.zeros(grid.shape))
        p2 = ScalarField(grid, np.full(grid.shape, 2.0))
        matrix = frozen_operator(zero, p2, prob.eps)
        expected = spsolve(matrix.tocsc(), rhs)
        set_stopping(monkeypatch, max_iterations=1)
        result = solve_regularized(prob)
        assert result.iterations == 1
        # an M-matrix with row sums >= 1 has |A^-1| <= 1, so the condition
        # number is at most |A|: round-off times |A| |x| bounds the gap
        bound = 1e-14 * np.abs(matrix).sum(axis=1).max() * np.abs(expected).max()
        assert np.abs(result.v.values.ravel() - expected).max() <= bound


def record_steps(monkeypatch):
    """Record each sweep's linear solver and the max norm of the residual
    it is handed; returns the record."""
    steps = []
    for cls in (solver._FastPoisson, solver._LUFactor, solver._PoissonGMRES):

        def recording(self, r, coeffs, original=cls.step):
            steps.append((self, float(np.abs(r).max())))
            return original(self, r, coeffs)

        monkeypatch.setattr(cls, "step", recording)
    return steps


def sweep_ratios(steps, result):
    """``(solver, ratio)`` per sweep of the continuation ``result``: the
    residual after the sweep over the residual before it."""
    ratios, start = [], 0
    for level in result.results:
        level_steps = steps[start : start + level.iterations]
        start += level.iterations
        after = [residual for _, residual in level_steps[1:]] + [level.residual]
        ratios += [(linear, b / a) for (linear, a), b in zip(level_steps, after)]
    assert start == len(steps)
    return ratios


class TestKeptPoisson:
    """The cold sweep's fast Poisson solve stays the sweeps' solver while
    each renormalized sweep contracts by ``POISSON_KEEP_RATIO``."""

    @pytest.mark.parametrize("points", [33, 65])
    def test_fixture_continuation_makes_no_factor(self, monkeypatch, points):
        calls = count_splu(monkeypatch)
        steps = record_steps(monkeypatch)
        data = build_problem(fixture_problem(points=points))
        result = epsilon_continuation(data, FIXTURE_SCHEDULE)
        assert all(level.converged for level in result.results)
        assert calls == []
        # every sweep after the cold one, across the levels, on its solver
        cold = steps[0][0]
        assert isinstance(cold, solver._FastPoisson)
        assert all(linear is cold for linear, _ in steps)

    def test_fixture_cube_makes_no_gmres_call(self, monkeypatch):
        calls = count_gmres(monkeypatch)
        steps = record_steps(monkeypatch)
        result = epsilon_continuation(build_problem(cube_spec(13)), CUBE_SCHEDULE)
        assert all(level.converged for level in result.results)
        assert calls == []
        cold = steps[0][0]
        assert isinstance(cold, solver._FastPoisson)
        assert all(linear is cold for linear, _ in steps)

    @pytest.mark.parametrize("points", [33, 65, 129])
    def test_fixture_ratio_stays_under_the_keep_ratio(self, monkeypatch, points):
        steps = record_steps(monkeypatch)
        data = build_problem(fixture_problem(points=points))
        result = epsilon_continuation(data, FIXTURE_SCHEDULE)
        # the cold sweep is not judged: it starts from v = 0, not the data
        judged = sweep_ratios(steps, result)[1:]
        assert max(ratio for _, ratio in judged) < solver.POISSON_KEEP_RATIO

    def test_p4_continuation_factors_by_sweep_3(self, monkeypatch):
        calls = count_splu(monkeypatch)
        steps = record_steps(monkeypatch)
        spec = dataclasses.replace(fixture_problem(points=65), p_expr=parse_expression("4", 2))
        result = epsilon_continuation(build_problem(spec), FIXTURE_SCHEDULE)
        kinds = [type(linear) for linear, _ in steps]
        assert kinds[:3] == [solver._FastPoisson, solver._FastPoisson, solver._LUFactor]
        # the judged Poisson sweep contracted too little; every later sweep
        # runs on an LU factor, carried across levels while it contracts
        ratios = sweep_ratios(steps, result)
        assert ratios[1][1] > solver.POISSON_KEEP_RATIO
        assert set(kinds[2:]) == {solver._LUFactor}
        assert 1 <= len(calls) < len(FIXTURE_SCHEDULE)

    def test_cold_sweep_is_the_unscaled_lifted_poisson_solve(self, monkeypatch):
        # bitwise the sweep from v = 0 with no renormalization: there
        # lam = 1, so gamma = 1 exactly, and the Dirichlet rows are lifted
        prob = build_problem(fixture_problem(points=33))
        grid = prob.grid
        rhs = np.where(grid.interior_mask(), prob.g.values, prob.boundary.values).ravel()
        zero = np.zeros(grid.shape)
        offset = solver._exponent_offset(prob.p.values)
        r, coeffs = solver._nonlinear_residual(zero, offset, prob.eps, grid.spacing, rhs)
        assert np.array_equal((1.0 + coeffs.lam) / (1.0 + coeffs.lam**2), np.ones_like(coeffs.lam))
        boundary = ~grid.interior_mask().ravel()
        assert r[boundary].any()
        lifted = np.where(boundary, r, 0.0)
        # J(0) applied from its stencil table, bitwise the assembled product
        product = solver._stencil_action(poisson_stencil(grid.spacing), grid.shape, lifted)
        x = lifted + solver._poisson_inverse(grid)(r - product)
        expected = zero + x.reshape(grid.shape)
        set_stopping(monkeypatch, max_iterations=1)
        assert solve_regularized(prob).v.values.tobytes() == expected.tobytes()


class TestSkippedLift:
    def test_zero_dirichlet_rows_read_no_matrix(self):
        grid = unit_square(33)
        zero = zero_iterate(grid)
        coeffs = frozen_coefficients(zero, random_state(grid)[1], 1e-2)
        linear = solver._linear_solver(coeffs, zero.values, grid)
        matrix = assembled_jacobian(coeffs)
        rhs = np.random.default_rng(19).standard_normal(matrix.shape[0])
        rhs[~grid.interior_mask().ravel()] = 0.0
        linear._product = None  # the lift's operator product would fail on it
        assert backward_error(matrix, linear._apply(rhs), rhs) <= 1e-12

    def test_final_solution_bitwise_as_with_the_lift(self, monkeypatch):
        # 0.0 + (-0.0) is the one sum where the skipped lift could differ
        spec = fixture_problem(points=33)
        skipped = epsilon_continuation(build_problem(spec), FIXTURE_SCHEDULE).results[-1].v.values

        def always_lifted(self, rhs, bound=solver.CONTRACT_BOUND):
            lifted = np.where(self._boundary, rhs, 0.0)
            return lifted + self._inverse(rhs - self._product(lifted))

        monkeypatch.setattr(solver._FastPoisson, "_apply", always_lifted)
        lifted = epsilon_continuation(build_problem(spec), FIXTURE_SCHEDULE).results[-1].v.values
        assert skipped.tobytes() == lifted.tobytes()


class TestLargeExponent:
    """65^2 saddle data at eps = 0.1, where plain Picard used to stall at
    round-off or drift for 500 sweeps."""

    @staticmethod
    def solve(p):
        return solve_regularized(build_problem(make_spec("x1^2 - x2^2", p=p, m=65, eps=0.1)))

    @pytest.mark.parametrize("p", ["4", "8", "8 + sin(x2)", "20"])
    def test_converges_within_residual_budget(self, p):
        result = self.solve(p)
        g_norm = max(1.0, np.abs(result.problem.g.values).max())
        assert result.converged
        assert result.residual <= 10.0 * SolveOptions().tolerance * g_norm

    def test_dominance_loss_still_reported(self):
        assert self.solve("8").dominance_violations > 0

    def test_undamped_p20_flagged_not_raised(self, monkeypatch):
        set_stopping(monkeypatch, max_iterations=3)
        result = self.solve("20")
        assert not result.converged
        assert np.isfinite(result.residual)

    def test_undamped_p20_fixture_continuation_converges(self):
        # the frozen-coefficient chord raised SolverError on its first level
        spec = dataclasses.replace(fixture_problem(points=65), p_expr=parse_expression("20", 2))
        result = epsilon_continuation(build_problem(spec), FIXTURE_SCHEDULE)
        assert all(level.converged for level in result.results)
        # the scheme, not the solver: dominance is read off the frozen A(v)
        final = result.results[-1]
        frozen = frozen_coefficients(final.v, final.problem.p, final.problem.eps)
        assert final.dominance_violations == frozen.dominance_violations == 3248


class TestThreeDimensional:
    def test_linear_boundary_exact(self):
        grid = GridSpec((0, 0, 0), (1, 1, 1), (13, 13, 13))
        spec = ProblemSpec(
            grid,
            parse_expression("2 + 0.3*sin(x1 + x2)", 3),
            parse_expression("0", 3),
            parse_expression("0.5*x1 - x2 + 0.25*x3", 3),
            eps=1e-2,
        )
        result = solve_regularized(build_problem(spec))
        exact = sample(spec.boundary_expr, grid)
        assert result.converged
        assert np.abs(result.v.values - exact.values).max() < 1e-10

    def test_manufactured_quadratic_exact(self):
        grid = GridSpec((0, 0, 0), (1, 1, 1), (13, 13, 13))
        u = parse_expression("x1^2 - 0.5*x2^2 + x3^2 - 0.5*x1*x3", 3)
        p2 = parse_expression("2", 3)
        f = manufactured_rhs(u, p2, 1e-2)
        result = solve_regularized(build_problem(ProblemSpec(grid, p2, f, u, eps=1e-2)))
        assert np.abs(result.v.values - sample(u, grid).values).max() < 1e-9


class TestManufacturedRhs:
    def test_linear_solution_gives_zero(self):
        u = parse_expression("x1 - 2*x2", 2)
        p = parse_expression(P_VARIABLE, 2)
        rhs = manufactured_rhs(u, p, 1e-2)
        for point in [(0.2, 0.7), (0.9, 0.1)]:
            assert at(rhs, point) == 0.0
        with_reaction = manufactured_rhs(u, p, 1e-2, include_reaction=True)
        assert at(with_reaction, (0.2, 0.7)) == pytest.approx(
            at(u, (0.2, 0.7)), abs=1e-14
        )

    def test_radial_quadratic_constant_p(self):
        # -lap - (p-2)|x|^2/|x|^2 = -n - (p - 2) away from the origin
        u = parse_expression("0.5*(x1^2 + x2^2)", 2)
        p = parse_expression("3.5", 2)
        rhs = manufactured_rhs(u, p, 0.0)
        assert at(rhs, (0.4, -0.3)) == pytest.approx(-2.0 - 1.5, abs=1e-12)

    def test_harmonic_saddle_constant_two(self):
        u = parse_expression("x1^2 - x2^2", 2)
        p = parse_expression("2", 2)
        rhs = manufactured_rhs(u, p, 1e-3)
        assert at(rhs, (0.3, 0.8)) == 0.0


def count_solves(monkeypatch):
    """Wrap ``solver.solve_regularized`` the way the benchmark's traced run
    does, by replacing the module attribute; returns each call's sweeps."""
    sweeps = []
    original = solver.solve_regularized

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        sweeps.append(result.iterations)
        return result

    monkeypatch.setattr(solver, "solve_regularized", counting)
    return sweeps


class TestContinuation:
    @pytest.mark.parametrize(
        "spec, schedule",
        [(fixture_problem(points=33), FIXTURE_SCHEDULE), (cube_spec(13), CUBE_SCHEDULE)],
        ids=["fixture-33", "cube-13"],
    )
    def test_every_level_solved_through_solve_regularized(self, monkeypatch, spec, schedule):
        # the one entry to the sweep loop, which a wrapper of it sees
        sweeps = count_solves(monkeypatch)
        result = epsilon_continuation(build_problem(spec), schedule)
        assert len(sweeps) == len(schedule)
        assert sweeps == [level.iterations for level in result.results]
        assert sum(sweeps) > 0

    def test_linear_boundary_increments_vanish(self):
        spec = make_spec("0.4*x1 - 0.9*x2")
        result = epsilon_continuation(build_problem(spec), (0.1, 0.01, 0.001))
        assert all(inc < 1e-9 for inc in result.increments)

    def test_constant_p_two_increments_shrink(self):
        # linear problem: iterates differ only through the mollified data,
        # so the gradient increments decay along the schedule
        spec = make_spec("sin(2*x1)*x2 + x1", p="2")
        result = epsilon_continuation(build_problem(spec), (0.1, 0.01, 0.001, 0.0001))
        assert all(b < a for a, b in zip(result.increments, result.increments[1:]))
        assert result.increments[-1] < 1e-3

    def test_constant_p_two_exact_data_gives_identical_iterates(self):
        # the saddle is reproduced exactly at every eps (mollification leaves
        # it unchanged), so increments sit at round-off
        spec = make_spec("x1^2 - x2^2", p="2")
        result = epsilon_continuation(build_problem(spec), (0.1, 0.01, 0.001))
        assert all(inc < 1e-11 for inc in result.increments)

    def test_fixture_increments_decrease(self):
        spec = make_spec("x1^2 - x2^2")
        result = epsilon_continuation(build_problem(spec), (0.1, 0.01, 0.001, 0.0001))
        assert len(result.increments) == 3
        assert all(b < a for a, b in zip(result.increments, result.increments[1:]))
        final = result.results[-1]
        gap = np.abs(final.problem.g.values - final.v.values).max()
        assert gap < 5e-3

    def test_levels_hold_no_gradient(self):
        # the increments come from gradients of level differences, which
        # the linear discrete gradient turns into differences of gradients
        result = epsilon_continuation(build_problem(fixture_problem(points=33)), FIXTURE_SCHEDULE)
        assert "increments" not in result.__dict__  # computed at the first read
        increments = result.increments
        assert all(level.v.derived == {} for level in result.results)
        grid = result.results[0].v.grid
        mask = solver.ball_mask(solver._default_region(grid).scaled(0.75), grid)
        assert not (mask & ~grid.interior_mask()).any()
        grads = [gradient(level.v) for level in result.results]
        # the check above reads the store the gradient is kept in
        assert all(level.v.derived["gradient"] is grad for level, grad in zip(result.results, grads))
        levels = zip(result.results, result.results[1:])
        for increment, (a, b), (grad_a, grad_b) in zip(increments, levels, zip(grads, grads[1:])):
            diff = gradient(ScalarField(grid, b.v.values - a.v.values))
            assert increment == float(np.linalg.norm(diff, axis=-1)[mask].max())
            linear = np.linalg.norm(grad_b - grad_a, axis=-1)[mask]
            assert increment == pytest.approx(float(linear.max()), rel=1e-10)
        assert result.increments is increments

    def test_schedule_validated(self):
        spec = make_spec("x1")
        with pytest.raises(SolverError, match="decreasing"):
            epsilon_continuation(build_problem(spec), (0.01, 0.1))
        with pytest.raises(SolverError, match="positive"):
            epsilon_continuation(build_problem(spec), (0.1, -0.1))
        with pytest.raises(SolverError, match="positive"):
            epsilon_continuation(build_problem(spec), (0.1, float("nan")))
        with pytest.raises(SolverError, match="empty"):
            epsilon_continuation(build_problem(spec), ())

    def test_mollification_radius_tracks_schedule(self, monkeypatch):
        # each level mollifies p, f and u0 with one radius
        radii = []

        def recording_mollify(field, radius):
            radii.append(radius)
            return mollify(field, radius)

        monkeypatch.setattr(solver, "mollify", recording_mollify)
        epsilon_continuation(build_problem(make_spec("x1^2 - x2^2", f="x1")), (0.1, 0.01))
        assert radii[:3] == [pytest.approx(0.1)] * 3
        # clipped up to the resolvable radius 2 h
        assert radii[3:] == [pytest.approx(2.0 / 32.0)] * 3

    def test_zero_source_is_not_mollified(self, monkeypatch):
        # an identically zero f is its own mollification: each level
        # mollifies p and u0 only, and its data are those a mollified f gives
        mollified = []

        def recording_mollify(field, radius):
            mollified.append(field)
            return mollify(field, radius)

        monkeypatch.setattr(solver, "mollify", recording_mollify)
        spec = make_spec("x1^2 - x2^2")
        schedule = (0.1, 0.03, 0.01)
        result = epsilon_continuation(build_problem(spec), schedule)
        radii = {solver._clip_radius(eps, spec.grid) for eps in schedule}
        assert len(mollified) == len(radii) + len(schedule)  # p per radius, u0 per level
        assert all(field.values.any() for field in mollified)  # p and u0, never f
        monkeypatch.undo()
        raw = build_problem(spec)
        assert not raw.f.values.any()
        u0 = raw.boundary
        for level in result.results:
            radius = solver._clip_radius(level.problem.eps, spec.grid)
            f = mollify(raw.f, radius).values
            assert level.problem.f.values.tobytes() == f.tobytes()
            g = f + mollify(u0, radius).values
            assert level.problem.g.values.tobytes() == g.tobytes()
            u0 = level.v


    def test_level_data_sampled_once_and_bitwise_per_level(self, monkeypatch):
        # only u0 changes from level to level: the boundary, p and f are
        # sampled once, by build_problem, and p and f mollified once per
        # distinct radius
        sampled, mollified = [], []
        for name, record in (("sample", sampled), ("mollify", mollified)):

            def recording(field, *args, record=record, original=getattr(solver, name)):
                record.append(field)
                return original(field, *args)

            monkeypatch.setattr(solver, name, recording)
        spec = dataclasses.replace(
            fixture_problem(points=33), f_expr=parse_expression("4*(x1 - 0.5)", 2)
        )
        data = build_problem(spec)
        assert len(sampled) == 3
        result = epsilon_continuation(data, FIXTURE_SCHEDULE)
        grid = spec.grid
        radii = [solver._clip_radius(eps, grid) for eps in FIXTURE_SCHEDULE]
        assert len(set(radii)) == 2  # 0.1, then 2 h from the second level on
        assert len(sampled) == 3
        assert len(mollified) == 2 * len(set(radii)) + len(FIXTURE_SCHEDULE)
        monkeypatch.undo()
        # each level mollifies the raw data of build_problem with its radius
        raw = build_problem(spec)
        u0 = raw.boundary
        for eps, radius, level in zip(FIXTURE_SCHEDULE, radii, result.results):
            p, f = mollify(raw.p, radius), mollify(raw.f, radius)
            expected = {
                "p": p.values,
                "f": f.values,
                "g": f.values + mollify(u0, radius).values,
                "boundary": raw.boundary.values,
            }
            for name, want in expected.items():
                assert np.array_equal(getattr(level.problem, name).values, want), name
            assert level.problem.grid == grid
            assert level.problem.eps == eps
            window = level.problem.window
            assert (window.t_minus, window.t_plus) == (p.values.min(), p.values.max())
            u0 = level.v

    def test_level_data_built_from_one_build_problem(self, monkeypatch):
        # the caller's one build_problem call is the only sampling: the
        # continuation builds every level from the data it is handed
        data = build_problem(make_spec("x1^2 - x2^2"))
        calls = []
        for name in ("sample", "build_problem"):

            def counting(*args, name=name, original=getattr(solver, name)):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(solver, name, counting)
        result = epsilon_continuation(data, (0.1, 0.01, 0.001))
        assert calls == []
        assert all(level.problem.boundary is data.boundary for level in result.results)

    def test_first_eps_bounded_as_in_problem_spec(self):
        with pytest.raises(SolverError, match=r"eps must lie in \(0, 1\), got 1.0"):
            epsilon_continuation(build_problem(make_spec("x1")), (1.0, 0.1))

    def test_raw_exponent_checked(self):
        # p dips to 0.98 in a narrow well at the centre: the p mollified
        # with the level's radius clears 1 at every node, the sampled one
        # does not
        spec = make_spec("x1", p="2 - 1.02*exp(-1000*((x1 - 0.5)^2 + (x2 - 0.5)^2))")
        assert mollify(sample(spec.p_expr, spec.grid), 0.1).values.min() > 1.0
        with pytest.raises(SolverError, match="min p = 0.98"):
            epsilon_continuation(build_problem(spec), (0.1,))


SYMMETRY_SCHEDULE = (0.1, 0.01, 0.001)


class TestSymmetry:
    """The 65^2 fixture under the unit square's symmetries: reflecting
    ``x1 -> 1 - x1``, or swapping ``x1`` and ``x2``, in ``p`` and the
    boundary data maps the solution by the same symmetry, to round-off, and
    leaves the distortion sup ``K`` as it is."""

    @pytest.fixture(scope="class")
    def fixture_solution(self):
        data = build_problem(fixture_problem(points=65))
        return epsilon_continuation(data, SYMMETRY_SCHEDULE).results[-1].v

    @pytest.mark.parametrize(
        "p, boundary, image",
        [
            ("2 + 0.5*sin(1 - x1)", "(1 - x1)^2 - x2^2", lambda v: v[::-1, :]),
            ("2 + 0.5*sin(x2)", "x2^2 - x1^2", lambda v: v.T),
        ],
        ids=["reflected", "transposed"],
    )
    def test_solution_and_distortion_follow_it(self, fixture_solution, p, boundary, image):
        spec = dataclasses.replace(
            fixture_problem(points=65),
            p_expr=parse_expression(p, 2),
            boundary_expr=parse_expression(boundary, 2),
        )
        w = epsilon_continuation(build_problem(spec), SYMMETRY_SCHEDULE).results[-1].v
        assert np.abs(w.values - image(fixture_solution.values)).max() <= 1e-13
        for beta in (0.0, 1.0):
            expected = quasiregularity_audit(fixture_solution, beta).worst
            assert quasiregularity_audit(w, beta).worst == pytest.approx(expected, rel=1e-12)


class TestContinuationRegressions:
    """Fixture continuations over the full schedule: every level converged,
    with its residual inside the solver's budget ``10 tol max(1, |g|)``."""

    @staticmethod
    def check_levels(result, schedule=FIXTURE_SCHEDULE):
        assert len(result.results) == len(schedule)
        for level in result.results:
            g_norm = max(1.0, np.abs(level.problem.g.values).max())
            assert level.converged
            assert level.residual <= 10.0 * SolveOptions().tolerance * g_norm

    def test_fixture_257_converges_with_no_factorization(self, monkeypatch):
        calls = count_splu(monkeypatch)
        data = build_problem(fixture_problem(points=257))
        self.check_levels(epsilon_continuation(data, FIXTURE_SCHEDULE))
        assert len(calls) == 0

    @pytest.mark.parametrize(
        "p, sweeps, factorizations",
        [("1.2", [11, 6, 6, 6, 10, 4, 6], 5), ("4", [14, 6, 5, 5, 9, 10, 10], 4)],
        ids=["1.2", "4"],
    )
    def test_fixture_65_constant_exponent_converges(self, monkeypatch, p, sweeps, factorizations):
        # the data leave the near-Laplacian window: the renormalized Poisson
        # sweeps contract by more than POISSON_KEEP_RATIO within the first
        # level, a kept factor stalls at 0.4-0.5 per sweep, and
        # REFACTOR_RATIO rebuilds it
        calls = count_splu(monkeypatch)
        spec = dataclasses.replace(fixture_problem(points=65), p_expr=parse_expression(p, 2))
        result = epsilon_continuation(build_problem(spec), FIXTURE_SCHEDULE)
        self.check_levels(result)
        assert [level.iterations for level in result.results] == sweeps
        assert len(calls) == factorizations

    def test_cube_33_converges_in_the_17_cube_sweeps(self, monkeypatch):
        # Newton-GMRES at p = 9 takes [7, 4, 3] sweeps at 13^3 and 17^3 too
        calls = count_gmres(monkeypatch)
        result = epsilon_continuation(build_problem(cube_spec(33, p=P_GMRES)), CUBE_SCHEDULE)
        self.check_levels(result, CUBE_SCHEDULE)
        assert [level.iterations for level in result.results] == [7, 4, 3]
        assert calls
