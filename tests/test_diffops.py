import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pxlaplace.diffops import (
    StretchParams,
    frobenius_sq,
    gradient,
    hessian,
    infinity_laplacian_values,
    sigma2_values,
    stretched_gradient_values,
    stretched_jacobian_values,
)
from pxlaplace.expressions import parse_expression
from pxlaplace.fields import FieldError, GridSpec, ScalarField, sample
from pxlaplace.identities import random_polynomial_expression, symbolic_derivative_samples


def unit_square(m=33):
    return GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))


def jacobian(values, grid):
    """Oracle: row i holds the ``np.gradient`` of component i of a vector
    field's node values, differenced directly."""
    rows = [np.gradient(values[..., i], *grid.spacing, edge_order=2) for i in range(grid.dimension)]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def det2(matrices):
    """Oracle: the 2x2 determinant."""
    m = np.asarray(matrices)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


class TestGradient:
    def test_constant(self):
        grad = gradient(sample(parse_expression("5", 2), unit_square()))
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_linear_exact_on_interior(self):
        grid = unit_square()
        grad = gradient(sample(parse_expression("2*x1 - 3*x2", 2), grid))
        interior = grid.interior_mask()
        assert np.allclose(grad[interior], [2.0, -3.0], atol=1e-12)
        # no central stencil fits on the Dirichlet nodes: they hold 0
        assert not grad[~interior].any()

    def test_quadratic_interior_stencil_value(self):
        # v = x1^2 with spacing 0.1: central difference at x1 = 0.5 gives 1 exactly
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (11, 11))
        grad = gradient(sample(parse_expression("x1^2", 2), grid))
        assert grad[5, 5, 0] == pytest.approx(1.0, abs=1e-14)

    def test_validity_shrinks_to_interior(self):
        # one vector per node; it is read on the 7 x 7 interior nodes
        grid = unit_square(9)
        grad = gradient(sample(parse_expression("x1", 2), grid))
        assert grad.shape == grid.shape + (2,)
        interior = grid.interior_mask()
        assert interior.sum() == 7 * 7
        assert not interior[0].any() and not interior[-1].any()
        assert np.array_equal(grad[interior], np.tile([1.0, 0.0], (49, 1)))

    def test_non_finite_derivatives_rejected(self):
        grid = unit_square(9)
        jump = ScalarField(grid, np.where(grid.coords()[0] > 0.5, 1.7e308, -1.7e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FieldError, match="gradient contains non-finite"):
                gradient(jump)
            with pytest.raises(FieldError, match="Hessian contains non-finite"):
                hessian(jump)


class TestHessian:
    def test_quadratic_exact(self):
        grid = unit_square()
        field = sample(parse_expression("0.5*(3*x1^2 + 2*x1*x2 - x2^2)", 2), grid)
        hess = hessian(field)
        expected = np.array([[3.0, 1.0], [1.0, -1.0]])
        sel = grid.interior_mask()
        assert np.allclose(hess[sel] - expected, 0.0, atol=1e-11)

    def test_linear_zero(self):
        hess = hessian(sample(parse_expression("x1 - 4*x2", 2), unit_square()))
        assert np.allclose(hess, 0.0, atol=1e-12)

    def test_cubic_diagonal_exact(self):
        # second difference of x1^3 at x1 = 1 with h = 0.01 is exactly 6
        grid = GridSpec((0.0, 0.0), (2.0, 2.0), (201, 201))
        hess = hessian(sample(parse_expression("x1^3", 2), grid))
        idx = int(np.argmin(np.abs(grid.axis(0) - 1.0)))
        assert hess[idx, 100, 0, 0] == pytest.approx(6.0, abs=1e-9)

    def test_dirichlet_nodes_hold_zero(self):
        grid = GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (9, 9, 9))
        hess = hessian(sample(parse_expression("x1^2 + x1*x2*x3", 3), grid))
        assert hess[grid.interior_mask()].any()
        assert not hess[~grid.interior_mask()].any()

    def test_symmetric_exactly(self):
        field = sample(parse_expression("sin(3*x1)*cos(2*x2) + x1^3*x2", 2), unit_square())
        hess = hessian(field)
        assert np.array_equal(hess[..., 0, 1], hess[..., 1, 0])


class TestComputedOncePerField:
    def test_repeated_calls_return_the_stored_result(self):
        field = sample(parse_expression("sin(3*x1)*x2^2", 2), unit_square())
        assert gradient(field) is gradient(field)
        assert hessian(field) is hessian(field)

    def test_stored_result_equals_a_fresh_computation(self):
        grid = unit_square()
        field = sample(parse_expression("exp(x1)*cos(2*x2)", 2), grid)
        grad, hess = gradient(field), hessian(field)
        twin = ScalarField(grid, field.values)
        assert gradient(twin) is not grad
        assert np.array_equal(gradient(twin), grad)
        assert np.array_equal(hessian(twin), hess)
        assert not grad.flags.writeable and not hess.flags.writeable

    def test_threads_racing_to_store_get_equal_results(self):
        grid = unit_square(65)
        expr = parse_expression("sin(3*x1)*x2^2", 2)
        reference = hessian(sample(expr, grid))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                field = sample(expr, grid)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(hessian, field) for _ in range(8)]
                    results = [f.result(timeout=60) for f in futures]
                assert all(np.array_equal(r, reference) for r in results)
                assert hessian(field) is hessian(field)
        finally:
            sys.setswitchinterval(switch)


class TestSecondOrderConvergence:
    def test_gradient_and_hessian_order_two_on_quartic(self):
        expr = parse_expression("x1^4 - 2*x1^2*x2^2 + 0.5*x2^4", 2)
        errors_g, errors_h = {}, {}
        for m in (33, 65):
            grid = GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))
            field = sample(expr, grid)
            grad = gradient(field)
            hess = hessian(field)
            g_exact, h_exact = symbolic_derivative_samples(
                expr, np.stack([c.ravel() for c in grid.coords()], axis=-1)
            )
            g_exact = g_exact.reshape(grid.shape + (2,))
            h_exact = h_exact.reshape(grid.shape + (2, 2))
            interior = grid.interior_mask()
            errors_g[m] = np.abs((grad - g_exact))[interior].max()
            errors_h[m] = np.abs((hess - h_exact))[interior].max()
        assert 3.6 <= errors_g[33] / errors_g[65] <= 4.4
        assert 3.6 <= errors_h[33] / errors_h[65] <= 4.4


def laplacians(field):
    """Laplacian and infinity-Laplacian values, and the interior nodes
    they are read on."""
    grad, hess = gradient(field), hessian(field)
    lap = np.trace(hess, axis1=-2, axis2=-1)
    inf = infinity_laplacian_values(grad, hess)
    return lap, inf, field.grid.interior_mask()


class TestLaplacians:
    def test_half_norm_squared(self):
        grid = unit_square()
        field = sample(parse_expression("0.5*(x1^2 + x2^2)", 2), grid)
        lap, inf, interior = laplacians(field)
        coords = grid.coords()
        norm_sq = coords[0] ** 2 + coords[1] ** 2
        assert np.allclose(lap[interior], 2.0, atol=1e-11)
        assert np.allclose(inf[interior], norm_sq[interior], atol=1e-10)

    def test_linear_zero(self):
        field = sample(parse_expression("x1 + x2", 2), unit_square())
        lap, inf, _ = laplacians(field)
        assert np.allclose(lap, 0.0, atol=1e-12)
        assert np.allclose(inf, 0.0, atol=1e-12)

    def test_saddle_values(self):
        grid = GridSpec((-1.5, -1.5), (1.5, 1.5), (49, 49))
        field = sample(parse_expression("x1^2 - x2^2", 2), grid)
        lap, inf, interior = laplacians(field)
        assert np.allclose(lap[interior], 0.0, atol=1e-10)
        # at (1, 0): <diag(2,-2)(2,0), (2,0)> = 8
        i = int(np.argmin(np.abs(grid.axis(0) - 1.0)))
        j = int(np.argmin(np.abs(grid.axis(1))))
        assert inf[i, j] == pytest.approx(8.0, abs=1e-9)


class TestStretchedGradient:
    def test_value_examples(self):
        grad = np.array([[3.0, 4.0]])
        assert np.allclose(stretched_gradient_values(grad, 1.0, 0.0), [[15.0, 20.0]])
        grad = np.array([[1.0, 0.0]])
        assert np.allclose(stretched_gradient_values(grad, 2.0, 3.0), [[4.0, 0.0]])
        grad = np.array([[0.0, 0.0]])
        assert np.allclose(stretched_gradient_values(grad, 0.5, 0.0), [[0.0, 0.0]])

    def test_zero_eps_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            stretched_gradient_values(np.ones((1, 2)), -0.5, 0.0)
        with pytest.raises(ValueError):
            StretchParams(-1.5, 1.0)

    def test_field_version(self):
        grid = unit_square()
        field = sample(parse_expression("x1", 2), grid)
        params = StretchParams(2.0, 3.0)
        stretched = stretched_gradient_values(gradient(field), params.beta, params.eps)
        interior = grid.interior_mask()
        assert np.allclose(stretched[interior], [4.0, 0.0], atol=1e-10)
        assert not stretched[~interior].any()  # the zero gradient of the Dirichlet nodes


class TestJacobian:
    def test_linear_field(self):
        grid = unit_square()
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        coords = grid.coords()
        values = np.stack(
            [a[0, 0] * coords[0] + a[0, 1] * coords[1], a[1, 0] * coords[0] + a[1, 1] * coords[1]],
            axis=-1,
        )
        jac = jacobian(values, grid)
        assert np.allclose(jac - a, 0.0, atol=1e-11)

    def test_constant_field(self):
        grid = unit_square()
        jac = jacobian(np.ones(grid.shape + (2,)), grid)
        assert np.allclose(jac, 0.0, atol=1e-14)

    def test_product_field_rows(self):
        grid = GridSpec((0.0, 0.0), (2.5, 2.5), (41, 41))
        coords = grid.coords()
        values = np.stack([coords[0] * coords[1], np.zeros(grid.shape)], axis=-1)
        jac = jacobian(values, grid)
        i = int(np.argmin(np.abs(grid.axis(0) - 1.0)))
        j = int(np.argmin(np.abs(grid.axis(1) - 2.0)))
        assert np.allclose(jac[i, j], [[2.0, 1.0], [0.0, 0.0]], atol=1e-11)


class TestStretchedJacobian:
    def test_zero_beta_equals_hessian(self):
        field = sample(parse_expression("sin(2*x1)*x2^2", 2), unit_square())
        hess = hessian(field)
        dj = stretched_jacobian_values(gradient(field), hess, 0.0, 0.0)
        assert np.array_equal(dj, hess)

    def test_jacobian_of_stretched_gradient_matches_on_cubics(self):
        # both routes are exact on degree-3 polynomials away from the boundary
        field = sample(
            parse_expression("x1^3 + x1^2*x2 - 2*x2^3 + x1*x2", 2), unit_square()
        )
        grad = gradient(field)
        stretched = stretched_gradient_values(grad, 0.0, 0.0)
        direct = jacobian(stretched, field.grid)
        hess = hessian(field)
        sel = (slice(2, -2),) * 2  # differenced twice: two nodes off the boundary
        assert np.abs(direct[sel] - hess[sel]).max() <= 1e-9


class TestMatrixInvariants:
    def test_sigma2_identity_matrix(self):
        assert sigma2_values(np.eye(2)) == -1.0

    def test_sigma2_is_minus_det_in_2d(self):
        rng = np.random.default_rng(5)
        mats = rng.normal(size=(1000, 2, 2))
        assert np.array_equal(sigma2_values(mats), -det2(mats))

    def test_sigma2_3d_diagonal(self):
        assert sigma2_values(np.diag([1.0, 2.0, 3.0])) == -11.0

    def test_frobenius_and_det(self):
        assert frobenius_sq(np.eye(2)) == 2.0
        assert det2(np.eye(2)) == 1.0
        assert frobenius_sq(np.diag([2.0, -2.0])) == 8.0

    def test_sigma2_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            sigma2_values(np.eye(4))

    def test_harmonic_frobenius_equals_twice_sigma2(self):
        # trace-free symmetric 2x2: |M|^2 = 2 sigma2(M); exact for a cubic
        # harmonic since the stencils are exact there
        grid = unit_square()
        field = sample(parse_expression("x1^3 - 3*x1*x2^2", 2), grid)
        hess = hessian(field)
        sel = grid.interior_mask()
        frob = frobenius_sq(hess[sel])
        s2 = sigma2_values(hess[sel])
        assert np.abs(frob - 2.0 * s2).max() <= 1e-9

    def test_harmonic_relation_at_second_order_for_smooth_fields(self):
        # exp(x1) sin(x2) is harmonic but not polynomial: the relation holds
        # to O(h^2)
        residuals = {}
        for m in (33, 65):
            grid = GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))
            field = sample(parse_expression("exp(x1)*sin(x2)", 2), grid)
            hess = hessian(field)
            sel = grid.interior_mask()
            frob = frobenius_sq(hess[sel])
            s2 = sigma2_values(hess[sel])
            residuals[m] = np.abs(frob - 2.0 * s2).max()
        assert residuals[33] <= 10.0 * (1.0 / 32.0) ** 2 * 10.0
        assert residuals[33] / residuals[65] > 2.5


def test_stretched_jacobian_values_match_symbolic_oracle():
    rng = np.random.default_rng(17)
    expr = random_polynomial_expression(rng, 2, degree=3)
    pts = rng.uniform(-1.0, 1.0, size=(50, 2))
    grad, hess = symbolic_derivative_samples(expr, pts)
    beta, eps = 1.3, 0.4
    dj = stretched_jacobian_values(grad, hess, beta, eps)
    # finite-difference oracle on the map g -> (|g|^2+eps)^(beta/2) g with
    # frozen Hessian: directional derivative along e_b must match column b
    base = (grad**2).sum(-1) + eps
    s = base ** (beta / 2.0)
    hg = np.einsum("nij,nj->ni", hess, grad)
    expected = s[:, None, None] * hess + (
        beta * s / base
    )[:, None, None] * grad[:, :, None] * hg[:, None, :]
    assert np.allclose(dj, expected, atol=1e-12)
