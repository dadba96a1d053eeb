import numpy as np
import pytest

from pxlaplace.diffops import (
    StretchParams,
    gradient,
    hessian,
    sigma2_values,
    stretched_gradient_values,
    stretched_jacobian_values,
)
from pxlaplace.expressions import parse_expression
from pxlaplace.fields import BallRegion, GridSpec, ScalarField, ball_mask, cutoff, sample
from pxlaplace.identities import (
    random_polynomial_expression,
    run_identity_suite,
    sigma2_structure_residual,
    symbolic_derivative_samples,
    trace_identity_residual_2d,
    trace_inequality_slack_3d,
)


def unit_square(m=33):
    return GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))


def discrete_derivatives(field):
    """Gradient and Hessian values of a sampled field at its valid nodes."""
    grad = gradient(field)
    hess = hessian(field)
    valid = grad.valid & hess.valid
    return grad.values[valid], hess.values[valid]


def structure_residual(field, params):
    """The sigma_2 structure residual on the discrete derivatives of a field."""
    return sigma2_structure_residual(*discrete_derivatives(field), params.beta, params.eps)


def pair_sum_terms(field, params, phi, c):
    """Oracle: both sides of the integrated pair-sum form of sigma_2.

    ``lhs`` integrates ``sigma_2(DF) phi``; ``rhs`` is the boundary-free pair
    sum ``sum_{i<j} (F_i - c_i) [(d_j F_j) d_i phi - (d_i F_j) d_j phi]``.
    Their gap shrinks at second order under grid refinement.
    """
    grid = field.grid
    n = grid.dimension
    grad = gradient(field).values
    f_vals = stretched_gradient_values(grad, params.beta, params.eps)
    df = stretched_jacobian_values(grad, hessian(field).values, params.beta, params.eps)
    dphi = gradient(phi).values
    vol = grid.cell_volume
    lhs = float(np.sum(sigma2_values(df) * phi.values) * vol)
    rhs = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            shifted = f_vals[..., i] - c[i]
            rhs += np.sum(shifted * df[..., j, j] * dphi[..., i])
            rhs -= np.sum(shifted * df[..., j, i] * dphi[..., j])
    return lhs, float(rhs * vol)


class TestSigma2Structure:
    def test_linear_field_residual_zero(self):
        field = sample(parse_expression("2*x1 - x2", 2), unit_square())
        residual = structure_residual(field, StretchParams(1.5, 0.7))
        assert np.all(residual == 0.0)

    def test_radial_quadratic_beta_zero(self):
        field = sample(parse_expression("0.5*(x1^2 + x2^2)", 2), unit_square())
        residual = structure_residual(field, StretchParams(0.0, 0.5))
        assert np.abs(residual).max() <= 1e-12

    def test_exact_on_any_discrete_derivatives(self):
        # the identity is pointwise algebra in the (gradient, Hessian) values,
        # so even crude discrete derivatives satisfy it to round-off
        field = sample(parse_expression("sin(3*x1)*exp(x2)", 2), unit_square())
        residual = structure_residual(field, StretchParams(1.0, 0.2))
        scale = 1.0 + np.abs(residual).max()
        assert np.abs(residual).max() / scale <= 1e-10

    def test_symbolic_oracle_random_cubics(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            dim = int(rng.integers(2, 4))
            expr = random_polynomial_expression(rng, dim, degree=3)
            pts = rng.uniform(-1.0, 1.0, size=(200, dim))
            grad, hess = symbolic_derivative_samples(expr, pts)
            beta = float(rng.uniform(-0.9, 3.0))
            eps = float(rng.uniform(0.1, 2.0))
            residual = sigma2_structure_residual(grad, hess, beta, eps)
            assert np.abs(residual).max() <= 1e-10

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            sigma2_structure_residual(np.ones((4, 2)), np.zeros((4, 2, 2)), 1.0, 0.0)


class TestTraceIdentity:
    def test_hand_case_product(self):
        # v = x1 x2: both sides equal 2(x1^2 + x2^2)
        expr = parse_expression("x1*x2", 2)
        pts = np.array([[0.3, -0.7], [1.0, 2.0], [0.5, 0.25]])
        grad, hess = symbolic_derivative_samples(expr, pts)
        residual = trace_identity_residual_2d(grad, hess)
        assert np.abs(residual).max() <= 1e-14
        g2 = (grad**2).sum(-1)
        frob = (hess**2).sum((-2, -1))
        lap = np.trace(hess, axis1=-2, axis2=-1)
        lhs = (frob - lap**2) * g2
        assert np.allclose(lhs, 2.0 * (pts**2).sum(-1), atol=1e-14)

    def test_linear_trivial(self):
        field = sample(parse_expression("x1 + 2*x2", 2), unit_square())
        residual = trace_identity_residual_2d(*discrete_derivatives(field))
        assert np.abs(residual).max() <= 1e-14

    def test_3d_inequality_on_random_cubics(self):
        rng = np.random.default_rng(23)
        total = 0
        worst = np.inf
        while total < 10_000:
            expr = random_polynomial_expression(rng, 3, degree=3)
            pts = rng.uniform(-1.0, 1.0, size=(500, 3))
            grad, hess = symbolic_derivative_samples(expr, pts)
            worst = min(worst, float(trace_inequality_slack_3d(grad, hess).min()))
            total += 500
        assert worst >= -1e-10

    def test_3d_field_version(self):
        grid = GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (9, 9, 9))
        field = sample(parse_expression("x1*x2*x3 + x1^2", 3), grid)
        slack = trace_inequality_slack_3d(*discrete_derivatives(field))
        assert slack.min() >= -1e-9


class TestDivergenceStructure:
    def test_linear_gives_zero_zero(self):
        grid = unit_square()
        field = sample(parse_expression("x1 - x2", 2), grid)
        phi = cutoff(BallRegion((0.5, 0.5), 0.3), grid)
        lhs, rhs = pair_sum_terms(field, StretchParams(1.0, 1.0), phi, (0.0, 0.0))
        assert abs(lhs) <= 1e-13 and abs(rhs) <= 1e-13

    def test_zero_weight_gives_zero_zero(self):
        grid = unit_square()
        field = sample(parse_expression("x1^2 + x1*x2", 2), grid)
        phi = ScalarField(grid, np.zeros(grid.shape))
        lhs, rhs = pair_sum_terms(field, StretchParams(1.0, 1.0), phi, (0.0, 0.0))
        assert lhs == 0.0 and rhs == 0.0

    def test_refinement_shrinks_gap_at_second_order(self):
        expr = parse_expression("x1^2 + x1*x2", 2)
        params = StretchParams(1.0, 1.0)
        gaps = {}
        for m in (33, 65, 129):
            grid = GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))
            field = sample(expr, grid)
            ball = BallRegion((0.5, 0.5), 0.4)
            phi = cutoff(ball, grid)
            stretched = stretched_gradient_values(gradient(field).values, params.beta, params.eps)
            mask = ball_mask(ball.scaled(0.75), grid)
            c = stretched[mask].mean(axis=0)
            lhs, rhs = pair_sum_terms(field, params, phi, c)
            gaps[m] = abs(lhs - rhs)
        assert 3.0 <= gaps[33] / gaps[65] <= 5.5
        assert 3.0 <= gaps[65] / gaps[129] <= 5.5


class TestSuite:
    def test_run_identity_suite_passes(self):
        reports = run_identity_suite(seed=7, count=20)
        assert [r.name for r in reports] == [
            "sigma2-structure",
            "trace-identity-2d",
            "trace-inequality-3d",
        ]
        assert all(r.passed for r in reports)

    def test_suite_deterministic(self):
        a = run_identity_suite(seed=3, count=10)
        b = run_identity_suite(seed=3, count=10)
        assert [(r.worst, r.count) for r in a] == [(r.worst, r.count) for r in b]
