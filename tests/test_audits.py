import numpy as np
import pytest

from pxlaplace import audits
from pxlaplace.audits import (
    AuditError,
    ball_family,
    caccioppoli_audit,
    equation_residual,
    gehring_delta_search,
    pointwise_stretch_audit,
    quasiregularity_audit,
    reverse_holder_audit,
)
from pxlaplace.constants import ExponentWindow, constant_set
from pxlaplace.diffops import StretchParams
from pxlaplace.expressions import parse_expression
from pxlaplace.fields import BallRegion, GridSpec, ScalarField, sample
from pxlaplace.fixtures import caccioppoli_balls


def unit_square(m=65):
    return GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))


def saddle_field(m=65, lo=(0.0, 0.0), hi=(1.0, 1.0)):
    return sample(parse_expression("x1^2 - x2^2", 2), GridSpec(lo, hi, (m, m)))


class TestPointwiseAudit:
    def test_linear_solution_passes_with_equality(self):
        grid = unit_square(33)
        v = sample(parse_expression("x1 - 0.5*x2", 2), grid)
        p = ScalarField(grid, np.full(grid.shape, 2.0))
        report = pointwise_stretch_audit(
            v, p, v, StretchParams(0.0, 1e-2), ExponentWindow(2.0, 2.0)
        )
        assert report.passed
        assert report.worst == pytest.approx(0.0, abs=1e-14)

    def test_harmonic_saddle_slack_is_72(self):
        # sigma2 = 4, |D^2 v|^2 = 8, c_star = 20: slack 20*4 - 8 = 72 per node
        grid = unit_square(33)
        v = saddle_field(33)
        p = ScalarField(grid, np.full(grid.shape, 2.0))
        report = pointwise_stretch_audit(
            v, p, v, StretchParams(0.0, 1e-3), ExponentWindow(2.0, 2.0)
        )
        assert report.passed
        assert report.details["worst_raw"] == pytest.approx(-72.0, abs=1e-8)

    def test_fixture_run_beta_zero_and_one(self, canonical_run):
        continuation, _ = canonical_run
        final = continuation.results[-1]
        prob = final.problem
        for beta in (0.0, 1.0):
            report = pointwise_stretch_audit(
                final.v, prob.p, prob.g, StretchParams(beta, prob.eps), prob.window
            )
            assert report.passed
            assert report.worst <= report.tolerance

    def test_large_equation_residual_rejected(self):
        grid = unit_square(33)
        v = sample(parse_expression("sin(5*x1)*x2", 2), grid)
        p = ScalarField(grid, np.full(grid.shape, 2.0))
        g = ScalarField(grid, np.zeros(grid.shape))  # v does not solve this
        with pytest.raises(AuditError, match="residual"):
            pointwise_stretch_audit(v, p, g, StretchParams(0.0, 1e-2), ExponentWindow(2.0, 2.0))


class TestQuasiregularityAudit:
    def test_harmonic_saddle_distortion_two(self):
        report = quasiregularity_audit(saddle_field(), beta=0.0)
        assert report.worst == pytest.approx(2.0, abs=1e-10)
        assert report.details["violations"] == 0

    def test_linear_field_vacuous(self):
        grid = unit_square(33)
        u = sample(parse_expression("x1 + x2", 2), grid)
        report = quasiregularity_audit(u, beta=0.0)
        assert report.passed
        assert report.worst == 0.0
        assert report.details["audited_nodes"] == 0

    def test_fixture_limit_below_budget(self, canonical_run):
        continuation, _ = canonical_run
        final = continuation.results[-1]
        window = final.problem.window
        for beta in (0.0, 1.0):
            budget = constant_set(window, 2, beta).c_star
            report = quasiregularity_audit(final.v, beta, budget=budget)
            assert report.passed
            assert report.worst <= budget

    def test_negative_beta_rejected(self):
        with pytest.raises(AuditError):
            quasiregularity_audit(saddle_field(33), beta=-0.5)

    def test_region_restriction(self):
        u = saddle_field()
        ball = BallRegion((0.5, 0.5), 0.2)
        report = quasiregularity_audit(u, 0.0, region=ball)
        assert report.worst == pytest.approx(2.0, abs=1e-10)


class TestCaccioppoliAudit:
    def test_linear_solution_lhs_zero(self):
        grid = unit_square(33)
        v = sample(parse_expression("x1", 2), grid)
        p = ScalarField(grid, np.full(grid.shape, 2.0))
        report = caccioppoli_audit(
            v, p, v, StretchParams(0.0, 1e-2), ExponentWindow(2.0, 2.0),
            BallRegion((0.5, 0.5), 0.25),
        )
        assert report.passed
        assert report.details["lhs"] == pytest.approx(0.0, abs=1e-20)

    def test_mean_beats_zero_offset(self, canonical_run):
        continuation, _ = canonical_run
        final = continuation.results[-1]
        prob = final.problem
        params = StretchParams(1.0, prob.eps)
        ball = BallRegion((0.5, 0.5), 0.25)
        with_mean = caccioppoli_audit(final.v, prob.p, prob.g, params, prob.window, ball)
        with_zero = caccioppoli_audit(
            final.v, prob.p, prob.g, params, prob.window, ball, c=np.zeros(2)
        )
        assert with_mean.details["rhs"] <= with_zero.details["rhs"]

    def test_fixture_balls_ratio_below_one(self, canonical_run):
        continuation, _ = canonical_run
        final = continuation.results[-1]
        prob = final.problem
        for beta in (0.0, 1.0):
            params = StretchParams(beta, prob.eps)
            for ball in caccioppoli_balls():
                report = caccioppoli_audit(final.v, prob.p, prob.g, params, prob.window, ball)
                assert report.passed
                assert report.worst <= 1.0

    def test_shift_invariance(self, canonical_run):
        continuation, _ = canonical_run
        final = continuation.results[-1]
        prob = final.problem
        params = StretchParams(0.0, prob.eps)
        ball = BallRegion((0.5, 0.5), 0.2)
        base = caccioppoli_audit(final.v, prob.p, prob.g, params, prob.window, ball)
        shift = 3.7
        v2 = ScalarField(prob.grid, final.v.values + shift)
        g2 = ScalarField(prob.grid, prob.g.values + shift)
        shifted = caccioppoli_audit(v2, prob.p, g2, params, prob.window, ball)
        assert shifted.worst == pytest.approx(base.worst, rel=1e-10)

    def test_support_validity_enforced(self):
        grid = unit_square(33)
        v = sample(parse_expression("x1", 2), grid)
        p = ScalarField(grid, np.full(grid.shape, 2.0))
        with pytest.raises((AuditError, Exception)):
            caccioppoli_audit(
                v, p, v, StretchParams(0.0, 1e-2), ExponentWindow(2.0, 2.0),
                BallRegion((0.5, 0.5), 0.64),
            )


class TestReverseHolder:
    def test_linear_field_all_ratios_zero(self):
        grid = unit_square()
        u = sample(parse_expression("x1 - 3*x2", 2), grid)
        balls = [BallRegion((0.5, 0.5), 0.25)]
        for delta in (0.0, 0.7, 2.0):
            result = reverse_holder_audit(u, None, 0.0, delta, balls)
            assert result.worst_ratio == 0.0

    def test_constant_hessian_plateau(self):
        # quadratic field: |DF| constant, so the ratio is delta-independent
        u = saddle_field()
        balls = [BallRegion((0.5, 0.5), 0.25), BallRegion((0.4, 0.6), 0.15)]
        r0 = reverse_holder_audit(u, None, 0.0, 0.0, balls)
        r1 = reverse_holder_audit(u, None, 0.0, 1.5, balls)
        assert r0.worst_ratio == pytest.approx(r1.worst_ratio, rel=1e-9)
        assert np.isfinite(r0.worst_ratio)

    def test_delta_search_linear_hits_upper_end(self):
        grid = unit_square()
        u = sample(parse_expression("2*x1 + x2", 2), grid)
        balls = [BallRegion((0.5, 0.5), 0.25)]
        result = gehring_delta_search(u, None, 0.0, balls, c_target=1.0)
        assert result.delta == 2.0
        assert result.feasible_at_zero

    def test_delta_search_reports_budget_failure(self):
        u = saddle_field()
        balls = [BallRegion((0.5, 0.5), 0.25)]
        result = gehring_delta_search(u, None, 0.0, balls, c_target=1e-6)
        assert not result.feasible_at_zero
        assert result.delta == 0.0

    def test_empty_family_rejected(self):
        u = saddle_field(33)
        with pytest.raises(AuditError):
            reverse_holder_audit(u, None, 0.0, 0.0, [])
        with pytest.raises(AuditError):
            gehring_delta_search(u, None, 0.0, [], 1.0)

    def test_f_term_enters_inhomogeneous_ratio(self):
        grid = unit_square()
        u = saddle_field()
        f = ScalarField(grid, np.full(grid.shape, 2.0))
        balls = [BallRegion((0.5, 0.5), 0.25)]
        with_f = reverse_holder_audit(u, f, 0.0, 0.0, balls)
        without = reverse_holder_audit(u, None, 0.0, 0.0, balls)
        assert with_f.worst_ratio < without.worst_ratio


class TestBallFamily:
    def test_radii_halve_and_respect_floor(self):
        grid = unit_square(65)
        balls = ball_family(grid, r_max=0.3, seed=1)
        radii = sorted({b.radius for b in balls}, reverse=True)
        h = max(grid.spacing)
        assert radii[0] == pytest.approx(0.3)
        assert all(r >= 8.0 * h for r in radii)

    def test_deterministic_for_fixed_seed(self):
        grid = unit_square(65)
        a = ball_family(grid, r_max=0.3, seed=9)
        b = ball_family(grid, r_max=0.3, seed=9)
        assert [(x.center, x.radius) for x in a] == [(x.center, x.radius) for x in b]

    def test_r_max_below_resolvable_rejected(self):
        grid = unit_square(33)
        with pytest.raises(AuditError):
            ball_family(grid, r_max=0.1, seed=0)

    def test_lattice_balls_outside_margin_skipped(self):
        # lattice radius r_max / 2 = 0.4 reaches past the box from 0.35
        balls = ball_family(unit_square(65), r_max=0.8, seed=0)
        assert balls and all(ball.center == (0.5, 0.5) for ball in balls)

    def test_other_errors_surface(self, monkeypatch):
        def broken(ball, grid):
            raise RuntimeError("not a margin check")

        monkeypatch.setattr(audits, "require_inside", broken)
        with pytest.raises(RuntimeError, match="not a margin check"):
            ball_family(unit_square(65), r_max=0.3, seed=0)


class TestEquationResidual:
    def test_zero_for_manufactured_linear(self):
        grid = unit_square(33)
        v = sample(parse_expression("x1 - x2", 2), grid)
        p = ScalarField(grid, np.full(grid.shape, 2.3))
        assert equation_residual(v, p, v, 1e-2) <= 1e-12

    def test_sampled_exact_solution_residual_second_order(self):
        # the audit precondition quantity carries the stencil truncation: it
        # shrinks at second order when the exact solution is sampled
        from pxlaplace.solver import manufactured_rhs

        u = parse_expression("sin(x1)*cos(x2)", 2)
        p_expr = parse_expression("2 + 0.5*sin(x1)", 2)
        g_expr = manufactured_rhs(u, p_expr, 1e-2, include_reaction=True)
        residuals = {}
        for m in (33, 65):
            grid = GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))
            residuals[m] = equation_residual(
                sample(u, grid), sample(p_expr, grid), sample(g_expr, grid), 1e-2
            )
        assert 3.0 <= residuals[33] / residuals[65] <= 5.0

    def test_pointwise_audit_accepts_sampled_exact_solution(self):
        from pxlaplace.solver import manufactured_rhs

        u = parse_expression("sin(x1)*cos(x2)", 2)
        p_expr = parse_expression("2 + 0.5*sin(x1)", 2)
        g_expr = manufactured_rhs(u, p_expr, 1e-2, include_reaction=True)
        grid = unit_square(65)
        p = sample(p_expr, grid)
        window = ExponentWindow(float(p.values.min()), float(p.values.max()))
        report = pointwise_stretch_audit(
            sample(u, grid), p, sample(g_expr, grid), StretchParams(0.0, 1e-2), window
        )
        assert report.passed


class TestSigma2Consistency:
    def test_pair_sum_equals_minus_det_on_audited_fields(self, canonical_run):
        from pxlaplace.diffops import (
            det2,
            gradient,
            hessian,
            sigma2_values,
            stretched_jacobian_values,
        )

        continuation, _ = canonical_run
        final = continuation.results[-1]
        grad = gradient(final.v)
        hess = hessian(final.v)
        for beta in (0.0, 1.0):
            df = stretched_jacobian_values(grad.values, hess.values, beta, 0.0)
            assert np.array_equal(sigma2_values(df), -det2(df))


class TestAdmissibleBetaRange:
    def test_negative_beta_pointwise_and_caccioppoli(self):
        from pxlaplace.solver import ProblemSpec, solve_regularized

        grid = unit_square(33)
        spec = ProblemSpec(
            grid,
            parse_expression("2 + 0.5*sin(x1)", 2),
            parse_expression("0", 2),
            parse_expression("x1^2 - x2^2", 2),
            eps=1e-2,
        )
        result = solve_regularized(spec)
        prob = result.problem
        for beta in (-0.9, -0.5, 3.0):
            params = StretchParams(beta, prob.eps)
            point = pointwise_stretch_audit(result.v, prob.p, prob.g, params, prob.window)
            assert point.passed
            energy = caccioppoli_audit(
                result.v, prob.p, prob.g, params, prob.window, BallRegion((0.5, 0.5), 0.25)
            )
            assert energy.passed

    def test_3d_supercritical_window(self):
        # p = 5 in 3-d puts the critical exponent at exactly 0; beta = 1/2 is
        # admissible and the audit still closes at the discrete fixed point
        from pxlaplace.constants import beta_star
        from pxlaplace.solver import ProblemSpec, solve_regularized

        assert beta_star(3, 5.0) == 0.0
        grid = GridSpec((0, 0, 0), (1, 1, 1), (13, 13, 13))
        spec = ProblemSpec(
            grid,
            parse_expression("5", 3),
            parse_expression("0", 3),
            parse_expression("x1^2 - 0.5*x2^2 - 0.5*x3^2 + x1*x2", 3),
            eps=1e-2,
        )
        result = solve_regularized(spec)
        assert result.converged
        # strongly anisotropic coefficients: dominance loss is reported,
        # not fatal
        assert result.dominance_violations > 0
        prob = result.problem
        report = pointwise_stretch_audit(
            result.v, prob.p, prob.g, StretchParams(0.5, prob.eps), prob.window
        )
        assert report.passed


class TestConstantExponentDistortion:
    def test_p_two_and_a_half_limit_below_budget(self):
        from pxlaplace.solver import ProblemSpec, epsilon_continuation

        grid = unit_square(33)
        spec = ProblemSpec(
            grid,
            parse_expression("2.5", 2),
            parse_expression("0", 2),
            parse_expression("x1^2 - x2^2", 2),
            eps=0.1,
        )
        continuation = epsilon_continuation(spec, (0.1, 0.01, 0.001))
        final = continuation.results[-1]
        budget = constant_set(ExponentWindow(2.5, 2.5), 2, 0.0).c_star
        report = quasiregularity_audit(final.v, 0.0, budget=budget)
        assert report.passed
        assert report.worst <= budget
