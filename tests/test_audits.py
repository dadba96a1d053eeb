import functools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pxlaplace import audits, diffops
from pxlaplace.audits import (
    AuditError,
    ball_family,
    caccioppoli_audit,
    equation_residual,
    gehring_delta_search,
    pointwise_stretch_audit,
    quasiregularity_audit,
)
from pxlaplace.constants import ExponentWindow, constant_set
from pxlaplace.diffops import (
    StretchParams,
    frobenius_sq,
    gradient,
    hessian,
    stretched_gradient_values,
    stretched_jacobian_values,
)
from pxlaplace.expressions import parse_expression
from pxlaplace.fields import BallRegion, FieldError, GridSpec, ScalarField, ball_mask, cutoff, sample
from pxlaplace.fixtures import REGRESSION_GEHRING_BUDGET, caccioppoli_balls

from manufactured import manufactured_rhs
from strided import strided_gradient


def unit_square(m=65):
    return GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))


def saddle_field(m=65, lo=(0.0, 0.0), hi=(1.0, 1.0)):
    return sample(parse_expression("x1^2 - x2^2", 2), GridSpec(lo, hi, (m, m)))


def solved_affine(points):
    """The final level of the affine problem ``p = 2.2``, ``f = 0``, boundary
    data ``3 x1 - x2``, eps schedule 0.1, 0.01: the boundary data to
    round-off, so its stencil Hessian is rounding noise."""
    from pxlaplace.solver import ProblemSpec, build_problem, epsilon_continuation

    spec = ProblemSpec(
        unit_square(points),
        parse_expression("2.2", 2),
        parse_expression("0", 2),
        parse_expression("3*x1 - x2", 2),
        eps=0.1,
    )
    final = epsilon_continuation(build_problem(spec), (0.1, 0.01)).results[-1]
    assert np.abs(final.v.values - spec.boundary_expr.evaluate_array(spec.grid.coords())).max() <= 1e-15
    return final


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
            # the Hessian lies far above its round-off level at every node
            assert report.details["audited_nodes"] == 63**2

    @pytest.mark.parametrize("points", [9, 33])
    def test_solved_affine_field_not_audited(self, points):
        # the distortion of a rounding-noise Hessian is noise: a floor
        # relative to |DF| alone let that noise fail the audit
        final = solved_affine(points)
        for beta in (0.0, 1.0):
            budget = constant_set(final.problem.window, 2, beta).c_star
            report = quasiregularity_audit(final.v, beta, budget=budget)
            assert report.passed, report
            assert report.worst == 0.0
            assert report.details["audited_nodes"] == 0
            assert report.details["violations"] == 0

    def test_curvature_above_the_roundoff_level_audited(self):
        # a saddle 1e-6 times the affine part still has a Hessian far above
        # 64 u max|v| / h^2, so every interior node is audited
        grid = unit_square(33)
        u = sample(parse_expression("3*x1 - x2 + 1e-6*(x1^2 - x2^2)", 2), grid)
        report = quasiregularity_audit(u, beta=0.0)
        assert report.details["audited_nodes"] == 31**2
        assert report.worst == pytest.approx(2.0, rel=1e-4)

    def test_negative_beta_rejected(self):
        with pytest.raises(AuditError):
            quasiregularity_audit(saddle_field(33), beta=-0.5)


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
        _, osc, data = full_grid_caccioppoli(final.v, prob.g, params, ball, c=np.zeros(2))
        with_zero = constant_set(prob.window, 2, params.beta).c_sharp * (osc + data)
        assert with_mean.details["rhs"] <= with_zero

    def test_solved_affine_field_ratio_is_zero(self):
        # |DF|^2 is rounding noise on every node, and so were the
        # oscillation and the data term: their ratio read 4.3e-2 (beta = 0)
        # and 4.0e-4 (beta = 1) on the 33^2 ball of radius 0.2
        final = solved_affine(33)
        prob = final.problem
        for beta in (0.0, 1.0):
            params = StretchParams(beta, prob.eps)
            ball = BallRegion((0.5, 0.5), 0.2)
            report = caccioppoli_audit(final.v, prob.p, prob.g, params, prob.window, ball)
            assert report.passed
            assert report.worst == 0.0
            assert report.details["lhs"] == 0.0

    def test_fixture_balls_ratio_below_one(self, canonical_run):
        continuation, _ = canonical_run
        final = continuation.results[-1]
        prob = final.problem
        # the Hessian lies above its round-off level at every interior
        # node, so the LHS sums every node's |DF|^2
        assert audits._resolved(final.v)[1:-1, 1:-1].all()
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

    def test_ball_with_no_node_inside_rejected(self):
        # the nearest node is 0.0099 from the center, outside the 0.00075
        # three-quarter ball: the cutoff, and every term, would be 0
        grid = unit_square(33)
        v = sample(parse_expression("x1^2 - x2^2", 2), grid)
        p = ScalarField(grid, np.full(grid.shape, 2.0))
        with pytest.raises(AuditError, match=r"B\(\(0\.507,0\.507\),0\.001\).*0 at every node"):
            caccioppoli_audit(
                v, p, v, StretchParams(0.0, 1e-2), ExponentWindow(2.0, 2.0),
                BallRegion((0.507, 0.507), 0.001),
            )


def full_grid_caccioppoli(v, g, params, ball, c=None):
    """Lhs, oscillation and data term of the cutoff energy bound, each
    summed over every node of the grid."""
    grid = v.grid
    phi = cutoff(ball, grid)
    dphi = gradient(ScalarField(grid, phi))
    grad = gradient(v)
    df = stretched_jacobian_values(grad, hessian(v), params.beta, params.eps)
    f_vals = stretched_gradient_values(grad, params.beta, params.eps)
    if c is None:
        c = f_vals[ball_mask(ball.scaled(0.75), grid)].mean(axis=0)
    vol = grid.cell_volume
    base = np.sum(grad**2, axis=-1) + params.eps
    lhs = float(np.sum(frobenius_sq(df) * phi**2) * vol)
    osc = float(np.sum(np.sum((f_vals - c) ** 2, axis=-1) * np.sum(dphi**2, axis=-1)) * vol)
    data = float(np.sum(base**params.beta * (g.values - v.values) ** 2 * phi**2) * vol)
    return lhs, osc, data


def three_d_fields():
    grid = GridSpec((0.0, -0.5, 0.25), (1.0, 0.5, 1.25), (21, 21, 21))
    v = sample(parse_expression("sin(2*x1)*x2 + x3^2 - x1*x3", 3), grid)
    g = sample(parse_expression("x1 + x2*x3", 3), grid)
    return v, g, BallRegion((0.45, 0.05, 0.8), 0.4)


def margin_ball(grid):
    """An off-centre ball whose three-quarter scaling reaches x = 2h, the
    grid margin, exactly; the node (2h, 38h) sits on its sphere."""
    h = grid.spacing[0]
    return BallRegion((2 * h + 0.1875, 38 * h), 0.25)


class TestCaccioppoliMatchesFullGrid:
    """The audit sums over its ball's index box; every term must agree with
    the full-grid sums to round-off."""

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("case", ["margin-2d", "3d"])
    def test_terms_and_ratio(self, canonical_run, case, beta):
        if case == "3d":
            v, g, ball = three_d_fields()
            p = ScalarField(v.grid, np.full(v.grid.shape, 2.0))
            window = ExponentWindow(2.0, 2.0)
            params = StretchParams(beta, 1e-2)
        else:
            final = canonical_run[0].results[-1]
            v, p, g, window = final.v, final.problem.p, final.problem.g, final.problem.window
            params = StretchParams(beta, final.problem.eps)
            ball = margin_ball(v.grid)
        n = v.grid.dimension
        report = caccioppoli_audit(v, p, g, params, window, ball)
        lhs, osc, data = full_grid_caccioppoli(v, g, params, ball)
        rhs = constant_set(window, n, beta).c_sharp * (osc + data)
        got = report.details
        for name, expected in (("lhs", lhs), ("oscillation", osc), ("data_term", data), ("rhs", rhs)):
            assert got[name] == pytest.approx(expected, rel=1e-13, abs=0.0), name
        assert lhs > 0.0 and osc > 0.0
        assert report.worst == pytest.approx(lhs / rhs, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("case", ["margin-2d", "3d"])
    def test_cutoff_slope_is_the_strided_slope(self, monkeypatch, case):
        # the audit differences its cutoff on the flat range of the ball's
        # box and reads the interior block: the strided formula's bits
        if case == "3d":
            v, g, ball = three_d_fields()
        else:
            v = g = saddle_field(65)
            ball = margin_ball(v.grid)
        grid = v.grid
        calls = []

        def recording(flat, table, axis, h, original=audits._central_difference):
            slope = original(flat, table, axis, h)
            calls.append((flat, table, axis, slope))
            return slope

        monkeypatch.setattr(audits, "_central_difference", recording)
        p = ScalarField(grid, np.full(grid.shape, 2.0))
        caccioppoli_audit(v, p, g, StretchParams(1.0, 1e-2), ExponentWindow(2.0, 2.0), ball)
        _, _, phi = audits._cutoff_box(ball, grid)
        table = diffops._flat_range(phi.shape)
        assert [call[2] for call in calls] == list(range(grid.dimension))
        expected = strided_gradient(phi, grid.spacing)
        for flat, seen, axis, slope in calls:
            assert seen is table and flat.tobytes() == phi.tobytes()
            assert table.interior(slope).tobytes() == expected[axis].tobytes(), axis
            assert not slope[table.dirichlet].any()

    def test_margin_ball_reaches_the_margin(self, canonical_run):
        final = canonical_run[0].results[-1]
        prob = final.problem
        ball = margin_ball(prob.grid)
        h = prob.grid.spacing[0]
        # the cutoff is positive one node inside the sphere, so D phi is
        # nonzero two nodes from the box's edge; a step outwards fails
        assert cutoff(ball, prob.grid)[3, 38] > 0.0
        with pytest.raises(FieldError, match="margin"):
            caccioppoli_audit(
                final.v, prob.p, prob.g, StretchParams(0.0, prob.eps), prob.window,
                BallRegion((ball.center[0] - h, ball.center[1]), ball.radius),
            )


def per_delta_ratios(u, f, beta, balls):
    """The per-ball ratios at one delta, with every ball's arrays gathered
    again from full-grid masks at every call."""
    grid = u.grid
    grad = gradient(u)
    dfnorm = np.sqrt(
        frobenius_sq(stretched_jacobian_values(grad, hessian(u), beta, 0.0))
    )
    fvals = stretched_gradient_values(grad, beta, 0.0)
    fweight = None
    if f is not None and float(np.abs(f.values).max()) > 0.0:
        fweight = np.sqrt(np.sum(grad**2, axis=-1)) ** beta * np.abs(f.values)

    def ratios(delta):
        out = []
        for ball in balls:
            mq = ball_mask(ball.scaled(0.25), grid)
            m3 = ball_mask(ball.scaled(0.75), grid)
            lhs = float(np.mean(dfnorm[mq] ** (2.0 + delta)) ** (1.0 / (2.0 + delta)))
            cbar = fvals[m3].mean(axis=0)
            rhs = np.sqrt(float(np.mean(np.sum((fvals[m3] - cbar) ** 2, axis=-1)))) / ball.radius
            if fweight is not None:
                rhs += float(np.mean(fweight[m3] ** (2.0 + delta)) ** (1.0 / (2.0 + delta)))
            out.append(lhs / rhs)
        return out

    return ratios


def per_delta_search(ratios, c_target, resolution=1e-3):
    lo, hi = 0.0, 2.0
    if max(ratios(lo)) > c_target:
        return lo, ratios(lo)
    if max(ratios(hi)) <= c_target:
        return hi, ratios(hi)
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if max(ratios(mid)) <= c_target:
            lo = mid
        else:
            hi = mid
    return lo, ratios(lo)


class TestGehringMatchesPerDeltaGather:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("budget", ["fixture", "bisected"])
    @pytest.mark.parametrize("with_f", [False, True])
    def test_delta_and_ratios_bitwise(self, canonical_run, beta, budget, with_f):
        final = canonical_run[0].results[-1]
        grid = final.v.grid
        f = final.problem.f
        if with_f:
            f = sample(parse_expression("0.5 + x1*x2", 2), grid)
        balls = ball_family(grid, r_max=0.3, seed=3)
        ratios = per_delta_ratios(final.v, f, beta, balls)
        c_target = REGRESSION_GEHRING_BUDGET
        if budget == "bisected":
            # between the worst ratios at the ends, so the search bisects
            c_target = 0.5 * (max(ratios(0.0)) + max(ratios(2.0)))
        result = gehring_delta_search(final.v, f, beta, balls, c_target)
        delta, expected = per_delta_search(ratios, c_target)
        assert result.delta == delta
        assert result.ratios == expected


# Every ratio meets a huge budget, so the search ends at delta = 2; none meets
# a negative one, so it ends at delta = 0.  The result's ratios are then
# those of the two ends of the delta range.
HUGE_BUDGET = 1e300
NEGATIVE_BUDGET = -1.0


class TestReverseHolder:
    def test_linear_field_all_ratios_zero(self):
        grid = unit_square()
        u = sample(parse_expression("x1 - 3*x2", 2), grid)
        balls = [BallRegion((0.5, 0.5), 0.25)]
        for c_target, delta in ((HUGE_BUDGET, 2.0), (NEGATIVE_BUDGET, 0.0)):
            result = gehring_delta_search(u, None, 0.0, balls, c_target)
            assert result.delta == delta
            assert result.worst_ratio == 0.0

    def test_constant_hessian_plateau(self):
        # quadratic field: |DF| constant, so the ratio is delta-independent
        u = saddle_field()
        balls = [BallRegion((0.5, 0.5), 0.25), BallRegion((0.4, 0.6), 0.15)]
        r0 = gehring_delta_search(u, None, 0.0, balls, NEGATIVE_BUDGET)
        r2 = gehring_delta_search(u, None, 0.0, balls, HUGE_BUDGET)
        assert (r0.delta, r2.delta) == (0.0, 2.0)
        assert r0.worst_ratio == pytest.approx(r2.worst_ratio, rel=1e-9)
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

    def test_nan_beta_is_infeasible(self):
        # every ratio is NaN, and NaN <= c_target is false: no PASS on NaN
        u = saddle_field(33)
        balls = [BallRegion((0.5, 0.5), 0.25)]
        result = gehring_delta_search(u, None, float("nan"), balls, HUGE_BUDGET)
        assert np.isnan(result.worst_ratio)
        assert not result.feasible_at_zero
        assert result.delta == 0.0

    def test_empty_family_rejected(self):
        u = saddle_field(33)
        with pytest.raises(AuditError):
            gehring_delta_search(u, None, 0.0, [], 1.0)

    def test_f_term_enters_inhomogeneous_ratio(self):
        grid = unit_square()
        u = saddle_field()
        f = ScalarField(grid, np.full(grid.shape, 2.0))
        balls = [BallRegion((0.5, 0.5), 0.25)]
        with_f = gehring_delta_search(u, f, 0.0, balls, NEGATIVE_BUDGET)
        without = gehring_delta_search(u, None, 0.0, balls, NEGATIVE_BUDGET)
        assert with_f.delta == without.delta == 0.0
        assert with_f.worst_ratio < without.worst_ratio


class TestStretchedFieldStore:
    """The four audits share one stored (F, |DF|^2, sigma_2) per (beta, eps),
    and one for beta = 0 whatever eps is."""

    BETAS = (0.0, 1.0)

    @staticmethod
    def battery(prob, balls):
        """Every audit of perfbench's battery, in its order, as a function of
        the solution: per beta the pointwise, quasiregularity and Caccioppoli
        audits, then the delta search per beta."""
        runs = []
        for beta in TestStretchedFieldStore.BETAS:
            params = StretchParams(beta, prob.eps)
            common = dict(p=prob.p, g=prob.g, params=params, window=prob.window)
            budget = constant_set(prob.window, 2, beta).c_star
            runs.append(functools.partial(pointwise_stretch_audit, **common))
            runs.append(
                functools.partial(quasiregularity_audit, beta=beta, budget=budget, window=prob.window)
            )
            for ball in caccioppoli_balls():
                runs.append(functools.partial(caccioppoli_audit, ball=ball, **common))
        for beta in TestStretchedFieldStore.BETAS:
            runs.append(
                functools.partial(
                    gehring_delta_search,
                    f=prob.f,
                    beta=beta,
                    balls=balls,
                    c_target=REGRESSION_GEHRING_BUDGET,
                )
            )
        return runs

    def test_three_builds_for_two_betas_beta_zero_shared(self, canonical_run, monkeypatch):
        final = canonical_run[0].results[-1]
        prob = final.problem

        def twin():  # same values, nothing stored yet
            return ScalarField(final.v.grid, final.v.values)

        runs = self.battery(prob, ball_family(prob.grid, r_max=0.3, seed=3))
        calls = []
        counted = audits.stretched_jacobian_values

        def counting(grad, hess, beta, eps):
            calls.append((beta, eps))
            return counted(grad, hess, beta, eps)

        monkeypatch.setattr(audits, "stretched_jacobian_values", counting)
        shared = twin()
        results = [run(shared) for run in runs]
        # one build per (beta, eps) for beta = 1, the solve's eps and eps =
        # 0, and one for beta = 0, where F = Dv and DF = D^2 v at every eps
        expected = [(0.0, 0.0), (1.0, prob.eps), (1.0, 0.0)]
        assert len(calls) == 3 and sorted(calls) == sorted(expected)

        for beta, eps in expected:
            for array in audits._stretched_fields(shared, beta, eps):
                assert not array.flags.writeable
            assert shared.derived["stretched", beta, eps] is audits._stretched_fields(shared, beta, eps)
        zero = audits._stretched_fields(shared, 0.0, prob.eps)
        assert zero is audits._stretched_fields(shared, 0.0, 0.0)
        assert len(calls) == 3  # reading the store builds nothing
        # the shared beta = 0 triple holds the bits of a build at the solve's eps
        grad, hess = gradient(shared), hessian(shared)
        df = counted(grad, hess, 0.0, prob.eps)
        built = (stretched_gradient_values(grad, 0.0, prob.eps), frobenius_sq(df), diffops.sigma2_values(df))
        assert [array.tobytes() for array in zero] == [array.tobytes() for array in built]
        for run, result in zip(runs, results):
            assert run(twin()) == result

    def test_gradient_sq_and_data_weight_computed_once(self, canonical_run, monkeypatch):
        # over the whole battery, |Dv|^2 is summed from the gradient once,
        # and (|Dv|^2 + eps)^beta is computed once per (beta, eps): the
        # pointwise audit and the five Caccioppoli balls of a beta share it
        final = canonical_run[0].results[-1]
        prob = final.problem
        v = ScalarField(final.v.grid, final.v.values)
        grad = gradient(v)
        norms = []
        counted_norm = audits._norm_sq

        def counting_norm(vectors):
            norms.append(vectors is grad)
            return counted_norm(vectors)

        computed = []
        counted_store = audits.stored

        def counting_store(field, key, compute):
            def counting_compute():
                computed.append(key)
                return compute()

            return counted_store(field, key, counting_compute)

        monkeypatch.setattr(audits, "_norm_sq", counting_norm)
        monkeypatch.setattr(audits, "stored", counting_store)
        runs = self.battery(prob, ball_family(prob.grid, r_max=0.3, seed=3))
        for _ in range(2):  # the second pass reads the store alone
            for run in runs:
                run(v)
        assert norms.count(True) == 1
        assert computed.count("gradient_sq") == 1
        weights = [key for key in computed if key[0] == "data_weight"]
        assert weights == [("data_weight", beta, prob.eps) for beta in self.BETAS]
        for beta in self.BETAS:
            weight = v.derived["data_weight", beta, prob.eps]
            assert not weight.flags.writeable
            assert weight.tobytes() == ((audits._norm_sq(grad) + prob.eps) ** beta).tobytes()

    def test_threads_racing_to_fill_the_store(self):
        # a race may build a triple twice, but every reader sees equal values
        expr = parse_expression("sin(3*x1)*x2^2 + x1*x2", 2)
        grid = unit_square(33)
        balls = [BallRegion((0.5, 0.5), 0.25)]

        def audit(v):
            return (
                quasiregularity_audit(v, 1.0, window=ExponentWindow(2.0, 2.5)),
                gehring_delta_search(v, None, 1.0, balls, HUGE_BUDGET),
            )

        reference = audit(sample(expr, grid))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                field = sample(expr, grid)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(audit, field) for _ in range(8)]
                    results = [f.result(timeout=60) for f in futures]
                assert all(result == reference for result in results)
                stored = audits._stretched_fields(field, 1.0, 0.0)
                assert stored is audits._stretched_fields(field, 1.0, 0.0)
                assert stored is field.derived["stretched", 1.0, 0.0]
        finally:
            sys.setswitchinterval(switch)


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
        with pytest.raises(FieldError, match="resolvable"):
            ball_family(grid, r_max=0.1, seed=0)

    @pytest.mark.parametrize("r_max", [float("inf"), float("nan")])
    def test_non_finite_r_max_rejected(self, r_max):
        # inf would halve forever; nan would leave no radius at all
        with pytest.raises(FieldError, match="finite"):
            ball_family(unit_square(33), r_max=r_max, seed=0)

    def test_lattice_balls_outside_margin_skipped(self):
        # one radius at 33^2 (0.225 < 8h), so the lattice radius is 0.45,
        # which reaches past the box from 0.35; the centred ball fits
        balls = ball_family(unit_square(33), r_max=0.45, seed=0)
        assert balls and all(ball.center == (0.5, 0.5) for ball in balls)

    def test_concentric_ball_outside_margin_rejected(self):
        # three-quarter scaling of r_max = 0.8 reaches 0.6 from the centre
        with pytest.raises(FieldError, match="leaves the grid margin"):
            ball_family(unit_square(65), r_max=0.8, seed=0)

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

    @pytest.mark.parametrize(
        "grid, v_text, p_text",
        [
            (GridSpec((0.0, 0.0), (1.0, 1.0), (33, 33)), "sin(3*x1)*x2^2 + x1*x2", "2 + 0.5*sin(x1)"),
            (
                GridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (13, 13, 13)),
                "sin(3*x1)*x2^2 + x1*x2*x3",
                "2.5 + 0.5*cos(x3)",
            ),
        ],
        ids=["2d", "3d"],
    )
    def test_equals_the_solver_residual(self, grid, v_text, p_text):
        # the audit and the solver differentiate with one operator: on a
        # field that solves nothing, the audit's residual is the solver's
        # sweep residual read on the interior
        from pxlaplace.solver import _exponent_offset, _nonlinear_residual

        n = grid.dimension
        v = sample(parse_expression(v_text, n), grid)
        p = sample(parse_expression(p_text, n), grid)
        g = sample(parse_expression("x1 - x2", n), grid)
        eps = 1e-2
        residual, _ = _nonlinear_residual(v.values, _exponent_offset(p.values), eps, grid.spacing, g.values.ravel())
        expected = float(np.abs(residual.reshape(grid.shape)[grid.interior_mask()]).max())
        assert expected > 1.0
        assert equation_residual(v, p, g, eps) == pytest.approx(expected, rel=1e-12)

    def test_stored_once_per_data(self, monkeypatch):
        # the pointwise audit of each stretch exponent reads one stored
        # value; another p or g object, or another eps, recomputes it
        calls = []

        def counting(*args, original=audits.infinity_laplacian_values):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(audits, "infinity_laplacian_values", counting)
        grid = unit_square(33)
        v = sample(parse_expression("sin(3*x1)*x2^2 + x1*x2", 2), grid)
        p = sample(parse_expression("2 + 0.5*sin(x1)", 2), grid)
        g = sample(parse_expression("x1 - x2", 2), grid)
        first = equation_residual(v, p, g, 1e-2)
        assert equation_residual(v, p, g, 1e-2) == first
        assert len(calls) == 1
        same_p, same_g = ScalarField(grid, p.values), ScalarField(grid, g.values)
        assert equation_residual(v, same_p, g, 1e-2) == first
        assert equation_residual(v, p, same_g, 1e-2) == first
        assert len(calls) == 3
        fresh = ScalarField(grid, v.values)
        assert equation_residual(v, p, g, 1e-3) == equation_residual(fresh, p, g, 1e-3) != first
        assert len(calls) == 5
        # every (p, g, eps) keeps its own entry, so going back computes nothing
        assert equation_residual(v, p, g, 1e-2) == equation_residual(v, same_p, g, 1e-2) == first
        assert len(calls) == 5
        residuals = [key for key in v.derived if key[0] == "equation_residual"]
        assert len(residuals) == 4 and all(key[1] in (p, same_p) for key in residuals)
        window = ExponentWindow(float(p.values.min()), float(p.values.max()))
        calls.clear()
        for beta in (0.0, 1.0):  # v solves nothing: each audit stops at its residual
            with pytest.raises(AuditError, match="equation residual"):
                pointwise_stretch_audit(v, p, g, StretchParams(beta, 1e-4), window)
        assert len(calls) == 1


class TestWorstLocation:
    @pytest.mark.parametrize("bumped", [(4, 2), (4, 10)])
    def test_mirror_tie_reports_one_node(self, bumped):
        # the field is mirror-symmetric in x2 with its maximum at the nodes
        # (4, 2) and (4, 10); a 1-ulp bump on either of them must not move
        # the reported location
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (13, 13))
        x1, x2 = grid.coords()
        bump = np.exp(-50.0 * ((x1 - 1.0 / 3.0) ** 2 + (x2 - 1.0 / 6.0) ** 2))
        values = bump + bump[:, ::-1]
        assert values[4, 2] == values[4, 10] == values.max()
        values[bumped] = np.nextafter(values[bumped], np.inf)
        location = audits._worst_location(values, grid.interior_mask(), grid)
        assert location == (float(grid.axis(0)[4]), float(grid.axis(1)[2]))

    def test_non_finite_maximum_reported_where_it_is(self):
        grid = unit_square(9)
        values = np.zeros(grid.shape)
        values[3, 4] = np.nan
        assert audits._worst_location(values, grid.interior_mask(), grid) == (0.375, 0.5)


class TestSigma2Consistency:
    def test_pair_sum_equals_minus_det_on_audited_fields(self, canonical_run):
        from pxlaplace.diffops import sigma2_values

        continuation, _ = canonical_run
        final = continuation.results[-1]
        grad = gradient(final.v)
        hess = hessian(final.v)
        for beta in (0.0, 1.0):
            df = stretched_jacobian_values(grad, hess, beta, 0.0)
            det = df[..., 0, 0] * df[..., 1, 1] - df[..., 0, 1] * df[..., 1, 0]
            assert np.array_equal(sigma2_values(df), -det)


class TestAdmissibleBetaRange:
    def test_negative_beta_pointwise_and_caccioppoli(self):
        from pxlaplace.solver import ProblemSpec, build_problem, solve_regularized

        grid = unit_square(33)
        spec = ProblemSpec(
            grid,
            parse_expression("2 + 0.5*sin(x1)", 2),
            parse_expression("0", 2),
            parse_expression("x1^2 - x2^2", 2),
            eps=1e-2,
        )
        result = solve_regularized(build_problem(spec))
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
        from pxlaplace.solver import ProblemSpec, build_problem, solve_regularized

        assert beta_star(3, 5.0) == 0.0
        grid = GridSpec((0, 0, 0), (1, 1, 1), (13, 13, 13))
        spec = ProblemSpec(
            grid,
            parse_expression("5", 3),
            parse_expression("0", 3),
            parse_expression("x1^2 - 0.5*x2^2 - 0.5*x3^2 + x1*x2", 3),
            eps=1e-2,
        )
        result = solve_regularized(build_problem(spec))
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
        from pxlaplace.solver import ProblemSpec, build_problem, epsilon_continuation

        grid = unit_square(33)
        spec = ProblemSpec(
            grid,
            parse_expression("2.5", 2),
            parse_expression("0", 2),
            parse_expression("x1^2 - x2^2", 2),
            eps=0.1,
        )
        continuation = epsilon_continuation(build_problem(spec), (0.1, 0.01, 0.001))
        final = continuation.results[-1]
        budget = constant_set(ExponentWindow(2.5, 2.5), 2, 0.0).c_star
        report = quasiregularity_audit(final.v, 0.0, budget=budget)
        assert report.passed
        assert report.worst <= budget
