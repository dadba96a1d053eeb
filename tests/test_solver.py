import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from pxlaplace import solver
from pxlaplace.expressions import parse_expression
from pxlaplace.fields import GridSpec, ScalarField, sample
from pxlaplace.fixtures import FIXTURE_SCHEDULE, fixture_problem
from pxlaplace.solver import (
    ProblemSpec,
    SolveOptions,
    SolverError,
    assemble_frozen_operator,
    build_problem,
    epsilon_continuation,
    manufactured_rhs,
    solve_regularized,
)


def unit_square(m=33):
    return GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))


P_VARIABLE = "2 + 0.5*sin(x1)"


def make_spec(boundary, p=P_VARIABLE, f="0", m=33, eps=1e-2, rho=0.0):
    return ProblemSpec(
        grid=unit_square(m),
        p_expr=parse_expression(p, 2),
        f_expr=parse_expression(f, 2),
        boundary_expr=parse_expression(boundary, 2),
        eps=eps,
        mollify_radius=rho,
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


class TestAssembly:
    def test_p_equals_two_gives_identity_coefficients(self):
        grid = unit_square(9)
        v = sample(parse_expression("sin(4*x1)*x2", 2), grid)
        p2 = ScalarField(grid, np.full(grid.shape, 2.0))
        op = assemble_frozen_operator(v, p2, 1e-2)
        assert op.ellipticity == (1.0, 1.0)
        assert op.dominance_violations == 0

    def test_zero_gradient_gives_identity_there(self):
        grid = unit_square(9)
        v = ScalarField(grid, np.zeros(grid.shape))
        p3 = ScalarField(grid, np.full(grid.shape, 3.0))
        op = assemble_frozen_operator(v, p3, 1.0)
        assert op.ellipticity == (1.0, 1.0)

    def test_rank_one_eigenvalues(self):
        # p = 3, Dv = (1, 0), eps = 1: A = I + e1 e1^T / 2, eigenvalues {1.5, 1}
        grid = unit_square(9)
        v = sample(parse_expression("x1", 2), grid)
        p3 = ScalarField(grid, np.full(grid.shape, 3.0))
        op = assemble_frozen_operator(v, p3, 1.0)
        assert op.ellipticity[0] == pytest.approx(1.0, abs=1e-12)
        assert op.ellipticity[1] == pytest.approx(1.5, abs=1e-12)

    def test_rejects_p_out_of_window(self):
        grid = unit_square(9)
        v = ScalarField(grid, np.zeros(grid.shape))
        bad = ScalarField(grid, np.full(grid.shape, 0.9))
        with pytest.raises(SolverError, match="window"):
            assemble_frozen_operator(v, bad, 1e-2)

    def test_dominance_loss_detected_and_reported(self):
        # steep skewed gradient with large p breaks the 9-point positivity
        grid = unit_square(17)
        v = sample(parse_expression("10*(x1 + 3*x2)", 2), grid)
        p8 = ScalarField(grid, np.full(grid.shape, 8.0))
        op = assemble_frozen_operator(v, p8, 1e-3)
        assert op.dominance_violations > 0
        fixture = build_problem(make_spec("x1^2 - x2^2"))
        v0 = sample(parse_expression("x1^2 - x2^2", 2), grid)
        op_ok = assemble_frozen_operator(
            sample(parse_expression("x1^2 - x2^2", 2), fixture.grid), fixture.p, fixture.eps
        )
        assert op_ok.dominance_violations == 0

    def test_non_finite_gradient_rejected(self):
        # a diverging iterate: finite values whose gradient, or its square,
        # overflows must not reach the ellipticity bounds as NaN
        grid = unit_square(9)
        p3 = ScalarField(grid, np.full(grid.shape, 3.0))
        for spike in ((1e308, -1e308), (1e200, 0.0)):
            values = np.zeros(grid.shape)
            values[4, 3], values[4, 5] = spike
            with np.errstate(over="ignore"), pytest.raises(SolverError, match="finite gradient"):
                assemble_frozen_operator(ScalarField(grid, values), p3, 1e-2)


class TestSolve:
    def test_linear_boundary_reproduced_to_roundoff(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            a = rng.uniform(-2.0, 2.0, 2)
            boundary = f"{float(a[0])!r}*x1 + {float(a[1])!r}*x2"
            spec = make_spec(boundary)
            result = solve_regularized(spec)
            exact = sample(spec.boundary_expr, spec.grid)
            assert result.converged
            assert np.abs(result.v.values - exact.values).max() < 1e-10

    def test_manufactured_quadratic_with_constant_p_is_exact(self):
        # g = -2 + x1^2, the classical manufactured quadratic: second-order
        # stencils reproduce it to round-off
        u = parse_expression("x1^2", 2)
        p2 = parse_expression("2", 2)
        g = manufactured_rhs(u, p2, 1e-2, include_reaction=True)
        assert str(g) == "-2.0 + x1^2.0"
        spec = ProblemSpec(unit_square(33), p2, g - u, u, eps=1e-2)
        result = solve_regularized(spec)
        exact = sample(u, spec.grid)
        assert np.abs(result.v.values - exact.values).max() < 1e-9

    def test_manufactured_harmonic_saddle_is_exact(self):
        u = parse_expression("x1^2 - x2^2", 2)
        p2 = parse_expression("2", 2)
        g = manufactured_rhs(u, p2, 1e-2, include_reaction=True)
        spec = ProblemSpec(unit_square(33), p2, g - u, u, eps=1e-2)
        result = solve_regularized(spec)
        exact = sample(u, spec.grid)
        assert np.abs(result.v.values - exact.values).max() < 1e-9

    def test_manufactured_smooth_solution_second_order(self):
        u = parse_expression("sin(x1)*cos(x2)", 2)
        p = parse_expression(P_VARIABLE, 2)
        g = manufactured_rhs(u, p, 1e-2, include_reaction=True)
        errors = {}
        for m in (33, 65):
            spec = ProblemSpec(unit_square(m), p, g - u, u, eps=1e-2)
            result = solve_regularized(spec)
            exact = sample(u, spec.grid)
            errors[m] = np.abs(result.v.values - exact.values).max()
        assert 3.2 <= errors[33] / errors[65] <= 4.8

    def test_residual_meets_contract(self):
        spec = make_spec("x1^2 - x2^2")
        opts = SolveOptions()
        result = solve_regularized(spec, opts)
        g_norm = max(1.0, np.abs(result.problem.g.values).max())
        assert result.converged
        assert result.residual <= 10.0 * opts.tolerance * g_norm

    def test_maximum_principle_surrogate_for_constant_p(self):
        # f = 0, p constant, boundary data attaining its extremes on the
        # boundary: the solution stays inside the boundary range
        spec = make_spec("x1^2 - x2^2", p="2.5")
        result = solve_regularized(spec)
        interior = spec.grid.interior_mask()
        bvals = result.problem.boundary.values[~interior]
        assert result.v.values.min() >= bvals.min() - 1e-8
        assert result.v.values.max() <= bvals.max() + 1e-8

    def test_nonconvergence_flagged_not_raised(self):
        spec = make_spec("x1^2 - x2^2")
        result = solve_regularized(spec, SolveOptions(tolerance=1e-14, max_iterations=2))
        assert not result.converged
        assert np.isfinite(result.residual)

    def test_damping_reaches_same_fixed_point(self):
        spec = make_spec("x1^2 - x2^2")
        full = solve_regularized(spec)
        damped = solve_regularized(spec, SolveOptions(damping=0.7))
        assert damped.converged
        assert np.abs(full.v.values - damped.v.values).max() < 1e-8

    def test_warm_start_grid_checked(self):
        spec = make_spec("x1")
        other = ScalarField(unit_square(17), np.zeros((17, 17)))
        with pytest.raises(SolverError, match="different grid"):
            solve_regularized(spec, warm_start=other)

    def test_observed_ellipticity_inside_theoretical_window(self):
        spec = make_spec("x1^2 - x2^2")
        result = solve_regularized(spec)
        window = result.problem.window
        lo, hi = result.ellipticity
        assert lo >= min(1.0, window.t_minus - 1.0) - 1e-12
        assert hi <= window.t_plus + 1.0 + 1e-12


class TestFactorReuse:
    def test_fixture_continuation_factorizes_once_per_level(self, monkeypatch):
        calls = []
        original = solver.splu

        def counting(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(solver, "splu", counting)
        result = epsilon_continuation(fixture_problem(points=33), FIXTURE_SCHEDULE)
        sweeps = sum(r.iterations for r in result.results)
        # one factor for the initial p = 2 solve, then one per eps level
        assert len(calls) == 1 + len(FIXTURE_SCHEDULE)
        assert sweeps > len(FIXTURE_SCHEDULE)

    def test_chord_matches_per_sweep_picard(self):
        # reference: plain Picard, a fresh direct solve of A(v) v = g per sweep
        prob = build_problem(make_spec("x1^2 - x2^2"))
        grid = prob.grid
        rhs = np.where(grid.interior_mask(), prob.g.values, prob.boundary.values).ravel()
        v = prob.boundary.values.copy()
        for _ in range(200):
            op = assemble_frozen_operator(ScalarField(grid, v), prob.p, prob.eps)
            vnew = spsolve(op.matrix.tocsc(), rhs).reshape(grid.shape)
            delta = np.abs(vnew - v).max()
            v = vnew
            if delta < 1e-11:
                break
        assert delta < 1e-11
        chord = solve_regularized(prob)
        assert chord.converged
        assert np.abs(chord.v.values - v).max() < 1e-8


class TestLargeExponent:
    """65^2 saddle data at eps = 0.1, where plain Picard used to stall at
    round-off or drift for 500 sweeps."""

    @staticmethod
    def solve(p, **options):
        spec = make_spec("x1^2 - x2^2", p=p, m=65, eps=0.1)
        return solve_regularized(spec, SolveOptions(**options))

    @pytest.mark.parametrize(
        "p, damping",
        [("4", 1.0), ("8", 1.0), ("8 + sin(x2)", 1.0), ("20", 0.5)],
    )
    def test_converges_within_residual_budget(self, p, damping):
        result = self.solve(p, damping=damping)
        g_norm = max(1.0, np.abs(result.problem.g.values).max())
        assert result.converged
        assert result.residual <= 10.0 * SolveOptions().tolerance * g_norm

    def test_dominance_loss_still_reported(self):
        assert self.solve("8").dominance_violations > 0

    def test_undamped_p20_flagged_not_raised(self):
        result = self.solve("20", max_iterations=50)
        assert not result.converged
        assert np.isfinite(result.residual)


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
        result = solve_regularized(spec)
        exact = sample(spec.boundary_expr, grid)
        assert result.converged
        assert np.abs(result.v.values - exact.values).max() < 1e-10

    def test_manufactured_quadratic_exact(self):
        grid = GridSpec((0, 0, 0), (1, 1, 1), (13, 13, 13))
        u = parse_expression("x1^2 - 0.5*x2^2 + x3^2 - 0.5*x1*x3", 3)
        p2 = parse_expression("2", 3)
        g = manufactured_rhs(u, p2, 1e-2, include_reaction=True)
        result = solve_regularized(ProblemSpec(grid, p2, g - u, u, eps=1e-2))
        assert np.abs(result.v.values - sample(u, grid).values).max() < 1e-9


class TestManufacturedRhs:
    def test_linear_solution_gives_zero(self):
        u = parse_expression("x1 - 2*x2", 2)
        p = parse_expression(P_VARIABLE, 2)
        rhs = manufactured_rhs(u, p, 1e-2)
        for point in [(0.2, 0.7), (0.9, 0.1)]:
            assert rhs.evaluate(point) == 0.0
        with_reaction = manufactured_rhs(u, p, 1e-2, include_reaction=True)
        assert with_reaction.evaluate((0.2, 0.7)) == pytest.approx(
            u.evaluate((0.2, 0.7)), abs=1e-14
        )

    def test_radial_quadratic_constant_p(self):
        # -lap - (p-2)|x|^2/|x|^2 = -n - (p - 2) away from the origin
        u = parse_expression("0.5*(x1^2 + x2^2)", 2)
        p = parse_expression("3.5", 2)
        rhs = manufactured_rhs(u, p, 0.0)
        assert rhs.evaluate((0.4, -0.3)) == pytest.approx(-2.0 - 1.5, abs=1e-12)

    def test_harmonic_saddle_constant_two(self):
        u = parse_expression("x1^2 - x2^2", 2)
        p = parse_expression("2", 2)
        rhs = manufactured_rhs(u, p, 1e-3)
        assert rhs.evaluate((0.3, 0.8)) == 0.0


class TestContinuation:
    def test_linear_boundary_increments_vanish(self):
        spec = make_spec("0.4*x1 - 0.9*x2")
        result = epsilon_continuation(spec, (0.1, 0.01, 0.001))
        assert all(inc < 1e-9 for inc in result.increments)

    def test_constant_p_two_increments_shrink(self):
        # linear problem: iterates differ only through the mollified data,
        # so the gradient increments decay along the schedule
        spec = make_spec("sin(2*x1)*x2 + x1", p="2")
        result = epsilon_continuation(spec, (0.1, 0.01, 0.001, 0.0001))
        assert all(b < a for a, b in zip(result.increments, result.increments[1:]))
        assert result.increments[-1] < 1e-3

    def test_constant_p_two_exact_data_gives_identical_iterates(self):
        # the saddle is reproduced exactly at every eps (mollification leaves
        # it unchanged), so increments sit at round-off
        spec = make_spec("x1^2 - x2^2", p="2")
        result = epsilon_continuation(spec, (0.1, 0.01, 0.001))
        assert all(inc < 1e-11 for inc in result.increments)

    def test_fixture_increments_decrease(self):
        spec = make_spec("x1^2 - x2^2")
        result = epsilon_continuation(spec, (0.1, 0.01, 0.001, 0.0001))
        assert len(result.increments) == 3
        assert all(b < a for a, b in zip(result.increments, result.increments[1:]))
        final = result.results[-1]
        gap = np.abs(final.problem.g.values - final.v.values).max()
        assert gap < 5e-3

    def test_schedule_validated(self):
        spec = make_spec("x1")
        with pytest.raises(SolverError, match="decreasing"):
            epsilon_continuation(spec, (0.01, 0.1))
        with pytest.raises(SolverError, match="positive"):
            epsilon_continuation(spec, (0.1, -0.1))
        with pytest.raises(SolverError, match="empty"):
            epsilon_continuation(spec, ())

    def test_mollification_radius_tracks_schedule(self):
        spec = make_spec("x1^2 - x2^2")
        result = epsilon_continuation(spec, (0.1, 0.01))
        rhos = [r.problem.rho for r in result.results]
        assert rhos[0] == pytest.approx(0.1)
        # clipped up to the resolvable radius 2 h
        assert rhos[1] == pytest.approx(2.0 / 32.0)
