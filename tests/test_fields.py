import numpy as np
import pytest
from scipy import ndimage

from pxlaplace.expressions import parse_expression
from pxlaplace.fields import (
    BallRegion,
    FieldError,
    GridSpec,
    ScalarField,
    ball_mask,
    cutoff,
    mollifier_kernel,
    mollify,
    sample,
)


def unit_square(m=33):
    return GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))


class TestGridSpec:
    def test_spacing(self):
        grid = unit_square(33)
        assert grid.spacing == (1.0 / 32.0, 1.0 / 32.0)
        assert grid.cell_volume == pytest.approx(1.0 / 32.0**2)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(FieldError, match="at least 8"):
            GridSpec((0, 0), (1, 1), (5, 5))

    def test_rejects_degenerate_axis(self):
        with pytest.raises(FieldError, match="degenerate"):
            GridSpec((0, 0), (0, 1), (9, 9))

    def test_rejects_anisotropy(self):
        with pytest.raises(FieldError, match="anisotropic"):
            GridSpec((0, 0), (1, 4), (9, 9))

    def test_rejects_bad_dimension(self):
        with pytest.raises(FieldError):
            GridSpec((0,), (1,), (9,))

    def test_3d(self):
        grid = GridSpec((0, 0, 0), (1, 1, 1), (9, 9, 9))
        assert grid.dimension == 3
        assert grid.interior_mask().sum() == 7**3


class TestFieldInvariants:
    def test_shape_checked(self):
        with pytest.raises(FieldError, match="shape"):
            ScalarField(unit_square(9), np.zeros((9, 8)))

    def test_finite_checked(self):
        values = np.zeros((9, 9))
        values[3, 3] = np.inf
        with pytest.raises(FieldError, match="non-finite"):
            ScalarField(unit_square(9), values)

    def test_values_read_only(self):
        field = ScalarField(unit_square(9), np.zeros((9, 9)))
        with pytest.raises(ValueError):
            field.values[0, 0] = 1.0


class TestSample:
    def test_constant(self):
        field = sample(parse_expression("3", 2), unit_square(9))
        assert np.all(field.values == 3.0)

    def test_linear_nodes(self):
        field = sample(parse_expression("x1", 2), unit_square(9))
        for i in range(9):
            assert field.values[i, 4] == pytest.approx(i / 8.0, abs=1e-15)

    def test_saddle_corner(self):
        grid = GridSpec((-1, -1), (1, 1), (9, 9))
        field = sample(parse_expression("x1^2 - x2^2", 2), grid)
        assert field.values[0, 0] == 0.0

    def test_domain_error_carries_node(self):
        grid = GridSpec((-1, -1), (1, 1), (9, 9))
        with pytest.raises(FieldError, match="at node"):
            sample(parse_expression("log(x1)", 2), grid)
        # the first offending node in row-major order: x2 = 0.5 is the
        # seventh node of its axis
        with pytest.raises(FieldError, match=r"at node \(-1\.0, 0\.5\): division by zero"):
            sample(parse_expression("x1 + 1/(x2 - 0.5)", 2), grid)

    def test_dimension_mismatch(self):
        with pytest.raises(FieldError):
            sample(parse_expression("x1", 3), unit_square(9))


class TestMollify:
    def test_kernel_normalized(self):
        kernel = mollifier_kernel((0.05, 0.05), 0.2)
        assert kernel.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(kernel >= 0.0)

    def test_constant_preserved(self):
        field = sample(parse_expression("4", 2), unit_square(33))
        smoothed = mollify(field, 0.2)
        assert smoothed.valid.any()
        assert np.allclose(smoothed.values[smoothed.valid], 4.0, atol=1e-13)

    def test_linear_preserved(self):
        field = sample(parse_expression("0.3*x1 - 0.8*x2", 2), unit_square(33))
        smoothed = mollify(field, 0.2)
        assert np.allclose(
            smoothed.values[smoothed.valid], field.values[smoothed.valid], atol=1e-13
        )

    def test_quadratic_bias_nonnegative_and_below_eps_sq(self):
        grid = unit_square(33)
        eps = 0.1
        field = sample(parse_expression("x1^2", 2), grid)
        smoothed = mollify(field, eps)
        bias = (smoothed.values - field.values)[smoothed.valid]
        assert np.all(bias >= -1e-14)
        assert np.all(bias <= eps**2)

    def test_brute_force_convolution_at_one_node(self):
        grid = unit_square(33)
        eps = 0.1
        field = sample(parse_expression("x1^2", 2), grid)
        smoothed = mollify(field, eps)
        kernel = mollifier_kernel(grid.spacing, eps)
        node = (16, 16)
        r0, r1 = kernel.shape[0] // 2, kernel.shape[1] // 2
        expected = 0.0
        for a in range(kernel.shape[0]):
            for b in range(kernel.shape[1]):
                expected += kernel[a, b] * field.values[node[0] + a - r0, node[1] + b - r1]
        assert smoothed.values[node] == pytest.approx(expected, rel=1e-12)

    def test_bounds_preserved_everywhere(self):
        field = sample(parse_expression("sin(3*x1)*cos(2*x2)", 2), unit_square(33))
        smoothed = mollify(field, 0.15)
        assert smoothed.values.min() >= field.values.min() - 1e-13
        assert smoothed.values.max() <= field.values.max() + 1e-13

    def test_invalid_band_keeps_raw_values(self):
        field = sample(parse_expression("x1^2", 2), unit_square(33))
        smoothed = mollify(field, 0.1)
        band = ~smoothed.valid
        assert np.array_equal(smoothed.values[band], field.values[band])

    @pytest.mark.parametrize("holes", [False, True], ids=["all-valid", "invalid-interior"])
    def test_validity_matches_eroded_reference(self, holes):
        # reference: the support of every kept node lies inside the grid and
        # holds only valid input nodes, always checked by erosion
        grid = unit_square(33)
        eps = 0.1
        valid = np.ones(grid.shape, dtype=bool)
        if holes:
            valid[16, 16] = valid[9, 20] = False
        field = ScalarField(grid, sample(parse_expression("sin(3*x1)*x2", 2), grid).values, valid)
        kernel = mollifier_kernel(grid.spacing, eps)
        r = kernel.shape[0] // 2
        full = np.zeros(grid.shape, dtype=bool)
        full[r:-r, r:-r] = True
        eroded = ndimage.minimum_filter(valid, footprint=kernel > 0, mode="constant", cval=False)
        expected_valid = full & eroded
        conv = ndimage.convolve(field.values, kernel, mode="nearest")
        smoothed = mollify(field, eps)
        assert np.array_equal(smoothed.valid, expected_valid)
        assert np.array_equal(smoothed.values, np.where(expected_valid, conv, field.values))
        assert holes == (expected_valid.sum() < full.sum())

    def test_eps_too_small(self):
        field = sample(parse_expression("x1", 2), unit_square(33))
        with pytest.raises(FieldError, match="too small"):
            mollify(field, 0.01)

    def test_eps_too_large(self):
        field = sample(parse_expression("x1", 2), unit_square(33))
        with pytest.raises(FieldError, match="half the domain"):
            mollify(field, 0.6)


class TestBallRegion:
    def test_scale_validated(self):
        with pytest.raises(FieldError):
            BallRegion((0.5, 0.5), 0.2, scale=0.3)

    def test_margin_enforced(self):
        grid = unit_square(33)
        with pytest.raises(FieldError, match="margin"):
            ball_mask(BallRegion((0.5, 0.5), 0.5), grid)

    def test_scaled(self):
        ball = BallRegion((0.5, 0.5), 0.4)
        assert ball.scaled(0.5).effective_radius == pytest.approx(0.2)


def ball_values(field, ball):
    """Field values at the nodes of the discrete ball."""
    return field.values[ball_mask(ball, field.grid)]


class TestBallQuadrature:
    def test_constant_average_exact(self):
        grid = unit_square(33)
        field = sample(parse_expression("7", 2), grid)
        assert ball_values(field, BallRegion((0.5, 0.5), 0.3)).mean() == pytest.approx(7.0)

    def test_odd_symmetry(self):
        grid = GridSpec((-1, -1), (1, 1), (65, 65))
        field = sample(parse_expression("x1", 2), grid)
        assert abs(ball_values(field, BallRegion((0.0, 0.0), 0.7)).mean()) <= 1e-12

    def test_disk_second_moment(self):
        # mean of x1^2 over the unit disk is 1/4
        grid = GridSpec((-1.25, -1.25), (1.25, 1.25), (161, 161))
        field = sample(parse_expression("x1^2", 2), grid)
        assert ball_values(field, BallRegion((0.0, 0.0), 1.0)).mean() == pytest.approx(0.25, abs=2e-3)

    def test_integral_matches_average_times_volume(self):
        grid = unit_square(33)
        field = sample(parse_expression("x1*x2", 2), grid)
        ball = BallRegion((0.5, 0.5), 0.25)
        count = ball_mask(ball, grid).sum()
        integral = ball_values(field, ball).sum() * grid.cell_volume
        average = ball_values(field, ball).mean()
        assert integral == pytest.approx(average * count * grid.cell_volume, rel=1e-12)

    def test_average_within_field_range(self):
        grid = unit_square(33)
        field = sample(parse_expression("sin(5*x1) + x2^3", 2), grid)
        ball = BallRegion((0.5, 0.5), 0.3)
        mask = ball_mask(ball, grid)
        average = ball_values(field, ball).mean()
        assert field.values[mask].min() <= average <= field.values[mask].max()


class TestCutoff:
    def test_values_on_the_profile(self):
        grid = GridSpec((-1.25, -1.25), (1.25, 1.25), (161, 161))
        ball = BallRegion((0.0, 0.0), 1.0)
        phi = cutoff(ball, grid)
        center = (80, 80)
        assert phi.values[center] == 1.0
        # node on the axis at distance 0.9R: outside the 3/4 ball
        idx9 = int(np.argmin(np.abs(grid.axis(0) - 0.9)))
        assert phi.values[idx9, 80] == 0.0
        # ramp midpoint 0.625R: smoothstep gives exactly 1/2
        idx6 = int(np.argmin(np.abs(grid.axis(0) - 0.625)))
        assert phi.values[idx6, 80] == pytest.approx(0.5, abs=1e-12)

    def test_range_and_plateaus(self):
        grid = unit_square(65)
        ball = BallRegion((0.5, 0.5), 0.3)
        phi = cutoff(ball, grid)
        assert phi.values.min() >= 0.0 and phi.values.max() <= 1.0
        dist = np.sqrt(
            (grid.coords()[0] - 0.5) ** 2 + (grid.coords()[1] - 0.5) ** 2
        )
        assert np.all(phi.values[dist <= 0.15] == 1.0)
        assert np.all(phi.values[dist >= 0.225] == 0.0)

    def test_discrete_gradient_bound(self):
        from pxlaplace.diffops import gradient

        for m, radius in ((33, 0.3), (65, 0.3), (65, 0.2), (129, 0.25)):
            grid = unit_square(m)
            ball = BallRegion((0.5, 0.5), radius)
            phi = cutoff(ball, grid)
            slope = np.sqrt((gradient(phi).values ** 2).sum(axis=-1)).max()
            h = max(grid.spacing)
            assert slope <= 8.0 / radius + 4.0 * h / radius**2

    def test_ball_must_fit(self):
        grid = unit_square(33)
        with pytest.raises(FieldError, match="margin"):
            cutoff(BallRegion((0.1, 0.5), 0.4), grid)
