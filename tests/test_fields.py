import importlib
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy.fft import next_fast_len

from pxlaplace import fields
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
    require_inside,
    sample,
)
from pxlaplace.fixtures import FIXTURE_SCHEDULE
from pxlaplace.solver import _clip_radius, build_problem

from canonical import fixture_problem
from manufactured import manufactured_rhs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def unit_square(m=33):
    return GridSpec((0.0, 0.0), (1.0, 1.0), (m, m))


def kernel_inside(grid, eps):
    """Nodes whose whole mollifier support lies on the grid."""
    radii = [k // 2 for k in mollifier_kernel(grid.spacing, eps).shape]
    inside = np.zeros(grid.shape, dtype=bool)
    inside[tuple(slice(r, m - r) for r, m in zip(radii, grid.shape))] = True
    return inside


def check_reference_convolution(field, eps):
    """``mollify`` against the direct sum: the convolution where the kernel
    support lies on the grid, to round-off of the FFT's summation order,
    and the raw values, bit for bit, elsewhere."""
    grid = field.grid
    conv = ndimage.convolve(field.values, mollifier_kernel(grid.spacing, eps), mode="nearest")
    smoothed = mollify(field, eps).values
    inside = kernel_inside(grid, eps)
    assert inside.any() and not inside.all()
    gap = np.abs(smoothed - conv)[inside].max()
    assert gap <= 1e-14 * np.abs(field.values).max()
    assert np.array_equal(smoothed[~inside], field.values[~inside])


def fresh_kernel_mollify(field, eps):
    """``mollify``'s values with the kernel built and transformed afresh on
    ``numpy.fft``, as before its transform was cached, with scipy's period."""
    grid = field.grid
    kernel = mollifier_kernel(grid.spacing, eps)
    period = tuple(next_fast_len(m, real=True) for m in grid.shape)
    axes = tuple(range(grid.dimension))
    transform = np.fft.rfftn(kernel, period, axes)
    conv = np.fft.irfftn(np.fft.rfftn(field.values, period, axes) * transform, period, axes)
    values = field.values.copy()
    values[tuple(slice(k // 2, m - k // 2) for k, m in zip(kernel.shape, grid.shape))] = conv[
        tuple(slice(k - 1, m) for k, m in zip(kernel.shape, grid.shape))
    ]
    return values


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

    def test_axes_built_once_and_read_only(self):
        grid = GridSpec((0.0, -1.0, 2.0), (1.0, 0.5, 3.0), (9, 13, 11))
        for i in range(grid.dimension):
            axis = grid.axis(i)
            assert axis is grid.axis(i)
            assert not axis.flags.writeable
            with pytest.raises(ValueError):
                axis[0] = 5.0
            assert np.array_equal(axis, np.linspace(grid.lo[i], grid.hi[i], grid.shape[i]))

    def test_coords_stay_fresh_and_writable(self):
        grid = unit_square(9)
        first, second = grid.coords(), grid.coords()
        for a, b in zip(first, second):
            assert a.flags.writeable and a is not b
            a[...] = -1.0
        assert np.array_equal(grid.coords()[0][:, 0], grid.axis(0))

    def test_equality_and_hash_ignore_built_axes(self):
        built, fresh = unit_square(17), unit_square(17)
        built.axis(0)
        assert "_axes" in vars(built) and "_axes" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert {built: 1}[fresh] == 1
        assert built != unit_square(19)


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

    def test_caller_data_copied(self):
        # the field freezes its own copy: the caller's array stays writable,
        # and a later write to it does not reach the field
        data = np.zeros((9, 9))
        field = ScalarField(unit_square(9), data)
        assert field.values is not data and data.flags.writeable
        data[0, 0] = 1.0
        assert field.values[0, 0] == 0.0

    def test_store_filled_once_per_key(self):
        # a field starts with an empty store of its own, fills an entry at
        # its first read, and compares and hashes by identity, so that it
        # can be part of a key
        field = ScalarField(unit_square(9), np.zeros((9, 9)))
        twin = ScalarField(field.grid, field.values)
        assert field.derived == {} and field.derived is not twin.derived
        assert field != twin and hash(field) != hash(twin)
        calls = []
        for _ in range(2):
            assert fields.stored(field, ("key", twin), lambda: calls.append(1) or 7) == 7
        assert calls == [1] and field.derived == {("key", twin): 7} and twin.derived == {}
        assert "derived" not in repr(field)
        with pytest.raises(TypeError):
            ScalarField(field.grid, field.values, {})


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

    def test_open_axes_give_the_dense_mesh_bits(self, monkeypatch):
        # every expression a benchmark workload or a test fixture samples:
        # evaluated on the open axes, it keeps the bits of an evaluation on
        # the dense mesh of GridSpec.coords()
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        cases = (workloads.FIXTURE_129, *workloads.LADDER_CASES, workloads.CUBE_17)
        runs = [
            (source, case.dimension, case.points)
            for case in cases
            for source in (case.p, workloads.SADDLE, "0")
        ]
        spec = fixture_problem()
        u = parse_expression("sin(x1)*cos(x2)", 2)
        fixtures = [spec.p_expr, spec.f_expr, spec.boundary_expr, u]
        for reaction in (False, True):
            fixtures.append(manufactured_rhs(u, spec.p_expr, 1e-2, include_reaction=reaction))
        runs += [(str(expr), 2, points) for expr in fixtures for points in (17, 65, 129)]
        runs += [(source, 3, 17) for source in ("2 + 0.25*sin(x1 + x3)", "x1 - 0.5*x2 + x3^2")]
        for source, n, points in runs:
            expr = parse_expression(source, n)
            grid = GridSpec((0.0,) * n, (1.0,) * n, (points,) * n)
            dense = np.broadcast_to(expr.evaluate_array(grid.coords()), grid.shape)
            assert sample(expr, grid).values.tobytes() == dense.tobytes(), (source, points)


class TestMollify:
    def test_kernel_normalized(self):
        kernel = mollifier_kernel((0.05, 0.05), 0.2)
        assert kernel.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(kernel >= 0.0)

    def test_constant_preserved(self):
        field = sample(parse_expression("4", 2), unit_square(33))
        smoothed = mollify(field, 0.2)
        inside = kernel_inside(field.grid, 0.2)
        assert inside.any()
        assert np.allclose(smoothed.values[inside], 4.0, atol=1e-13)

    def test_linear_preserved(self):
        field = sample(parse_expression("0.3*x1 - 0.8*x2", 2), unit_square(33))
        smoothed = mollify(field, 0.2)
        inside = kernel_inside(field.grid, 0.2)
        assert np.allclose(smoothed.values[inside], field.values[inside], atol=1e-13)

    def test_quadratic_bias_nonnegative_and_below_eps_sq(self):
        grid = unit_square(33)
        eps = 0.1
        field = sample(parse_expression("x1^2", 2), grid)
        smoothed = mollify(field, eps)
        bias = (smoothed.values - field.values)[kernel_inside(grid, eps)]
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
        band = ~kernel_inside(field.grid, 0.1)
        assert band.any()
        assert np.array_equal(smoothed.values[band], field.values[band])

    def test_values_match_reference_convolution(self):
        field = sample(parse_expression("sin(3*x1)*x2", 2), unit_square(33))
        check_reference_convolution(field, 0.1)

    @pytest.mark.parametrize(
        "shape, eps",
        [((17, 17, 17), 0.125), ((33, 33, 33), 0.2), ((65, 40), 0.1)],
        ids=["17^3", "33^3", "65x40"],
    )
    def test_values_match_reference_convolution_on_other_grids(self, shape, eps):
        n = len(shape)
        grid = GridSpec((0.0,) * n, (1.0,) * n, shape)
        expr = "sin(3*x1)*x2" + (" + cos(2*x3)*x1" if n == 3 else "")
        check_reference_convolution(sample(parse_expression(expr, n), grid), eps)

    def test_cached_transform_bitwise_on_the_fixture_levels(self):
        # the 129^2 fixture continuation mollifies p, f and u0 at 3 radii
        data = build_problem(fixture_problem(points=129))
        grid = data.grid
        radii = sorted({_clip_radius(eps, grid) for eps in FIXTURE_SCHEDULE}, reverse=True)
        assert len(radii) == 3
        noise = ScalarField(grid, np.random.default_rng(29).standard_normal(grid.shape))
        for radius in radii:
            for field in (data.p, data.f, data.boundary, noise):
                assert mollify(field, radius).values.tobytes() == fresh_kernel_mollify(field, radius).tobytes()

    def test_fast_period_is_scipys_real_fft_length(self):
        periods = [fields._fast_period(m) for m in range(1, 3000)]
        assert periods == [next_fast_len(m, real=True) for m in range(1, 3000)]

    def test_kernel_transform_built_once_and_read_only(self):
        grid = unit_square(33)
        period = tuple(next_fast_len(m, real=True) for m in grid.shape)
        shape, transform = fields._kernel_transform(grid.spacing, 0.1, period)
        assert fields._kernel_transform(grid.spacing, 0.1, period)[1] is transform
        assert shape == mollifier_kernel(grid.spacing, 0.1).shape
        assert not transform.flags.writeable
        with pytest.raises(ValueError):
            transform[0, 0] = 0.0

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
        # a scaled ball is a ball, so its radius check covers the factor
        for factor in (0.0, -0.5, float("nan")):
            with pytest.raises(FieldError, match="positive"):
                BallRegion((0.5, 0.5), 0.2).scaled(factor)

    def test_margin_enforced(self):
        grid = unit_square(33)
        with pytest.raises(FieldError, match="margin"):
            ball_mask(BallRegion((0.5, 0.5), 0.5), grid)

    def test_nan_radius_rejected(self):
        with pytest.raises(FieldError, match="positive"):
            BallRegion((0.5, 0.5), float("nan"))

    @pytest.mark.parametrize("center", [(float("nan"), 0.5), (0.5, float("nan"))])
    def test_nan_center_leaves_the_margin(self, center):
        with pytest.raises(FieldError, match="margin"):
            require_inside(BallRegion(center, 0.2), unit_square(33))

    def test_scaled(self):
        ball = BallRegion((0.5, 0.5), 0.4)
        assert ball.scaled(0.5).radius == 0.2
        assert ball.scaled(0.5).center == ball.center
        assert ball.scaled(0.5).scaled(0.5).radius == 0.1  # scalings compose


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
        assert phi[center] == 1.0
        # node on the axis at distance 0.9R: outside the 3/4 ball
        idx9 = int(np.argmin(np.abs(grid.axis(0) - 0.9)))
        assert phi[idx9, 80] == 0.0
        # ramp midpoint 0.625R: smoothstep gives exactly 1/2
        idx6 = int(np.argmin(np.abs(grid.axis(0) - 0.625)))
        assert phi[idx6, 80] == pytest.approx(0.5, abs=1e-12)

    def test_range_and_plateaus(self):
        grid = unit_square(65)
        ball = BallRegion((0.5, 0.5), 0.3)
        phi = cutoff(ball, grid)
        assert phi.min() >= 0.0 and phi.max() <= 1.0
        dist = np.sqrt(
            (grid.coords()[0] - 0.5) ** 2 + (grid.coords()[1] - 0.5) ** 2
        )
        assert np.all(phi[dist <= 0.15] == 1.0)
        assert np.all(phi[dist >= 0.225] == 0.0)

    def test_discrete_gradient_bound(self):
        from pxlaplace.diffops import gradient

        for m, radius in ((33, 0.3), (65, 0.3), (65, 0.2), (129, 0.25)):
            grid = unit_square(m)
            ball = BallRegion((0.5, 0.5), radius)
            phi = cutoff(ball, grid)
            slope = np.sqrt((gradient(ScalarField(grid, phi)) ** 2).sum(axis=-1)).max()
            h = max(grid.spacing)
            assert slope <= 8.0 / radius + 4.0 * h / radius**2

    def test_ball_must_fit(self):
        grid = unit_square(33)
        with pytest.raises(FieldError, match="margin"):
            cutoff(BallRegion((0.1, 0.5), 0.4), grid)

    def test_values_on_a_box_are_the_grid_values_there(self):
        # balls with one center read one distance array, on a ball's box
        grid = unit_square(65)
        ball = BallRegion((0.48, 0.52), 0.3)
        box = fields.ball_box(ball.scaled(0.75), grid)
        distance = fields.node_distance(grid, ball.center, box)
        assert np.array_equal(cutoff(ball, grid, distance), cutoff(ball, grid)[box])
        for factor in (0.25, 0.75):
            inner = ball.scaled(factor)
            assert np.array_equal(ball_mask(inner, grid, distance), ball_mask(inner, grid)[box])
