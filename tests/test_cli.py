import csv
import functools
import tracemalloc

import numpy as np
import pytest

from pxlaplace import audits, cli, solver
from pxlaplace.audits import quasiregularity_audit
from pxlaplace.cli import main, write_field_csv
from pxlaplace.config import ConfigError, load_config
from pxlaplace.expressions import MAX_DEPTH, Expression, parse_expression
from pxlaplace.fields import GridSpec, ScalarField, sample
from pxlaplace.solver import ProblemSpec, SolverError, build_problem, epsilon_continuation

from canonical import fixture_problem

SMALL_CONFIG = """\
[problem]
dimension = 2
lo = 0 0
hi = 1 1
points = 33 33
p = "2 + 0.5*sin(x1)"
f = "0"
boundary = "x1^2 - x2^2"
eps_schedule = 0.1 0.01 0.001

[audit]
audits = pointwise quasiregularity caccioppoli
betas = 0 1
kappa = 10
ball_center = 0.5 0.5
ball_radii = 0.15 0.25
c_target = 3.36
seed = 7

[output]
directory = {outdir}
"""

LINEAR_CONFIG = """\
[problem]
dimension = 2
points = 33 33
p = "2 + 0.5*sin(x1)"
f = "0"
boundary = "0.3*x1 - 0.7*x2"
eps_schedule = 0.01

[output]
directory = {outdir}
"""

SADDLE_P2_CONFIG = """\
[problem]
dimension = 2
points = 33 33
p = "2"
f = "0"
boundary = "x1^2 - x2^2"
eps_schedule = 0.01

[audit]
audits = quasiregularity
betas = 0

[output]
directory = {outdir}
"""


#: f = 1 with p = 4: u = -|x - x0|^2 / 8 solves the equation at eps = 0,
#: and the boundary data are u's.
RADIAL_CONFIG = """\
[problem]
dimension = 2
points = 33 33
p = "4"
f = "1"
boundary = "-((x1 - 0.5)^2 + (x2 - 0.5)^2)/8"
eps_schedule = 0.1 0.01 0.001

[audit]
audits = pointwise quasiregularity caccioppoli
betas = 0 1

[output]
directory = {outdir}
"""

CUBE_9_CONFIG = """\
[problem]
dimension = 3
points = 9 9 9
p = "2 + 0.25*sin(x1 + x3)"
f = "0"
boundary = "x1 - 0.5*x2 + x3^2"
eps_schedule = 0.01

[output]
directory = {outdir}
"""


#: The fixture exponent with affine boundary data, solved to round-off.
AFFINE_GEHRING_CONFIG = """\
[problem]
dimension = 2
points = 33 33
p = "2 + 0.5*sin(x1)"
boundary = "3*x1 - x2"
eps_schedule = 0.1 0.01 0.001

[audit]
betas = 0 1

[output]
directory = {outdir}
"""


PROBLEM_SECTION = SMALL_CONFIG[: SMALL_CONFIG.index("[audit]")]


def write_config(tmp_path, template, name="run.cfg"):
    outdir = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(outdir=outdir))
    return str(path), outdir


class TestConstantsCommand:
    def test_reference_values(self, capsys):
        code = main(["constants", "--n", "2", "--tminus", "2", "--tplus", "2", "--beta", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "beta_star" in out and "-1.0" in out
        assert "eta_star" in out and "0.25" in out
        assert "c_star" in out and "20.0" in out

    def test_zero_slack_exits_2(self):
        assert main(["constants", "--n", "3", "--tminus", "5", "--tplus", "5", "--beta", "0"]) == 2

    def test_beta_at_minus_one_exits_2(self):
        for window in (("1.5", "2.0"), ("2.0", "4.0")):
            code = main(
                ["constants", "--n", "2", "--tminus", window[0], "--tplus", window[1], "--beta", "-1"]
            )
            assert code == 2

    @pytest.mark.parametrize(
        "tminus, tplus, beta, name",
        [("2", "inf", "0", "t_plus"), ("inf", "inf", "0", "t_minus"), ("2", "3", "inf", "beta")],
    )
    def test_non_finite_argument_named(self, capsys, tminus, tplus, beta, name):
        code = main(["constants", "--n", "2", "--tminus", tminus, "--tplus", tplus, "--beta", beta])
        assert code == 2
        assert f"{name} must be finite, got inf" in capsys.readouterr().err


class TestIdentitiesCommand:
    def test_exit_zero(self, capsys):
        assert main(["identities", "--seed", "7", "--count", "100"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--count", "0", "count must be at least 1"),
        ],
    )
    def test_checks_that_pass_over_nothing_rejected(self, capsys, option, value, message):
        # no samples: a usage error (2), not a PASS
        assert main(["identities", option, value]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "[PASS]" not in captured.out

    def test_negative_seed_named(self, capsys):
        assert main(["identities", "--seed", "-1"]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


class TestSolveCommand:
    def test_linear_fixture_residual(self, tmp_path, capsys):
        path, outdir = write_config(tmp_path, LINEAR_CONFIG)
        assert main(["solve", "--config", path]) == 0
        assert (outdir / "solution.csv").exists()
        summary = (outdir / "solve_summary.txt").read_text()
        assert "residual=" in summary
        residual = float(summary.split("residual=")[1].split()[0])
        assert residual < 1e-10

    def test_solution_csv_schema(self, tmp_path):
        path, outdir = write_config(tmp_path, LINEAR_CONFIG)
        main(["solve", "--config", path])
        lines = (outdir / "solution.csv").read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 33 * 33

    def test_three_dimensional_run(self, tmp_path):
        path, outdir = write_config(tmp_path, CUBE_9_CONFIG)
        assert main(["solve", "--config", path]) == 0
        lines = (outdir / "solution.csv").read_text().splitlines()
        assert lines[0] == "x,y,z,value"
        assert len(lines) == 1 + 9**3


class TestAuditCommand:
    def test_full_audit_passes(self, tmp_path, capsys):
        path, outdir = write_config(tmp_path, SMALL_CONFIG)
        assert main(["audit", "--config", path]) == 0
        report_text = (outdir / "reports.csv").read_text()
        assert report_text.splitlines()[0].startswith("audit,region,n,t_minus,t_plus,beta,eps,h")
        summary = (outdir / "audit_summary.txt").read_text()
        assert "[PASS]" in summary and "[FAIL]" not in summary
        assert "# configuration" in summary

    def test_saddle_distortion_reported_as_two(self, tmp_path):
        path, outdir = write_config(tmp_path, SADDLE_P2_CONFIG)
        assert main(["audit", "--config", path]) == 0
        rows = [
            line.split(",")
            for line in (outdir / "reports.csv").read_text().splitlines()[1:]
            if line.startswith("quasiregularity") and ",worst," in line
        ]
        assert rows
        distortion = float(rows[0][9])
        assert distortion == pytest.approx(2.0, abs=1e-9)

    def test_inhomogeneous_data_audited_without_the_distortion_audit(self, tmp_path, capsys):
        # sigma_2 < 0 at every node of the exact radial solution, so the
        # distortion audit is refused on it; the others run and pass
        path, outdir = write_config(tmp_path, RADIAL_CONFIG)
        assert main(["audit", "--config", path]) == 2
        assert "the distortion audit needs f = 0" in capsys.readouterr().err
        assert not outdir.exists()
        text = RADIAL_CONFIG.replace("audits = pointwise quasiregularity", "audits = pointwise")
        path, outdir = write_config(tmp_path, text)
        assert main(["audit", "--config", path]) == 0
        summary = (outdir / "audit_summary.txt").read_text()
        assert summary.count("[PASS]") == 4 and "[FAIL]" not in summary
        assert main(["solve", "--config", path]) == 0
        solution = np.loadtxt(outdir / "solution.csv", delimiter=",", skiprows=1)
        x1, x2, value = solution.T
        assert np.abs(value + ((x1 - 0.5) ** 2 + (x2 - 0.5) ** 2) / 8).max() < 1e-2

    @pytest.mark.parametrize("command, code", [("solve", 0), ("gehring", 0), ("audit", 2)])
    def test_distortion_rules_refuse_only_the_audit(self, tmp_path, capsys, command, code):
        # f = 1 breaks a rule of the distortion audit, which only `audit` runs
        path, outdir = write_config(tmp_path, RADIAL_CONFIG.replace("33 33", "65 65"))
        assert main([command, "--config", path]) == code
        refused = "the distortion audit needs f = 0" in capsys.readouterr().err
        assert refused == (code == 2)
        assert outdir.exists() != refused

    def test_failing_line_counts_violations(self):
        # sigma_2 <= 0 at every audited node of a concave paraboloid, so the
        # distortion sup stays 0 and only the count explains the FAIL
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (33, 33))
        bowl = sample(parse_expression("-((x1 - 0.5)^2 + (x2 - 0.5)^2)", 2), grid)
        line = cli._report_line(quasiregularity_audit(bowl, 0.0, budget=20.0))
        assert line.startswith("[FAIL]") and "worst=0.000000e+00" in line
        assert line.endswith(" violations=961")
        saddle = sample(parse_expression("x1^2 - x2^2", 2), grid)
        line = cli._report_line(quasiregularity_audit(saddle, 0.0, budget=20.0))
        assert line.startswith("[PASS]") and "violations" not in line

    def test_overflowed_fields_fail_with_violations(self):
        # at beta = 2000, |DF|^2 overflows at most nodes: each such node is
        # a violation, and the floor comes from the finite ones
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (33, 33))
        saddle = sample(parse_expression("x1^2 - x2^2", 2), grid)
        with np.errstate(over="ignore", invalid="ignore"):
            report = quasiregularity_audit(saddle, 2000.0, budget=20.0)
            _, df_sq, s2 = audits._stretched_fields(saddle, 2000.0, 0.0)
        overflowed = grid.interior_mask() & ~(np.isfinite(df_sq) & np.isfinite(s2))
        assert overflowed.sum() > 600
        assert report.details["violations"] == overflowed.sum()
        assert np.isfinite(report.details["floor"]) and report.details["audited_nodes"] > 0
        assert cli._report_line(report).startswith("[FAIL]")
        assert cli._report_line(report).endswith(f" violations={overflowed.sum()}")


class TestGehringCommand:
    def test_unresolvable_ball_family_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # at 17^3 the default r_max (a quarter of the box) is below 8h = 0.5
        calls = []
        monkeypatch.setattr(cli, "epsilon_continuation", lambda *args: calls.append(args))
        config = SMALL_CONFIG.replace("dimension = 2", "dimension = 3").replace(
            "lo = 0 0\nhi = 1 1\npoints = 33 33", "lo = 0 0 0\nhi = 1 1 1\npoints = 17 17 17"
        ).replace("ball_center = 0.5 0.5", "ball_center = 0.5 0.5 0.5")
        path, _ = write_config(tmp_path, config)
        assert main(["gehring", "--config", path]) == 2
        assert "r_max 0.25 below the resolvable radius 0.5" in capsys.readouterr().err
        assert calls == []

    def test_default_r_max_error_names_the_default_and_the_fix(self, tmp_path, capsys):
        # the config sets no gehring_r_max: the message says where 0.25
        # comes from and which setting resolves the balls, and that
        # setting does
        config = SMALL_CONFIG.replace("dimension = 2", "dimension = 3").replace(
            "lo = 0 0\nhi = 1 1\npoints = 33 33", "lo = 0 0 0\nhi = 1 1 1\npoints = 17 17 17"
        ).replace("ball_center = 0.5 0.5", "ball_center = 0.5 0.5 0.5")
        path, _ = write_config(tmp_path, config)
        assert main(["gehring", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "default gehring_r_max 0.25" in err
        assert "a quarter of the shortest extent" in err
        assert "set gehring_r_max >= 0.5" in err
        fixed = config.replace("seed = 7", "seed = 7\ngehring_r_max = 0.5")
        path, outdir = write_config(tmp_path, fixed, name="fixed.cfg")
        assert main(["gehring", "--config", path]) == 0
        assert (outdir / "gehring.csv").exists()

    def test_solved_affine_field_passes(self, tmp_path, capsys):
        # |DF| of the solved affine field is rounding noise on every node;
        # read unmasked it gave worst ratios 25.5 (beta = 0) and 22.2
        path, outdir = write_config(tmp_path, AFFINE_GEHRING_CONFIG)
        assert main(["gehring", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS] gehring") == 2 and "worst_ratio=0.000000e+00" in out
        assert (outdir / "gehring_1.csv").exists()

    def test_runs_and_writes_csv(self, tmp_path):
        path, outdir = write_config(tmp_path, SMALL_CONFIG)
        assert main(["gehring", "--config", path]) == 0
        lines = (outdir / "gehring.csv").read_text().splitlines()
        assert lines[0] == (
            "ball_index,center_x,center_y,center_z,radius,delta,ratio,c_target,feasible_at_zero"
        )
        assert len(lines) > 1


class TestSampledOnce:
    """The config samples p, f and the boundary once, and every command
    reads the problem it built: the continuation and the audit's f = 0
    rule sample nothing."""

    @pytest.mark.parametrize("command", ["solve", "audit", "gehring"])
    def test_each_expression_evaluated_once(self, tmp_path, monkeypatch, command):
        evaluated = []
        original = Expression.evaluate_array

        def counting(expr, coords):
            evaluated.append(expr.source)
            return original(expr, coords)

        monkeypatch.setattr(Expression, "evaluate_array", counting)
        path, _ = write_config(tmp_path, SMALL_CONFIG)
        assert main([command, "--config", path]) == 0
        assert sorted(evaluated) == sorted(["2 + 0.5*sin(x1)", "0", "x1^2 - x2^2"])

    @pytest.mark.parametrize(
        "config, points, sources",
        [
            (SMALL_CONFIG, (33, 33), ("2 + 0.5*sin(x1)", "0", "x1^2 - x2^2")),
            (CUBE_9_CONFIG, (9, 9, 9), ("2 + 0.25*sin(x1 + x3)", "0", "x1 - 0.5*x2 + x3^2")),
            (
                SMALL_CONFIG.replace('f = "0"', 'f = "4*(x1 - 0.5)"'),
                (33, 33),
                ("2 + 0.5*sin(x1)", "4*(x1 - 0.5)", "x1^2 - x2^2"),
            ),
        ],
        ids=["criterion-9", "cube-9", "inhomogeneous"],
    )
    def test_config_problem_is_the_library_problem(self, tmp_path, config, points, sources):
        # the config path and build_problem give the same raw problem
        path, _ = write_config(tmp_path, config)
        cfg = load_config(path)
        n = len(points)
        p, f, boundary = (parse_expression(source, n) for source in sources)
        grid = GridSpec((0.0,) * n, (1.0,) * n, points)
        spec = ProblemSpec(grid, p, f, boundary, eps=cfg.schedule[0])
        want = build_problem(spec)
        got = cfg.problem
        for name in ("p", "f", "g", "boundary"):
            assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes(), name
        assert got.window == want.window
        assert got.eps == want.eps == cfg.schedule[0]
        assert got.grid == want.grid == spec.grid


class TestIncrementsOnRead:
    """The continuation's Cauchy increments are computed where they are
    read: ``solve`` reports them, ``audit`` and ``gehring`` never do."""

    @pytest.mark.parametrize("command, read", [("solve", True), ("audit", False), ("gehring", False)])
    def test_only_solve_computes_them(self, tmp_path, monkeypatch, command, read):
        kept = []
        original = cli.epsilon_continuation

        def keeping(*args):
            kept.append(original(*args))
            return kept[-1]

        monkeypatch.setattr(cli, "epsilon_continuation", keeping)
        path, _ = write_config(tmp_path, SMALL_CONFIG)
        assert main([command, "--config", path]) == 0
        assert ("increments" in kept[0].__dict__) == read


class TestConfigErrors:
    def test_missing_file(self, capsys):
        code = main(["audit", "--config", "/nonexistent/path.cfg"])
        assert code == 2

    def test_bad_expression(self, tmp_path):
        bad = SMALL_CONFIG.replace('"2 + 0.5*sin(x1)"', '"2 + (p-?)"')
        path, _ = write_config(tmp_path, bad)
        assert main(["audit", "--config", path]) == 2

    def test_inadmissible_beta(self, tmp_path):
        bad = SMALL_CONFIG.replace("betas = 0 1", "betas = -1")
        path, _ = write_config(tmp_path, bad)
        assert main(["audit", "--config", path]) == 2

    def test_non_finite_literal(self, tmp_path, capsys):
        bad = SMALL_CONFIG.replace('f = "0"', 'f = "1e999"')
        path, _ = write_config(tmp_path, bad)
        assert main(["audit", "--config", path]) == 2
        assert "numeric literal '1e999' overflows at offset 0" in capsys.readouterr().err

    def test_ball_leaving_grid_margin(self, tmp_path, capsys):
        bad = SMALL_CONFIG.replace("ball_radii = 0.15 0.25", "ball_radii = 0.15 0.6")
        path, _ = write_config(tmp_path, bad)
        assert main(["audit", "--config", path]) == 2
        assert "leaves the grid margin" in capsys.readouterr().err

    def test_empty_ball_radii(self, tmp_path, capsys):
        # the audit would list caccioppoli and pass without a verdict on it
        bad = SMALL_CONFIG.replace("ball_radii = 0.15 0.25", "ball_radii =")
        path, _ = write_config(tmp_path, bad)
        assert main(["audit", "--config", path]) == 2
        assert "ball_radii must list at least one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line, value",
        [
            ("audit", "ball_radii = 0.15 0.25", "ball_radii = 0.15 0.6"),
            ("gehring", "seed = 7", "seed = 7\ngehring_r_max = 0.6"),
        ],
    )
    def test_ball_geometry_checked_before_the_solve(
        self, tmp_path, capsys, monkeypatch, command, line, value
    ):
        calls = []
        monkeypatch.setattr(cli, "epsilon_continuation", lambda *args: calls.append(args))
        path, _ = write_config(tmp_path, SMALL_CONFIG.replace(line, value))
        assert main([command, "--config", path]) == 2
        assert "leaves the grid margin" in capsys.readouterr().err
        assert calls == []

    def test_ball_with_no_node_inside_rejected_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # no node lies within 0.00075 of the center, so the cutoff is 0 at
        # every node and every Caccioppoli term with it: a pass over nothing
        calls = []
        monkeypatch.setattr(cli, "epsilon_continuation", lambda *args: calls.append(args))
        bad = SMALL_CONFIG.replace("ball_center = 0.5 0.5", "ball_center = 0.507 0.507").replace(
            "ball_radii = 0.15 0.25", "ball_radii = 0.001 0.2"
        )
        path, _ = write_config(tmp_path, bad)
        assert main(["audit", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "three-quarter ball of B((0.507,0.507),0.001)" in err
        assert "cutoff is 0 at every node" in err
        assert calls == []

    @pytest.mark.parametrize("dimension", [2, 3], ids=["8x8", "8x8x8"])
    def test_grid_too_coarse_to_mollify(self, tmp_path, capsys, monkeypatch, dimension):
        # 8 nodes per unit axis pass the grid's own floor, but the mollifier
        # radius floor 2h = 2/7 exceeds a quarter of the box: the continuation
        # would fail on its first level
        calls = []
        monkeypatch.setattr(cli, "epsilon_continuation", lambda *args: calls.append(args))

        def axes(value):
            return " ".join([value] * dimension)

        text = SMALL_CONFIG.replace(
            "dimension = 2\nlo = 0 0\nhi = 1 1\npoints = 33 33",
            f"dimension = {dimension}\nlo = {axes('0')}\nhi = {axes('1')}\npoints = {axes('8')}",
        ).replace("ball_center = 0.5 0.5", f"ball_center = {axes('0.5')}")
        path, _ = write_config(tmp_path, text)
        assert main(["audit", "--config", path]) == 2
        assert "grid too coarse to mollify" in capsys.readouterr().err
        assert calls == []

    def test_increasing_schedule(self, tmp_path):
        bad = SMALL_CONFIG.replace("eps_schedule = 0.1 0.01 0.001", "eps_schedule = 0.001 0.01")
        path, _ = write_config(tmp_path, bad)
        assert main(["audit", "--config", path]) == 2

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ("", "eps_schedule is empty"),
            ("0.1 -0.1", "eps_schedule must list positive values"),
            ("0.1 nan", "eps_schedule must list positive values"),
            ("0.1 0.1", "eps_schedule must be strictly decreasing"),
            ("0.01 0.1", "eps_schedule must be strictly decreasing"),
            ("1 0.1", "regularization eps must lie in (0, 1), got 1.0"),
        ],
        ids=["empty", "negative", "nan", "equal", "increasing", "eps-one"],
    )
    def test_config_and_continuation_reject_a_schedule_alike(self, tmp_path, schedule, message):
        # one rule: the config file and a library caller get the same message
        bad = SMALL_CONFIG.replace("eps_schedule = 0.1 0.01 0.001", f"eps_schedule = {schedule}")
        path, _ = write_config(tmp_path, bad)
        with pytest.raises(ConfigError) as from_config:
            load_config(path)
        levels = [float(e) for e in schedule.split()]
        with pytest.raises(SolverError) as from_solver:
            epsilon_continuation(build_problem(fixture_problem(points=33)), levels)
        assert str(from_config.value) == str(from_solver.value) == message

    @pytest.mark.parametrize(
        "line, value, message",
        [
            (
                "eps_schedule = 0.1 0.01 0.001",
                "eps_shedule = 0.1 0.01",
                "unknown key 'eps_shedule' in [problem]",
            ),
            ("kappa = 10", "kapa = 5", "unknown key 'kapa' in [audit]"),
            ("[output]", "[outputs]", "unknown section [outputs]"),
            ("[problem]", "[DEFAULT]\nseed = 3\n\n[problem]", "unknown key 'seed' in [problem]"),
        ],
        ids=["problem-key", "audit-key", "section", "default-section"],
    )
    def test_unknown_key_rejected_before_the_solve(
        self, tmp_path, capsys, monkeypatch, line, value, message
    ):
        # a misspelled key used to fall back to its default without a word
        calls = []
        monkeypatch.setattr(cli, "epsilon_continuation", lambda *args: calls.append(args))
        path, _ = write_config(tmp_path, SMALL_CONFIG.replace(line, value))
        assert main(["solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "known: " in err
        assert calls == []

    @pytest.mark.parametrize("command", ["audit", "gehring"])
    def test_empty_betas(self, tmp_path, capsys, command):
        # audit would pass over no verdicts; gehring would index an empty list
        path, _ = write_config(tmp_path, SMALL_CONFIG.replace("betas = 0 1", "betas ="))
        assert main([command, "--config", path]) == 2
        assert "betas must list at least one" in capsys.readouterr().err

    def test_empty_audits(self, tmp_path, capsys):
        bad = SMALL_CONFIG.replace("audits = pointwise quasiregularity caccioppoli", "audits =")
        path, _ = write_config(tmp_path, bad)
        assert main(["audit", "--config", path]) == 2
        assert "audits must name at least one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line, value",
        [
            ("audit", "kappa = 10", "kappa = -1"),
            ("audit", "kappa = 10", "kappa = 0"),
            ("audit", "kappa = 10", "kappa = nan"),
            ("gehring", "c_target = 3.36", "c_target = -1"),
            ("gehring", "c_target = 3.36", "c_target = 0"),
        ],
    )
    def test_non_positive_budget(self, tmp_path, capsys, command, line, value):
        # a config mistake, not a numerical failure (3) or an audit verdict (1)
        path, _ = write_config(tmp_path, SMALL_CONFIG.replace(line, value))
        assert main([command, "--config", path]) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line, value, message",
        [
            ("audit", "betas = 0 1", "betas = 0 nan", "betas must be finite"),
            ("gehring", "betas = 0 1", "betas = nan", "betas must be finite"),
            ("audit", "kappa = 10", "kappa = inf", "kappa must be positive and finite"),
            ("gehring", "c_target = 3.36", "c_target = inf", "c_target must be positive and finite"),
            ("gehring", "seed = 7", "seed = 7\ngehring_r_max = inf", "gehring_r_max must be"),
            ("gehring", "seed = 7", "seed = 7\ngehring_r_max =", "gehring_r_max must be a number, got ''"),
            ("gehring", "seed = 7", "seed = 7\ngehring_r_max = nan", "gehring_r_max must be"),
            ("gehring", "seed = 7", "seed = 7\ngehring_r_max = 0", "gehring_r_max must be"),
            ("gehring", "seed = 7", "seed = 7\ngehring_r_max = -0.2", "gehring_r_max must be"),
            ("audit", "ball_center = 0.5 0.5", "ball_center = nan 0.5", "leaves the grid margin"),
            ("audit", "ball_radii = 0.15 0.25", "ball_radii = nan", "must be positive, got nan"),
            ("audit", "eps_schedule = 0.1 0.01 0.001", "eps_schedule = 0.1 nan", "must list positive"),
        ],
        ids=[
            "audit-betas-nan",
            "gehring-betas-nan",
            "kappa-inf",
            "c_target-inf",
            "gehring_r_max-inf",
            "gehring_r_max-empty",
            "gehring_r_max-nan",
            "gehring_r_max-zero",
            "gehring_r_max-negative",
            "ball_center-nan",
            "ball_radii-nan",
            "eps_schedule-nan",
        ],
    )
    def test_non_finite_numbers(
        self, tmp_path, capsys, monkeypatch, command, line, value, message
    ):
        # nan betas would PASS the delta search, an infinite kappa or c_target
        # would make every verdict pass, an infinite gehring_r_max would
        # halve forever and an empty one would fall back to the default, and
        # a nan ball would fail only after the solve, a nan eps level only
        # after the levels before it:
        # config mistakes (2), caught before the solve, not verdicts (0 or 1)
        calls = []
        monkeypatch.setattr(cli, "epsilon_continuation", lambda *args: calls.append(args))
        path, _ = write_config(tmp_path, SMALL_CONFIG.replace(line, value))
        assert main([command, "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert calls == []


    @pytest.mark.parametrize(
        "command, line, value, message",
        [
            ("audit", "kappa = 10", "kappa = abc", "kappa must be a number, got 'abc'"),
            ("gehring", "c_target = 3.36", "c_target = 3,36", "c_target must be a number"),
            (
                "gehring",
                "seed = 7",
                "seed = 7\ngehring_r_max = half",
                "gehring_r_max must be a number, got 'half'",
            ),
            ("gehring", "seed = 7", "seed = 1.5", "seed must be an integer, got '1.5'"),
            ("audit", "seed = 7", "seed = -1", "seed must be a non-negative integer, got -1"),
            ("audit", "lo = 0 0", "lo = 0 zero", "lo must list numbers, got '0 zero'"),
            ("solve", "points = 33 33", "points = 33 33.5", "points must list integers"),
            ("solve", "dimension = 2", "dimension = two", "dimension must be an integer"),
            (
                "solve",
                "lo = 0 0\nhi = 1 1\npoints = 33 33",
                "lo = 0 0 0\nhi = 1 1 1\npoints = 17 17 17",
                "grid shape does not match the declared dimension",
            ),
            ("solve", PROBLEM_SECTION, "", "missing [problem] section"),
            ("solve", "[problem]", "dimension = 2\n[problem]", "cannot parse config"),
            (
                "audit",
                "audits = pointwise quasiregularity caccioppoli",
                "audits = pointwise hessian",
                "unknown audit 'hessian'",
            ),
            ("audit", '"2 + 0.5*sin(x1)"', '"1 + 0.5*sin(x1)"', "(min p <= 1)"),
            ("audit", "betas = 0 1", "betas = -0.5", "the distortion audit needs beta >= 0"),
            ("audit", 'f = "0"', 'f = "1"', "the distortion audit needs f = 0 at every node"),
            ("audit", 'f = "0"', 'f = "log(x1)"', "cannot sample f: expression domain error"),
            ("solve", 'f = "0"', 'f = "log(x1)"', "cannot sample f: expression domain error"),
            (
                "audit",
                'boundary = "x1^2 - x2^2"',
                'boundary = "log(x1)"',
                "cannot sample boundary: expression domain error",
            ),
            (
                "gehring",
                "audits = pointwise quasiregularity caccioppoli\nbetas = 0 1",
                "audits = pointwise\nbetas = -0.5",
                "the delta search stretches with eps = 0 and needs beta >= 0",
            ),
            (
                "gehring",
                "seed = 7",
                "seed = 7\ngehring_r_max = 0.2",
                "r_max 0.2 below the resolvable radius 0.25 (8h)",
            ),
        ],
        ids=[
            "kappa-text",
            "c_target-text",
            "gehring_r_max-text",
            "seed-fraction",
            "seed-negative",
            "lo-text",
            "points-fraction",
            "dimension-text",
            "points-dimension",
            "no-problem-section",
            "no-section-header",
            "unknown-audit",
            "p-at-one",
            "distortion-negative-beta",
            "distortion-inhomogeneous",
            "distortion-f-domain",
            "solve-f-domain",
            "boundary-domain",
            "gehring-negative-beta",
            "gehring_r_max-below-8h",
        ],
    )
    def test_config_fault_named_before_any_output(
        self, tmp_path, capsys, monkeypatch, command, line, value, message
    ):
        # each fault is a config mistake (2) named in its message, found
        # before the solve and before the output directory is made
        calls = []
        monkeypatch.setattr(cli, "epsilon_continuation", lambda *args: calls.append(args))
        assert line in SMALL_CONFIG
        path, outdir = write_config(tmp_path, SMALL_CONFIG.replace(line, value))
        assert main([command, "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "expression",
        ["(" * 1200 + "2" + ")" * 1200, " + ".join(["x1"] * 3000)],
        ids=["nested-parentheses", "long-sum"],
    )
    def test_deep_expression_rejected_before_the_solve(
        self, tmp_path, capsys, monkeypatch, expression
    ):
        # the parser, or the evaluation of a long sum, would otherwise
        # exhaust the interpreter's stack
        calls = []
        monkeypatch.setattr(cli, "epsilon_continuation", lambda *args: calls.append(args))
        path, _ = write_config(tmp_path, SMALL_CONFIG.replace('f = "0"', f'f = "{expression}"'))
        assert main(["solve", "--config", path]) == 2
        assert f"expression nests deeper than {MAX_DEPTH} levels" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["solve", "audit", "gehring"])
    def test_output_directory_that_is_a_file(self, tmp_path, capsys, command):
        path, outdir = write_config(tmp_path, SMALL_CONFIG)
        outdir.write_text("not a directory")
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "cannot write the output" in err and str(outdir) in err

    def test_output_file_that_is_a_directory(self, tmp_path, capsys):
        path, outdir = write_config(tmp_path, LINEAR_CONFIG)
        (outdir / "solution.csv").mkdir(parents=True)
        assert main(["solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "cannot write the output" in err and str(outdir / "solution.csv") in err


class TestNumericalFailure:
    def test_level_that_does_not_converge_exits_3(self, tmp_path, capsys, monkeypatch):
        # one sweep per eps level cannot converge on the fixture
        monkeypatch.setattr(
            solver, "SolveOptions", functools.partial(solver.SolveOptions, max_iterations=1)
        )
        path, outdir = write_config(tmp_path, SMALL_CONFIG)
        assert main(["audit", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "continuation member solve at eps=0.1 did not converge" in err
        assert not (outdir / "reports.csv").exists()


#: SMALL_CONFIG on the 17^3 cube, with the smallest ball radius it resolves.
SMALL_CUBE_CONFIG = (
    SMALL_CONFIG.replace("dimension = 2", "dimension = 3")
    .replace("lo = 0 0\nhi = 1 1\npoints = 33 33", "lo = 0 0 0\nhi = 1 1 1\npoints = 17 17 17")
    .replace("ball_center = 0.5 0.5", "ball_center = 0.5 0.5 0.5")
    .replace("seed = 7", "seed = 7\ngehring_r_max = 0.5")
)


class TestDeterminism:
    # in 3-d the GMRES work of a sweep follows the residual history
    # through its forcing term; the outputs must not
    @pytest.mark.parametrize("config", [SMALL_CONFIG, SMALL_CUBE_CONFIG], ids=["2d", "3d"])
    def test_repeated_runs_byte_identical(self, tmp_path, config):
        path_a, out_a = write_config(tmp_path, config, "a.cfg")
        path_b, out_b = write_config(
            tmp_path, config.replace("{outdir}", "{outdir}_b"), "b.cfg"
        )
        out_b = tmp_path / "out_b"
        assert main(["audit", "--config", path_a]) == 0
        assert main(["audit", "--config", path_b]) == 0
        assert main(["gehring", "--config", path_a]) == 0
        assert main(["gehring", "--config", path_b]) == 0
        for name in ("reports.csv", "gehring.csv", "gehring_1.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def csv_writer_field_csv(field, path):
    """The solution CSV as ``csv.writer`` writes it from meshgrid columns."""
    grid = field.grid
    columns = [c.ravel().tolist() for c in grid.coords()] + [field.values.ravel().tolist()]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(["x", "y", "z"][: grid.dimension] + ["value"])
        out.writerows(zip(*(map(repr, column) for column in columns)))


class TestFieldCsv:
    SPECIAL = (-0.0, 5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0, -2.5e-8, 123456789.0, 0.0)

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec((-1.5, 0.25), (2.0, 2.0), (15, 11)),
            GridSpec((0.1, -2.0, 3.0), (1.1, -1.2, 3.9), (9, 8, 10)),
        ],
        ids=["2d", "3d"],
    )
    def test_bytes_match_csv_writer(self, tmp_path, grid):
        values = np.random.default_rng(5).standard_normal(grid.shape).ravel()
        values[: len(self.SPECIAL)] = self.SPECIAL
        values[-len(self.SPECIAL) :] = self.SPECIAL
        field = ScalarField(grid, values.reshape(grid.shape))
        write_field_csv(field, tmp_path / "fast.csv")
        csv_writer_field_csv(field, tmp_path / "reference.csv")
        written = (tmp_path / "fast.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert b"-0.0\n" in written and b"5e-324\n" in written and b"-1e+300\n" in written

    def test_streams_line_by_line(self, tmp_path):
        # one grid line's rows at a time; a writer that joined the whole
        # 0.63 MB file before writing it would pass the bound
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), (129, 129))
        field = ScalarField(grid, np.random.default_rng(3).standard_normal(grid.shape))
        grid.axis(0)  # built once per grid, before the measurement
        tracemalloc.start()
        try:
            write_field_csv(field, tmp_path / "solution.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "solution.csv").stat().st_size > 600_000
        assert peak < 0.75e6
