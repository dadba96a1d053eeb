import csv

import numpy as np
import pytest

from pxlaplace import cli
from pxlaplace.cli import main, write_field_csv
from pxlaplace.fields import GridSpec, ScalarField

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


class TestIdentitiesCommand:
    def test_exit_zero(self, capsys):
        assert main(["identities", "--seed", "7", "--count", "100"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--count", "0", "count must be at least 1"),
            ("--tolerance", "inf", "tolerance must be positive and finite"),
            ("--tolerance", "nan", "tolerance must be positive and finite"),
            ("--tolerance", "0", "tolerance must be positive and finite"),
        ],
    )
    def test_checks_that_pass_over_nothing_rejected(self, capsys, option, value, message):
        # no samples, or a tolerance every residual meets: a usage error (2),
        # not a PASS
        assert main(["identities", option, value]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "[PASS]" not in captured.out


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
        config = """\
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
        path, outdir = write_config(tmp_path, config)
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

    def test_runs_and_writes_csv(self, tmp_path):
        path, outdir = write_config(tmp_path, SMALL_CONFIG)
        assert main(["gehring", "--config", path]) == 0
        lines = (outdir / "gehring.csv").read_text().splitlines()
        assert lines[0] == (
            "ball_index,center_x,center_y,center_z,radius,delta,ratio,c_target,feasible_at_zero"
        )
        assert len(lines) > 1


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

    def test_increasing_schedule(self, tmp_path):
        bad = SMALL_CONFIG.replace("eps_schedule = 0.1 0.01 0.001", "eps_schedule = 0.001 0.01")
        path, _ = write_config(tmp_path, bad)
        assert main(["audit", "--config", path]) == 2

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
        # halve forever, and a nan ball would fail only after the solve, a
        # nan eps level only after the levels before it:
        # config mistakes (2), caught before the solve, not verdicts (0 or 1)
        calls = []
        monkeypatch.setattr(cli, "epsilon_continuation", lambda *args: calls.append(args))
        path, _ = write_config(tmp_path, SMALL_CONFIG.replace(line, value))
        assert main([command, "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert calls == []


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        path_a, out_a = write_config(tmp_path, SMALL_CONFIG, "a.cfg")
        path_b, out_b = write_config(
            tmp_path, SMALL_CONFIG.replace("{outdir}", "{outdir}_b"), "b.cfg"
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
