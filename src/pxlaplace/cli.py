"""Configuration-driven command line front end.

Subcommands: ``constants``, ``solve``, ``audit``, ``identities``, ``gehring``.
Exit codes: 0 success, 1 audit failure, 2 configuration error, 3 numerical
failure.  Identical configs and seeds produce byte-identical CSV output.

Expression convention (also in ``--help``): ``^`` is right-associative and
binds tighter than unary minus, so ``-2^2 == -4``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import operator
import sys
from pathlib import Path

from .audits import (
    AuditError,
    EstimateReport,
    GehringResult,
    ball_family,
    caccioppoli_audit,
    gehring_delta_search,
    pointwise_stretch_audit,
    quasiregularity_audit,
)
from .config import ConfigError, RunConfig, load_config
from .constants import AdmissibilityError, constant_set, ExponentWindow
from .diffops import StretchParams
from .expressions import ExpressionError
from .fields import BallRegion, ScalarField
from .identities import run_identity_suite
from .solver import SolveResult, SolverError, epsilon_continuation

__all__ = ["main"]

EXIT_OK = 0
EXIT_AUDIT_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

REPORT_COLUMNS = (
    "audit",
    "region",
    "n",
    "t_minus",
    "t_plus",
    "beta",
    "eps",
    "h",
    "metric",
    "value",
    "x",
    "y",
    "z",
    "tolerance",
    "passed",
)

GEHRING_COLUMNS = (
    "ball_index",
    "center_x",
    "center_y",
    "center_z",
    "radius",
    "delta",
    "ratio",
    "c_target",
    "feasible_at_zero",
)


def _fmt(value) -> str:
    return repr(float(value))


def _writer(handle):
    return csv.writer(handle, lineterminator="\n")


def write_field_csv(field: ScalarField, path: Path) -> None:
    """Plot-ready CSV with one node per row: x, y[, z], value.

    The bytes are those ``csv.writer`` writes: a float's ``repr`` holds no
    comma, quote or newline, so no field needs quoting.  Each axis
    coordinate is formatted once.  The file is written one grid line (the
    nodes along the last axis) at a time: the line's leading coordinates
    are one prefix, and its rows are joined with ``"\\n" + prefix``.
    """
    grid = field.grid
    n = grid.dimension
    lead = [[repr(x) + "," for x in grid.axis(i).tolist()] for i in range(n - 1)]
    last = [repr(x) + "," for x in grid.axis(n - 1).tolist()]
    lines = field.values.reshape(-1, grid.shape[-1])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(["x", "y", "z"][:n] + ["value"]) + "\n")
        for prefix, line in zip(map("".join, itertools.product(*lead)), lines):
            rows = map(operator.add, last, map(repr, line.tolist()))
            handle.write(prefix + ("\n" + prefix).join(rows) + "\n")


def _location_cells(location):
    cells = ["", "", ""]
    if location is not None:
        for i, value in enumerate(location):
            cells[i] = _fmt(value)
    return cells


def write_reports_csv(reports, path: Path) -> None:
    """One 'worst' row per report plus one row per auxiliary metric."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = _writer(handle)
        out.writerow(REPORT_COLUMNS)
        for report in reports:
            prefix = [
                report.audit,
                report.region,
                str(report.n),
                _fmt(report.t_minus),
                _fmt(report.t_plus),
                _fmt(report.beta),
                _fmt(report.eps),
                _fmt(report.h),
            ]
            out.writerow(
                prefix
                + ["worst", _fmt(report.worst)]
                + _location_cells(report.worst_location)
                + [_fmt(report.tolerance), str(report.passed)]
            )
            for key in sorted(report.details):
                out.writerow(prefix + [key, _fmt(report.details[key]), "", "", "", "", ""])


def write_gehring_csv(result: GehringResult, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = _writer(handle)
        out.writerow(GEHRING_COLUMNS)
        for index, (ball, ratio) in enumerate(zip(result.balls, result.ratios)):
            center = list(ball.center) + [float("nan")] * (3 - len(ball.center))
            out.writerow(
                [
                    str(index),
                    _fmt(center[0]),
                    _fmt(center[1]),
                    _fmt(center[2]),
                    _fmt(ball.radius),
                    _fmt(result.delta),
                    _fmt(ratio),
                    _fmt(result.c_target),
                    str(result.feasible_at_zero),
                ]
            )


def _report_line(report: EstimateReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    violations = report.details.get("violations", 0)
    return (
        f"[{status}] {report.audit} region={report.region} n={report.n} "
        f"t=[{report.t_minus:g},{report.t_plus:g}] beta={report.beta:g} "
        f"eps={report.eps:g} h={report.h:g} worst={report.worst:.6e} "
        f"tol={report.tolerance:.6e}" + (f" violations={violations}" if violations > 0 else "")
    )


def _level_line(result: SolveResult) -> str:
    """One eps level of the ``solve`` summary.  Its principle range is the
    boundary data's range widened by ``max |g|`` on each side."""
    prob = result.problem
    bvals = prob.boundary.values[~prob.grid.interior_mask()]
    data_norm = float(abs(prob.g.values).max())
    return (
        f"eps={prob.eps:g} iterations={result.iterations} "
        f"residual={result.residual:.6e} converged={result.converged} "
        f"ellipticity=[{result.ellipticity[0]:.6g},{result.ellipticity[1]:.6g}] "
        f"dominance_violations={result.dominance_violations} "
        f"value_range=[{result.v.values.min():.6g},{result.v.values.max():.6g}] "
        f"principle_range=[{bvals.min() - data_norm:.6g},{bvals.max() + data_norm:.6g}]"
    )


def _write_summary(path: Path, cfg: RunConfig, lines) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# configuration\n")
        handle.write(cfg.raw_text)
        if not cfg.raw_text.endswith("\n"):
            handle.write("\n")
        handle.write("\n# results\n")
        for line in lines:
            handle.write(line + "\n")


# ---------------------------------------------------------------------------
# Shared run plumbing
# ---------------------------------------------------------------------------


def _run_audits(cfg: RunConfig, continuation):
    final = continuation.results[-1]
    prob = final.problem
    reports = []
    for beta in cfg.betas:
        params = StretchParams(beta, prob.eps)
        if "pointwise" in cfg.audits:
            reports.append(
                pointwise_stretch_audit(
                    final.v, prob.p, prob.g, params, prob.window, kappa=cfg.kappa
                )
            )
        if "quasiregularity" in cfg.audits:
            consts = constant_set(prob.window, prob.grid.dimension, beta)
            reports.append(
                quasiregularity_audit(final.v, beta, budget=consts.c_star, window=prob.window)
            )
        if "caccioppoli" in cfg.audits:
            for radius in cfg.ball_radii:
                ball = BallRegion(cfg.ball_center, radius)
                reports.append(
                    caccioppoli_audit(final.v, prob.p, prob.g, params, prob.window, ball)
                )
    return reports


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    window = ExponentWindow(args.tminus, args.tplus)
    consts = constant_set(window, args.n, args.beta)
    print(f"{'quantity':<14}value")
    for name, value in (
        ("beta_star", consts.beta_star),
        ("eta_star", consts.eta_star),
        ("c_star", consts.c_star),
        ("c_tilde_star", consts.c_tilde_star),
        ("c_sharp", consts.c_sharp),
    ):
        print(f"{name:<14}{value!r}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(cfg.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    continuation = epsilon_continuation(cfg.problem, cfg.schedule)
    final = continuation.results[-1]
    write_field_csv(final.v, outdir / "solution.csv")
    lines = [_level_line(result) for result in continuation.results]
    lines += [
        f"gradient_increment[{k}]={inc:.6e}" for k, inc in enumerate(continuation.increments)
    ]
    _write_summary(outdir / "solve_summary.txt", cfg, lines)
    print(f"solved {len(continuation.results)} eps levels; final residual {final.residual:.3e}")
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = load_config(args.config)
    if "quasiregularity" in cfg.audits:
        if any(beta < 0 for beta in cfg.betas):
            raise ConfigError("the distortion audit needs beta >= 0")
        # for constant p and f, u = -f |x - x0|^2 / (2 (n + p - 2)) solves the
        # equation, and sigma_2(D^2 u) < 0 at every node once f != 0
        if cfg.problem.f.values.any():
            raise ConfigError(
                "the distortion audit needs f = 0 at every node: its bound "
                "|DF|^2 <= C* sigma_2(DF) fails on exact solutions where f != 0"
            )
    outdir = Path(cfg.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    continuation = epsilon_continuation(cfg.problem, cfg.schedule)
    reports = _run_audits(cfg, continuation)
    write_reports_csv(reports, outdir / "reports.csv")
    lines = [_report_line(report) for report in reports]
    _write_summary(outdir / "audit_summary.txt", cfg, lines)
    for line in lines:
        print(line)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_AUDIT_FAILURE


def cmd_gehring(args) -> int:
    cfg = load_config(args.config)
    if any(beta < 0 for beta in cfg.betas):
        raise ConfigError("the delta search stretches with eps = 0 and needs beta >= 0")
    balls = ball_family(cfg.problem.grid, r_max=cfg.gehring_r_max, seed=cfg.seed)
    outdir = Path(cfg.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    continuation = epsilon_continuation(cfg.problem, cfg.schedule)
    final = continuation.results[-1]
    results = []
    for beta in cfg.betas:
        results.append(
            (
                beta,
                gehring_delta_search(final.v, final.problem.f, beta, balls, cfg.c_target),
            )
        )
    lines = []
    for beta, result in results:
        status = "PASS" if result.feasible_at_zero else "FAIL"
        lines.append(
            f"[{status}] gehring beta={beta:g} delta={result.delta:.3f} "
            f"worst_ratio={result.worst_ratio:.6e} c_target={result.c_target:g}"
        )
    write_gehring_csv(results[0][1], outdir / "gehring.csv")
    for index, (beta, result) in enumerate(results[1:], start=1):
        write_gehring_csv(result, outdir / f"gehring_{index}.csv")
    _write_summary(outdir / "gehring_summary.txt", cfg, lines)
    for line in lines:
        print(line)
    ok = all(result.feasible_at_zero for _, result in results)
    return EXIT_OK if ok else EXIT_AUDIT_FAILURE


def cmd_identities(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
    reports = run_identity_suite(seed=args.seed, count=args.count)
    ok = True
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"[{status}] {report.name} samples={report.count} "
            f"worst={report.worst:.6e} tol={report.tolerance:.1e}"
        )
        ok = ok and report.passed
    return EXIT_OK if ok else EXIT_AUDIT_FAILURE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pxlaplace",
        description="Solve regularized p(x)-Laplace problems and audit the "
        "second-order estimates.",
        epilog="Expression convention: ^ is right-associative and binds tighter "
        "than unary minus, so -2^2 = -4.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_constants = sub.add_parser("constants", help="print the estimate constants")
    p_constants.add_argument("--n", type=int, required=True)
    p_constants.add_argument("--tminus", type=float, required=True)
    p_constants.add_argument("--tplus", type=float, required=True)
    p_constants.add_argument("--beta", type=float, required=True)
    p_constants.set_defaults(func=cmd_constants)

    for name, func, help_text in (
        ("solve", cmd_solve, "run the eps continuation and write the solution"),
        ("audit", cmd_audit, "run the configured estimate audits"),
        ("gehring", cmd_gehring, "search the largest admissible delta"),
    ):
        sub_parser = sub.add_parser(name, help=help_text)
        sub_parser.add_argument("--config", required=True)
        sub_parser.set_defaults(func=func)

    p_identities = sub.add_parser(
        "identities", help="random-polynomial checks of the structural identities"
    )
    p_identities.add_argument("--seed", type=int, default=0)
    p_identities.add_argument("--count", type=int, default=100)
    p_identities.set_defaults(func=cmd_identities)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ExpressionError, AdmissibilityError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as err:  # the output directory, or a file in it, cannot be written
        print(f"configuration error: cannot write the output: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (SolverError, AuditError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
