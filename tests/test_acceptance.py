"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from pxlaplace.audits import (
    ball_family,
    caccioppoli_audit,
    gehring_delta_search,
    pointwise_stretch_audit,
    quasiregularity_audit,
)
from pxlaplace.cli import main
from pxlaplace.constants import ExponentWindow, beta_star, constant_set, eta_star
from pxlaplace.diffops import StretchParams
from pxlaplace.expressions import parse_expression
from pxlaplace.fields import GridSpec, sample
from pxlaplace.fixtures import (
    FIXTURE_BALL_SEED,
    REGRESSION_GEHRING_BUDGET,
    caccioppoli_balls,
)
from pxlaplace.identities import run_identity_suite
from pxlaplace.solver import ProblemSpec, build_problem, solve_regularized

from manufactured import manufactured_rhs


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    return passed


def test_criterion_1_identity_suite():
    start = time.monotonic()
    reports = run_identity_suite(seed=20240807, count=100)
    elapsed = time.monotonic() - start
    ok = all(r.passed and r.tolerance == 1e-9 for r in reports) and elapsed < 10.0
    worst = {r.name: r.worst for r in reports}
    assert _report(
        1,
        "identity suite",
        ok,
        f"sigma2={worst['sigma2-structure']:.2e}, trace2d={worst['trace-identity-2d']:.2e}, "
        f"slack3d={worst['trace-inequality-3d']:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_constants():
    start = time.monotonic()
    exact_2d = all(beta_star(2, t) == -1.0 for t in (1.1, 2.0, 5.0, 10.0))
    at_threshold = all(abs(beta_star(n, 3.0 + 2.0 / (n - 2))) <= 1e-15 for n in (3, 4, 5))
    rng = np.random.default_rng(20240808)
    constraints_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        t_minus = float(rng.uniform(1.01, 5.0))
        t_plus = float(rng.uniform(t_minus, 6.0))
        critical = beta_star(n, t_plus)
        beta = float(critical + rng.uniform(1e-6, 3.0))
        eta = eta_star(ExponentWindow(t_minus, t_plus), n, beta)
        cap = 0.5 if beta >= 0 else 0.5 * min(
            1.0 + beta, (n - 1.0) / (-2.0 * beta) * (beta - critical)
        )
        a_ok = 0.0 < eta < cap
        mq = max((t_minus - 2.0) ** 2, (t_plus - 2.0) ** 2)
        b_ok = eta * mq < 0.5 * (n - 1.0) * (t_minus - 1.0) * (beta - critical)
        constraints_ok = constraints_ok and a_ok and b_ok
    elapsed = time.monotonic() - start
    ok = exact_2d and at_threshold and constraints_ok and elapsed < 1.0
    assert _report(
        2,
        "constants",
        ok,
        f"2d exact={exact_2d}, threshold={at_threshold}, constraints={constraints_ok}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_solver_order():
    start = time.monotonic()
    # quadratic manufactured solution with p = 2: reproduced to round-off by
    # the second-order stencils, so exactness is asserted there and the error
    # ratio is measured on the smooth manufactured solution
    u_quad = parse_expression("x1^2", 2)
    p2 = parse_expression("2", 2)
    f_quad = manufactured_rhs(u_quad, p2, 1e-2)
    quad_errors = {}
    for m in (33, 65):
        spec = ProblemSpec(GridSpec((0, 0), (1, 1), (m, m)), p2, f_quad, u_quad, eps=1e-2)
        result = solve_regularized(build_problem(spec))
        quad_errors[m] = float(np.abs(result.v.values - sample(u_quad, spec.grid).values).max())
    quad_ok = max(quad_errors.values()) < 1e-8

    u = parse_expression("sin(x1)*cos(x2)", 2)
    p = parse_expression("2 + 0.5*sin(x1)", 2)
    f = manufactured_rhs(u, p, 1e-2)
    errors = {}
    for m in (33, 65):
        spec = ProblemSpec(GridSpec((0, 0), (1, 1), (m, m)), p, f, u, eps=1e-2)
        result = solve_regularized(build_problem(spec))
        errors[m] = float(np.abs(result.v.values - sample(u, spec.grid).values).max())
    ratio = errors[33] / errors[65]
    elapsed = time.monotonic() - start
    ok = quad_ok and 3.2 <= ratio <= 4.8 and elapsed < 60.0
    assert _report(
        3,
        "solver order",
        ok,
        f"quadratic exact to {max(quad_errors.values()):.1e}, smooth ratio={ratio:.3f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_linear_exactness():
    start = time.monotonic()
    p = parse_expression("2 + 0.5*sin(x1)", 2)
    f0 = parse_expression("0", 2)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(3):
        a = rng.uniform(-2.0, 2.0, 2)
        boundary = parse_expression(f"{float(a[0])!r}*x1 + {float(a[1])!r}*x2", 2)
        spec = ProblemSpec(GridSpec((0, 0), (1, 1), (33, 33)), p, f0, boundary, eps=1e-2)
        result = solve_regularized(build_problem(spec))
        worst = max(worst, float(np.abs(result.v.values - sample(boundary, spec.grid).values).max()))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 10.0
    assert _report(4, "linear exactness", ok, f"worst error={worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_pointwise_audit(canonical_run):
    continuation, build_seconds = canonical_run
    start = time.monotonic()
    by_eps = {result.problem.eps: result for result in continuation.results}
    worst_overall = -np.inf
    all_pass = True
    for eps in (1e-2, 1e-3):
        result = by_eps[eps]
        prob = result.problem
        for beta in (0.0, 1.0):
            report = pointwise_stretch_audit(
                result.v, prob.p, prob.g, StretchParams(beta, eps), prob.window, kappa=10.0
            )
            worst_overall = max(worst_overall, report.worst)
            all_pass = all_pass and report.passed
    elapsed = time.monotonic() - start + build_seconds
    ok = all_pass and elapsed < 120.0
    assert _report(
        5,
        "pointwise stretch audit",
        ok,
        f"worst normalized residual={worst_overall:.2e} vs tol={10.0 * (1 / 64) ** 2:.2e}, "
        f"{elapsed:.2f}s incl. solve",
    )


def test_criterion_6_quasiregularity(canonical_run):
    continuation, build_seconds = canonical_run
    start = time.monotonic()
    saddle = sample(parse_expression("x1^2 - x2^2", 2), GridSpec((0, 0), (1, 1), (65, 65)))
    saddle_report = quasiregularity_audit(saddle, beta=0.0)
    saddle_ok = abs(saddle_report.worst - 2.0) <= 1e-9

    final = continuation.results[-1]
    window = final.problem.window
    sups = {}
    limit_ok = True
    for beta in (0.0, 1.0):
        budget = constant_set(window, 2, beta).c_star
        report = quasiregularity_audit(final.v, beta, budget=budget)
        sups[beta] = (report.worst, budget)
        limit_ok = limit_ok and report.passed
    elapsed = time.monotonic() - start + build_seconds
    ok = saddle_ok and limit_ok and elapsed < 120.0
    assert _report(
        6,
        "quasiregularity",
        ok,
        f"saddle K={saddle_report.worst:.12f}, limit sup K="
        + ", ".join(f"{k:.3f}<={b:.0f} (beta={beta:g})" for beta, (k, b) in sups.items())
        + f", {elapsed:.2f}s incl. solve",
    )


def test_criterion_7_caccioppoli(canonical_run):
    continuation, build_seconds = canonical_run
    start = time.monotonic()
    final = continuation.results[-1]
    prob = final.problem
    params = StretchParams(0.0, prob.eps)
    worst = 0.0
    all_pass = True
    for ball in caccioppoli_balls():
        report = caccioppoli_audit(final.v, prob.p, prob.g, params, prob.window, ball)
        worst = max(worst, report.worst)
        all_pass = all_pass and report.passed
    elapsed = time.monotonic() - start + build_seconds
    ok = all_pass and worst <= 1.0 and elapsed < 60.0
    assert _report(
        7, "caccioppoli", ok, f"worst ratio={worst:.3e} over 5 balls, {elapsed:.2f}s incl. solve"
    )


def test_criterion_8_gehring(canonical_run):
    continuation, build_seconds = canonical_run
    start = time.monotonic()
    final = continuation.results[-1]
    balls = ball_family(final.problem.grid, r_max=0.3, seed=FIXTURE_BALL_SEED)
    result = gehring_delta_search(
        final.v, final.problem.f, 0.0, balls, c_target=REGRESSION_GEHRING_BUDGET
    )
    elapsed = time.monotonic() - start + build_seconds
    ok = result.feasible_at_zero and result.delta >= 0.05 and elapsed < 120.0
    assert _report(
        8,
        "gehring delta search",
        ok,
        f"delta={result.delta:.3f}, worst ratio={result.worst_ratio:.4f}, "
        f"budget={REGRESSION_GEHRING_BUDGET}, {elapsed:.2f}s incl. solve",
    )


DETERMINISM_CONFIG = """\
[problem]
dimension = 2
points = 33 33
p = "2 + 0.5*sin(x1)"
f = "0"
boundary = "x1^2 - x2^2"
eps_schedule = 0.1 0.01 0.001

[audit]
audits = pointwise quasiregularity caccioppoli
betas = 0 1
ball_center = 0.5 0.5
ball_radii = 0.15 0.25
c_target = 3.36
seed = 7

[output]
directory = {outdir}
"""


def test_criterion_9_determinism(tmp_path):
    start = time.monotonic()
    outputs = []
    for tag in ("one", "two"):
        outdir = tmp_path / tag
        path = tmp_path / f"{tag}.cfg"
        path.write_text(DETERMINISM_CONFIG.format(outdir=outdir))
        assert main(["audit", "--config", str(path)]) == 0
        assert main(["gehring", "--config", str(path)]) == 0
        outputs.append(
            {
                name: (outdir / name).read_bytes()
                for name in ("reports.csv", "gehring.csv", "gehring_1.csv")
            }
        )
    identical = outputs[0] == outputs[1]
    elapsed = time.monotonic() - start
    assert _report(9, "determinism", identical, f"3 CSV files byte-identical, {elapsed:.2f}s")
