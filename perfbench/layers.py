"""Where the traced run wraps the lab, and the per-layer metrics it reports.

Spans are named after the work (``solver.factorize`` around ``splu``) and
carry the layer that does it.  Layers are the repository's modules;
``scipy`` holds the sparse LU factorization and triangular solves, and
``bench`` the benchmark's own code around an operation, so that a module's
self time is the time spent in its own code.  Counters are read from the
objects the lab returns: the SuperLU factor, the SolveResult of every eps
level, and the files the CSV writers leave behind.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter

from pxlaplace import audits, cli, config, constants, expressions, solver

from spans import Recorder

#: The repository's modules that run code (``fixtures`` holds data only, and
#: no workload calls ``identities``).
LAYERS = ("cli", "config", "expressions", "fields", "solver", "diffops", "audits", "constants")

DIFFOPS_IN_AUDITS = (
    "gradient",
    "hessian",
    "stretched_jacobian_values",
    "stretched_gradient_values",
    "sigma2_values",
    "frobenius_sq",
    "infinity_laplacian_values",
)
AUDITS = (
    "pointwise_stretch_audit",
    "quasiregularity_audit",
    "caccioppoli_audit",
    "gehring_delta_search",
    "ball_family",
)
CSV_WRITERS = ("write_field_csv", "write_reports_csv", "write_gehring_csv")


class _CountedLU:
    """The factor ``splu`` returned, with its triangular solves recorded."""

    def __init__(self, lu, recorder):
        self._lu = lu
        self._recorder = recorder

    def solve(self, *args, **kwargs):
        return self._recorder.call("solver.lu_solve", "scipy", self._lu.solve, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def instrument():
    """Wrap every layer boundary the workloads cross; returns the recorder."""
    rec = Recorder()

    def factor(lu, args):
        counts = rec.counts[rec.op]
        counts["solver.lu_nnz"] = max(counts["solver.lu_nnz"], int(lu.nnz))
        return _CountedLU(lu, rec)

    def sweeps(result, args):
        counts = rec.counts[rec.op]
        counts["solver.sweeps"] += result.iterations
        counts["solver.sweeps_max"] = max(counts["solver.sweeps_max"], result.iterations)
        if result.converged:
            counts["solver.converged_sweeps"] += result.iterations
        else:
            counts["solver.failed_levels"] += 1

    def written(result, args):
        rec.count("cli.bytes_written", os.path.getsize(args[1]))

    rec.wrap(cli, "main", "cli.main", "cli")
    rec.wrap(cli, "load_config", "config.load_config", "config")
    rec.wrap(cli, "epsilon_continuation", "solver.epsilon_continuation", "solver")
    rec.wrap(cli, "constant_set", "constants.constant_set", "constants")
    for name in AUDITS:
        rec.wrap(cli, name, f"audits.{name}", "audits")
        rec.wrap(audits, name, f"audits.{name}", "audits")
    for name in CSV_WRITERS:
        rec.wrap(cli, name, f"cli.{name}", "cli", after=written)

    rec.wrap(config, "parse_expression", "expressions.parse_expression", "expressions")
    rec.wrap(config, "sample", "fields.sample", "fields")
    rec.wrap(config, "beta_star", "constants.beta_star", "constants")
    rec.wrap(expressions.Expression, "evaluate_array", "expressions.evaluate_array", "expressions")

    rec.wrap(solver, "build_problem", "solver.build_problem", "solver")
    rec.wrap(solver, "solve_regularized", "solver.solve_regularized", "solver", after=sweeps)
    rec.wrap(solver, "assemble_frozen_operator", "solver.assemble", "solver")
    rec.wrap(solver, "splu", "solver.factorize", "scipy", after=factor)
    rec.wrap(solver, "gradient", "diffops.gradient", "diffops")
    for name in ("sample", "mollify", "ball_mask"):
        rec.wrap(solver, name, f"fields.{name}", "fields")

    for name in DIFFOPS_IN_AUDITS:
        rec.wrap(audits, name, f"diffops.{name}", "diffops")
    for name in ("ball_mask", "cutoff", "require_inside"):
        rec.wrap(audits, name, f"fields.{name}", "fields")
    rec.wrap(audits, "constant_set", "constants.constant_set", "constants")
    rec.wrap(constants, "constant_set", "constants.constant_set", "constants")
    return rec


def _repeat_problems(ops, keys):
    """Every integer counter must repeat exactly across operations of one key."""
    first = {}
    problems = []
    for index, (op, key) in enumerate(zip(ops, keys)):
        counters = (op["calls"], op["counts"])
        if key not in first:
            first[key] = (index, counters)
        elif counters != first[key][1]:
            problems.append(f"{key}: operation {index} differs from operation {first[key][0]}")
    return problems


def metrics(recorder, records, untraced_op_s):
    """Per-layer metrics, one operation's worth (mean over the traced
    operations, which are whole cycles of the workload)."""
    per_op = recorder.per_op()
    ops = [per_op[index] for index in range(len(records))]

    def mean(part, *names):
        return statistics.fmean(sum(op[part][name] for name in names) for op in ops)

    def inclusive(*names):
        return mean("inclusive_s", *names), "s"

    def calls(name):
        return mean("calls", name), "count"

    def count(name, unit="count"):
        return mean("counts", name), unit

    sweeps = sum(op["counts"]["solver.sweeps"] for op in ops)
    converged = sum(op["counts"]["solver.converged_sweeps"] for op in ops)
    traced_p50 = statistics.median(seconds for _, seconds, _ in records)
    untraced_p50 = statistics.median(untraced_op_s)
    out = {
        "solver.factorize_s": inclusive("solver.factorize"),
        "solver.factorize_calls": calls("solver.factorize"),
        "solver.lu_solve_calls": calls("solver.lu_solve"),
        "solver.lu_solve_s": inclusive("solver.lu_solve"),
        "solver.lu_nnz": count("solver.lu_nnz"),
        "solver.sweeps": count("solver.sweeps"),
        "solver.sweeps_max": count("solver.sweeps_max"),
        "solver.converged_sweep_share": (converged / sweeps if sweeps else 0.0, "share"),
        "solver.failed_levels": count("solver.failed_levels"),
        "solver.assemble_s": inclusive("solver.assemble"),
        "solver.assemble_calls": calls("solver.assemble"),
        "solver.continuation_s": inclusive("solver.epsilon_continuation"),
        "solver.build_problem_s": inclusive("solver.build_problem"),
        "fields.sample_s": inclusive("fields.sample"),
        "fields.mollify_s": inclusive("fields.mollify"),
        "fields.cutoff_s": inclusive("fields.cutoff"),
        "fields.ball_mask_calls": calls("fields.ball_mask"),
        "diffops.gradient_calls": calls("diffops.gradient"),
        "diffops.hessian_calls": calls("diffops.hessian"),
        "diffops.gradient_s": inclusive("diffops.gradient"),
        "diffops.hessian_s": inclusive("diffops.hessian"),
        "diffops.stretched_jacobian_s": inclusive("diffops.stretched_jacobian_values"),
        "audits.pointwise_s": inclusive("audits.pointwise_stretch_audit"),
        "audits.quasiregularity_s": inclusive("audits.quasiregularity_audit"),
        "audits.caccioppoli_s": inclusive("audits.caccioppoli_audit"),
        "audits.gehring_s": inclusive("audits.gehring_delta_search"),
        "cli.write_csv_s": inclusive(*(f"cli.{name}" for name in CSV_WRITERS)),
        "cli.bytes_written": count("cli.bytes_written", "bytes"),
        "config.load_s": inclusive("config.load_config"),
        "expressions.evaluate_array_s": inclusive("expressions.evaluate_array"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (mean("self_s", layer), "s")
    out["trace.op_s_p50"] = (traced_p50, "s")
    out["trace.untraced_op_s_p50"] = (untraced_p50, "s")
    out["trace.overhead_share"] = (traced_p50 / untraced_p50 - 1.0, "share")

    keys = [key for key, _, _ in records]
    return out, _repeat_problems(ops, keys), _breakdown(ops)


def _breakdown(ops):
    """Self time per layer and inclusive time per span, as shares of the
    mean traced operation."""
    layers = Counter()
    spans = Counter()
    for op in ops:
        layers.update(op["self_s"])
        spans.update(op["inclusive_s"])
    op_s = spans["bench.op"] / len(ops)
    lines = [f"self time per operation (mean traced operation {op_s:.4f} s):"]
    for layer, total in layers.most_common():
        seconds = total / len(ops)
        lines.append(f"  {layer:<12} {seconds:10.4f} s  {seconds / op_s:6.1%}")
    lines.append("inclusive time per operation, top spans:")
    for name, total in spans.most_common(12):
        seconds = total / len(ops)
        lines.append(f"  {name:<36} {seconds:10.4f} s  {seconds / op_s:6.1%}")
    return "\n".join(lines)
