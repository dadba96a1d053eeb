"""The benchmark's traced run wraps lab functions by name.

``perfbench/layers.py`` replaces module attributes (``solver.splu``,
``solver.gradient``, ``cli.epsilon_continuation`` ...) with recording
wrappers and puts them back afterwards.  A refactor that removes or renames
one of them breaks ``perfbench/run.py --trace 1``; this test catches that
without running the benchmark.  The untraced run gates every operation on
its workload's check; the last test runs that gate once per workload.
"""

import importlib
from pathlib import Path

import pytest

from pxlaplace import audits, cli, config, constants, expressions, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

OWNERS = {
    "audits": audits,
    "cli": cli,
    "config": config,
    "constants": constants,
    "Expression": expressions.Expression,
    "solver": solver,
}

#: Solver names the traced run must find.
SOLVER_NAMES = (
    "gradient",
    "assemble_frozen_operator",
    "splu",
    "solve_regularized",
    "build_problem",
    "sample",
    "mollify",
    "ball_mask",
)

#: Names the traced run wraps around the per-ball audits and the writers.
AUDIT_AND_WRITER_NAMES = (
    ("audits", "cutoff"),
    ("audits", "ball_mask"),
    ("audits", "require_inside"),
    ("cli", "write_field_csv"),
)


def attributes():
    return {
        (owner_name, attr): value
        for owner_name, owner in OWNERS.items()
        for attr, value in vars(owner).items()
    }


def test_traced_run_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    before = attributes()
    recorder = layers.instrument()
    try:
        during = attributes()
    finally:
        recorder.restore()
    after = attributes()
    assert during.keys() == before.keys()
    wrapped = {key for key, value in during.items() if value is not before[key]}
    assert {("solver", name) for name in SOLVER_NAMES} <= wrapped
    assert ("cli", "epsilon_continuation") in wrapped
    assert set(AUDIT_AND_WRITER_NAMES) <= wrapped
    assert ("audits", "infinity_laplacian_values") in wrapped
    assert all(after[key] is before[key] for key in before)


def test_audit_and_writer_names_exist():
    # checked without instrumenting, so a missing name fails here by name
    # instead of as an AttributeError inside the traced run
    present = attributes()
    for key in AUDIT_AND_WRITER_NAMES:
        assert key in present, f"the traced run wraps {key}, which no longer exists"


@pytest.mark.parametrize("name", ["fixture-129", "ladder-65", "cube-17", "battery-129"])
def test_workload_gate_passes(monkeypatch, tmp_path, name):
    # ``perfbench/run.py``'s rule on one operation per key: its problem list
    # is empty or is exactly the workload's known failure.  This runs what
    # the benchmark runs, so a changed return type breaks it here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    # a command line workload hooks ``cli.epsilon_continuation``; put it back
    monkeypatch.setattr(cli, "epsilon_continuation", cli.epsilon_continuation)
    workload = workloads.make(name, 0, tmp_path)
    workload.setup()
    for key in workload.keys:
        problems = workload.check(key, workload.run(key))
        assert problems == [] or problems == workload.known_failures.get(key), (key, problems)
