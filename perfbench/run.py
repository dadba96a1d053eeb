"""Closed-loop benchmark of the pxlaplace lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the lab is imported from ``src/``.  One
client in one process runs the workload's operations back to back for
``--seconds`` (whole cycles of the workload's operations, at least one), and
gates every operation for correctness.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the timed loop is followed by a traced loop of at least two
cycles, and the JSON object carries the per-layer metrics instead.  Spans
and outputs go to ``.perfbench_out/`` in the checkout.  See README.md for
the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import os
import sys

# Pin every thread pool before numpy loads: one client, one thread.
THREAD_VARS = ("PXLAPLACE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _key in THREAD_VARS:
    os.environ[_key] = "1"

# Pin glibc malloc so freed blocks up to 32 MiB stay in the process.  By
# default each 129^2 LU factor is mmapped and unmapped again, about 330k
# page faults per fixture-129 operation, and on a virtual machine their cost
# follows the host's memory state: it moved op_s_p50 by up to 20% between
# runs.  The variable is read at process start, hence the re-exec.
MALLOC_PIN = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967296"
if __name__ == "__main__" and os.environ.get("GLIBC_TUNABLES") != MALLOC_PIN:
    os.environ["GLIBC_TUNABLES"] = MALLOC_PIN
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import pxlaplace.cli; "
    "print(time.perf_counter() - start)"
)


def import_seconds():
    """Import time of the lab's command line module in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout.split()[-1])


def closed_loop(workload, seconds, min_cycles, recorder=None):
    """Run whole cycles of the workload's operations, each after the last
    has finished, until ``seconds`` have passed and ``min_cycles`` are done.
    Returns ``(key, seconds, problems)`` per operation."""
    records = []
    start = time.perf_counter()
    cycles = 0
    while cycles < min_cycles or time.perf_counter() - start < seconds:
        for key in workload.keys:
            if recorder is not None:
                recorder.op = len(records)
            began = time.perf_counter()
            try:
                if recorder is None:
                    outcome = workload.run(key)
                else:
                    outcome = recorder.call("bench.op", "bench", workload.run, key)
            except Exception:  # an operation that raises counts as failed
                elapsed = time.perf_counter() - began
                problems = [traceback.format_exc()]
            else:
                elapsed = time.perf_counter() - began
                problems = workload.check(key, outcome)
            if recorder is not None:
                recorder.op = None
            records.append((key, elapsed, problems))
        cycles += 1
    return records


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {key: os.environ[key] for key in THREAD_VARS},
    }


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pxlaplace" / "__init__.py").is_file():
        print(f"error: no lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    workload = workloads.make(args.workload, args.seed, outdir)

    # Set-up: imports in a fresh interpreter, config load and warm-up
    # (battery-129: the 129^2 solve); the median of SETUP_REPEATS.
    setups = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        began = time.perf_counter()
        workload.setup()
        setups.append(imports + time.perf_counter() - began)
    setup_s = statistics.median(setups)

    records = closed_loop(workload, args.seconds, min_cycles=1)
    op_s = [seconds for _, seconds, _ in records]
    repeat_problems = []
    if args.trace:
        recorder = layers.instrument()
        try:
            traced = closed_loop(workload, args.seconds, min_cycles=2, recorder=recorder)
        finally:
            recorder.restore()
        recorder.write(outdir / "spans.jsonl")
        metrics, repeat_problems, breakdown = layers.metrics(recorder, traced, op_s)
        records += traced
    else:
        metrics = {
            "op_s_p50": (statistics.median(op_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }

    failed = [(key, problems) for key, _, problems in records if problems]
    # A known defect still counts in ``failed``; only another finding, or
    # counters that do not repeat, make the run incorrect.
    unexpected = [key for key, problems in failed if problems != workload.known_failures.get(key)]
    correct = not unexpected and not repeat_problems

    info = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"environment: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
        f"numpy={info['numpy']} scipy={info['scipy']} threads={info['threads']}"
    )
    print(
        f"warm-up: set-up ends with a coarse run of the same operation (battery-129: one "
        f"untimed operation); set-up ran {SETUP_REPEATS} times: "
        + " ".join(f"{s:.3f}" for s in setups)
    )
    print(f"operations: {len(op_s)} timed, closed loop, one client")
    if len(op_s) >= 100:
        print(f"op_s_p90 = {percentile(op_s, 0.9):.6f} s")
    print(f"failed_op_share = {len(failed)}/{len(records)} = {len(failed) / len(records):.4f}")
    for key, problems in failed:
        known = " (known defect)" if problems == workload.known_failures.get(key) else ""
        print(f"failed{known}: {key}: {problems[0].strip().splitlines()[-1]}")
    for problem in repeat_problems:
        print(f"counter mismatch: {problem}")
    if args.trace:
        print(breakdown)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
