"""Regenerate ``reference.json``: the final solution of every reference case.

    python3 perfbench/make_reference.py

Solves each case through the same config path as ``pxlaplace audit`` and
keeps the solution at every ``stride``-th node.  The reference does not
depend on the workload seed, which only moves the audit balls.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # pins the thread pools before numpy loads

sys.path.insert(0, str(run.SRC))

from pxlaplace import cli, solver  # noqa: E402

import workloads  # noqa: E402


def main():
    references = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, (case, stride) in workloads.REFERENCE_CASES.items():
            path = Path(tmp) / "case.cfg"
            center = (0.5,) * case.dimension
            path.write_text(workloads.config_text(case, case.points, center, case.radii, 0, tmp))
            cfg = cli.load_config(str(path))
            continuation = solver.epsilon_continuation(cfg.problem, cfg.schedule)
            values = workloads.subsample(continuation.results[-1].v.values, stride)
            references[key] = {"stride": stride, "values": values.tolist()}
            print(f"{key}: {values.size} values", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=None)
        handle.write("\n")


if __name__ == "__main__":
    main()
