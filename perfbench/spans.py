"""In-memory span recorder that wraps the lab's functions from outside.

A function is wrapped where its caller looks it up: ``wrap(solver, "splu",
...)`` replaces the name ``splu`` in the ``solver`` module's namespace, so
every call the solver makes to it goes through the recorder while calls
made elsewhere do not.  Each span keeps its name, layer, start, end, parent
span and the operation it belongs to.  ``restore`` puts every original back.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Recorder:
    def __init__(self):
        self.spans = []  # [name, layer, start_ns, end_ns, parent, op]
        self.counts = defaultdict(Counter)  # op -> counter name -> value
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording ----------------------------------------------------------

    def call(self, name, layer, func, *args, **kwargs):
        """Run ``func`` inside a span."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, layer, 0, 0, parent, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[2] = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[self.op][name] += amount

    def wrap(self, owner, attr, name, layer, after=None):
        """Record a span around ``owner.attr``; ``after(result, args)`` may
        count from the result or return a replacement for it."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self.call(name, layer, original, *args, **kwargs)
            if after is not None:
                replaced = after(result, args)
                if replaced is not None:
                    result = replaced
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def per_op(self):
        """Per operation: inclusive seconds and calls per span name, self
        seconds per layer, and the counters."""
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        ops = defaultdict(
            lambda: {"inclusive_s": Counter(), "calls": Counter(), "self_s": Counter(), "counts": Counter()}
        )
        for index, (name, layer, start, end, parent, op) in enumerate(self.spans):
            entry = ops[op]
            entry["inclusive_s"][name] += (end - start) * 1e-9
            entry["calls"][name] += 1
            entry["self_s"][layer] += (end - start - child_ns[index]) * 1e-9
        for op, counts in self.counts.items():
            ops[op]["counts"].update(counts)
        return ops

    def write(self, path):
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, layer, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": layer,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
