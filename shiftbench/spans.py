"""In-memory span recorder that wraps shiftlab's public functions from outside.

A traced run patches each wrapped name where its caller binds it (for
example ``cli.densify``, because ``cli`` imports ``densify`` directly) and
records one span per call: name, round, parent span, start and end in ns.
Spans stay in memory while the benchmark runs and are written out once
at the end.  Recording is switched per round, so one process can compare
traced rounds against untraced ones.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time


class Recorder:
    def __init__(self):
        # one column per field, so that recording allocates no per-span
        # container for the garbage collector to scan
        self.names: list[str] = []
        self.rounds: list = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counters: dict[tuple[str, object], int] = {}
        self.round: object = None
        self.on = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- installing wrappers ------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a recording wrapper.

        `after(args, result)` may return a count added to the counter
        `name` + "_count" for the current round (e.g. bytes written).
        """
        orig = getattr(owner, attr)
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return orig(*args, **kwargs)
            with rec.span(name):
                result = orig(*args, **kwargs)
            if after is not None:
                key = (name + "_count", rec.round)
                rec.counters[key] = rec.counters.get(key, 0) + after(args, result)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body when recording is on."""
        if not self.on:
            yield
            return
        idx = len(self.names)
        self.names.append(name)
        self.rounds.append(self.round)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ---- reading spans back -------------------------------------------------

    def totals(self, round_id, root: str | None = None) -> dict[str, dict[str, float]]:
        """Per name for one round: calls, total ms, self ms (children removed).

        With `root`, only spans whose outermost ancestor is named `root`.
        """
        n = len(self.names)
        child_ns = [0] * n
        top = list(range(n))
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
                top[i] = top[parent]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            if self.rounds[i] != round_id or (root is not None
                                              and self.names[top[i]] != root):
                continue
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(self.names[i], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["ms"] += dur / 1e6
            agg["self_ms"] += (dur - child_ns[i]) / 1e6
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, in call order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i in range(len(self.names)):
                fh.write(json.dumps({"id": i, "name": self.names[i],
                                     "round": self.rounds[i],
                                     "parent": self.parents[i],
                                     "start_ns": self.starts[i],
                                     "end_ns": self.ends[i]}) + "\n")
