"""In-memory span recorder and the check counter shared by every workload.

A span has a name, a start, an end, a parent span and the id of the item it
belongs to. Spans nest strictly (one thread, stack discipline), so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = perf_counter()
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        out = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def roots(self) -> list[int]:
        """Index of the root span above each span (parents precede children)."""
        out = []
        for i, p in enumerate(self.parents):
            out.append(i if p < 0 else out[p])
        return out

    def by_name(self, root_set: set) -> dict:
        """name -> (total self seconds, list of durations) over the spans
        whose root is in root_set."""
        selfs = self.self_times()
        roots = self.roots()
        out: dict = {}
        for i, name in enumerate(self.names):
            if roots[i] not in root_set:
                continue
            total, durs = out.get(name, (0.0, []))
            durs.append(self.ends[i] - self.starts[i])
            out[name] = (total + selfs[i], durs)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.items):
                fh.write(json.dumps(row) + "\n")


class Checks:
    """Counts exact identity checks; keeps the first failing witness."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def __call__(self, ok: bool, *witness) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = [str(w) for w in witness]
