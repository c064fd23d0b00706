"""In-memory spans taken around the benchmark's calls into the package.

A span records its name, start, end and the span that was open when it
began.  Nothing inside the package is instrumented: spans wrap public calls
and the strategy callables the benchmark hands to ``play`` and
``pull_back_strategy``, so a layer's self time is its span's duration minus
the time covered by spans opened inside it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, self._open[-1] if self._open else -1))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent = self.spans[idx]
            self.spans[idx] = (name, start, perf_counter(), parent)

    def wrap(self, name: str, fn):
        def traced(*args):
            with self.span(name):
                return fn(*args)
        return traced

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            own[name] += end - start - inner
        return total, own

    def dump(self, path, stamp: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(stamp, sort_keys=True) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")


class NullTracer:
    """The untraced run: the same call sites, no records."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn):
        return fn

    def count(self, name: str, n: float = 1) -> None:
        pass
