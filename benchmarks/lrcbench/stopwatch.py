"""Stopwatch spans: the benchmark's only instrument.

The harness measures every layer from outside — a span around each call
into a public function — so nothing under ``src/`` knows it is being
timed. Spans nest; a layer's *self time* is its span's duration minus
what its child spans cover, so the self times of one pass add up to the
pass's wall time exactly. Durations the program already reports about
itself (``manifest["timings_s"]``) are attached as child spans with
:meth:`Stopwatch.attribute`, which splits an opaque ``Engine.run()``
span into replay, plan binding and result assembly without touching it.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Stopwatch:
    """Records ``[name, start, end, parent, scope]`` span rows.

    A disabled stopwatch records nothing, so the untraced passes run
    the same code as the traced ones.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []
        #: ``(scope, name) -> total``: work counted at the same
        #: boundaries the spans sit on.
        self.counts: Dict[tuple, float] = {}
        self._stack: List[int] = []
        #: Label stamped on every span: ``"<workload>/<pass id>"``.
        self.scope = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), 0.0, parent, self.scope]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def attribute(self, name: str, seconds: float) -> None:
        """Record ``seconds`` the program reported as a child of the open span.

        The true start is unknown, so the child is anchored at the
        parent's start; only its duration is used.
        """
        if not self.enabled or not self._stack:
            return
        parent = self._stack[-1]
        start = self.spans[parent][1]
        self.spans.append([name, start, start + seconds, parent, self.scope])

    def clear(self) -> None:
        self.spans = []
        self.counts = {}
        self._stack = []

    def count(self, name: str, amount: float) -> None:
        if self.enabled:
            key = (self.scope, name)
            self.counts[key] = self.counts.get(key, 0) + amount

    def scope_totals(self, scope: str) -> Dict[str, float]:
        """Self seconds per span name plus the counts, for one scope."""
        spans = self.spans
        durations = [row[2] - row[1] for row in spans]
        own = list(durations)
        for row, duration in zip(spans, durations):
            if row[3] >= 0:
                own[row[3]] -= duration
        totals: Dict[str, float] = {}
        for row, seconds in zip(spans, own):
            if row[4] == scope:
                totals[row[0]] = totals.get(row[0], 0.0) + seconds
        for (count_scope, name), amount in self.counts.items():
            if count_scope == scope:
                totals[name] = amount
        return totals

    def to_rows(self) -> List[Dict[str, object]]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "scope": scope}
            for n, s, e, p, scope in self.spans
        ]
