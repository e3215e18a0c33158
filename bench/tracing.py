"""In-memory spans around the benchmark's calls into each redic module.

A span is ``[id, name, start, end, parent, attrs]`` with ``perf_counter``
times.  Spans recorded in pool workers are adopted by the parent with the
span that waited for them as their parent; ``perf_counter`` is the system
monotonic clock on Linux, so worker and parent times share one time line.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, ATTRS = 1, 2, 3, 4, 5


class Tracer:
    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span; the yielded dict takes attributes known only at the end."""
        sid = len(self.spans)
        rec = [sid, name, perf_counter(), None, self._stack[-1] if self._stack else None, attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield attrs
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def adopt(self, worker_spans) -> None:
        """Attach ``(name, start, end, attrs)`` spans recorded elsewhere under
        the current span."""
        parent = self._stack[-1] if self._stack else None
        for name, start, end, attrs in worker_spans:
            self.spans.append([len(self.spans), name, start, end, parent, attrs])

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s[PARENT] is not None:
                children.setdefault(s[PARENT], []).append((s[START], s[END]))
        out = []
        for s in self.spans:
            covered = 0.0
            reach = s[START]
            for a, b in sorted(children.get(s[0], ())):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(s[END] - s[START] - covered)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id, **attrs}) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced passes: calls go straight through."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
