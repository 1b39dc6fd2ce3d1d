"""Spans and counts recorded around the benchmark's calls into germkit.

A span is (name, start, end, parent span id, rung id); the spans of one rung
share the rung id.  Counts are recorded at the same call sites.  Everything
is kept in memory and written out once, when the run ends.
"""

import json
import time


class NullTracer:
    """Tracing off: call through, record nothing."""

    rung = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self.rung = None

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.rung)

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def total(self, *names):
        """Summed duration of the spans with any of these names."""
        return sum(t1 - t0 for name, t0, t1, _, _ in self.spans if name in names)

    def by_rung(self, name):
        out = {}
        for n, t0, t1, _, rung in self.spans:
            if n == name:
                out[rung] = out.get(rung, 0.0) + (t1 - t0)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "spans": [
                    {"id": i, "name": n, "start": t0, "end": t1, "parent": p, "rung": r}
                    for i, (n, t0, t1, p, r) in enumerate(self.spans)
                ],
                "counts": self.counts,
            }, fh)
