"""In-memory span recorder that wraps module attributes from outside.

`Tracer.wrap` replaces a function attribute of a module or class with one
that records a span (name, start, end, parent) around each call; callers
that look the attribute up at call time, as blockgen's modules do, then go
through the wrapper. `Tracer.restore` puts every original back. Spans are
kept in memory and written out by `dump` once the run is over.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int     # -1 at the root

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}        # (counter, enclosing span name) -> calls
        self._stack = []
        self._saved = []        # (owner, attribute, original) in wrap order

    @property
    def current(self):
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        self.spans.append(Span(sid, name, time.perf_counter(), float("nan"),
                               self._stack[-1] if self._stack else -1))
        self._stack.append(sid)
        try:
            yield self.spans[sid]
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    def _replace(self, owner, attr, make):
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def wrap(self, owner, attr, name, on_enter=None):
        """Record a span named `name` around every call of owner.attr;
        `on_enter(*args, **kwargs)` runs first, inside the span."""
        def make(fn):
            def traced(*args, **kwargs):
                with self.span(name):
                    if on_enter is not None:
                        on_enter(*args, **kwargs)
                    return fn(*args, **kwargs)
            return traced
        self._replace(owner, attr, make)

    def count(self, owner, attr, name):
        """Count calls of owner.attr by the innermost open span's name."""
        def make(fn):
            def counted(*args, **kwargs):
                key = (name, self.current)
                self.counts[key] = self.counts.get(key, 0) + 1
                return fn(*args, **kwargs)
            return counted
        self._replace(owner, attr, make)

    def wrapped(self):
        """(owner, attribute, original) of every wrapped attribute."""
        return list(self._saved)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def children(self, span):
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span):
        """Duration minus what the direct children cover; children of one
        span never overlap because the program runs on one thread."""
        return span.duration - sum(c.duration for c in self.children(span))

    def under(self, root, name):
        """Spans named `name` anywhere below `root`."""
        ids = {root.id}
        found = []
        for s in self.spans[root.id + 1:]:
            if s.parent in ids:
                ids.add(s.id)
                if s.name == name:
                    found.append(s)
        return found

    def total(self, root, name):
        return sum(s.duration for s in self.under(root, name))

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": [[k[0], k[1], v] for k, v in self.counts.items()]}, f)
