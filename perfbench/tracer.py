"""In-memory spans and counters around prelie's public functions.

The tracer replaces a function at run time and rebinds every name that
refers to it, in every loaded module, so that calls made through
`from .x import f` bindings are seen too (for example
`suites.enumerate_rb_operators`, `rota_baxter.run_chunks` and
`cli.run_suite`).  `uninstall` puts every original back.

Spans are kept in a list and written out only when the run ends.  A span
is `[name, start, end, parent, request, info]`; `parent` is the index of
the enclosing span or -1.  Spans are recorded in the calling process only,
so traced runs use one worker: forked workers do not report back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def rebind(self, original, replacement) -> None:
        """Point every module-level name bound to `original` at
        `replacement`."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def span(self, module, attr: str, name: str, info=None) -> None:
        """Record a span around every call of `module.attr`.  `info`, if
        given, maps (args, kwargs, result) to a value stored on the span."""
        original = getattr(module, attr)
        self.rebind(original, self._span_wrapper(name, original, info))

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls of `owner.attr`; `owner` is a module or a class."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        if isinstance(owner, type):
            setattr(owner, attr, counted)
            self._undo.append((owner, attr, original))
        else:
            self.rebind(original, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _span_wrapper(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      self.request, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    record[INFO] = info(args, kwargs, result)
                return result
            finally:
                record[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap(self, name: str, fn):
        """A span-recording version of `fn` for a single call site."""
        return self._span_wrapper(name, fn)

    # ------------------------------------------------------------ summaries

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus the time its direct
        children cover (children of one span never overlap, since the
        traced code runs in one thread)."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[NAME]] += s[END] - s[START]
        return out

    def calls(self) -> Counter:
        return Counter(s[NAME] for s in self.spans)

    def ancestor(self, index: int, names) -> int:
        """Index of the nearest enclosing span named in `names`, or -1."""
        parent = self.spans[index][PARENT]
        while parent >= 0 and self.spans[parent][NAME] not in names:
            parent = self.spans[parent][PARENT]
        return parent

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request", "info"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh, default=repr)
