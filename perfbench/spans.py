"""Timing spans recorded from outside the program.

``Tracer.wrap`` replaces a module attribute (``dfnvem.assembly.apply_bc``,
say) with a wrapper that records one span per call: its id, name, start,
end, parent span id and run id.  Callers that look the function up
through the module at call time go through the wrapper; a name that a
later refactor removed is skipped, and the metrics built on it are left
out.  Spans stay in memory until ``write`` saves them at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

FIELDS = ("id", "name", "start", "end", "parent", "run")


class Tracer:
    def __init__(self):
        self.spans = []                   # tuples laid out as FIELDS
        self.counts = defaultdict(float)  # (run, counter) -> value
        self.wrapped = set()
        self.run = 0
        self._stack = []                  # (span id, name) of open spans
        self._patches = []

    def _record(self, name, fn, args, kwargs, on_result):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.run)
        if on_result is not None:
            for key, val in (on_result(result, args, kwargs) or {}).items():
                self.counts[(self.run, key)] += val
        return result

    def wrap(self, module, attr: str, name: str, on_result=None) -> bool:
        """Record a span around every call of ``module.attr``.

        ``on_result(result, args, kwargs)`` may return counters to add to
        the current run.  Returns False when the attribute does not exist.
        """
        inner = getattr(module, attr, None)
        if inner is None:
            return False

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            return self._record(name, inner, args, kwargs, on_result)

        self._patches.append((module, attr, inner))
        setattr(module, attr, traced)
        self.wrapped.add(name)
        return True

    def parent_name(self):
        """Name of the innermost span still open, or None."""
        return self._stack[-1][1] if self._stack else None

    def restore(self):
        while self._patches:
            module, attr, inner = self._patches.pop()
            setattr(module, attr, inner)

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of a new run id."""
        self.run += 1
        return self._record(name, fn, args, {}, None)

    def count(self, run: int, key: str) -> float:
        return self.counts.get((run, key), 0.0)

    def _spans(self, run):
        return [s for s in self.spans if s is not None and s[5] == run]

    def total(self, run: int, names) -> float:
        """Seconds spent in spans named in ``names``, nested ones once."""
        spans = self._spans(run)
        name_of = {s[0]: s[1] for s in spans}
        return sum((s[3] - s[2] for s in spans
                    if s[1] in names and name_of.get(s[4]) not in names), 0.0)

    def self_time(self, run: int, names) -> float:
        """Seconds in spans named in ``names`` not covered by child spans."""
        spans = self._spans(run)
        child = defaultdict(float)
        for s in spans:
            child[s[4]] += s[3] - s[2]
        return sum((s[3] - s[2] - child[s[0]] for s in spans
                    if s[1] in names), 0.0)

    def calls(self, run: int, name: str) -> int:
        return sum(1 for s in self._spans(run) if s[1] == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS,
                       "spans": [s for s in self.spans if s is not None],
                       "counts": [[r, k, v] for (r, k), v in
                                  sorted(self.counts.items())]}, fh)
            fh.write("\n")
