"""In-memory span tracer for the benchmark's traced run.

The tracer wraps library functions from the outside, so the library
itself carries no instrumentation:

* a **span** wrapper records one span per call -- name, start, end,
  parent span and run id -- plus optional counters filled by a hook
  that sees the call's arguments and result.  Use it for chunk-level
  calls (a few per chunk);
* a **leaf** wrapper is for per-item calls (``SalsaRow.add`` runs about
  a million times on a churn stream).  A leaf call stores no span of
  its own: its count and time are added to the innermost open span.

Self time of a span is its duration minus the time covered by its
child spans and leaf calls, so nested wrapped calls are never counted
twice.  Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import gzip
import json
import sys
import time


class Span:
    """One traced call."""

    __slots__ = ("name", "start", "end", "parent", "run", "child",
                 "leaves", "counts")

    def __init__(self, name: str, parent: int, run: int):
        self.name = name
        self.parent = parent      # index into Tracer.spans, -1 at the root
        self.run = run
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0          # time covered by children and leaves
        self.leaves: dict[str, list] = {}   # leaf name -> [calls, seconds]
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Collects spans from wrapped functions.

    ``install`` replaces an attribute by its wrapper and remembers the
    original; ``uninstall`` puts every original back.  ``run`` is the
    id stamped on new spans (one per traced pass).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def span_wrapper(self, name: str, fn, count=None, root: bool = False):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``count(counts, args, kwargs, result)`` may add counters to the
        span after the call returns.  Only a ``root`` wrapper records a
        call made outside every open span; other wrappers pass such
        calls straight through, so work outside the measured calls
        (the benchmark's own checks) leaves no trace.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else -1, tracer.run)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child += span.end - span.start
            if count is not None:
                count(span.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf_wrapper(self, name: str, fn):
        """Wrap a per-item ``fn``: count and time go to the open span.

        A leaf called from inside another leaf is not counted again
        (its time is already inside the outer leaf's).
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_leaf or not stack:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._in_leaf = False
                top = spans[stack[-1]]
                entry = top.leaves.get(name)
                if entry is None:
                    top.leaves[name] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt
                top.child += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span; return ``(result, seconds)``.

        The benchmark opens one such span around every timed call, so
        leaf calls always have a parent and the spans' durations add up
        to the traced wall time.
        """
        index = len(self.spans)
        result = self.span_wrapper(name, fn, root=True)(*args)
        return result, self.spans[index].duration

    # -- patching ---------------------------------------------------------
    def install(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` with ``wrapper`` until uninstall."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install_function(self, fn, wrapper, prefix: str) -> int:
        """Replace ``fn`` in every loaded module under ``prefix`` that
        holds it -- its own module and every module that imported it by
        name.  Returns the number of modules patched."""
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix
                                      or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.install(module, attr, wrapper)
                    patched += 1
        return patched

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------
    def self_times(self, run: int | None = None) -> dict[str, float]:
        """Self time per span and leaf name (optionally one run only)."""
        out: dict[str, float] = {}
        for span in self.spans:
            if run is not None and span.run != run:
                continue
            out[span.name] = out.get(span.name, 0.0) + span.self_time
            for leaf, (_calls, secs) in span.leaves.items():
                out[leaf] = out.get(leaf, 0.0) + secs
        return out

    def dump(self, path) -> None:
        """Write every span as one gzipped JSON document."""
        rows = [[s.name, s.start, s.end, s.parent, s.run, s.leaves, s.counts]
                for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run",
                                  "leaves", "counts"],
                       "spans": rows}, fh)
