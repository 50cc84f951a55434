"""In-memory spans for the traced benchmark run, and their rollup.

The traced run wraps calls into each layer's public functions from the
benchmark's own files (nothing under ``src/`` is touched).  A span is
``(id, name, start, end, parent)``; its layer is the name's first
dotted component.  A layer's self time is the part of its spans'
intervals that no child span covers, so a ``DecisionTreeClassifier.fit``
inside ``bayesopt.suggest`` is suggest time: fits inside suggest are not
recorded at all, which attributes them to their parent.

Per-packet calls (feature extraction) are recorded as bare
``(start, end, parent)`` intervals instead of span records, so that the
per-packet cost of tracing stays at two clock reads and a parent lookup.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: Spans opened while one of these is active on the same thread are not
#: recorded: their time is the enclosing span's self time.
ABSORBING = ("bayesopt.suggest",)


class Tracer:
    """Records spans while :attr:`enabled`; one root span at a time."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list = []           # [id, name, start, end, parent]
        self.intervals: dict = defaultdict(
            lambda: (array("d"), array("d"), array("q")))
        self.counts: dict = defaultdict(float)
        self.root = None
        self._ids = itertools.count()
        self._local = threading.local()

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()
        # In place: wrap_interval closures hold these arrays.
        for arrays in self.intervals.values():
            for values in arrays:
                del values[:]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def absorbed(self) -> bool:
        return any(name in ABSORBING for _, name in self._stack())

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        # Spans on threads with no open span (executor threads) hang
        # under the root span of the operation being traced.
        parent = stack[-1][0] if stack else self.root
        span_id = next(self._ids)
        record = [span_id, name, time.perf_counter(), 0.0, parent]
        stack.append((span_id, name))
        if root:
            self.root = span_id
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            stack.pop()
            if root:
                self.root = None
            self.spans.append(record)

    def wrap(self, func, name: str, on_call=None):
        """``func`` recorded as span ``name`` while tracing is on.

        ``on_call(args, kwargs, result, seconds)`` may add counts from
        the call.
        """
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled or tracer.absorbed():
                return func(*args, **kwargs)
            # :meth:`span` inlined: the clock reads sit right around the
            # call, so little of the wrapper's own time falls outside.
            stack = tracer._stack()
            span_id = next(tracer._ids)
            record = [span_id, name, 0.0, 0.0,
                      stack[-1][0] if stack else tracer.root]
            stack.append((span_id, name))
            record[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                tracer.spans.append(record)
            if on_call is not None:
                on_call(args, kwargs, result, record[3] - record[2])
            return result

        traced.__wrapped__ = func
        return traced

    def wrap_interval(self, func, name: str):
        """``func`` recorded as a bare interval (per-packet calls).

        Its parent is the innermost open span on the calling thread.
        """
        starts, ends, parents = self.intervals[name]
        clock = time.perf_counter
        tracer = self

        def timed(*args):
            if not tracer.enabled:
                return func(*args)
            stack = tracer._stack()
            start = clock()
            result = func(*args)
            ends.append(clock())
            starts.append(start)
            parents.append(stack[-1][0] if stack else tracer.root)
            return result

        return timed

    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute)."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, on_call))

    def dump(self, path: str) -> None:
        """Write the spans out (called once, at exit)."""
        doc = {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4]}
                for s in self.spans
            ],
            "intervals": {
                name: {"count": len(starts),
                       "total_s": float(np.sum(np.asarray(ends)
                                               - np.asarray(starts)))}
                for name, (starts, ends, _) in self.intervals.items()
            },
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def union_length(starts, ends) -> float:
    """Total length covered by the union of ``[start, end]`` intervals."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    fresh = np.ones(starts.size, dtype=bool)
    fresh[1:] = starts[1:] > reach[:-1]
    heads = np.flatnonzero(fresh)
    block_ends = np.maximum.reduceat(ends, heads)
    return float(np.sum(block_ends - starts[heads]))


def rollup(tracer: Tracer) -> dict:
    """Per-name inclusive time and calls, per-layer self time, coverage.

    Returns ``{"names": {name: {"total_s", "calls"}}, "self": {layer:
    seconds}, "coverage": ratio}``.  Interval records count under their
    name and as children of their parent span.  ``coverage``
    is the part of the root spans' wall that their children cover (the
    union, so children overlapping on several threads count once): the
    root's own uncovered time is what no wrapped call accounts for.
    """
    spans = tracer.spans
    children: dict = defaultdict(lambda: ([], []))
    names: dict = defaultdict(lambda: {"total_s": 0.0, "calls": 0})
    for span_id, name, start, end, parent in spans:
        names[name]["total_s"] += end - start
        names[name]["calls"] += 1
        if parent is not None:
            children[parent][0].append(start)
            children[parent][1].append(end)
    layer_self: dict = defaultdict(float)
    for name, (starts, ends, parents) in tracer.intervals.items():
        starts = np.asarray(starts)
        ends = np.asarray(ends)
        parents = np.asarray(parents)
        names[name]["total_s"] += float(np.sum(ends - starts))
        names[name]["calls"] += len(starts)
        layer_self[name.split(".")[0]] += float(np.sum(ends - starts))
        for parent in np.unique(parents).tolist():
            mine = parents == parent
            children[parent][0].extend(starts[mine].tolist())
            children[parent][1].extend(ends[mine].tolist())
    root_wall = root_covered = 0.0
    for span_id, name, start, end, parent in spans:
        kid_starts, kid_ends = children.get(span_id, ([], []))
        if kid_starts:
            clipped_s = np.clip(kid_starts, start, end)
            clipped_e = np.clip(kid_ends, start, end)
            covered = union_length(clipped_s, clipped_e)
        else:
            covered = 0.0
        layer_self[name.split(".")[0]] += (end - start) - covered
        if parent is None:
            root_wall += end - start
            root_covered += covered
    return {"names": dict(names), "self": dict(layer_self),
            "coverage": root_covered / root_wall if root_wall else 0.0}


def uncovered(tracer: Tracer, names) -> float:
    """Root spans' wall that no span or interval named in ``names`` covers."""
    starts = [s[2] for s in tracer.spans if s[1] in names]
    ends = [s[3] for s in tracer.spans if s[1] in names]
    for name in names:
        if name in tracer.intervals:
            interval_starts, interval_ends, _ = tracer.intervals[name]
            starts.extend(interval_starts)
            ends.extend(interval_ends)
    starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
    total = 0.0
    for _, _, start, end, parent in tracer.spans:
        if parent is None:
            covered = union_length(np.clip(starts, start, end),
                                   np.clip(ends, start, end))
            total += (end - start) - covered
    return total
