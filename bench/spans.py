"""Span recording from outside the package, for the traced benchmark run.

A span is one call into a library function: its name, start, end and the
span that was open when it began.  Functions are wrapped at the module
attribute their caller resolves, so no library source changes.  Spans are
kept in compact arrays in memory; a layer's self time is the duration of
its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, skip_under: str | None = None):
        """Return `fn` recording one span per call.

        Calls made while the innermost open span is `skip_under` are not
        recorded; they stay part of that span's self time.
        """
        nid = self._name_id(name)
        skip = None if skip_under is None else self._name_id(skip_under)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and stack and names[stack[-1]] == skip:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args):
        """Run `fn(*args)` inside a span called `name`."""
        return self.wrap(fn, name)(*args)

    def installed(self, targets):
        """Trace each (owner, attribute, span name, skip_under) for the duration
        of the block."""
        return patched(
            (owner, attr, lambda fn, name=name, skip=skip: self.wrap(fn, name, skip))
            for owner, attr, name, skip in targets
        )

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=own, minlength=k)
        return {
            n: (int(calls[i]), float(incl[i]), float(excl[i]))
            for i, n in enumerate(self.names)
        }


@contextmanager
def patched(targets):
    """Replace each (owner, attribute, make_wrapper) by make_wrapper(original)
    for the duration of the block.  Missing attributes are skipped."""
    saved = []
    try:
        for owner, attr, make_wrapper in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, make_wrapper(fn))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
