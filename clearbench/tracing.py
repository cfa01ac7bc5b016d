"""Spans and counters recorded from outside the program.

The benchmark never edits ``src/repro``.  A traced run replaces public
callables with timing wrappers *where their callers look them up* (a
module global, a class attribute or one object's attribute), runs the
workload, and puts every original back.  Spans carry name, start, end
and parent; they stay in memory until the run ends.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List

_MISSING = object()


class Tracer:
    """In-memory span tree, counters and raw samples."""

    def __init__(self):
        # [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child[i]
        return dict(out)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        own = vars(owner).get(attr, _MISSING)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(current value)``."""
        self.set(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def spanned(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    """Wrapper factory: every call becomes one span called ``name``."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    return make


def spanned_iterator(tracer: Tracer, name: str, count: str):
    """Wrapper factory for a generator method: each ``next`` is a span.

    The spans nest under whatever span is open when the consumer pulls
    the next item, so lazily generated work lands inside its consumer.
    """

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> Iterator:
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                tracer.counters[count] += len(item)
                yield item

        return wrapper

    return make
