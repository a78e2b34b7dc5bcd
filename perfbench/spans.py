"""In-memory spans recorded around calls into satgrowth's layers.

A span is (name, start, end, parent).  Spans nest strictly because every
workload runs its traced part in one thread, so a span's self time is its
duration minus the durations of its direct children.  Counters sit beside
the spans, so ratios such as splits per second of solve time are formed from
quantities measured at the same boundary.
"""

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(float)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the block; yields the span's index."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def add(self, counter, value=1):
        self.counts[counter] += value

    def duration(self, idx):
        return self.ends[idx] - self.starts[idx]

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        """Per-span duration minus the time covered by its direct children."""
        dur = self.durations()
        out = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def self_by_name(self):
        totals = defaultdict(float)
        for name, st in zip(self.names, self.self_times()):
            totals[name] += st
        return totals

    def total(self, name):
        """Summed duration of the spans called `name` (children included)."""
        return sum(d for n, d in zip(self.names, self.durations()) if n == name)

    def calls(self, name):
        return sum(1 for n in self.names if n == name)

    def wrap(self, fn, name, on_result=None):
        """`fn` with every call recorded as a span; on_result(args, result,
        seconds) may record counters from the call and its duration."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result, self.duration(idx))
            return result
        return traced

    def wrap_generator(self, fn, name, on_item):
        """Generator function `fn` with the production of each item recorded
        as a span; the consumer's time between items stays with the caller.
        on_item(args, item, seconds) sees each item and its production time."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(name) as idx:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                on_item(args, item, self.duration(idx))
                yield item
        return traced


def span_cost(samples=5000):
    """Seconds that tracing adds per span: a wrapped empty call with a
    counting callback, measured on a throwaway tracer."""
    tracer = Tracer()
    call = tracer.wrap(lambda: None, "calibration",
                       lambda args, result, seconds: tracer.add("calls"))
    start = time.perf_counter()
    for _ in range(samples):
        call()
    return (time.perf_counter() - start) / samples


@contextlib.contextmanager
def patched(*replacements):
    """Temporarily set (owner, attribute, value) triples; restores on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
