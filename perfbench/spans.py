"""In-memory span recorder that traces cavgate from outside.

Tracing replaces a public name in the module where callers look it up
(``cavgate.metrics.plan``, ``cavgate.cli.gate_run``, ...) with a wrapper
that records a span around the original call.  A name that no longer
exists is recorded as absent and skipped, so the benchmark keeps working
when a later version of the package drops it.

Each span records its name, start and end time, parent span and thread.
A span opened on a thread with no open span of its own (a scan worker of
the CLI thread pool) takes as parent the innermost span open on the
thread that created the tracer, which is the caller waiting on that pool.
"""

from __future__ import annotations

import functools
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent, thread, info]; info is a dict or None
        self.absent = []
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, info: dict | None) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home
            parent = home[-1] if home else None
        record = [name, time.perf_counter(), None, parent, threading.get_ident(), info]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return stack, record

    @staticmethod
    def _close(stack: list, record: list) -> None:
        record[2] = time.perf_counter()
        stack.pop()

    def call(self, name: str, fn, *args, info=None, **kwargs):
        """Run ``fn`` inside a span (used where the benchmark is itself the caller)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack, record = self._open(name, info)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(stack, record)

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Trace calls to ``module.attr`` under span ``name``.

        ``describe(args, kwargs, result)`` may return a dict stored with the
        span, for counts that only the call's arguments or result reveal.  A
        call that raises stores ``{"raised": <exception type>}`` instead.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        fn = getattr(fn, "__traced__", fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, record = tracer._open(name, None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = {"raised": type(exc).__name__}
                raise
            finally:
                tracer._close(stack, record)
            if describe is not None:
                record[5] = describe(args, kwargs, result)
            return result

        traced.__traced__ = fn
        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


def union_length(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    return [(s[2] - s[1]) - union_length(children[i], s[1], s[2]) for i, s in enumerate(spans)]


def ancestors(spans: list, index: int):
    parent = spans[index][3]
    while parent is not None:
        yield parent
        parent = spans[parent][3]
