"""Spans and counters recorded around the program's layer boundaries.

The tracer patches, for the length of one traced run, the class methods
that callers look up at call time, plus the module functions that callers
import by name (patched in the caller's namespace).  Every call becomes a
span — name, start, end, parent span and thread — kept in memory and
written out once as a Chrome trace-event file.  A layer's self time is its
spans' durations minus the time their child spans cover.

Nothing here changes what the program computes: each wrapper calls the
original and returns its result unchanged.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    """One recorded call."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    thread_id: int
    thread_name: str


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._patches: list[tuple[object, str, Optional[object]]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, prefix: str) -> bool:
        """Whether the current thread is already inside a span named ``prefix*``."""
        names = getattr(self._local, "names", ())
        return any(name.startswith(prefix) for name in names)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span of ``name``."""
        with self._id_lock:
            span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        names = getattr(self._local, "names", ())
        self._local.names = names + (name,)
        stack.append(span_id)
        thread = threading.current_thread()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._local.names = names
            self.spans.append(
                Span(span_id, name, start, end, parent, thread.ident, thread.name)
            )

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        on_enter: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a spanned wrapper until :meth:`restore`.

        ``on_enter(args, kwargs)`` runs before each call (outside the span)
        and its return value reaches ``on_exit(args, kwargs, result, token)``
        after the call, so counters can take snapshots around it.
        """
        original = getattr(owner, attribute)
        owned = attribute in vars(owner)
        tracer = self

        def wrapper(*args, **kwargs):
            token = on_enter(args, kwargs) if on_enter is not None else None
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_exit is not None:
                on_exit(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attribute)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._patches.append((owner, attribute, original if owned else None))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)  # the attribute was inherited
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def self_times_ms(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by child spans."""
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            own = span.end_ns - span.start_ns - child_ns.get(span.span_id, 0)
            totals[span.name] += own / 1e6
        return dict(totals)

    def durations_ms(self, name: str, thread_name: Optional[str] = None) -> list[float]:
        """Durations of ``name`` spans in start order, optionally on one thread."""
        chosen = [
            span
            for span in self.spans
            if span.name == name
            and (thread_name is None or span.thread_name == thread_name)
        ]
        chosen.sort(key=lambda span: span.start_ns)
        return [(span.end_ns - span.start_ns) / 1e6 for span in chosen]

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome/Perfetto trace events (complete events)."""
        origin = min((span.start_ns for span in self.spans), default=0)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start_ns - origin) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": 1,
                "tid": span.thread_id,
                "args": {"id": span.span_id, "parent": span.parent},
            }
            for span in self.spans
        ]
        threads = {span.thread_id: span.thread_name for span in self.spans}
        events.extend(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": tname}}
            for tid, tname in threads.items()
        )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
