"""In-memory span recorder and the timing wrappers the traced run installs.

A span is ``(id, name, start, end, parent, thread, tag, attrs)``:
``parent`` is the enclosing wrapped call on the same thread, ``tag`` the
step, request or batch id the span belongs to. Wrappers replace a class or
module attribute and are removed again by :meth:`Tracer.uninstall`; the
program's files are never edited. Spans stay in memory until
:meth:`Tracer.write_jsonl` at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, tag=None) -> dict:
        """Append a finished top-level span the benchmark synthesizes."""
        span = {"id": next(self._ids), "name": name, "start": start,
                "end": end, "parent": None,
                "thread": threading.get_ident(), "tag": tag}
        self.spans.append(span)
        return span

    def call(self, name: str, fn, args, kwargs, annotate=None):
        """Run ``fn`` inside a span; ``annotate(span, args, result)`` may
        add attributes from the call."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = {"id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": threading.get_ident(),
                    "tag": None}
            self.spans.append(span)
        if annotate is not None:
            annotate(span, args, result)
        return result

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a timing
        wrapper named ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, annotate)

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def by_name(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[int, float]:
        """``span id → duration minus the time its child spans cover``.

        Children of one span run on its thread and nest inside it, so
        their durations do not overlap and can be summed.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            parent = span["parent"]
            if parent is not None:
                child_time[parent] = (child_time.get(parent, 0.0)
                                      + span["end"] - span["start"])
        return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                for s in self.spans}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op function."""
    tracer = Tracer()

    def noop():
        return None

    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        tracer.call("noop", noop, (), {})
    wrapped = time.perf_counter() - start
    return max(wrapped - bare, 0.0) / calls
