"""Layer spans recorded from outside the program.

The traced run wraps public functions of the program's layers (see
``workloads.install_layers`` and ``traced_server.py``) so each call records
one span: name, start, end, the span that was open when it started
(its parent, per thread) and an optional tag.  Spans stay in memory and
are written once, when the run ends.

A layer's *self* time is its span's duration minus the time its child
spans cover.  Wrapped calls nest strictly within one thread, so the
children's durations simply subtract.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the monkeypatches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, tag: str | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, tag))

    def patch(self, owner, attr: str, name: str | Callable,
              tag: str | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is the module or class the caller resolves the name
        on at call time.  ``name`` may be a callable of
        ``(args, kwargs)`` when one function serves two layers.  A
        classmethod stays a classmethod.
        """
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return tracer.call(label, fn, args, kwargs, tag)

        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(
                    [s.sid, s.parent, s.name, s.start, s.end, s.tag]) + "\n")


def load_spans(path: str | Path) -> list[Span]:
    with open(path) as handle:
        return [Span(*json.loads(line)) for line in handle if line.strip()]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    totals: dict[str, float] = {}
    for s in spans:
        own = s.duration - child_time.get(s.sid, 0.0)
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals


def totals(spans: list[Span], name: str | None = None,
           tag: str | None = None) -> tuple[float, int]:
    """(inclusive seconds, call count) of the spans matching ``name``
    and/or ``tag``."""
    chosen = [s for s in spans
              if (name is None or s.name == name)
              and (tag is None or s.tag == tag)]
    return sum(s.duration for s in chosen), len(chosen)


def outermost(spans: list[Span], name: str) -> tuple[float, int]:
    """(inclusive seconds, call count) of the ``name`` spans that no
    other ``name`` span encloses, so a layer whose entry points call
    each other is counted once per outer call."""
    by_id = {s.sid: s for s in spans}

    def nested(s: Span) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    chosen = [s for s in spans if s.name == name and not nested(s)]
    return sum(s.duration for s in chosen), len(chosen)


def coverage(spans: list[Span], root: str) -> float:
    """Share of the ``root`` spans' time that named child spans cover."""
    total, _ = totals(spans, root)
    if total <= 0:
        return 0.0
    return 1.0 - self_times(spans)[root] / total
