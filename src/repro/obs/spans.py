"""Nestable timed spans with a thread-safe in-process collector.

A span is one timed region of the pipeline — ``span("phase1.seed",
seed=s)`` — and spans nest: entering a span while another is active on
the same thread makes it a child, so a run builds a wall-time tree
(``train`` → ``train.group`` → ``phase1`` → ``phase1.seed``).

Collection is *aggregated*, not per-event: each distinct span path keeps
a count, total/max duration, and a bounded list of its slowest instances
(with their attributes, so "top-N slowest seeds" is answerable without
retaining one record per seed).  That keeps a 500-seed training run's
telemetry a few kilobytes instead of megabytes.

Two collectors exist:

* :class:`Collector` — the real thing; thread-safe, snapshot/merge-able.
* :class:`NullCollector` — the default; every operation is a no-op and
  the module-level helpers (:func:`span`, :func:`counter`, …) check one
  ``enabled`` flag before doing any work, so untouched callers pay
  approximately nothing.

Cross-process composition: worker processes cannot share the parent's
collector, so :func:`repro.runtime.parallel.map_ordered` runs each task
under a fresh buffering collector and ships :meth:`Collector.snapshot`
back with the result; the parent :meth:`Collector.merge`-s it *at the
in-order consume point*, grafting the shipped subtree under whatever
span is active there.  Because tasks are always isolated this way (even
on the in-process ``jobs=1`` path), telemetry *content* — span paths,
counts, metric totals — is identical for any ``jobs`` value; only the
wall-times differ.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry

#: Slowest span instances retained per span path.
SLOWEST_PER_PATH = 5


class _NullSpan:
    """Shared no-op context manager returned when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class SpanNode:
    """Aggregated statistics for one span path in the tree."""

    __slots__ = ("name", "count", "total_s", "max_s", "slowest",
                 "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        #: Bounded ``[(seconds, attrs), ...]`` kept sorted slowest-first.
        self.slowest: list[tuple[float, dict]] = []
        self.children: dict[str, "SpanNode"] = {}

    def record(self, seconds: float, attrs: dict) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        keep = self.slowest
        if len(keep) >= SLOWEST_PER_PATH and seconds <= keep[-1][0]:
            # It would sort after the fifth (ties keep arrival order).
            return
        keep.append((seconds, attrs))
        keep.sort(key=lambda item: -item[0])
        del keep[SLOWEST_PER_PATH:]

    def to_payload(self) -> dict:
        payload: dict[str, Any] = {
            "count": self.count,
            "total_s": self.total_s,
            "max_s": self.max_s,
        }
        if self.slowest:
            payload["slowest"] = [
                {"seconds": seconds, "attrs": attrs}
                for seconds, attrs in self.slowest
            ]
        if self.children:
            payload["children"] = {
                name: child.to_payload()
                for name, child in sorted(self.children.items())
            }
        return payload

    def merge_payload(self, payload: dict) -> None:
        self.count += payload["count"]
        self.total_s += payload["total_s"]
        self.max_s = max(self.max_s, payload["max_s"])
        for entry in payload.get("slowest", ()):
            self.slowest.append((entry["seconds"], dict(entry["attrs"])))
        self.slowest.sort(key=lambda item: -item[0])
        del self.slowest[SLOWEST_PER_PATH:]
        for name, child_payload in payload.get("children", {}).items():
            child = self.children.get(name)
            if child is None:
                child = self.children[name] = SpanNode(name)
            child.merge_payload(child_payload)


class _Span:
    """One active span instance; a reentrant-free context manager."""

    __slots__ = ("_collector", "_name", "_attrs", "_node", "_start")

    def __init__(self, collector: "Collector", name: str,
                 attrs: dict) -> None:
        self._collector = collector
        self._name = name
        self._attrs = attrs
        self._node: SpanNode | None = None
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._node = self._collector._enter(self._name)
        self._start = self._collector._clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        seconds = self._collector._clock() - self._start
        self._collector._exit(self._node, seconds, self._attrs)
        return False


class Collector:
    """Thread-safe span/metric collector.

    ``clock`` is injectable (tests pass a fake counter so rendered
    output is reproducible); the default is ``time.perf_counter``.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._root: dict[str, SpanNode] = {}
        self._local = threading.local()
        self.metrics = MetricsRegistry(lock=self._lock)

    # -- span plumbing -----------------------------------------------------

    def _stack(self) -> list[SpanNode]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> SpanNode:
        stack = self._stack()
        with self._lock:
            children = stack[-1].children if stack else self._root
            node = children.get(name)
            if node is None:
                node = children[name] = SpanNode(name)
        stack.append(node)
        return node

    def _exit(self, node: SpanNode | None, seconds: float,
              attrs: dict) -> None:
        stack = self._stack()
        if stack and stack[-1] is node:
            stack.pop()
        if node is not None:
            with self._lock:
                node.record(seconds, attrs)

    def span(self, name: str, **attrs: Any) -> _Span:
        """A context manager timing one region named ``name``.

        ``attrs`` label the instance (``seed=…``, ``group=…``) and are
        retained only for the per-path slowest samples.
        """
        return _Span(self, name, attrs)

    # -- cross-process composition ----------------------------------------

    def snapshot(self) -> dict:
        """A picklable copy of everything collected so far."""
        with self._lock:
            return {
                "spans": {name: node.to_payload()
                          for name, node in sorted(self._root.items())},
                "metrics": self.metrics._snapshot_locked(),
            }

    def merge(self, snapshot: dict) -> None:
        """Graft a shipped snapshot under the current thread's active span.

        Called by the ordered merge loops at the point a worker result is
        consumed, so the grafted subtree lands exactly where the same
        spans would have nested in a serial run.
        """
        stack = self._stack()
        with self._lock:
            children = stack[-1].children if stack else self._root
            for name, payload in snapshot.get("spans", {}).items():
                node = children.get(name)
                if node is None:
                    node = children[name] = SpanNode(name)
                node.merge_payload(payload)
            self.metrics._merge_locked(snapshot.get("metrics", {}))

    def span_tree(self) -> dict:
        """The span tree as plain dicts (same shape as a snapshot's)."""
        with self._lock:
            return {name: node.to_payload()
                    for name, node in sorted(self._root.items())}


class NullCollector:
    """The default collector: telemetry off, every operation a no-op."""

    enabled = False

    def __init__(self) -> None:
        self.metrics = MetricsRegistry(enabled=False)

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def snapshot(self) -> dict:
        return {"spans": {}, "metrics": {}}

    def merge(self, snapshot: dict) -> None:
        pass

    def span_tree(self) -> dict:
        return {}


NULL_COLLECTOR = NullCollector()
