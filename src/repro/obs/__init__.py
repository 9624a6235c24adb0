"""Zero-dependency observability: spans, metrics, telemetry artifacts.

One process-global *active collector* backs the module-level helpers.
The default is a :class:`NullCollector`, so instrumented code paths cost
a single attribute check when telemetry is off; activating a real
:class:`Collector` (``with use_collector(Collector()): …``, or via
``RunOptions(telemetry=…)`` / the CLI's ``--telemetry PATH``) turns the
same call sites into live measurement.

Typical instrumentation::

    from repro import obs

    with obs.span("phase1.seed", seed=seed):
        …work…
    obs.counter("phase1.records")

Worker processes start with the null collector; the parallel layer
(:mod:`repro.runtime.parallel`) ships worker telemetry back with each
result, so spans and metrics compose transparently with ``--jobs``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.export import (
    TELEMETRY_ARTIFACT_KIND,
    TELEMETRY_SCHEMA_VERSION,
    build_payload,
    deterministic_bytes,
    deterministic_view,
    export_telemetry,
    format_telemetry,
    load_telemetry,
)
from repro.obs.metrics import HISTOGRAM_VALUE_CAP, MetricsRegistry, metric_key
from repro.obs.spans import (
    NULL_COLLECTOR,
    NULL_SPAN,
    Collector,
    NullCollector,
    SpanNode,
)

__all__ = [
    "Collector",
    "HISTOGRAM_VALUE_CAP",
    "MetricsRegistry",
    "NullCollector",
    "SpanNode",
    "TELEMETRY_ARTIFACT_KIND",
    "TELEMETRY_SCHEMA_VERSION",
    "build_payload",
    "counter",
    "deterministic_bytes",
    "deterministic_view",
    "export_telemetry",
    "format_telemetry",
    "gauge",
    "get_collector",
    "load_telemetry",
    "metric_key",
    "observe",
    "record_sim_run",
    "set_collector",
    "span",
    "use_collector",
]

_active: Collector | NullCollector = NULL_COLLECTOR


def get_collector() -> Collector | NullCollector:
    """The currently-active collector (the null collector by default)."""
    return _active


def set_collector(collector: Collector | NullCollector
                  ) -> Collector | NullCollector:
    """Install ``collector`` as the active one; returns the previous."""
    global _active
    previous = _active
    _active = collector if collector is not None else NULL_COLLECTOR
    return previous


@contextmanager
def use_collector(collector: Collector | NullCollector
                  ) -> Iterator[Collector | NullCollector]:
    """Activate ``collector`` for the duration of the ``with`` block."""
    previous = set_collector(collector)
    try:
        yield collector
    finally:
        set_collector(previous)


def span(name: str, **attrs: Any):
    """Time a region under the active collector (no-op when off)."""
    collector = _active
    if not collector.enabled:
        return NULL_SPAN
    return collector.span(name, **attrs)


def counter(name: str, value: float = 1, **labels: object) -> None:
    """Bump a counter on the active collector (no-op when off)."""
    collector = _active
    if collector.enabled:
        collector.metrics.count(name, value, **labels)


def gauge(name: str, value: float, **labels: object) -> None:
    """Set a gauge on the active collector (no-op when off)."""
    collector = _active
    if collector.enabled:
        collector.metrics.gauge(name, value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    """Record a histogram observation (no-op when off)."""
    collector = _active
    if collector.enabled:
        collector.metrics.observe(name, value, **labels)


def record_sim_run(machine, kind: str | None = None) -> None:
    """Coarse per-run machine-simulator totals (the hot path stays
    uninstrumented; this reads the counters once per completed run)."""
    collector = _active
    if not collector.enabled:
        return
    metrics = collector.metrics
    metrics.count("sim.runs")
    metrics.count("sim.cycles", machine.cycles)
    metrics.count("sim.instructions", machine.instructions)
    metrics.count("sim.l1_accesses", machine.l1.accesses)
    metrics.count("sim.l1_misses", machine.l1.misses)
    metrics.count("sim.l2_accesses", machine.l2.accesses)
    metrics.count("sim.l2_misses", machine.l2.misses)
    metrics.count("sim.tlb_accesses", machine.tlb.accesses)
    metrics.count("sim.tlb_misses", machine.tlb.misses)
    metrics.count("sim.branches", machine.predictor.branches)
    metrics.count("sim.branch_mispredicts", machine.predictor.mispredicts)
