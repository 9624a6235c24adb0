"""Telemetry artifacts and the human summary view.

A telemetry export is an ordinary versioned artifact envelope (atomic,
checksummed — :mod:`repro.runtime.artifacts`) written next to whatever
the run produced::

    {"format": "repro-artifact", "kind": "telemetry", "schema_version": 1,
     "payload": {"meta": …, "wall_time_s": …, "spans": …, "metrics": …}}

Two views of the same payload matter:

* :func:`deterministic_view` — span paths/counts and every metric, with
  all timing fields stripped.  Runs that differ only in scheduling
  (``--jobs``, machine load) produce byte-identical deterministic views;
  the determinism tests and the artifact acceptance check compare these.
* :func:`format_telemetry` — the ``repro telemetry <file>`` rendering: a
  per-phase wall-time tree, the top-N slowest span instances, derived
  rates (cache-sim events/sec), the metric tables, and the fault
  taxonomy counts.
"""

from __future__ import annotations

from pathlib import Path

from repro.runtime.artifacts import (
    canonical_json,
    read_artifact,
    write_artifact,
)

TELEMETRY_ARTIFACT_KIND = "telemetry"
TELEMETRY_SCHEMA_VERSION = 1

#: Span timing keys stripped by :func:`deterministic_view`.
_TIMING_KEYS = ("total_s", "max_s", "slowest")

#: Simulator counters summed into the "events" rate.
_SIM_EVENT_COUNTERS = (
    "sim.l1_accesses", "sim.l2_accesses", "sim.tlb_accesses",
    "sim.branches",
)


def build_payload(collector, meta: dict | None = None,
                  wall_time_s: float | None = None) -> dict:
    """Assemble the artifact payload from a collector's current state."""
    snapshot = collector.snapshot()
    from repro import __version__

    return {
        "meta": {"tool": "repro", "version": __version__,
                 **(meta or {})},
        "wall_time_s": wall_time_s,
        "spans": snapshot["spans"],
        "metrics": snapshot["metrics"] or {
            "counters": {}, "gauges": {}, "histograms": {}},
    }


def export_telemetry(collector, path: str | Path,
                     meta: dict | None = None,
                     wall_time_s: float | None = None) -> dict:
    """Write the collector's telemetry as a versioned artifact.

    Returns the payload that was written.
    """
    payload = build_payload(collector, meta=meta, wall_time_s=wall_time_s)
    write_artifact(path, payload, kind=TELEMETRY_ARTIFACT_KIND,
                   schema_version=TELEMETRY_SCHEMA_VERSION)
    return payload


def load_telemetry(path: str | Path) -> dict:
    """Read a telemetry artifact back (envelope verified)."""
    return read_artifact(Path(path), kind=TELEMETRY_ARTIFACT_KIND,
                         schema_version=TELEMETRY_SCHEMA_VERSION)


# ---------------------------------------------------------------------------
# Deterministic view.
# ---------------------------------------------------------------------------

def _deterministic_spans(tree: dict) -> dict:
    out: dict[str, dict] = {}
    for name, node in sorted(tree.items()):
        entry: dict = {"count": node["count"]}
        children = node.get("children")
        if children:
            entry["children"] = _deterministic_spans(children)
        out[name] = entry
    return out


def deterministic_view(payload: dict) -> dict:
    """The scheduling-independent part of a telemetry payload.

    Span names and counts plus every metric survive; wall-times, slowest
    samples, and the meta block (which records the command line and
    jobs setting) do not.
    """
    return {
        "spans": _deterministic_spans(payload.get("spans", {})),
        "metrics": payload.get("metrics", {}),
    }


def deterministic_bytes(payload: dict) -> bytes:
    """Canonical encoding of the deterministic view, for byte compares."""
    return canonical_json(deterministic_view(payload)).encode("utf-8")


# ---------------------------------------------------------------------------
# Human summary (`repro telemetry <file>`).
# ---------------------------------------------------------------------------

def _format_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f}s"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _walk_tree(tree: dict, depth: int, lines: list[str]) -> None:
    for name, node in sorted(tree.items()):
        label = "  " * depth + name
        lines.append(f"  {label:<34} {node['count']:>7}x "
                     f"{_format_seconds(node['total_s']):>9}")
        children = node.get("children")
        if children:
            _walk_tree(children, depth + 1, lines)


def _collect_slowest(tree: dict, path: str,
                     out: list[tuple[float, str, dict]]) -> None:
    for name, node in sorted(tree.items()):
        here = f"{path}/{name}" if path else name
        for entry in node.get("slowest", ()):
            out.append((entry["seconds"], here, entry.get("attrs", {})))
        children = node.get("children")
        if children:
            _collect_slowest(children, here, out)


def format_telemetry(payload: dict, top: int = 5) -> str:
    """Render a telemetry payload for humans."""
    lines: list[str] = []
    meta = payload.get("meta", {})
    command = meta.get("command", "?")
    wall = payload.get("wall_time_s")
    header = f"telemetry: {command}"
    if wall is not None:
        header += f" (wall {_format_seconds(wall)})"
    lines.append(header)

    spans = payload.get("spans", {})
    if spans:
        lines.append("")
        lines.append("span tree (count, total wall time):")
        _walk_tree(spans, 0, lines)

        slowest: list[tuple[float, str, dict]] = []
        _collect_slowest(spans, "", slowest)
        slowest.sort(key=lambda item: -item[0])
        if slowest:
            lines.append("")
            lines.append(f"top {min(top, len(slowest))} slowest spans:")
            for seconds, path, attrs in slowest[:top]:
                attr_text = " ".join(f"{k}={v}"
                                     for k, v in sorted(attrs.items()))
                suffix = f"  [{attr_text}]" if attr_text else ""
                lines.append(f"  {path:<40} "
                             f"{_format_seconds(seconds):>9}{suffix}")

    metrics = payload.get("metrics", {})
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})

    sim_events = sum(counters.get(name, 0)
                     for name in _SIM_EVENT_COUNTERS)
    if sim_events and wall:
        lines.append("")
        lines.append(f"cache-sim events: {sim_events:,.0f} "
                     f"({sim_events / wall:,.0f}/s over the run)")

    plain = {k: v for k, v in counters.items()
             if not k.startswith("phase1.quarantined")}
    if plain:
        lines.append("")
        lines.append("counters:")
        for key, value in sorted(plain.items()):
            lines.append(f"  {key:<40} {value:>14,.0f}")
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for key, value in sorted(gauges.items()):
            lines.append(f"  {key:<40} {value:>14.4f}")
    if histograms:
        lines.append("")
        lines.append("histograms (count / mean / min / max):")
        for key, hist in sorted(histograms.items()):
            mean = hist["total"] / hist["count"] if hist["count"] else 0.0
            lines.append(
                f"  {key:<34} {hist['count']:>7} "
                f"{mean:>10.4f} {hist['min']:>10.4f} {hist['max']:>10.4f}"
            )

    faults = {k: v for k, v in counters.items()
              if k.startswith("phase1.quarantined")}
    lines.append("")
    if faults:
        lines.append("fault taxonomy:")
        for key, value in sorted(faults.items()):
            lines.append(f"  {key:<40} {value:>14,.0f}")
    else:
        lines.append("fault taxonomy: no quarantined seeds")
    return "\n".join(lines)
