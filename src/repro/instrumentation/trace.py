"""Trace records: the post-processed, context-sorted profiling output.

The paper's runtime writes per-data-structure trace files and sorts them
by relative execution time and calling context so developers see the most
profitable replacements first (§3).  :class:`TraceSet` is that sorted
view: one :class:`TraceRecord` per profiled container instance, with
JSON persistence standing in for the paper's on-disk trace files.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.containers.registry import DSKind
from repro.instrumentation.features import FEATURE_NAMES
from repro.instrumentation.profiler import ProfiledContainer


def _decode_features(values) -> np.ndarray:
    """One record's feature vector: a flat list of one number per
    feature.  A vector of the wrong length would otherwise pass decoding
    and only fail inside the advisor's batched forward pass."""
    features = np.asarray(values)
    if (features.shape != (len(FEATURE_NAMES),)
            or features.dtype.kind not in "iuf"):
        raise ValueError(f"features must be a list of "
                         f"{len(FEATURE_NAMES)} numbers")
    return features.astype(np.float64, copy=False)


def _decode_number(payload: dict, name: str):
    """A numeric field of a trace payload, checked at decode like
    ``features``: a string or a ``bool`` would pass decoding and only
    fail inside the advisor's batched pass."""
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return value


@dataclass
class TraceRecord:
    """One profiled container instance's summary."""

    context: str
    kind: DSKind
    order_oblivious: bool
    features: np.ndarray
    cycles: int
    total_calls: int
    keyed: bool = False
    #: Simulated heap bytes this container allocated (memory-bloat view;
    #: the paper "considers memory bloat as Chameleon does", §7).
    allocated_bytes: int = 0

    def relative_time(self, program_cycles: int) -> float:
        if program_cycles <= 0:
            return 0.0
        return self.cycles / program_cycles


@dataclass
class TraceSet:
    """All trace records of one program run, sorted by attributed time."""

    program_cycles: int
    records: list[TraceRecord] = field(default_factory=list)

    @classmethod
    def from_profiled(
        cls,
        profiled: dict[str, tuple[ProfiledContainer, DSKind, bool, bool]],
        program_cycles: int,
    ) -> "TraceSet":
        """Build from ``context -> (profiled, kind, oblivious, keyed)``."""
        records = [
            TraceRecord(
                context=context,
                kind=kind,
                order_oblivious=oblivious,
                features=container.features(),
                cycles=container.attributed_cycles(),
                total_calls=container.stats.total_calls,
                keyed=keyed,
                allocated_bytes=container.hardware_counters()
                .allocated_bytes,
            )
            for context, (container, kind, oblivious, keyed)
            in profiled.items()
        ]
        trace = cls(program_cycles=program_cycles, records=records)
        trace.sort()
        return trace

    def sort(self) -> None:
        """Hottest containers first — the developer's priority order."""
        self.records.sort(key=lambda r: r.cycles, reverse=True)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    # -- persistence (the paper's trace files; also the serving wire
    # format carried inside an advise request) ------------------------------

    def to_payload(self) -> dict:
        return {
            "program_cycles": self.program_cycles,
            "feature_names": list(FEATURE_NAMES),
            "records": [
                {
                    "context": r.context,
                    "kind": r.kind.value,
                    "order_oblivious": r.order_oblivious,
                    "features": r.features.tolist(),
                    "cycles": r.cycles,
                    "total_calls": r.total_calls,
                    "keyed": r.keyed,
                    "allocated_bytes": r.allocated_bytes,
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TraceSet":
        if payload["feature_names"] != list(FEATURE_NAMES):
            raise ValueError(
                "trace was recorded with a different feature schema"
            )
        records = [
            TraceRecord(
                context=r["context"],
                kind=DSKind(r["kind"]),
                order_oblivious=r["order_oblivious"],
                features=_decode_features(r["features"]),
                cycles=_decode_number(r, "cycles"),
                total_calls=_decode_number(r, "total_calls"),
                keyed=r["keyed"],
                allocated_bytes=_decode_number(r, "allocated_bytes"),
            )
            for r in payload["records"]
        ]
        return cls(program_cycles=_decode_number(payload, "program_cycles"),
                   records=records)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_payload()))

    @classmethod
    def load(cls, path: str | Path) -> "TraceSet":
        return cls.from_payload(json.loads(Path(path).read_text()))
