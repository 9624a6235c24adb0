"""Tiny deterministic fixtures for serving tests and the smoke script.

Training a real suite takes minutes; the serving runtime's behaviors
(deadlines, shedding, breakers, reload) don't care how good the models
are, only that real :class:`~repro.models.brainy.BrainyModel` instances
with the real artifact format exist.  :func:`tiny_suite` trains one in
well under a second from separable synthetic features — the same
construction as the advisor unit tests — so every serving test and the
CI smoke job run against the genuine load/validate/predict code paths.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.containers.registry import DSKind, MODEL_GROUPS
from repro.instrumentation.features import num_features
from repro.instrumentation.trace import TraceRecord, TraceSet
from repro.models.brainy import BrainyModel, BrainySuite
from repro.training.dataset import TrainingSet


def tiny_suite(seed: int = 0, *, epochs: int = 8,
               records_per_group: int = 40) -> BrainySuite:
    """A fast synthetic suite covering every model group."""
    rng = np.random.default_rng(seed)
    suite = BrainySuite(machine_name="core2")
    for group_name, group in MODEL_GROUPS.items():
        X = [rng.normal(size=num_features())
             for _ in range(records_per_group)]
        ts = TrainingSet(
            group_name=group_name, machine_name="core2",
            classes=group.classes, X=X,
            y=[int(np.argmax(x[:len(group.classes)])) for x in X],
            seeds=list(range(records_per_group)))
        suite.models[group_name] = BrainyModel.train(ts, epochs=epochs,
                                                     seed=seed)
    return suite


def save_tiny_suite(directory: str | Path, seed: int = 0) -> Path:
    """Train and save a tiny suite; returns the directory path."""
    directory = Path(directory)
    tiny_suite(seed).save(directory)
    return directory


def make_trace(n_records: int = 4, *, kind: DSKind = DSKind.VECTOR,
               order_oblivious: bool = True, keyed: bool = False,
               seed: int = 0) -> TraceSet:
    """A small advisable trace (all records in one model group)."""
    rng = np.random.default_rng(seed)
    records = [
        TraceRecord(context=f"app:site{i}", kind=kind,
                    order_oblivious=order_oblivious,
                    features=rng.normal(size=num_features()),
                    cycles=100 + i, total_calls=10, keyed=keyed)
        for i in range(n_records)
    ]
    trace = TraceSet(program_cycles=1000, records=records)
    trace.sort()
    return trace


def make_mixed_trace(per_group: int = 1, *, seed: int = 0,
                     keyed: bool = False) -> TraceSet:
    """An advisable trace spanning every model group.

    ``per_group`` records for each (kind, order-obliviousness)
    combination — the shape that exercises one vectorized forward pass
    per group, which is what a batched serving pass amortizes across
    requests.  Mirrors real Brainy traces: a handful of hot containers
    spread over several kinds, not many records of one kind.
    """
    rng = np.random.default_rng(seed)
    records = []
    site = 0
    for kind in (DSKind.VECTOR, DSKind.LIST, DSKind.MAP, DSKind.SET):
        for order_oblivious in (True, False):
            for _ in range(per_group):
                records.append(TraceRecord(
                    context=f"app:site{site}", kind=kind,
                    order_oblivious=order_oblivious,
                    features=rng.normal(size=num_features()),
                    cycles=100 + site, total_calls=10, keyed=keyed,
                ))
                site += 1
    trace = TraceSet(program_cycles=1000, records=records)
    trace.sort()
    return trace


def advise_payload(trace: TraceSet, *, request_id: str = "r1",
                   deadline_seconds: float | None = None,
                   tag: str = "") -> dict:
    """An ``advise`` request payload ready for the wire or
    :meth:`~repro.serve.loop.AdvisorService.handle_payload`."""
    payload: dict = {"op": "advise", "id": request_id,
                     "trace": trace.to_payload()}
    if deadline_seconds is not None:
        payload["deadline_seconds"] = deadline_seconds
    if tag:
        payload["tag"] = tag
    return payload
