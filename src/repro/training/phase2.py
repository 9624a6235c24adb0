"""Training framework Phase II (Algorithm 2).

The paper replays every Phase-I seed on the model group's *original*
container kind and collects the run's feature vector.  Phase I already
ran exactly that app on that kind for each record it kept, and its
records carry the run's features
(:attr:`~repro.training.phase1.SeedRecord.features`), so Phase II is a
join: one ``(features, best DS)`` row per record, in record order.  It
simulates nothing, so it needs no fault boundary or checkpoint.
"""

from __future__ import annotations

import repro.obs as obs

# Unused; benchmarks/e2e's layer tracer still patches it here.
from repro.appgen.generator import generate_app  # noqa: F401
from repro.training.dataset import TrainingSet
from repro.training.phase1 import Phase1Result


def run_phase2(phase1: Phase1Result) -> TrainingSet:
    """Algorithm 2: the training set of the recorded seed/DS pairs."""
    group = phase1.group
    with obs.span("phase2", group=group.name,
                  machine=phase1.machine_name):
        records = phase1.records
        for record in records:
            obs.counter("phase2.rows", best=record.best.value)
        # One array from all rows, not one append per row (quadratic).
        return TrainingSet(
            group_name=group.name,
            machine_name=phase1.machine_name,
            classes=group.classes,
            X=[record.features[group.original] for record in records],
            y=[group.classes.index(record.best) for record in records],
            seeds=[record.seed for record in records],
        )
