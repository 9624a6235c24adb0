"""Training framework Phase II (Algorithm 2).

Replay every Phase-I seed: regenerate the application from its seed,
run it on the model group's *original* container kind, and emit the
``(features, best DS)`` training row.  A run that an earlier step of the
same training task already simulated — the Phase I race, or another
group's Phase II — is not simulated again (``features=``).  Regenerating from seeds keeps disk
usage constant no matter how many training applications are used.

Like Phase I, the replay loop runs behind the :mod:`repro.runtime`
error boundary: a failing record is retried (transient) or skipped and
reported (deterministic) rather than aborting the phase, periodic
checkpoints capture the rows emitted so far, and an interrupt flushes a
checkpoint before raising :class:`TrainingInterrupted`.  Replays are
*merged* strictly in record order — with ``jobs > 1`` they execute
out-of-order on a worker pool (:mod:`repro.runtime.parallel`) — so
resume is deterministic and the training set is byte-identical for any
``jobs`` value.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import repro.obs as obs

from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import generate_app
from repro.containers.registry import DSKind, ModelGroup
from repro.machine.configs import CORE2, MachineConfig
from repro.runtime.checkpoint import Phase2Checkpoint, TrainingInterrupted
from repro.runtime.faults import (
    CATEGORY_TRANSIENT,
    QuarantineRecord,
    RetryPolicy,
    SeedQuarantined,
    WorkBudget,
    classify,
    run_guarded,
)
from repro.runtime.options import RunOptions
from repro.runtime.parallel import (
    TaskFailure,
    map_ordered,
    resolve_jobs,
    usable_jobs,
)
from repro.training.dataset import TrainingSet
from repro.training.phase1 import Phase1Result


def _restore_checkpoint(checkpoint: Phase2Checkpoint | str | Path,
                        phase1: Phase1Result,
                        machine_config: MachineConfig,
                        train_set: TrainingSet) -> tuple[int, bool]:
    if not isinstance(checkpoint, Phase2Checkpoint):
        checkpoint = Phase2Checkpoint.load(checkpoint)
    if checkpoint.group_name != phase1.group.name:
        raise ValueError(
            f"checkpoint is for group {checkpoint.group_name!r}, "
            f"not {phase1.group.name!r}"
        )
    if checkpoint.machine_name != machine_config.name:
        raise ValueError(
            f"checkpoint was taken on {checkpoint.machine_name!r}, "
            f"not {machine_config.name!r}"
        )
    if checkpoint.total_records != len(phase1.records):
        raise ValueError(
            "checkpoint does not match this Phase-I result "
            f"({checkpoint.total_records} vs {len(phase1.records)} records)"
        )
    train_set.X = np.asarray(checkpoint.X, dtype=np.float64).reshape(
        -1, train_set.X.shape[1]
    )
    train_set.y = np.asarray(checkpoint.y, dtype=np.int64)
    train_set.seeds = list(checkpoint.seeds)
    return checkpoint.next_index, checkpoint.complete


@dataclass
class ReplayOutcome:
    """The order-independent part of one Phase-II replay.

    Exactly one of ``features`` / ``quarantine`` is set; labelling and
    row order stay in the merge loop.
    """

    seed: int
    features: np.ndarray | None = None
    quarantine: QuarantineRecord | None = None


def replay_seed(seed: int,
                group: ModelGroup,
                config: GeneratorConfig,
                machine_config: MachineConfig,
                retry_policy: RetryPolicy | None,
                seed_budget_seconds: float | None,
                generate_fn: Callable) -> ReplayOutcome:
    """Regenerate one app and run it on the group's original kind.

    Pure function of its arguments; shared by the serial path and pool
    workers.  The feature vector is extracted worker-side so only a
    small array crosses the process boundary.
    """
    budget = WorkBudget(seed_budget_seconds).start()
    with obs.span("phase2.seed", seed=seed):
        try:
            with obs.span("generate"):
                app = run_guarded(
                    lambda: generate_fn(seed, group, config),
                    seed=seed, stage="generate", policy=retry_policy,
                    budget=budget,
                )
            with obs.span("replay"):
                run = run_guarded(
                    lambda: app.run(group.original, machine_config),
                    seed=seed, stage="replay", policy=retry_policy,
                    budget=budget,
                )
        except SeedQuarantined as quarantine:
            return ReplayOutcome(seed=seed, quarantine=quarantine.record)
        return ReplayOutcome(seed=seed, features=run.features())


def _recover_worker_crash(failure: TaskFailure,
                          worker: Callable[[int], ReplayOutcome],
                          ) -> ReplayOutcome:
    """Same taxonomy mapping as Phase I: transient crash → one in-parent
    retry, deterministic crash → quarantine."""
    seed = failure.task
    error = failure.error
    attempts = 1
    if classify(error) == CATEGORY_TRANSIENT:
        try:
            return worker(seed)
        except KeyboardInterrupt:
            raise
        except Exception as retry_error:
            error = retry_error
            attempts = 2
    return ReplayOutcome(seed=seed, quarantine=QuarantineRecord(
        seed=seed, stage="worker", category=classify(error),
        error=f"{type(error).__name__}: {error}", attempts=attempts,
    ))


def run_phase2(phase1: Phase1Result,
               config: GeneratorConfig,
               machine_config: MachineConfig = CORE2,
               *,
               resume_from: Phase2Checkpoint | str | Path | None = None,
               checkpoint_path: str | Path | None = None,
               options: RunOptions | None = None,
               generate_fn: Callable | None = None,
               on_fault: Callable[[QuarantineRecord], None] | None = None,
               features: dict[tuple[int, DSKind], np.ndarray] | None = None,
               executor=None,
               ) -> TrainingSet:
    """Algorithm 2: build the training set from recorded seed/DS pairs.

    ``resume_from`` / ``checkpoint_path`` and ``options`` / ``executor``
    mirror :func:`repro.training.phase1.run_phase1`; the knobs in
    ``options`` are checked before any record is replayed.
    A record whose replay fails deterministically is skipped (reported
    through ``on_fault``) instead of aborting the phase.

    ``features`` maps ``(seed, kind)`` to the feature vector of a run
    already simulated for the same app family (as filled by
    :func:`~repro.training.phase1.run_phase1`): a record found there is
    not replayed, and every replay's features are added to it.  A run
    is deterministic, so the rows are the same either way.
    """
    group: ModelGroup = phase1.group
    if machine_config.name != phase1.machine_name:
        raise ValueError(
            "Phase II must replay on the same machine Phase I measured "
            f"({phase1.machine_name!r}), got {machine_config.name!r}"
        )
    options = (options or RunOptions()).validate_training()
    checkpoint_every = options.checkpoint_every
    if checkpoint_every is not None and checkpoint_path is None:
        raise ValueError("checkpoint_every requires checkpoint_path")
    jobs = resolve_jobs(options.jobs)
    generate_fn = generate_fn or generate_app
    telemetry_scope = (obs.use_collector(options.telemetry)
                       if options.telemetry is not None else nullcontext())
    with telemetry_scope, obs.span("phase2", group=group.name,
                                   machine=machine_config.name):
        train_set = TrainingSet(
            group_name=group.name,
            machine_name=machine_config.name,
            classes=group.classes,
        )
        if resume_from is not None:
            start_index, complete = _restore_checkpoint(
                resume_from, phase1, machine_config, train_set
            )
            if complete:
                return train_set
        else:
            start_index = 0

        def flush(next_index: int, complete: bool = False) -> None:
            if checkpoint_path is not None:
                Phase2Checkpoint(
                    group_name=group.name,
                    machine_name=machine_config.name,
                    next_index=next_index,
                    total_records=len(phase1.records),
                    X=train_set.X.tolist(),
                    y=train_set.y.tolist(),
                    seeds=list(train_set.seeds),
                    complete=complete,
                ).save(checkpoint_path)
                obs.counter("phase2.checkpoints")

        worker = partial(
            replay_seed,
            group=group, config=config, machine_config=machine_config,
            retry_policy=options.retry_policy,
            seed_budget_seconds=options.seed_budget_seconds,
            generate_fn=generate_fn,
        )
        if executor is None:
            jobs = usable_jobs(worker, jobs, "the Phase-II replay worker")
        known = {} if features is None else features
        replays = [record.seed for record in phase1.records[start_index:]
                   if (record.seed, group.original) not in known]
        outcomes = map_ordered(worker, replays, jobs=jobs,
                               window=options.window, executor=executor)
        try:
            index = start_index
            for index in range(start_index, len(phase1.records)):
                record = phase1.records[index]
                key = (record.seed, group.original)
                if key in known:
                    obs.counter("phase2.reused")
                else:
                    try:
                        outcome = next(outcomes)
                    except KeyboardInterrupt:
                        flush(next_index=index)
                        raise TrainingInterrupted(
                            f"phase 2 interrupted at record {index} "
                            f"(seed {record.seed})"
                            + (f"; checkpoint at {checkpoint_path}"
                               if checkpoint_path is not None else ""),
                            checkpoint_path=(
                                Path(checkpoint_path)
                                if checkpoint_path is not None else None),
                        ) from None
                    if isinstance(outcome, TaskFailure):
                        obs.counter("phase2.worker_crashes")
                        outcome = _recover_worker_crash(outcome, worker)
                    if outcome.quarantine is not None:
                        obs.counter("phase2.quarantined",
                                    stage=outcome.quarantine.stage,
                                    category=outcome.quarantine.category)
                        if on_fault is not None:
                            on_fault(outcome.quarantine)
                        continue
                    known[key] = outcome.features
                train_set.add(known[key], record.best, record.seed)
                obs.counter("phase2.rows", best=record.best.value)
                if (checkpoint_every is not None
                        and (index + 1 - start_index) % checkpoint_every
                        == 0):
                    flush(next_index=index + 1)
        finally:
            outcomes.close()
        flush(next_index=index + 1, complete=True)
        return train_set
