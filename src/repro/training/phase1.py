"""Training framework Phase I (Algorithm 1).

Generate seeded application sets, run each candidate container, measure
execution time (simulated cycles), and record ``(seed, best DS)`` — but
only when the best is at least 5 % faster than every alternative, so a
barely-best structure never becomes a training label.  The candidates
race in cycle order: a run that can no longer win or place second is
abandoned early, which never changes the verdict.  Iteration stops
when every candidate class has reached its per-class target or the seed
budget is exhausted (some classes win rarely; the paper notes Phase I
"after many iterations some data structures will have more best
applications than others").

Phase I at production scale runs for a long time, so the loop is built
on the :mod:`repro.runtime` robustness layer: every seed is processed
inside an error boundary (transient faults retried, pathological seeds
quarantined into the result), periodic checkpoints capture the full loop
state, and a ``KeyboardInterrupt`` flushes a checkpoint before
surfacing as :class:`~repro.runtime.checkpoint.TrainingInterrupted`.
Because each outcome is a pure function of its seed and results are
*merged* strictly in seed order, an interrupted-and-resumed run produces
a byte-identical result to an uninterrupted one — and so does a parallel
run: with ``jobs > 1`` seeds are fanned out out-of-order to a worker
pool (:mod:`repro.runtime.parallel`) while the merge loop consumes them
in order, so artifacts, checkpoints, and quarantine records are
indistinguishable from a serial run's.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import repro.obs as obs
from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import app_family, generate_app
from repro.appgen.workload import (
    DEFAULT_MARGIN,
    best_candidate,
    race_candidates,
)
from repro.containers.registry import DSKind, ModelGroup
from repro.machine.configs import CORE2, MachineConfig
from repro.runtime.artifacts import read_artifact, write_artifact
from repro.runtime.checkpoint import Phase1Checkpoint, TrainingInterrupted
from repro.runtime.faults import (
    CATEGORY_TRANSIENT,
    QuarantineRecord,
    RetryPolicy,
    SeedQuarantined,
    WorkBudget,
    classify,
    run_guarded,
)
from repro.runtime.options import RunOptions, resolve_run_options
from repro.runtime.parallel import (
    TaskFailure,
    map_ordered,
    resolve_jobs,
    usable_jobs,
)

PHASE1_ARTIFACT_KIND = "phase1-result"
PHASE1_SCHEMA_VERSION = 4


def phase1_key(group: ModelGroup) -> tuple:
    """What a group's Phase I result depends on besides the run knobs:
    its app family (:func:`~repro.appgen.generator.app_family`) and its
    candidate *set*, which the race reads in no particular order."""
    return app_family(group.original), frozenset(group.classes)


@dataclass
class SeedRecord:
    """One Phase-I outcome: a seed and the winning data structure.

    ``runtimes`` holds the simulated cycles of every candidate that ran
    to completion, in completion order.  Phase I races the candidates in
    cycle order (:func:`~repro.appgen.workload.race_candidates`), so
    candidates that could no longer win or place second were abandoned
    and are absent; ``best`` is always present and is the minimum.
    """

    seed: int
    best: DSKind
    runtimes: dict[DSKind, int]

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "best": self.best.value,
            "runtimes": {k.value: v for k, v in self.runtimes.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SeedRecord":
        return cls(
            seed=payload["seed"],
            best=DSKind(payload["best"]),
            runtimes={DSKind(k): v
                      for k, v in payload["runtimes"].items()},
        )


@dataclass
class Phase1Result:
    """All ``seed_ds_pairs`` recorded for one model group."""

    group: ModelGroup
    machine_name: str
    records: list[SeedRecord] = field(default_factory=list)
    seeds_tried: int = 0
    no_winner: int = 0
    #: Seeds the fault boundary gave up on (§ runtime/faults).
    quarantined: list[QuarantineRecord] = field(default_factory=list)

    def class_counts(self) -> dict[DSKind, int]:
        counts = {kind: 0 for kind in self.group.classes}
        for record in self.records:
            counts[record.best] += 1
        return counts

    def __len__(self) -> int:
        return len(self.records)

    def for_group(self, group: ModelGroup) -> "Phase1Result":
        """This result under a sibling group's name.

        Groups with one :func:`phase1_key` generate identical apps and
        race identical candidates, so their Phase I results are equal
        record for record.
        """
        if phase1_key(group) != phase1_key(self.group):
            raise ValueError(
                f"group {group.name!r} does not share Phase I with "
                f"{self.group.name!r}")
        return Phase1Result(
            group=group, machine_name=self.machine_name,
            records=list(self.records), seeds_tried=self.seeds_tried,
            no_winner=self.no_winner, quarantined=list(self.quarantined))

    # -- persistence (the paper's ``seed_ds_pairs``) ----------------------

    def save(self, path: str | Path) -> None:
        """Write the seed/DS pairs; Phase II can resume from this file."""
        payload = {
            "group_name": self.group.name,
            "machine_name": self.machine_name,
            "seeds_tried": self.seeds_tried,
            "no_winner": self.no_winner,
            "records": [r.to_payload() for r in self.records],
            "quarantined": [q.to_payload() for q in self.quarantined],
        }
        write_artifact(path, payload, kind=PHASE1_ARTIFACT_KIND,
                       schema_version=PHASE1_SCHEMA_VERSION)

    @classmethod
    def load(cls, path: str | Path) -> "Phase1Result":
        from repro.containers.registry import MODEL_GROUPS

        payload = read_artifact(Path(path), kind=PHASE1_ARTIFACT_KIND,
                                schema_version=PHASE1_SCHEMA_VERSION)
        group = MODEL_GROUPS[payload["group_name"]]
        result = cls(group=group, machine_name=payload["machine_name"],
                     seeds_tried=payload["seeds_tried"],
                     no_winner=payload["no_winner"])
        for r in payload["records"]:
            result.records.append(SeedRecord.from_payload(r))
        for q in payload.get("quarantined", ()):
            result.quarantined.append(QuarantineRecord.from_payload(q))
        return result


@dataclass
class SeedOutcome:
    """The order-independent part of one Phase-I seed.

    Exactly one of ``runtimes`` / ``quarantine`` is set.  This is what a
    worker computes and ships back; everything order-dependent (margin
    winner, class counts, early stop, checkpoints) happens in the merge
    loop so that parallel and serial runs agree byte-for-byte.
    """

    seed: int
    runtimes: dict[DSKind, int] | None = None
    quarantine: QuarantineRecord | None = None


def evaluate_seed(seed: int,
                  group: ModelGroup,
                  config: GeneratorConfig,
                  machine_config: MachineConfig,
                  retry_policy: RetryPolicy | None,
                  seed_budget_seconds: float | None,
                  generate_fn: Callable,
                  measure_fn: Callable) -> SeedOutcome:
    """Generate and measure one seed inside the per-seed error boundary.

    Pure function of its arguments; safe to run in any process.  Used by
    both the serial path and pool workers, which is what guarantees the
    two produce identical outcomes.
    """
    budget = WorkBudget(seed_budget_seconds).start()
    with obs.span("phase1.seed", seed=seed):
        try:
            with obs.span("generate"):
                app = run_guarded(
                    lambda: generate_fn(seed, group, config),
                    seed=seed, stage="generate", policy=retry_policy,
                    budget=budget,
                )
            with obs.span("measure"):
                runtimes = run_guarded(
                    lambda: measure_fn(app, machine_config),
                    seed=seed, stage="measure", policy=retry_policy,
                    budget=budget,
                )
        except SeedQuarantined as quarantine:
            return SeedOutcome(seed=seed, quarantine=quarantine.record)
    return SeedOutcome(seed=seed, runtimes=runtimes)


def _recover_worker_crash(failure: TaskFailure,
                          worker: Callable[[int], SeedOutcome],
                          ) -> SeedOutcome:
    """Map a pool-infrastructure failure onto the fault taxonomy.

    A transient crash (lost worker, flaky resource) gets one in-parent
    retry through the normal error boundary; a deterministic one is
    quarantined directly — either way the run keeps going.
    """
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
    return SeedOutcome(seed=seed, quarantine=QuarantineRecord(
        seed=seed, stage="worker", category=classify(error),
        error=f"{type(error).__name__}: {error}", attempts=attempts,
    ))


def _checkpoint_state(result: Phase1Result, counts: dict[DSKind, int],
                      seed_base: int, next_offset: int,
                      complete: bool) -> Phase1Checkpoint:
    return Phase1Checkpoint(
        group_name=result.group.name,
        machine_name=result.machine_name,
        seed_base=seed_base,
        next_offset=next_offset,
        seeds_tried=result.seeds_tried,
        no_winner=result.no_winner,
        counts={kind.value: count for kind, count in counts.items()},
        records=[r.to_payload() for r in result.records],
        quarantined=list(result.quarantined),
        complete=complete,
    )


def _restore_checkpoint(checkpoint: Phase1Checkpoint | str | Path,
                        group: ModelGroup,
                        machine_config: MachineConfig,
                        seed_base: int,
                        ) -> tuple[Phase1Result, dict[DSKind, int], int,
                                   bool]:
    if not isinstance(checkpoint, Phase1Checkpoint):
        checkpoint = Phase1Checkpoint.load(checkpoint)
    if checkpoint.group_name != group.name:
        raise ValueError(
            f"checkpoint is for group {checkpoint.group_name!r}, "
            f"not {group.name!r}"
        )
    if checkpoint.machine_name != machine_config.name:
        raise ValueError(
            f"checkpoint was taken on {checkpoint.machine_name!r}, "
            f"not {machine_config.name!r}"
        )
    if checkpoint.seed_base != seed_base:
        raise ValueError(
            f"checkpoint used seed_base={checkpoint.seed_base}, "
            f"resume requested seed_base={seed_base}"
        )
    result = Phase1Result(
        group=group, machine_name=machine_config.name,
        records=[SeedRecord.from_payload(r) for r in checkpoint.records],
        seeds_tried=checkpoint.seeds_tried,
        no_winner=checkpoint.no_winner,
        quarantined=list(checkpoint.quarantined),
    )
    counts = {kind: 0 for kind in group.classes}
    for name, count in checkpoint.counts.items():
        counts[DSKind(name)] = count
    return result, counts, checkpoint.next_offset, checkpoint.complete


def run_phase1(group: ModelGroup,
               config: GeneratorConfig,
               machine_config: MachineConfig = CORE2,
               per_class_target: int = 30,
               max_seeds: int = 2000,
               margin: float = DEFAULT_MARGIN,
               seed_base: int = 0,
               progress: Callable[[int, Phase1Result], None] | None = None,
               *,
               resume_from: Phase1Checkpoint | str | Path | None = None,
               checkpoint_path: str | Path | None = None,
               options: RunOptions | None = None,
               checkpoint_every: int | None = None,
               retry_policy: RetryPolicy | None = None,
               seed_budget_seconds: float | None = None,
               generate_fn: Callable | None = None,
               measure_fn: Callable | None = None,
               jobs: int | None = None,
               window: int | None = None,
               executor=None,
               ) -> Phase1Result:
    """Algorithm 1: collect ``(seed, best DS)`` pairs for one model group.

    Parameters
    ----------
    per_class_target:
        ``need_more_sets`` threshold: stop once every class has this many
        winning applications (the paper uses e.g. ten thousand).
    max_seeds:
        Hard budget on generated application sets, since rare classes may
        never reach the target.
    seed_base:
        Offset into the seed space (use different bases for disjoint
        train/validation populations).
    resume_from:
        A :class:`Phase1Checkpoint` (or path to one) from an interrupted
        run; the loop continues deterministically where it left off.
    checkpoint_path:
        Where periodic checkpoints are written (cadence comes from
        ``options.checkpoint_every``), and on interruption.  A completed
        run leaves a ``complete=True`` checkpoint behind so resuming a
        finished phase is instant.
    options:
        The cross-cutting run knobs as one frozen
        :class:`~repro.runtime.options.RunOptions` (``jobs``, ``window``,
        ``checkpoint_every``, fault-boundary tuning, telemetry
        collector).  The individual keyword spellings below still work
        for one release but emit a ``DeprecationWarning``.
    checkpoint_every / retry_policy / seed_budget_seconds / jobs / window:
        Deprecated spellings of the corresponding ``options`` fields.
    generate_fn / measure_fn:
        Pluggable seams for the app generator and the candidate sweep
        (used by the fault-injection harness); defaults are the real
        :func:`generate_app` and :func:`race_candidates` at ``margin``.
    executor:
        Overrides the worker pool entirely (tests pass an in-process
        :class:`~repro.runtime.parallel.SerialExecutor` so stateful
        injected ``generate_fn``/``measure_fn`` work under any jobs).

    Seed fan-out (:mod:`repro.runtime.parallel`): ``options.jobs`` worker
    processes evaluate seeds out-of-order while the merge loop folds them
    in in seed order, keeping the result byte-identical to a serial run.
    """
    if per_class_target <= 0:
        raise ValueError("per_class_target must be positive")
    options = resolve_run_options(
        options, jobs=jobs, window=window,
        checkpoint_every=checkpoint_every, retry_policy=retry_policy,
        seed_budget_seconds=seed_budget_seconds,
    )
    checkpoint_every = options.checkpoint_every
    retry_policy = options.retry_policy
    seed_budget_seconds = options.seed_budget_seconds
    window = options.window
    if checkpoint_every is not None and checkpoint_path is None:
        raise ValueError("checkpoint_every requires checkpoint_path")
    jobs = resolve_jobs(options.jobs)
    generate_fn = generate_fn or generate_app
    measure_fn = measure_fn or partial(race_candidates, margin=margin)
    telemetry_scope = (obs.use_collector(options.telemetry)
                       if options.telemetry is not None else nullcontext())

    with telemetry_scope, obs.span("phase1", group=group.name,
                                   machine=machine_config.name):
        if resume_from is not None:
            result, counts, start_offset, complete = _restore_checkpoint(
                resume_from, group, machine_config, seed_base
            )
            if complete:
                return result
        else:
            result = Phase1Result(group=group,
                                  machine_name=machine_config.name)
            counts = {kind: 0 for kind in group.classes}
            start_offset = 0

        def flush(next_offset: int, complete: bool = False) -> None:
            if checkpoint_path is not None:
                _checkpoint_state(result, counts, seed_base, next_offset,
                                  complete).save(checkpoint_path)
                obs.counter("phase1.checkpoints")

        worker = partial(
            evaluate_seed,
            group=group, config=config, machine_config=machine_config,
            retry_policy=retry_policy,
            seed_budget_seconds=seed_budget_seconds,
            generate_fn=generate_fn, measure_fn=measure_fn,
        )
        if executor is None:
            jobs = usable_jobs(worker, jobs, "the Phase-I seed worker")
        outcomes = map_ordered(
            worker,
            (seed_base + off for off in range(start_offset, max_seeds)),
            jobs=jobs, window=window, executor=executor,
        )
        try:
            offset = start_offset
            for offset in range(start_offset, max_seeds):
                if all(count >= per_class_target
                       for count in counts.values()):
                    break
                seed = seed_base + offset
                try:
                    outcome = next(outcomes)
                except KeyboardInterrupt:
                    # State reflects only fully-applied seeds; resuming
                    # at ``offset`` replays nothing and skips nothing.
                    flush(next_offset=offset)
                    raise TrainingInterrupted(
                        f"phase 1 interrupted at seed {seed}"
                        + (f"; checkpoint at {checkpoint_path}"
                           if checkpoint_path is not None else ""),
                        checkpoint_path=(
                            Path(checkpoint_path)
                            if checkpoint_path is not None else None),
                    ) from None
                if isinstance(outcome, TaskFailure):
                    obs.counter("phase1.worker_crashes")
                    outcome = _recover_worker_crash(outcome, worker)
                result.seeds_tried += 1
                obs.counter("phase1.seeds")
                if outcome.quarantine is not None:
                    result.quarantined.append(outcome.quarantine)
                    obs.counter("phase1.quarantined",
                                stage=outcome.quarantine.stage,
                                category=outcome.quarantine.category)
                    continue
                best = best_candidate(outcome.runtimes, margin=margin)
                if best is None:
                    result.no_winner += 1
                    obs.counter("phase1.no_winner")
                elif counts[best] >= per_class_target:
                    # Phase I's early filter (§4.3): extra applications
                    # for an already-full class are not handed to the
                    # expensive Phase II.
                    pass
                else:
                    counts[best] += 1
                    result.records.append(
                        SeedRecord(seed=seed, best=best,
                                   runtimes=outcome.runtimes))
                    obs.counter("phase1.records", best=best.value)
                    if progress is not None:
                        progress(seed, result)
                if (checkpoint_every is not None
                        and (offset + 1 - start_offset) % checkpoint_every
                        == 0):
                    flush(next_offset=offset + 1)
        finally:
            outcomes.close()
        flush(next_offset=offset + 1, complete=True)
        return result
