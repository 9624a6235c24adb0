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

Groups of one app family (:func:`phase1_key`) generate identical apps,
so :func:`run_phase1` can take them together: one seed loop generates
each seed's app once and races it once over the union of the candidate
sets still collecting (:func:`~repro.appgen.workload.race_sets`), while
each candidate set keeps its own result, counts, stop rule and
checkpoint, exactly as if it ran alone.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

import repro.obs as obs
from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import app_family, generate_app
from repro.appgen.workload import (
    DEFAULT_MARGIN,
    Race,
    best_candidate,
    race_sets,
)
from repro.containers.registry import DSKind, ModelGroup
from repro.machine.configs import CORE2, MachineConfig
from repro.runtime.artifacts import read_artifact, write_artifact
from repro.runtime.checkpoint import Phase1Checkpoint, TrainingInterrupted
from repro.runtime.faults import (
    QuarantineRecord,
    RetryPolicy,
    SeedQuarantined,
    WorkBudget,
    classify,
    run_guarded,
)
from repro.runtime.options import RunOptions
from repro.runtime.parallel import (
    DEFAULT_WINDOW_PER_JOB,
    TaskFailure,
    map_ordered,
    resolve_jobs,
    usable_jobs,
)

PHASE1_ARTIFACT_KIND = "phase1-result"
#: 5: records carry the features of their groups' original-kind runs.
PHASE1_SCHEMA_VERSION = 5

#: How many seeds back a seed's finish decision reads its candidate
#: sets' full classes (see :func:`evaluate_seed`).  The seed loop keeps
#: at most this many seeds in flight, so a pool worker always holds that
#: state when its seed ships, and work is the same for any ``jobs``.
FINISH_LAG = 16


def phase1_key(group: ModelGroup) -> str:
    """The unit of Phase I: the group's app family
    (:func:`~repro.appgen.generator.app_family`).  Groups with one key
    generate identical apps for every seed, so one seed loop and one
    race per seed serve them all; groups that also share a candidate
    *set* (which the race reads in no particular order) have equal
    results."""
    return app_family(group.original)


@dataclass
class SeedRecord:
    """One Phase-I outcome: a seed and the winning data structure.

    ``runtimes`` holds the simulated cycles of every candidate that ran
    to completion, in completion order.  Phase I races the candidates in
    cycle order (:func:`~repro.appgen.workload.race_candidates`), so
    candidates that could no longer win or place second were abandoned
    and are absent; ``best`` is always present and is the minimum.
    ``features`` holds the feature vector of the app's whole run on each
    original kind of the groups the record serves: Phase II's row.
    """

    seed: int
    best: DSKind
    runtimes: dict[DSKind, int]
    features: dict[DSKind, np.ndarray]

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "best": self.best.value,
            "runtimes": {k.value: v for k, v in self.runtimes.items()},
            "features": {k.value: v.tolist()
                         for k, v in self.features.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SeedRecord":
        return cls(
            seed=payload["seed"],
            best=DSKind(payload["best"]),
            runtimes={DSKind(k): v
                      for k, v in payload["runtimes"].items()},
            features={DSKind(k): np.asarray(v, dtype=np.float64)
                      for k, v in payload["features"].items()},
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
        """This result for ``group``, its records' features projected
        down to the group's original kind.

        Groups with one :func:`phase1_key` and one candidate set
        generate identical apps and race identical candidates, so their
        Phase I results are equal record for record, and a result whose
        records carry a sibling's original kind serves that sibling.
        """
        if (phase1_key(group) != phase1_key(self.group)
                or set(group.classes) != set(self.group.classes)):
            raise ValueError(
                f"group {group.name!r} does not share Phase I with "
                f"{self.group.name!r}")
        kind = group.original
        if any(kind not in r.features for r in self.records):
            raise ValueError(
                f"the records of {self.group.name!r} carry no "
                f"{kind.value} features for group {group.name!r}")
        return Phase1Result(
            group=group, machine_name=self.machine_name,
            records=[replace(r, features={kind: r.features[kind]})
                     for r in self.records],
            seeds_tried=self.seeds_tried, no_winner=self.no_winner,
            quarantined=list(self.quarantined))

    # -- persistence (the paper's ``seed_ds_pairs``) ----------------------

    def save(self, path: str | Path) -> None:
        """Write the seed/DS pairs; Phase II can run from this file."""
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
    #: Each raced candidate set's runtimes, by the set's index.
    runtimes: dict[int, dict[DSKind, int]] | None = None
    quarantine: QuarantineRecord | None = None
    #: The features of every kept kind of the sets that may record the
    #: seed, by kind.
    features: dict[DSKind, np.ndarray] = field(default_factory=dict)


def evaluate_seed(seed: int,
                  group: ModelGroup,
                  sets: Sequence[tuple[DSKind, ...]],
                  first_seeds: Sequence[int | None],
                  config: GeneratorConfig,
                  machine_config: MachineConfig,
                  retry_policy: RetryPolicy | None,
                  seed_budget_seconds: float | None,
                  generate_fn: Callable,
                  measure_fn: Callable,
                  keep: Sequence[tuple[DSKind, ...]],
                  margin: float,
                  filled: Sequence[Mapping[DSKind, int | None]]
                  ) -> SeedOutcome:
    """Generate and race one seed inside the per-seed error boundary.

    The app is generated for ``group`` and raced over every set ``i``
    still collecting at ``seed``: ``first_seeds[i]`` is the first seed
    set ``i`` needs, or None once it stopped.  The merge loop updates
    ``first_seeds`` as sets stop; this call reads it when it runs, which
    in process is when the merge loop consumes the seed.  A pool worker
    gets the list as it stood when the seed was shipped, which may
    still name sets that stopped since; racing those changes no other
    set's runtimes.

    ``keep[i]`` names set ``i``'s groups' original kinds.  When set
    ``i`` raced and has a winner at ``margin``, the seed may become one
    of its records, which carry the features of the app's whole run on
    each kept kind (stage ``"finish"``): a completed race run's, else
    the race's stopped run finished, else a fresh run (only an injected
    ``measure_fn`` leaves a kind out of the race).  The seed cannot
    become a record when the winner's class is full, and
    ``filled[i][kind]`` is the seed that filled it (None while it is not
    full); the merge loop updates it like ``first_seeds``.  The decision
    reads only fills at least :data:`FINISH_LAG` seeds back, which every
    executor has applied by the time it evaluates the seed, so it is the
    same for any ``jobs``, except on a stale set above: a pool worker
    may then finish runs for a set a serial run does not race, which
    adds work, and quarantines the seed if such a finish fails.

    Otherwise a pure function of its arguments, and used by both the
    serial path and pool workers, which is what guarantees the two
    produce identical outcomes.
    """
    raced = [i for i, first in enumerate(first_seeds)
             if first is not None and seed >= first]
    if not raced:
        return SeedOutcome(seed=seed, runtimes={})
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
                race = run_guarded(
                    lambda: measure_fn(app, machine_config,
                                       [sets[i] for i in raced]),
                    seed=seed, stage="measure", policy=retry_policy,
                    budget=budget,
                )
            runtimes = dict(zip(raced, race.runtimes))
            wanted = dict.fromkeys(
                kind for i in raced
                if _may_record(best_candidate(runtimes[i], margin=margin),
                               filled[i], seed)
                for kind in keep[i])
            try:
                features = {kind: run_guarded(
                    lambda: _whole_run(app, kind, race, machine_config
                                       ).features(),
                    seed=seed, stage="finish", policy=retry_policy,
                    budget=budget) for kind in wanted}
            finally:
                race.release()
        except SeedQuarantined as quarantine:
            return SeedOutcome(seed=seed, quarantine=quarantine.record)
    return SeedOutcome(seed=seed, runtimes=runtimes, features=features)


def _whole_run(app, kind: DSKind, race: Race, machine_config):
    """The race's completed run of ``kind``, else its stopped run
    finished, else a fresh run.  A stopped run is taken out of the race
    first, so a retry after a failed finish starts afresh."""
    if kind in race.runs:
        return race.runs[kind]
    with obs.span("finish", kind=kind.value):
        run = app.run(kind, machine_config,
                      resume=race.stopped.pop(kind, None))
    obs.counter("phase1.finished", kind=kind.value)
    return run


def _may_record(best: DSKind | None,
                filled: Mapping[DSKind, int | None], seed: int) -> bool:
    """Whether a seed whose race has winner ``best`` may become a
    record, judged from the class fills :data:`FINISH_LAG` seeds back."""
    if best is None:
        return False
    filled_at = filled[best]
    return filled_at is None or filled_at > seed - FINISH_LAG


def _one_set(measure_fn: Callable, app, machine_config,
             sets) -> Race:
    """Adapt a one-group ``measure_fn(app, machine_config)`` to the
    race seam."""
    return Race([measure_fn(app, machine_config)], {}, {})


def _recover_worker_crash(failure: TaskFailure,
                          worker: Callable[[int], SeedOutcome],
                          ) -> SeedOutcome:
    """Retry a pool-infrastructure failure once in the parent.

    Every failure gets the retry, whatever its type: a fault of the pool
    itself (a lost worker, ``EMFILE``, ``ENOMEM``) then leaves no trace,
    so a pool run saves the serial run's bytes, and a seed that fails
    again on the retry is quarantined with ``attempts=2``.
    """
    seed = failure.task
    try:
        return worker(seed)
    except KeyboardInterrupt:
        raise
    except Exception as error:
        return SeedOutcome(seed=seed, quarantine=QuarantineRecord(
            seed=seed, stage="worker", category=classify(error),
            error=f"{type(error).__name__}: {error}", attempts=2,
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
                        keep: tuple[DSKind, ...],
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
    if any(kind not in r.features
           for r in result.records for kind in keep):
        raise ValueError(
            "checkpoint records lack the features of "
            + ", ".join(kind.value for kind in keep))
    counts = {kind: 0 for kind in group.classes}
    for name, count in checkpoint.counts.items():
        counts[DSKind(name)] = count
    return result, counts, checkpoint.next_offset, checkpoint.complete


@dataclass
class _SetLoop:
    """One candidate set's Algorithm 1 bookkeeping in a seed loop."""

    result: Phase1Result
    #: The original kinds of the set's groups, whose features every
    #: record carries.
    keep: tuple[DSKind, ...]
    counts: dict[DSKind, int]
    start: int
    checkpoint_path: str | Path | None
    done: bool
    #: The seed that filled each full class; shared with the seed
    #: worker as its ``filled`` entry.
    filled: dict[DSKind, int | None]

    def flush(self, seed_base: int, next_offset: int,
              complete: bool = False) -> None:
        if self.checkpoint_path is not None:
            _checkpoint_state(self.result, self.counts, seed_base,
                              next_offset, complete
                              ).save(self.checkpoint_path)
            obs.counter("phase1.checkpoints")


def run_phase1(group: ModelGroup | Sequence[ModelGroup],
               config: GeneratorConfig,
               machine_config: MachineConfig = CORE2,
               per_class_target: int = 30,
               max_seeds: int = 2000,
               margin: float = DEFAULT_MARGIN,
               seed_base: int = 0,
               progress: Callable[[int, Phase1Result], None] | None = None,
               *,
               resume_from: (Phase1Checkpoint | str | Path
                             | Mapping[str, Phase1Checkpoint | str | Path
                                       | None] | None) = None,
               checkpoint_path: (str | Path | Mapping[str, str | Path | None]
                                 | None) = None,
               options: RunOptions | None = None,
               generate_fn: Callable | None = None,
               measure_fn: Callable | None = None,
               executor=None,
               ) -> Phase1Result | list[Phase1Result]:
    """Algorithm 1: collect ``(seed, best DS)`` pairs for one model group.

    Parameters
    ----------
    group:
        One model group, or a sequence of groups of one app family
        (:func:`phase1_key`).  Given a sequence, one seed loop serves
        them all: each seed's app is generated once, for the group with
        the widest candidate set, and raced once over the union of the
        candidate sets still collecting.  Each candidate set keeps its
        own counts, stop rule and checkpoint, and the call returns a
        list with one result per group, each equal to what the group
        gets alone.  Every set must lie inside the widest one.  Each
        record carries the features of the app's run on its group's
        original kind (:class:`SeedRecord`), Phase II's row.
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
        finished phase is instant.  For a sequence of groups,
        ``resume_from`` and ``checkpoint_path`` map group names to the
        above; each candidate set uses the entry of its first group,
        whose records carry the features of all the set's groups.
    options:
        The cross-cutting run knobs as one frozen
        :class:`~repro.runtime.options.RunOptions` (``jobs``,
        ``checkpoint_every``, fault-boundary tuning, telemetry
        collector); ``None`` means the defaults.  The knobs are checked
        (:meth:`~repro.runtime.options.RunOptions.validate_training`)
        before any seed is simulated.
    generate_fn / measure_fn:
        Pluggable seams for the app generator and the race (used by the
        fault-injection harness); defaults are the real
        :func:`generate_app` and :func:`race_sets` at ``margin``.  For
        one group, ``measure_fn(app, machine_config)`` returns the
        group's runtimes, like
        :func:`~repro.appgen.workload.race_candidates`; for a sequence
        it is ``measure_fn(app, machine_config, sets)`` and returns a
        :class:`~repro.appgen.workload.Race`.
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
    options = (options or RunOptions()).validate_training()
    if options.checkpoint_every is not None and checkpoint_path is None:
        raise ValueError("checkpoint_every requires checkpoint_path")
    if isinstance(group, ModelGroup):
        groups = [group]
        checkpoint_paths = {group.name: checkpoint_path}
        resumes = {group.name: resume_from}
        if measure_fn is not None:
            measure_fn = partial(_one_set, measure_fn)
    else:
        groups = list(group)
        checkpoint_paths = dict(checkpoint_path or {})
        resumes = dict(resume_from or {})
    if len({phase1_key(g) for g in groups}) != 1:
        raise ValueError("run_phase1 takes one group, or groups of one "
                         "app family")
    # One loop per candidate set, named after its first group, keeping
    # its groups' original kinds.
    leaders: dict[frozenset[DSKind], ModelGroup] = {}
    keeps: dict[frozenset[DSKind], dict[DSKind, None]] = {}
    for g in groups:
        leaders.setdefault(frozenset(g.classes), g)
        keeps.setdefault(frozenset(g.classes), {})[g.original] = None
    widest = max(leaders.values(), key=lambda g: len(g.classes))
    if not all(kinds <= set(widest.classes) for kinds in leaders):
        raise ValueError("every group's candidates must lie inside the "
                         "widest group's")
    jobs = resolve_jobs(options.jobs)
    generate_fn = generate_fn or generate_app
    measure_fn = measure_fn or partial(race_sets, margin=margin)
    telemetry_scope = (obs.use_collector(options.telemetry)
                       if options.telemetry is not None else nullcontext())

    with telemetry_scope, obs.span("phase1", group=groups[0].name,
                                   machine=machine_config.name):
        loops = []
        for kinds, leader in leaders.items():
            keep = tuple(keeps[kinds])
            if resumes.get(leader.name) is not None:
                result, counts, start, done = _restore_checkpoint(
                    resumes[leader.name], leader, machine_config, seed_base,
                    keep)
            else:
                result = Phase1Result(group=leader,
                                      machine_name=machine_config.name)
                counts = {kind: 0 for kind in leader.classes}
                start, done = 0, False
            # A class a checkpoint restores full counts as filled just
            # before the resumed loop's first seed.
            filled = {kind: (seed_base + start - 1
                             if count >= per_class_target else None)
                      for kind, count in counts.items()}
            loops.append(_SetLoop(result, keep, counts, start,
                                  checkpoint_paths.get(leader.name), done,
                                  filled))
        first_seeds = [None if loop.done else seed_base + loop.start
                       for loop in loops]
        worker = partial(
            evaluate_seed,
            group=widest,
            sets=[loop.result.group.classes for loop in loops],
            first_seeds=first_seeds,
            config=config, machine_config=machine_config,
            retry_policy=options.retry_policy,
            seed_budget_seconds=options.seed_budget_seconds,
            generate_fn=generate_fn, measure_fn=measure_fn,
            keep=[loop.keep for loop in loops],
            margin=margin,
            filled=[loop.filled for loop in loops],
        )
        if executor is None:
            jobs = usable_jobs(worker, jobs, "the Phase-I seed worker")
        _seed_loop(loops, first_seeds, worker, per_class_target, max_seeds,
                   margin, seed_base, progress, options, jobs, executor)
        by_set = {frozenset(loop.result.group.classes): loop.result
                  for loop in loops}
        results = [by_set[frozenset(g.classes)].for_group(g)
                   for g in groups]
        return results[0] if isinstance(group, ModelGroup) else results


def _seed_loop(loops: list[_SetLoop],
               first_seeds: list[int | None],
               worker: Callable[[int], SeedOutcome],
               per_class_target: int,
               max_seeds: int,
               margin: float,
               seed_base: int,
               progress: Callable[[int, Phase1Result], None] | None,
               options: RunOptions,
               jobs: int,
               executor) -> None:
    """Fold seed outcomes into every candidate set's loop, in seed order.

    Each set sees exactly the seeds, stop checks and checkpoints its own
    loop would: it joins at its start offset and leaves, clearing its
    ``first_seeds`` entry, once its classes are full.
    """
    checkpoint_every = options.checkpoint_every
    pending = [loop.start for loop in loops if not loop.done]
    if not pending:
        return

    def finish(i: int, next_offset: int) -> None:
        loops[i].done = True
        first_seeds[i] = None
        loops[i].flush(seed_base, next_offset, complete=True)

    window = min(max(2, jobs * DEFAULT_WINDOW_PER_JOB), FINISH_LAG)
    outcomes = map_ordered(
        worker, (seed_base + off for off in range(min(pending), max_seeds)),
        jobs=jobs, window=window, executor=executor,
    )
    try:
        for offset in range(min(pending), max_seeds):
            active = []
            for i, loop in enumerate(loops):
                if loop.done or offset < loop.start:
                    continue
                if all(count >= per_class_target
                       for count in loop.counts.values()):
                    finish(i, offset + 1)
                else:
                    active.append(i)
            if all(loop.done for loop in loops):
                break
            seed = seed_base + offset
            try:
                outcome = next(outcomes)
            except KeyboardInterrupt:
                # State reflects only fully-applied seeds; resuming at
                # ``offset`` replays nothing and skips nothing.
                paths = []
                for i in active:
                    loops[i].flush(seed_base, next_offset=offset)
                    if loops[i].checkpoint_path is not None:
                        paths.append(Path(loops[i].checkpoint_path))
                raise TrainingInterrupted(
                    f"phase 1 interrupted at seed {seed}"
                    + "".join(f"; checkpoint at {path}" for path in paths),
                    checkpoint_path=paths[0] if paths else None,
                ) from None
            if not active:
                continue
            if isinstance(outcome, TaskFailure):
                obs.counter("phase1.worker_crashes")
                outcome = _recover_worker_crash(outcome, worker)
            for i in active:
                if _apply(loops[i], i, outcome, margin, per_class_target,
                          progress) and checkpoint_every is not None \
                        and (offset + 1 - loops[i].start) \
                        % checkpoint_every == 0:
                    loops[i].flush(seed_base, next_offset=offset + 1)
    finally:
        outcomes.close()
    for i, loop in enumerate(loops):
        if not loop.done:
            finish(i, max(loop.start, max_seeds - 1) + 1)


def _apply(loop: _SetLoop, index: int, outcome: SeedOutcome,
           margin: float, per_class_target: int,
           progress: Callable[[int, Phase1Result], None] | None) -> bool:
    """One seed's step of Algorithm 1 for set ``index``; False when the
    seed was quarantined, which skips that seed's periodic checkpoint."""
    result = loop.result
    result.seeds_tried += 1
    obs.counter("phase1.seeds")
    if outcome.quarantine is not None:
        result.quarantined.append(outcome.quarantine)
        obs.counter("phase1.quarantined",
                    stage=outcome.quarantine.stage,
                    category=outcome.quarantine.category)
        return False
    runtimes = outcome.runtimes[index]
    best = best_candidate(runtimes, margin=margin)
    if best is None:
        result.no_winner += 1
        obs.counter("phase1.no_winner")
    elif loop.counts[best] >= per_class_target:
        # Phase I's early filter (§4.3): extra applications for an
        # already-full class do not become records.
        pass
    else:
        loop.counts[best] += 1
        if loop.counts[best] == per_class_target:
            loop.filled[best] = outcome.seed
        result.records.append(SeedRecord(
            seed=outcome.seed, best=best, runtimes=runtimes,
            features={kind: outcome.features[kind] for kind in loop.keep}))
        obs.counter("phase1.records", best=best.value)
        if progress is not None:
            progress(outcome.seed, result)
    return True
