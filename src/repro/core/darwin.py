"""Darwinian whole-program container selection (`repro darwin`).

The Brainy advisor suggests the best replacement for each container
instance *independently*.  Darwinian Data Structure Selection evolves
the **whole assignment at once**: a chromosome holds one candidate index
per container site, and an NSGA-II search
(:meth:`repro.ml.search.GeneticSearch.pareto`) minimises two objectives
— simulated cycles and allocator footprint (peak live heap bytes) —
surfacing the *trade-off front* instead of a single answer.  A cheaper
container at a cold site can shrink the footprint without measurable
cycle cost, and interactions between sites (shared caches, allocator
layout) are captured because every fitness evaluation simulates the
whole program.  The app's own Python runs once per search: that run is
recorded as an interface-call tape (:mod:`repro.apps.tape`) and every
other assignment replays it.

Generation zero is seeded with the app's declared defaults and with the
greedy per-instance advisor picks, so the evolved front starts no worse
than either; every front point therefore weakly dominates the greedy
assignment, and on multi-site apps it typically *strictly* dominates it.

:class:`AssignmentFitness` is a plain picklable callable, so chromosome
evaluation fans out over the parallel worker pool; all RNG stays in
the parent, making the front byte-identical for any ``--jobs`` value.

The search also carries the repo's crash-safety contract
(docs/robustness.md): generation-granular
:class:`~repro.runtime.checkpoint.DarwinCheckpoint` artifacts with
byte-identical ``--resume``, per-chromosome fault isolation (transient →
in-parent retry, deterministic → quarantine carried in
:attr:`DarwinResult.quarantined`), SIGINT/SIGTERM → checkpoint → exit
130/143, and a wall-clock budget that stops cleanly at a generation
boundary with the best-front-so-far flagged ``truncated=budget``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.apps.base import AppResult, CaseStudyApp, run_case_study
from repro.apps.tape import Tape
from repro.containers.registry import DSKind
from repro.core.advisor import BrainyAdvisor
from repro.core.report import Report
from repro.machine.configs import MachineConfig
from repro.ml.search import (
    GeneticSearch,
    ParetoResult,
    ParetoState,
    QuarantinedChromosome,
)
from repro.ml.strategies import (
    GeneChoiceMutation,
    SeededChoiceInit,
    TournamentAncestry,
    UniformCrossover,
)
from repro.runtime.checkpoint import DarwinCheckpoint, TrainingInterrupted
from repro.runtime.options import RunOptions

#: Objective name -> how to read it off a finished app run.
OBJECTIVES: dict[str, str] = {
    "cycles": "simulated cycles",
    "memory": "allocator footprint (peak live heap bytes)",
}


def _objective_values(result, objectives: tuple[str, ...]
                      ) -> tuple[float, ...]:
    readings = {"cycles": float(result.cycles),
                "memory": float(result.footprint_bytes)}
    return tuple(readings[name] for name in objectives)


def run_assignment(app: CaseStudyApp, machine_config: MachineConfig,
                   kinds: dict[str, DSKind], tape: Tape | None
                   ) -> AppResult:
    """``app``'s run under ``kinds``: replayed off ``tape`` when there is
    one, else (or when the replay mismatches) run for real."""
    result = tape.replay(kinds) if tape is not None else None
    if result is None:
        result = run_case_study(app, machine_config, kinds=kinds)
    return result


@dataclass(frozen=True)
class AssignmentFitness:
    """Score one whole-program container assignment.

    Picklable by construction (plain data fields, module-level class),
    so the GA can fan evaluations out over worker processes.  Each call
    simulates the *entire* application on a fresh machine with the
    chromosome's per-site container choices and reads the requested
    objectives off the finished run — lower is better for every one.
    With a ``tape`` (:mod:`repro.apps.tape`) the run is replayed off the
    app's recorded interface calls instead of re-running its Python;
    the result is the same.  The ``recorded`` chromosome (the tape's
    own run) is scored off its measured point without a replay.
    """

    app: CaseStudyApp
    machine_config: MachineConfig
    site_names: tuple[str, ...]
    candidates: tuple[tuple[DSKind, ...], ...]
    objectives: tuple[str, ...] = ("cycles", "memory")
    tape: Tape | None = None
    recorded: tuple[tuple[int, ...], AssignmentPoint] | None = None

    def kinds_for(self, chromosome) -> dict[str, DSKind]:
        genes = [int(g) for g in chromosome]
        return {
            name: self.candidates[i][genes[i]]
            for i, name in enumerate(self.site_names)
        }

    def __call__(self, chromosome) -> tuple[float, ...]:
        if self.recorded is not None \
                and tuple(int(g) for g in chromosome) == self.recorded[0]:
            return _objective_values(self.recorded[1], self.objectives)
        result = run_assignment(self.app, self.machine_config,
                                self.kinds_for(chromosome), self.tape)
        return _objective_values(result, self.objectives)


@dataclass(frozen=True)
class AssignmentPoint:
    """One evolved whole-program assignment with both objectives."""

    kinds: tuple[tuple[str, str], ...]  # (site, container-kind value)
    cycles: int
    footprint_bytes: int

    def kind_map(self) -> dict[str, DSKind]:
        return {site: DSKind(kind) for site, kind in self.kinds}

    def dominates(self, other: "AssignmentPoint") -> bool:
        """Strictly better on at least one of (cycles, footprint) and
        no worse on the other."""
        return (self.cycles <= other.cycles
                and self.footprint_bytes <= other.footprint_bytes
                and (self.cycles < other.cycles
                     or self.footprint_bytes < other.footprint_bytes))

    def to_payload(self) -> dict:
        return {
            "kinds": {site: kind for site, kind in self.kinds},
            "cycles": self.cycles,
            "footprint_bytes": self.footprint_bytes,
        }


@dataclass
class DarwinResult:
    """Outcome of one Darwinian whole-program search."""

    app_name: str
    input_name: str
    machine_name: str
    objectives: tuple[str, ...]
    site_names: tuple[str, ...]
    candidates: tuple[tuple[DSKind, ...], ...]
    #: The evolved Pareto front, best cycles first (deterministic).
    front: list[AssignmentPoint]
    #: The app's declared per-site defaults, measured.
    default: AssignmentPoint
    #: The greedy per-instance advisor assignment, measured (``None``
    #: when the search ran without an advisor).
    greedy: AssignmentPoint | None
    generations: int
    population: int
    #: Distinct whole-program assignments simulated by the search.
    evaluations: int
    #: Per-generation rank-0 population counts, generation zero first.
    history: list[int]
    #: The greedy advisor's per-instance report with the Pareto front
    #: attached (:attr:`repro.core.report.Report.pareto_front`).
    report: Report
    #: Chromosomes the fault boundary quarantined (deterministic or
    #: retry-exhausted failures), with stage/trace; never in the front.
    quarantined: list[QuarantinedChromosome] = field(default_factory=list)
    #: Why the search stopped early (``"budget"``), or ``None`` when it
    #: ran its full generation budget.
    truncated: str | None = None

    def dominating(self) -> list[AssignmentPoint]:
        """Front points strictly dominating the greedy assignment."""
        if self.greedy is None:
            return []
        return [p for p in self.front if p.dominates(self.greedy)]

    def to_payload(self) -> dict:
        return {
            "app": self.app_name,
            "input": self.input_name,
            "machine": self.machine_name,
            "objectives": list(self.objectives),
            "sites": {
                name: [kind.value for kind in kinds]
                for name, kinds in zip(self.site_names, self.candidates)
            },
            "front": [p.to_payload() for p in self.front],
            "default": self.default.to_payload(),
            "greedy": (self.greedy.to_payload()
                       if self.greedy is not None else None),
            "generations": self.generations,
            "population": self.population,
            "evaluations": self.evaluations,
            "history": list(self.history),
            "report": self.report.to_payload(),
            "quarantined": [q.to_payload() for q in self.quarantined],
            "truncated": self.truncated,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DarwinResult":
        def point(p):
            return AssignmentPoint(
                kinds=tuple(sorted(p["kinds"].items())),
                cycles=p["cycles"],
                footprint_bytes=p["footprint_bytes"],
            )

        sites = payload["sites"]
        return cls(
            app_name=payload["app"],
            input_name=payload["input"],
            machine_name=payload["machine"],
            objectives=tuple(payload["objectives"]),
            site_names=tuple(sites),
            candidates=tuple(
                tuple(DSKind(kind) for kind in kinds)
                for kinds in sites.values()
            ),
            front=[point(p) for p in payload["front"]],
            default=point(payload["default"]),
            greedy=(point(payload["greedy"])
                    if payload.get("greedy") is not None else None),
            generations=payload["generations"],
            population=payload["population"],
            evaluations=payload["evaluations"],
            history=list(payload["history"]),
            report=Report.from_payload(payload["report"]),
            quarantined=[QuarantinedChromosome.from_payload(q)
                         for q in payload.get("quarantined", [])],
            truncated=payload.get("truncated"),
        )

    def format(self) -> str:
        """Human-readable front table (the `repro darwin` output)."""
        label = self.app_name
        if self.input_name:
            label += f"/{self.input_name}"
        lines = [
            f"Darwinian search — {label} on {self.machine_name}: "
            f"{len(self.front)} non-dominated assignment(s) from "
            f"{self.evaluations} evaluations "
            f"({self.generations} generations x {self.population})",
            f"{'assignment':44s} {'cycles':>12s} {'footprint':>10s}",
        ]
        dominating = set(id(p) for p in self.dominating())

        def row(point: AssignmentPoint, tag: str) -> str:
            kinds = ", ".join(
                f"{site.rsplit(':', 1)[-1]}={kind}"
                for site, kind in point.kinds
            )
            return (f"{kinds[:44]:44s} {point.cycles:>12,} "
                    f"{point.footprint_bytes:>9,}B{tag}")

        lines.append(row(self.default, "  [default]"))
        if self.greedy is not None:
            lines.append(row(self.greedy, "  [greedy advisor]"))
        for point in self.front:
            tag = " *" if id(point) in dominating else ""
            lines.append(row(point, tag))
        if dominating:
            lines.append(
                f"* strictly dominates the greedy per-instance "
                f"assignment on ({', '.join(OBJECTIVES)})"
            )
        if self.quarantined:
            lines.append(
                f"{len(self.quarantined)} chromosome(s) quarantined by "
                "the fault boundary (search continued without them)"
            )
        if self.truncated:
            lines.append(
                f"search truncated ({self.truncated}) after "
                f"{len(self.history) - 1} of {self.generations} "
                "generation(s); front reflects every evaluation so far"
            )
        return "\n".join(lines)


def site_candidates(app: CaseStudyApp
                    ) -> tuple[tuple[str, ...], tuple[tuple[DSKind, ...], ...]]:
    """Each site's name and legal candidate set (defaults included)."""
    names: list[str] = []
    candidates: list[tuple[DSKind, ...]] = []
    for site in app.sites():
        legal = site.legal_candidates()
        if site.default_kind not in legal:
            legal = (site.default_kind,) + tuple(legal)
        names.append(site.name)
        candidates.append(tuple(legal))
    return tuple(names), tuple(candidates)


def run_darwin(app: CaseStudyApp,
               machine_config: MachineConfig,
               advisor: BrainyAdvisor | None = None, *,
               options: RunOptions | None = None,
               seed: int = 0,
               input_name: str = "",
               executor=None,
               checkpoint: str | Path | None = None,
               resume: bool = False,
               clock: Callable[[], float] = time.monotonic
               ) -> DarwinResult:
    """Evolve whole-program container assignments for ``app``.

    With an ``advisor``, the greedy per-instance suggestions are
    measured, seeded into generation zero, and reported alongside the
    front (so :meth:`DarwinResult.dominating` can show where whole-
    program search beats per-instance greed).  Without one, only the
    app's declared defaults seed the search.

    ``options`` (:class:`~repro.runtime.options.RunOptions`) carries the
    search knobs, checked up front by
    :meth:`~repro.runtime.options.RunOptions.validate_darwin`:
    ``darwin_generations`` / ``darwin_population``, and
    ``darwin_objectives``, which picks the axes the GA minimises (any
    non-empty subset of ``cycles``/``memory``); reported points always
    carry both measurements.  All randomness stays in the parent
    process and fitness fans out over ``options.jobs`` workers, so the
    result is byte-identical for any ``jobs`` value.

    Robustness knobs:

    * ``checkpoint`` — path for the :class:`DarwinCheckpoint` artifact.
      With ``options.darwin_checkpoint_every=N`` every Nth completed
      generation is flushed; an interrupt (``KeyboardInterrupt``, i.e.
      SIGINT, or SIGTERM converted by the CLI) flushes the last
      generation boundary and raises :class:`TrainingInterrupted`; a
      finished run stores the final result with ``complete=True``.
    * ``resume=True`` — load ``checkpoint`` (if it exists) and continue
      byte-identically from its generation boundary; a ``complete``
      checkpoint returns the stored result instantly.  The checkpoint's
      identity fields must match this call's app/input/machine/
      objectives/seed/generations/population.
    * ``options.darwin_budget_seconds`` — wall-clock budget
      (resume-aware: time spent before an interrupt counts); the search
      stops cleanly at the next generation boundary, checkpoints, and
      the result comes back flagged ``truncated="budget"``.
    * ``options.retry_policy`` — fault-boundary tuning for
      per-chromosome transient retries; deterministic failures
      quarantine the chromosome into :attr:`DarwinResult.quarantined`
      and the search continues.
    """
    options = (options or RunOptions()).validate_darwin()
    generations = options.darwin_generations
    population = options.darwin_population
    objectives = tuple(options.darwin_objectives)
    checkpoint_every = options.darwin_checkpoint_every
    budget_seconds = options.darwin_budget_seconds
    checkpoint = Path(checkpoint) if checkpoint is not None else None
    if checkpoint is None:
        if checkpoint_every is not None:
            raise ValueError(
                "checkpoint_every requires a checkpoint path")
        if resume:
            raise ValueError("resume requires a checkpoint path")
    site_names, candidates = site_candidates(app)
    choices = tuple(len(kinds) for kinds in candidates)

    resume_state: ParetoState | None = None
    elapsed_base = 0.0
    if resume and checkpoint.exists():
        ckpt = DarwinCheckpoint.load(checkpoint)
        expected = {
            "app_name": app.name,
            "input_name": input_name,
            "machine_name": machine_config.name,
            "objectives": list(objectives),
            "seed": seed,
            "generations": generations,
            "population": population,
        }
        if ckpt.fingerprint() != expected:
            mismatched = sorted(
                k for k, v in expected.items()
                if ckpt.fingerprint()[k] != v)
            raise ValueError(
                f"checkpoint {checkpoint} does not match this darwin "
                f"run (differs on: {', '.join(mismatched)}); refusing "
                "to resume someone else's search"
            )
        if ckpt.complete and ckpt.result is not None:
            return DarwinResult.from_payload(ckpt.result)
        if ckpt.state is not None:
            resume_state = ParetoState.from_payload(ckpt.state)
        elapsed_base = ckpt.elapsed_seconds

    fitness = AssignmentFitness(
        app=app, machine_config=machine_config,
        site_names=site_names, candidates=candidates,
        objectives=objectives,
    )

    def point(chromosome, cycles: float, footprint_bytes: float
              ) -> AssignmentPoint:
        kinds = fitness.kinds_for(chromosome)
        return AssignmentPoint(
            kinds=tuple((f"{app.name}:{site}", kinds[site].value)
                        for site in site_names),
            cycles=int(cycles),
            footprint_bytes=int(footprint_bytes),
        )

    def measure(chromosome) -> AssignmentPoint:
        """The point of ``chromosome``: the recording run's, or read
        off the search's archive when it searched both axes, else
        simulated."""
        if tuple(chromosome) == default_chromosome:
            return default_point
        values = (result.archive.get(tuple(chromosome))
                  if set(objectives) == set(OBJECTIVES) else None)
        if values is not None:
            reading = dict(zip(objectives, values))
            return point(chromosome, reading["cycles"], reading["memory"])
        run = run_assignment(app, machine_config,
                             fitness.kinds_for(chromosome), fitness.tape)
        return point(chromosome, run.cycles, run.footprint_bytes)

    default_chromosome = tuple(
        kinds.index(site.default_kind)
        for site, kinds in zip(app.sites(), candidates)
    )

    start = clock()

    def elapsed() -> float:
        return elapsed_base + (clock() - start)

    last_state: ParetoState | None = resume_state

    def flush(state: ParetoState | None, *,
              complete: bool = False,
              result_payload: dict | None = None) -> None:
        if checkpoint is None:
            return
        DarwinCheckpoint(
            app_name=app.name,
            input_name=input_name,
            machine_name=machine_config.name,
            objectives=objectives,
            seed=seed,
            generations=generations,
            population=population,
            state=state.to_payload() if state is not None else None,
            elapsed_seconds=elapsed(),
            complete=complete,
            result=result_payload,
        ).save(checkpoint)

    def on_generation(state: ParetoState) -> None:
        nonlocal last_state
        last_state = state
        if checkpoint is not None and checkpoint_every is not None \
                and state.generation % checkpoint_every == 0:
            flush(state)

    stop = None
    if budget_seconds is not None:
        def stop(generation: int) -> str | None:
            return "budget" if elapsed() >= budget_seconds else None

    try:
        # One real run of the defaults records the tape every later
        # evaluation replays, and is the default point itself.  With an
        # advisor it is instrumented, and its profile is what the greedy
        # per-instance report is built from.
        tape, default_run = Tape.record(
            app, machine_config, fitness.kinds_for(default_chromosome),
            instrument=advisor is not None)
        default_point = point(default_chromosome, default_run.cycles,
                              default_run.footprint_bytes)
        fitness = replace(fitness, tape=tape,
                          recorded=(default_chromosome, default_point))
        seeds = [default_chromosome]
        greedy_report: Report | None = None
        greedy_chromosome: tuple[int, ...] | None = None
        if advisor is not None:
            greedy_report = advisor.advise_result(app, default_run)
            suggested = {s.context: s.suggested for s in greedy_report}
            greedy_chromosome = tuple(
                kinds.index(choice) if (choice := suggested.get(
                    f"{app.name}:{name}")) in kinds
                else default_chromosome[i]
                for i, (name, kinds)
                in enumerate(zip(site_names, candidates))
            )
            if greedy_chromosome != default_chromosome:
                seeds.append(greedy_chromosome)
        search = GeneticSearch(
            len(site_names),
            population=population,
            generations=generations,
            ancestry=TournamentAncestry(min(3, population)),
            crossover=UniformCrossover(0.7),
            mutation=GeneChoiceMutation(choices, rate=0.25),
            init=SeededChoiceInit(choices, seeds=tuple(seeds)),
            elitism=0,
            seed=seed,
        )
        result: ParetoResult = search.pareto(
            fitness, objectives, jobs=options.jobs,
            executor=executor, resume_state=resume_state,
            on_generation=on_generation, stop=stop,
            retry_policy=options.retry_policy)

        front = [measure(p.genome) for p in result.front]
        front.sort(key=lambda p: (p.cycles, p.footprint_bytes, p.kinds))
        greedy_point = (measure(greedy_chromosome)
                        if advisor is not None else None)
    except KeyboardInterrupt:
        # The loop only hands out states at generation boundaries, so
        # the flushed checkpoint resumes byte-identically.
        if checkpoint is not None and last_state is not None:
            flush(last_state)
            raise TrainingInterrupted(
                f"darwin search interrupted after generation "
                f"{last_state.generation}; checkpoint flushed to "
                f"{checkpoint}",
                checkpoint_path=checkpoint,
            ) from None
        raise

    report = greedy_report if greedy_report is not None else Report(
        program_cycles=default_point.cycles)
    report.pareto_front = [p.to_payload() for p in front]
    report.pareto_truncated = result.truncated

    outcome = DarwinResult(
        app_name=app.name,
        input_name=input_name,
        machine_name=machine_config.name,
        objectives=objectives,
        site_names=site_names,
        candidates=candidates,
        front=front,
        default=default_point,
        greedy=greedy_point,
        generations=generations,
        population=population,
        evaluations=result.evaluations,
        history=result.history,
        report=report,
        quarantined=list(result.quarantined),
        truncated=result.truncated,
    )
    if checkpoint is not None:
        if result.truncated:
            # A budget stop is resumable: keep the boundary state.
            flush(last_state)
        else:
            flush(last_state, complete=True,
                  result_payload=outcome.to_payload())
    return outcome
