"""Generic GA core: scalar evolution and NSGA-II Pareto search.

:class:`GeneticSearch` runs the evolutionary loop over whatever genome
the pluggable strategies (:mod:`repro.ml.strategies`) understand.  Two
drivers share it:

* :meth:`GeneticSearch.run` — the classic single-objective maximiser
  behind :class:`repro.ml.genetic.GeneticFeatureSelector`.  Its loop is
  byte-identical to the historical hard-wired implementation (elitist
  copy of the fittest, tournament parents, crossover + mutation), a
  property the adapter's tests pin down.
* :meth:`GeneticSearch.pareto` — NSGA-II-style multi-objective
  *minimisation* for the Darwinian whole-program container search:
  non-dominated sorting (Deb's fast sort), crowding distance, crowded
  tournament selection and (mu + lambda) elitist survival.

Fitness evaluation dominates a run — each call simulates a program or
trains a model — and the population's calls are independent, so both
drivers fan each generation out over a worker pool
(:mod:`repro.runtime.parallel`).  Every RNG draw (initial population,
ancestry declarations, crossover masks, mutation noise) happens in the
parent process, and fitness values merge back in chromosome order, so
results are byte-identical to a serial run for any ``jobs`` value and
any ``PYTHONHASHSEED``.  :meth:`pareto` additionally memoises fitness by
chromosome bytes in the parent, so revisited assignments cost nothing
and the final front is drawn from *every* evaluation, not just the last
generation.

:meth:`pareto` also carries the repo's robustness contract for
long-running searches:

* **Generation-granular state.**  After generation zero and after every
  completed generation the loop emits a :class:`ParetoState` — the full
  runtime envelope (population, objective rows, parent RNG state, the
  evaluation archive and quarantine memo in insertion order, history) —
  through the ``on_generation`` callback.  Feeding a captured state back
  as ``resume_state`` continues the search *byte-identically*: the
  interrupted-then-resumed front equals the uninterrupted one for any
  ``jobs`` value (:mod:`repro.core.darwin` builds checkpoints on top).
* **Per-candidate fault isolation.**  A fitness evaluation that fails is
  recovered at the in-order consume point: transient faults retry in the
  parent with bounded backoff, deterministic ones quarantine the
  chromosome (:class:`QuarantinedChromosome`, carried in the result) and
  the search continues on the surviving population.  Quarantined
  chromosomes score a large *finite* penalty on every objective — real
  points dominate them, crowding distances stay NaN-free — and never
  enter the archive, so the final front is drawn from real measurements
  only.
* **Clean truncation.**  A ``stop`` hook checked at each generation
  boundary can end the search early (e.g. a wall-clock budget); the
  best-front-so-far comes back flagged ``truncated``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

import repro.obs as obs
from repro.ml.strategies import (
    Ancestry,
    Crossover,
    GaussianMutation,
    Init,
    Mutation,
    TournamentAncestry,
    UniformCrossover,
    UnitUniformInit,
)
from repro.runtime.faults import (
    CATEGORY_TRANSIENT,
    QuarantineRecord,
    RetryPolicy,
    SeedQuarantined,
    classify,
    run_guarded,
)
from repro.runtime.parallel import (
    TaskFailure,
    make_executor,
    map_ordered,
    map_retry,
    resolve_jobs,
    usable_jobs,
)

#: Objective value assigned to quarantined chromosomes: large enough
#: that every real measurement dominates them, *finite* so crowding
#: distances stay NaN-free (``inf - inf`` would poison the sort).
QUARANTINE_PENALTY = float(2 ** 63)

ScalarFitnessFn = Callable[[np.ndarray], float]
VectorFitnessFn = Callable[[np.ndarray], Sequence[float]]


@dataclass
class SearchResult:
    """Outcome of a scalar :meth:`GeneticSearch.run`."""

    best: np.ndarray
    fitness: float
    history: list[float]


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated chromosome with its objective values."""

    genome: tuple
    objectives: tuple[float, ...]

    def dominates(self, other: "ParetoPoint") -> bool:
        """Strict Pareto dominance under minimisation."""
        return dominates(self.objectives, other.objectives)


@dataclass(frozen=True)
class QuarantinedChromosome:
    """One chromosome the fitness fault boundary gave up on, and why."""

    genome: tuple
    record: QuarantineRecord

    def to_payload(self) -> dict:
        return {"genome": list(self.genome),
                "record": self.record.to_payload()}

    @classmethod
    def from_payload(cls, payload: dict) -> "QuarantinedChromosome":
        return cls(genome=tuple(payload["genome"]),
                   record=QuarantineRecord.from_payload(
                       payload["record"]))


@dataclass
class ParetoState:
    """Full :meth:`GeneticSearch.pareto` loop state at a generation
    boundary.

    Captured after generation zero and after every completed generation
    (the ``on_generation`` hook); feeding it back as ``resume_state``
    continues the search byte-identically — same RNG stream, same
    archive insertion order, same front — for any ``jobs`` value.  The
    payload is plain JSON so checkpoints ride the artifact envelope.
    """

    #: Fully-completed generations (0 = generation zero evaluated).
    generation: int
    #: Current population's genome rows (plain lists).
    population: list
    #: Aligned objective rows (quarantine penalties included).
    pop_objectives: list
    #: Parent ``np.random.Generator`` bit-generator state.
    rng_state: dict
    #: Population array dtype string, so memo keys round-trip exactly.
    dtype: str
    #: ``[genome row, objective row]`` pairs in evaluation order.
    archive: list
    #: :class:`QuarantinedChromosome` payloads in quarantine order.
    quarantined: list
    #: Per-generation rank-0 counts, generation zero first.
    history: list

    def to_payload(self) -> dict:
        return {
            "generation": self.generation,
            "population": self.population,
            "pop_objectives": self.pop_objectives,
            "rng_state": self.rng_state,
            "dtype": self.dtype,
            "archive": self.archive,
            "quarantined": self.quarantined,
            "history": self.history,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ParetoState":
        return cls(
            generation=payload["generation"],
            population=list(payload["population"]),
            pop_objectives=list(payload["pop_objectives"]),
            rng_state=dict(payload["rng_state"]),
            dtype=payload["dtype"],
            archive=list(payload["archive"]),
            quarantined=list(payload["quarantined"]),
            history=list(payload["history"]),
        )


@dataclass
class ParetoResult:
    """Outcome of a :meth:`GeneticSearch.pareto` run."""

    #: The non-dominated set over every chromosome ever evaluated,
    #: sorted by objective values then genome (deterministic).
    front: list[ParetoPoint]
    #: Objective names, in the order fitness tuples carry them.
    objectives: tuple[str, ...]
    #: Per-generation size of the population's rank-0 set (generation
    #: zero first).
    history: list[int]
    #: Distinct chromosomes evaluated (memoised revisits excluded).
    evaluations: int = 0
    #: Every evaluated chromosome -> objective tuple, in evaluation
    #: order.  The search's full archive, for reporting.
    archive: dict[tuple, tuple[float, ...]] = field(default_factory=dict)
    #: Chromosomes the fitness fault boundary quarantined (never in
    #: :attr:`front` or :attr:`archive`), in quarantine order.
    quarantined: list[QuarantinedChromosome] = field(default_factory=list)
    #: Why the search stopped before its generation budget (e.g.
    #: ``"budget"``), or ``None`` when it ran to completion.
    truncated: str | None = None


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` strictly Pareto-dominates ``b`` (minimisation):
    no worse on every objective and strictly better on at least one."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool((a <= b).all() and (a < b).any())


def non_dominated_rank(objectives: np.ndarray) -> np.ndarray:
    """Deb's fast non-dominated sort (minimisation).

    Returns each row's front index: 0 for the Pareto front, 1 for the
    front once rank 0 is removed, and so on.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    n = objectives.shape[0]
    less_eq = (objectives[:, None, :] <= objectives[None, :, :]).all(-1)
    less = (objectives[:, None, :] < objectives[None, :, :]).any(-1)
    dominate = less_eq & less  # [i, j] — i dominates j
    dominator_count = dominate.sum(axis=0).astype(np.int64)
    ranks = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rank = 0
    while active.any():
        front = active & (dominator_count == 0)
        ranks[front] = rank
        active &= ~front
        dominator_count = dominator_count - dominate[front].sum(axis=0)
        rank += 1
    return ranks


def crowding_distance(objectives: np.ndarray,
                      ranks: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance, computed within each front.

    Boundary members of a front get ``inf`` (always preferred); inner
    members sum, per objective, the normalised gap between their
    neighbours in that objective's sorted order.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    n, n_obj = objectives.shape
    crowd = np.zeros(n, dtype=np.float64)
    for rank in np.unique(ranks):
        members = np.flatnonzero(ranks == rank)
        if len(members) <= 2:
            crowd[members] = np.inf
            continue
        for k in range(n_obj):
            vals = objectives[members, k]
            order = np.argsort(vals, kind="stable")
            crowd[members[order[0]]] = np.inf
            crowd[members[order[-1]]] = np.inf
            span = vals[order[-1]] - vals[order[0]]
            if span <= 0:
                continue
            inner = members[order[1:-1]]
            crowd[inner] += (vals[order[2:]] - vals[order[:-2]]) / span
    return crowd


class GeneticSearch:
    """Evolve chromosomes under pluggable strategy objects.

    Strategies default to the feature-selection configuration
    (3-way tournament, uniform crossover at 0.7, Gaussian mutation,
    unit-uniform init); the Darwinian search swaps in categorical
    init/mutation without touching the core loop.
    """

    def __init__(self, n_genes: int, *,
                 population: int = 16, generations: int = 12,
                 ancestry: Ancestry | None = None,
                 crossover: Crossover | None = None,
                 mutation: Mutation | None = None,
                 init: Init | None = None,
                 elitism: int = 2, seed: int = 0) -> None:
        if n_genes < 1:
            raise ValueError("n_genes must be at least 1")
        if population < 2:
            raise ValueError("population must be at least 2")
        if generations < 0:
            raise ValueError("generations must be non-negative")
        if elitism < 0:
            raise ValueError("elitism must be non-negative")
        if elitism >= population:
            # Reject up front, the same way an oversized tournament is:
            # a full-elite population would re-evaluate itself forever
            # without ever breeding offspring.
            raise ValueError(
                f"elitism {elitism} leaves no room for offspring in a "
                f"population of {population}; elitism must be smaller "
                "than the population"
            )
        self.n_genes = n_genes
        self.population_size = population
        self.generations = generations
        self.ancestry = ancestry if ancestry is not None \
            else TournamentAncestry()
        self.ancestry.validate(population)
        self.crossover = crossover if crossover is not None \
            else UniformCrossover()
        self.mutation = mutation if mutation is not None \
            else GaussianMutation()
        self.init = init if init is not None else UnitUniformInit()
        self.elitism = elitism
        self.rng = np.random.default_rng(seed)

    # -- shared plumbing -------------------------------------------------

    def _executor(self, fitness_fn, jobs, executor):
        jobs = resolve_jobs(jobs)
        if executor is None:
            jobs = usable_jobs(fitness_fn, jobs, "the GA fitness function")
        own = executor is None
        if own:
            executor = make_executor(jobs)
        return jobs, executor, own

    def _offspring(self, pop: np.ndarray, keys: np.ndarray,
                   count: int) -> list[np.ndarray]:
        """Breed ``count`` children: declare parents, then interpret."""
        children: list[np.ndarray] = []
        while len(children) < count:
            parent_idx = self.ancestry.declare(self.rng, keys)
            parents = [pop[i] for i in parent_idx]
            child = self.crossover.combine(self.rng, parents)
            children.append(self.mutation.mutate(self.rng, child))
        return children

    # -- scalar maximisation (the legacy GA loop) ------------------------

    def run(self, fitness_fn: ScalarFitnessFn, *,
            jobs: int | None = None,
            executor=None) -> SearchResult:
        """Evolve chromosomes maximising ``fitness_fn(chromosome)``.

        ``jobs`` fans each generation's fitness evaluations out over a
        worker pool (``None`` reads ``REPRO_JOBS``, default serial).
        The evolutionary loop — and every RNG draw — stays in the
        parent, so the result is byte-identical for any ``jobs`` value;
        a worker-side failure is re-evaluated once in the parent before
        propagating.  ``executor`` overrides the pool (tests pass an
        in-process executor so stateful fitness seams work under any
        ``jobs``).
        """
        jobs, executor, own_executor = self._executor(
            fitness_fn, jobs, executor)

        def evaluate(population: np.ndarray) -> np.ndarray:
            # Dispatch is out-of-order across the pool; the merge is in
            # chromosome order, so this is exactly the serial
            # ``[fitness_fn(ch) for ch in population]``.
            obs.counter("ga.fitness_evals", len(population))
            return np.array(list(map_retry(
                fitness_fn, list(population), jobs=jobs, executor=executor,
            )), dtype=np.float64)

        with obs.span("ga.run"):
            try:
                pop = self.init.population(
                    self.rng, self.population_size, self.n_genes)
                fitnesses = evaluate(pop)
                history = [float(fitnesses.max())]

                for _ in range(self.generations):
                    order = np.argsort(-fitnesses)
                    next_pop = [pop[i].copy()
                                for i in order[:self.elitism]]
                    next_pop.extend(self._offspring(
                        pop, fitnesses,
                        self.population_size - len(next_pop)))
                    pop = np.asarray(next_pop)
                    fitnesses = evaluate(pop)
                    history.append(float(fitnesses.max()))
                    obs.counter("ga.generations")
            finally:
                if own_executor:
                    executor.shutdown()

            best = int(np.argmax(fitnesses))
            obs.gauge("ga.best_fitness", float(fitnesses[best]))
            return SearchResult(
                best=pop[best].copy(),
                fitness=float(fitnesses[best]),
                history=history,
            )

    # -- NSGA-II multi-objective minimisation ----------------------------

    def pareto(self, fitness_fn: VectorFitnessFn,
               objectives: Sequence[str], *,
               jobs: int | None = None,
               executor=None,
               resume_state: ParetoState | None = None,
               on_generation: Callable[[ParetoState], None] | None = None,
               stop: Callable[[int], str | None] | None = None,
               retry_policy: RetryPolicy | None = None) -> ParetoResult:
        """Evolve a Pareto front minimising every objective.

        ``fitness_fn(chromosome)`` must return one value per entry of
        ``objectives``, lower being better.  Selection keys come from
        NSGA-II non-dominated rank and crowding distance; survival is
        (mu + lambda) elitist with crowding truncation.  All ties break
        on the population index, all RNG stays in the parent, and
        fitness is memoised by chromosome bytes, so the front is
        byte-identical for any ``jobs`` value and any
        ``PYTHONHASHSEED``.

        ``on_generation`` receives a :class:`ParetoState` after
        generation zero and each completed generation; ``resume_state``
        restores one and continues byte-identically from that boundary.
        ``stop(generation)`` is consulted at each boundary — a non-None
        reason ends the search with ``truncated`` set and the
        best-front-so-far.  A failing fitness evaluation is recovered
        at its in-order consume point: transient faults retry in the
        parent under ``retry_policy`` (default
        :class:`~repro.runtime.faults.RetryPolicy`), everything else
        quarantines the chromosome with a penalty score and the search
        continues.  ``KeyboardInterrupt`` always propagates so the
        caller can flush a checkpoint from the last boundary state.
        """
        objectives = tuple(objectives)
        if not objectives:
            raise ValueError("at least one objective is required")
        jobs, executor, own_executor = self._executor(
            fitness_fn, jobs, executor)
        policy = retry_policy if retry_policy is not None \
            else RetryPolicy()

        size = self.population_size
        archive: dict[bytes, tuple[float, ...]] = {}
        genomes: dict[bytes, tuple] = {}
        quarantine: dict[bytes, QuarantinedChromosome] = {}

        def recover(chromosome: np.ndarray, failure: TaskFailure):
            """In-parent boundary for one failed fitness evaluation:
            retry transients with backoff, quarantine the rest."""
            genome = tuple(np.asarray(chromosome).tolist())
            index = len(archive) + len(quarantine)
            category = classify(failure.error)
            if category != CATEGORY_TRANSIENT:
                return QuarantinedChromosome(
                    genome=genome,
                    record=QuarantineRecord(
                        seed=index, stage="fitness", category=category,
                        error=(f"{type(failure.error).__name__}: "
                               f"{failure.error}"),
                        attempts=1,
                    ))
            try:
                return run_guarded(lambda: fitness_fn(chromosome),
                                   seed=index, stage="fitness",
                                   policy=policy)
            except SeedQuarantined as exc:
                return QuarantinedChromosome(genome=genome,
                                             record=exc.record)

        def evaluate(population) -> np.ndarray:
            chromosomes = [np.asarray(ch) for ch in population]
            fresh: list[np.ndarray] = []
            pending: set[bytes] = set()
            for ch in chromosomes:
                key = ch.tobytes()
                if key not in archive and key not in quarantine \
                        and key not in pending:
                    pending.add(key)
                    fresh.append(ch)
            if fresh:
                obs.counter("ga.fitness_evals", len(fresh))
                outcomes = map_ordered(fitness_fn, fresh, jobs=jobs,
                                       executor=executor)
                for ch, outcome in zip(fresh, outcomes):
                    if isinstance(outcome, TaskFailure):
                        outcome = recover(ch, outcome)
                    key = ch.tobytes()
                    if isinstance(outcome, QuarantinedChromosome):
                        quarantine[key] = outcome
                        obs.counter("ga.quarantined")
                        continue
                    value = tuple(float(v) for v in np.atleast_1d(
                        np.asarray(outcome, dtype=np.float64)))
                    if len(value) != len(objectives):
                        raise ValueError(
                            f"fitness returned {len(value)} value(s) "
                            f"for {len(objectives)} objective(s) "
                            f"{objectives}"
                        )
                    archive[key] = value
                    genomes[key] = tuple(ch.tolist())
            penalty = (QUARANTINE_PENALTY,) * len(objectives)
            return np.array([archive.get(ch.tobytes(), penalty)
                             for ch in chromosomes], dtype=np.float64)

        def selection_keys(ranks: np.ndarray,
                           crowd: np.ndarray) -> np.ndarray:
            # Crowded-comparison order: rank ascending, then crowding
            # descending, then index (a deterministic tie-break).  Keys
            # are "higher is better" for the ancestry strategy.
            n = len(ranks)
            order = np.lexsort((np.arange(n), -crowd, ranks))
            keys = np.empty(n, dtype=np.float64)
            keys[order] = np.arange(n, 0, -1, dtype=np.float64)
            return keys

        def snapshot(completed: int, pop: np.ndarray, objs: np.ndarray,
                     history: list[int]) -> ParetoState:
            return ParetoState(
                generation=completed,
                population=np.asarray(pop).tolist(),
                pop_objectives=np.asarray(objs).tolist(),
                rng_state=self.rng.bit_generator.state,
                dtype=str(np.asarray(pop).dtype),
                archive=[[list(genomes[k]), list(archive[k])]
                         for k in archive],
                quarantined=[q.to_payload()
                             for q in quarantine.values()],
                history=list(history),
            )

        truncated: str | None = None
        with obs.span("ga.pareto"):
            try:
                if resume_state is not None:
                    # Restore the envelope exactly: memo insertion
                    # order, quarantine memo, RNG stream position.
                    dtype = np.dtype(resume_state.dtype)
                    for genome, value in resume_state.archive:
                        ch = np.asarray(genome, dtype=dtype)
                        key = ch.tobytes()
                        archive[key] = tuple(float(v) for v in value)
                        genomes[key] = tuple(ch.tolist())
                    for payload in resume_state.quarantined:
                        item = QuarantinedChromosome.from_payload(payload)
                        quarantine[np.asarray(item.genome,
                                              dtype=dtype).tobytes()] = item
                    pop = np.asarray(resume_state.population, dtype=dtype)
                    objs = np.asarray(resume_state.pop_objectives,
                                      dtype=np.float64)
                    history = list(resume_state.history)
                    self.rng.bit_generator.state = resume_state.rng_state
                    completed = int(resume_state.generation)
                else:
                    pop = np.asarray(self.init.population(
                        self.rng, size, self.n_genes))
                    objs = evaluate(pop)
                    history = [int((non_dominated_rank(objs) == 0).sum())]
                    completed = 0
                    obs.gauge("darwin.archive_size", float(len(archive)))
                    if on_generation is not None:
                        on_generation(snapshot(0, pop, objs, history))

                for generation in range(completed + 1,
                                        self.generations + 1):
                    if stop is not None:
                        reason = stop(generation)
                        if reason:
                            truncated = reason
                            break
                    with obs.span("darwin.generation",
                                  generation=generation):
                        ranks = non_dominated_rank(objs)
                        crowd = crowding_distance(objs, ranks)
                        keys = selection_keys(ranks, crowd)
                        offspring = np.asarray(
                            self._offspring(pop, keys, size))
                        child_objs = evaluate(offspring)

                        merged = np.concatenate([pop, offspring])
                        merged_objs = np.concatenate([objs, child_objs])
                        m_ranks = non_dominated_rank(merged_objs)
                        m_crowd = crowding_distance(merged_objs, m_ranks)
                        keep = np.lexsort((np.arange(len(merged)),
                                           -m_crowd, m_ranks))[:size]
                        pop = merged[keep].copy()
                        objs = merged_objs[keep].copy()
                        history.append(
                            int((non_dominated_rank(objs) == 0).sum()))
                    obs.counter("ga.generations")
                    obs.gauge("darwin.archive_size", float(len(archive)))
                    if on_generation is not None:
                        on_generation(snapshot(generation, pop, objs,
                                               history))
            finally:
                if own_executor:
                    executor.shutdown()

            # The front over *everything* evaluated — crowding may have
            # truncated globally non-dominated points out of the final
            # population, and the memo archive still has them.
            keys_order = list(archive)
            values = np.array([archive[k] for k in keys_order],
                              dtype=np.float64)
            ranks = non_dominated_rank(values)
            front = [
                ParetoPoint(genome=genomes[keys_order[i]],
                            objectives=archive[keys_order[i]])
                for i in np.flatnonzero(ranks == 0)
            ]
            front.sort(key=lambda p: (p.objectives, p.genome))
            obs.gauge("ga.front_size", float(len(front)))
            return ParetoResult(
                front=front,
                objectives=objectives,
                history=history,
                evaluations=len(archive),
                archive={genomes[k]: archive[k] for k in keys_order},
                quarantined=list(quarantine.values()),
                truncated=truncated,
            )
