"""Deterministic fault injection for exercising the robustness boundary.

The injector wraps the two expensive Phase-I/II calls — ``generate_app``
and the candidate sweep — with seeded failure decisions, so tests can
prove the error boundary, retry, quarantine, and checkpoint/resume paths
without any real flakiness.  Every decision is a pure function of
``(plan.rng_seed, app seed, stage)``: re-running the same plan injects
the same faults in the same places, which is exactly what the
interrupt/resume determinism test needs.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.runtime.faults import DeterministicFault, TransientFault

STAGE_GENERATE = "generate"
STAGE_MEASURE = "measure"


@dataclass(frozen=True)
class FaultPlan:
    """Seeded failure probabilities per pipeline stage."""

    rng_seed: int = 0
    p_transient_generate: float = 0.0
    p_deterministic_generate: float = 0.0
    p_transient_measure: float = 0.0
    p_deterministic_measure: float = 0.0
    #: How many attempts of a transiently-failing (seed, stage) fail
    #: before it succeeds — keep at or below the retry budget to model a
    #: recoverable fault, above it to model a persistent one.
    transient_failures: int = 1
    #: App seeds at which to raise ``KeyboardInterrupt`` (once per
    #: injector instance), simulating Ctrl-C mid-run.
    interrupt_at_seeds: frozenset[int] = frozenset()


class FaultInjector:
    """Stateful wrapper applying a :class:`FaultPlan` to pipeline calls."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._attempts: dict[tuple[int, str], int] = {}
        self._interrupted: set[int] = set()

    def decide(self, seed: int, stage: str) -> str | None:
        """The fate of ``(seed, stage)``: 'transient', 'deterministic',
        or None.  Pure function of the plan and the pair."""
        if stage == STAGE_GENERATE:
            p_transient = self.plan.p_transient_generate
            p_deterministic = self.plan.p_deterministic_generate
        else:
            p_transient = self.plan.p_transient_measure
            p_deterministic = self.plan.p_deterministic_measure
        roll = random.Random(
            f"{self.plan.rng_seed}:{seed}:{stage}"
        ).random()
        if roll < p_transient:
            return "transient"
        if roll < p_transient + p_deterministic:
            return "deterministic"
        return None

    def before(self, seed: int, stage: str) -> None:
        """Raise the planned fault (if any) for this attempt."""
        if (seed in self.plan.interrupt_at_seeds
                and seed not in self._interrupted):
            self._interrupted.add(seed)
            raise KeyboardInterrupt(f"injected interrupt at seed {seed}")
        key = (seed, stage)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        fate = self.decide(seed, stage)
        if fate == "transient" and attempt < self.plan.transient_failures:
            raise TransientFault(
                f"injected transient fault: {stage} seed {seed} "
                f"attempt {attempt + 1}"
            )
        if fate == "deterministic":
            raise DeterministicFault(
                f"injected deterministic fault: {stage} seed {seed}"
            )

    # -- seams matching the training pipeline's pluggable calls ----------

    def wrap_generate(self, fn: Callable | None = None) -> Callable:
        """A drop-in for ``generate_app(seed, group, config)``."""
        if fn is None:
            from repro.appgen.generator import generate_app as fn

        def wrapped(seed, group, config):
            self.before(seed, STAGE_GENERATE)
            return fn(seed, group, config)

        return wrapped

    def wrap_measure(self, fn: Callable | None = None) -> Callable:
        """A drop-in for Phase I's ``measure_fn(app, machine_config,
        ...)``.

        Wraps :func:`~repro.appgen.workload.race_candidates` by default,
        which races at the default margin: pair it with a Phase I run at
        that margin, or pass ``fn`` explicitly — e.g.
        :func:`~repro.appgen.workload.race_sets` for a Phase I over
        several groups.
        """
        if fn is None:
            from repro.appgen.workload import race_candidates as fn

        def wrapped(app, machine_config, *sets):
            self.before(app.seed, STAGE_MEASURE)
            return fn(app, machine_config, *sets)

        return wrapped


# -- darwin-side injection -------------------------------------------------


@dataclass(frozen=True)
class DarwinFaultPlan:
    """Scripted per-chromosome faults for the darwin fitness seam.

    Decisions are pure functions of ``(rng_seed, genome)``, so the same
    plan injects the same faults at the same assignments no matter the
    generation, ``--jobs`` value, or interrupt point — which is exactly
    what the resume-identity-under-faults property tests need.  Genomes
    may also be scripted explicitly (``transient_genomes`` /
    ``deterministic_genomes``); explicit scripts win over probability
    rolls.  ``interrupt_at_evaluations`` raises ``KeyboardInterrupt``
    (once per injector) when the wrapped fitness function's call counter
    hits a scripted index — a mid-generation kill.
    """

    rng_seed: int = 0
    p_transient: float = 0.0
    p_deterministic: float = 0.0
    #: Attempts of a transiently-failing genome that fail before it
    #: succeeds — at or below the retry budget models recoverable,
    #: above it a persistent fault (quarantined as deterministic).
    transient_failures: int = 1
    transient_genomes: frozenset[tuple] = frozenset()
    deterministic_genomes: frozenset[tuple] = frozenset()
    #: Zero-based fitness-call indices at which to raise
    #: ``KeyboardInterrupt`` (each fires once per injector).
    interrupt_at_evaluations: frozenset[int] = frozenset()


class DarwinFaultInjector:
    """Stateful wrapper applying a :class:`DarwinFaultPlan` to a darwin
    fitness function.  Stateful (attempt counts, call counter), so runs
    needing faults visible under ``jobs > 1`` pass a
    :class:`repro.runtime.parallel.SerialExecutor`."""

    def __init__(self, plan: DarwinFaultPlan) -> None:
        self.plan = plan
        self._attempts: dict[tuple, int] = {}
        self._fired: set[int] = set()
        #: Fitness calls that reached :meth:`before` so far.
        self.calls = 0

    def decide(self, genome: tuple) -> str | None:
        """The fate of a genome: 'transient', 'deterministic', or None.
        Pure function of the plan and the genome."""
        if genome in self.plan.deterministic_genomes:
            return "deterministic"
        if genome in self.plan.transient_genomes:
            return "transient"
        roll = random.Random(
            f"{self.plan.rng_seed}:{','.join(map(str, genome))}:darwin"
        ).random()
        if roll < self.plan.p_transient:
            return "transient"
        if roll < self.plan.p_transient + self.plan.p_deterministic:
            return "deterministic"
        return None

    def before(self, genome: tuple) -> None:
        """Raise the planned fault (if any) for this attempt."""
        call = self.calls
        self.calls += 1
        if (call in self.plan.interrupt_at_evaluations
                and call not in self._fired):
            self._fired.add(call)
            raise KeyboardInterrupt(
                f"injected interrupt at evaluation {call}")
        attempt = self._attempts.get(genome, 0)
        self._attempts[genome] = attempt + 1
        fate = self.decide(genome)
        if fate == "transient" and attempt < self.plan.transient_failures:
            raise TransientFault(
                f"injected transient fault: genome {genome} "
                f"attempt {attempt + 1}"
            )
        if fate == "deterministic":
            raise DeterministicFault(
                f"injected deterministic fault: genome {genome}"
            )

    def wrap_fitness(self, fn: Callable) -> Callable:
        """A drop-in for a darwin fitness callable ``fn(chromosome)``."""

        def wrapped(chromosome):
            genome = tuple(int(g) for g in chromosome)
            self.before(genome)
            return fn(chromosome)

        return wrapped


# -- serving-side injection ------------------------------------------------


@dataclass
class ServeFaultPlan:
    """Deterministic failure behavior for the serving inference seam.

    ``fail_groups`` maps a model-group name to how many *consecutive*
    inference calls for that group should raise (``-1`` = fail forever)
    — exactly what circuit-breaker trip/half-open tests need.
    ``slow_groups`` lists groups whose inference blocks until the test
    releases :attr:`ServeFaultInjector.release` — how deadline tests
    make "slow" deterministic instead of sleep-based.
    """

    fail_groups: dict[str, int] = field(default_factory=dict)
    slow_groups: frozenset[str] = frozenset()


class ServeFaultInjector:
    """Wraps an ``InferenceFn`` (see :mod:`repro.serve.loop`) with the
    plan's failures and stalls; thread-safe, since the serving dispatch
    loop calls inference from worker threads."""

    def __init__(self, plan: ServeFaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._failures_left = dict(plan.fail_groups)
        #: Set by a test to unblock every stalled ``slow_groups`` call.
        self.release = threading.Event()
        #: Set by the injector when a stalled call has actually started
        #: — lets tests wait for "inference is now hung" before acting.
        self.started = threading.Event()
        #: Total inference calls that reached the wrapped function.
        self.calls = 0

    def wrap_inference(self, fn: Callable | None = None) -> Callable:
        """A drop-in for the serving ``inference`` seam."""
        if fn is None:
            from repro.serve.loop import _direct_inference as fn

        def wrapped(group_name, model, rows, masks):
            with self._lock:
                self.calls += 1
                remaining = self._failures_left.get(group_name, 0)
                if remaining:
                    if remaining > 0:
                        self._failures_left[group_name] = remaining - 1
                    raise RuntimeError(
                        f"injected inference failure for group "
                        f"{group_name!r}"
                    )
            if group_name in self.plan.slow_groups:
                self.started.set()
                self.release.wait()
            return fn(group_name, model, rows, masks)

        return wrapped


class PipelineFaultInjector:
    """Stage-level faults for ``repro pipeline`` (the ``--inject-fault``
    seam).

    Built from a spec ``stage:kind:count`` — e.g. ``train:transient:1``
    raises one :class:`TransientFault` the first time the train stage
    runs (the retry then succeeds), ``validate:deterministic:1``
    quarantines the candidate at validation.  The instance is the
    ``fault_hook(stage)`` callable
    :func:`repro.registry.pipeline.run_pipeline` accepts.
    """

    KINDS = ("transient", "deterministic")

    def __init__(self, stage: str, kind: str, count: int = 1) -> None:
        if kind not in self.KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; choose from {self.KINDS}"
            )
        if count < 1:
            raise ValueError("fault count must be >= 1")
        self.stage = stage
        self.kind = kind
        self.remaining = count
        #: Faults actually raised so far.
        self.raised = 0

    @classmethod
    def from_spec(cls, spec: str) -> "PipelineFaultInjector":
        """Parse ``stage:kind[:count]`` (count defaults to 1)."""
        parts = spec.split(":")
        if len(parts) == 2:
            stage, kind = parts
            count = 1
        elif len(parts) == 3:
            stage, kind = parts[0], parts[1]
            try:
                count = int(parts[2])
            except ValueError:
                raise ValueError(
                    f"bad fault count in spec {spec!r}") from None
        else:
            raise ValueError(
                f"bad fault spec {spec!r}; expected stage:kind[:count] "
                "e.g. train:transient:1"
            )
        return cls(stage, kind, count)

    def __call__(self, stage: str) -> None:
        if stage != self.stage or self.remaining <= 0:
            return
        self.remaining -= 1
        self.raised += 1
        if self.kind == "transient":
            raise TransientFault(
                f"injected transient fault at pipeline stage {stage}"
            )
        raise DeterministicFault(
            f"injected deterministic fault at pipeline stage {stage}"
        )


def corrupt_artifact(path: str | Path,
                     declared_checksum: str = "0" * 64) -> None:
    """Corrupt a saved artifact envelope in place (deterministically).

    The payload bytes stay intact but the envelope's declared checksum
    is replaced, so a strict load fails exactly the way a torn or
    bit-flipped write does — the hot-reload rejection tests' seam.
    """
    path = Path(path)
    envelope = json.loads(path.read_text())
    envelope["checksum"] = declared_checksum
    path.write_text(json.dumps(envelope))
