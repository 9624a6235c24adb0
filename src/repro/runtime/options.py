"""Unified run-knob plumbing: one frozen :class:`RunOptions` per run.

The training entry points (:func:`repro.training.phase1.run_phase1`,
:meth:`repro.models.brainy.BrainySuite.train`, the suite cache in
:mod:`repro.models.cache`) and the Darwinian search
(:func:`repro.core.darwin.run_darwin`) take their cross-cutting knobs —
``jobs``, ``checkpoint_every``, the per-seed work budget
(``seed_budget_seconds``), ``telemetry`` and the
``darwin_*`` search knobs — as one immutable :class:`RunOptions` value
passed as ``options=``; there is no other spelling.

The serving runtime (:mod:`repro.serve`) reads its knobs from the same
object — :attr:`RunOptions.deadline_seconds`,
:attr:`RunOptions.queue_depth`, :attr:`RunOptions.breaker_threshold`,
:attr:`RunOptions.breaker_cooldown_seconds` and
:attr:`RunOptions.drain_seconds`.  Unlike the training knobs (``None``
means "unset, use the callee's default"), the serving knobs carry their
defaults right here, so this dataclass is the single place serving
defaults are defined and documented.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.runtime.parallel import resolve_jobs


@dataclass(frozen=True)
class RunOptions:
    """Immutable cross-cutting knobs for one training/advising/serving run.

    Parameters
    ----------
    jobs:
        Worker processes for the Phase I seed and GA fitness fan-outs
        (``None`` reads ``REPRO_JOBS``, default serial).
    checkpoint_every:
        Periodic checkpoint cadence, in seeds/records.
    seed_budget_seconds:
        Per-seed wall budget of the fault boundary
        (:class:`repro.runtime.faults.WorkBudget`).
    telemetry:
        A :class:`repro.obs.Collector` activated for the run's duration;
        ``None`` leaves whatever collector is already active (the null
        collector by default).
    deadline_seconds:
        Serving: per-request wall budget; a request that misses it is
        answered with the Perflint baseline flagged
        ``degraded=deadline``, never a hang.
    queue_depth:
        Serving: bounded work-queue size; requests beyond it are shed
        with a structured ``overloaded`` response.  It is also the cap
        on how many queued requests a freed worker answers in one
        batched pass.
    breaker_threshold:
        Serving: consecutive inference failures that open a model
        group's circuit breaker.
    breaker_cooldown_seconds:
        Serving: how long an open breaker waits before allowing one
        half-open probe request through.
    drain_seconds:
        Serving: budget for finishing in-flight requests on SIGTERM
        before the process exits anyway.
    shadow_queue_depth:
        Registry serving: bounded queue feeding the shadow evaluator;
        a full queue sheds the shadow sample, never the live answer.
    shadow_min_samples:
        Registry serving: minimum shadow-scored requests before a
        candidate may be promoted.
    shadow_min_agreement:
        Registry serving: minimum mean shadow agreement (0..1) with the
        live suite's answers for promotion.
    auto_demote_failures:
        Registry serving: model-level failures (breaker trips /
        inference errors) inside the post-promote watch window that
        trigger an automatic rollback.
    post_promote_window:
        Registry serving: how many answered requests after a promotion
        the auto-demote watch covers (0 disables the watch).
    darwin_generations:
        Darwinian search (``repro darwin``): NSGA-II generations to
        evolve whole-program container assignments for.
    darwin_population:
        Darwinian search: chromosomes per generation (the mu of the
        (mu + lambda) elitist survival step).
    darwin_objectives:
        Darwinian search: which axes the GA minimises, in order — a
        non-empty subset of ``("cycles", "memory")``.  Reported Pareto
        points always carry both measurements regardless.
    darwin_checkpoint_every:
        Darwinian search: checkpoint cadence in *generations* — every
        Nth completed generation flushes a
        :class:`repro.runtime.checkpoint.DarwinCheckpoint` so an
        interrupted search resumes byte-identically with ``--resume``.
        ``None`` (the default) checkpoints only on interrupt/truncation.
    darwin_budget_seconds:
        Darwinian search: wall-clock budget; the search stops cleanly at
        the next generation boundary once it is exhausted, checkpoints,
        and returns the best-front-so-far flagged ``truncated=budget``.
    """

    jobs: int | None = None
    checkpoint_every: int | None = None
    seed_budget_seconds: float | None = None
    telemetry: object | None = None
    # -- serving knobs (defaults live here; see the class docstring) -----
    deadline_seconds: float = 2.0
    queue_depth: int = 32
    breaker_threshold: int = 5
    breaker_cooldown_seconds: float = 30.0
    drain_seconds: float = 5.0
    # -- registry / shadow-evaluation knobs ------------------------------
    shadow_queue_depth: int = 16
    shadow_min_samples: int = 25
    shadow_min_agreement: float = 0.9
    auto_demote_failures: int = 3
    post_promote_window: int = 200
    # -- Darwinian whole-program search knobs ----------------------------
    darwin_generations: int = 12
    darwin_population: int = 16
    darwin_objectives: tuple[str, ...] = ("cycles", "memory")
    darwin_checkpoint_every: int | None = None
    darwin_budget_seconds: float | None = None

    def with_overrides(self, **changes: object) -> "RunOptions":
        """A copy with ``changes`` applied (frozen-safe ``replace``)."""
        return replace(self, **changes)

    def validate_training(self) -> "RunOptions":
        """Check the training knobs up front.

        Same contract as :meth:`validate_serving`: a ``ValueError``
        naming every offending knob, raised by the training entry points
        before any app is simulated (the API layer converts it to
        ``UsageError``, CLI exit 2).  An unset (``None``) knob is valid,
        except that an unset ``jobs`` must resolve: ``REPRO_JOBS``, when
        set, has to be an integer >= 1.
        """
        problems = []
        try:
            resolve_jobs(self.jobs)
        except ValueError as exc:
            problems.append(str(exc))
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            problems.append("checkpoint_every must be >= 1")
        if (self.seed_budget_seconds is not None
                and self.seed_budget_seconds <= 0):
            problems.append("seed_budget_seconds must be positive")
        if problems:
            raise ValueError("; ".join(problems))
        return self

    def validate_serving(self) -> "RunOptions":
        """Check every serving/pipeline knob up front.

        Raises ``ValueError`` naming the offending knob — the API layer
        converts it to the friendly ``UsageError`` (CLI exit 2) so a
        non-positive deadline or queue depth fails before the dispatcher
        ever starts, not deep inside it.  Returns ``self`` so call sites
        can validate inline.
        """
        problems = []
        if self.deadline_seconds <= 0:
            problems.append("deadline_seconds must be positive")
        if self.queue_depth < 1:
            problems.append("queue_depth must be >= 1")
        if self.breaker_threshold < 1:
            problems.append("breaker_threshold must be >= 1")
        if self.breaker_cooldown_seconds < 0:
            problems.append("breaker_cooldown_seconds must be >= 0")
        if self.drain_seconds < 0:
            problems.append("drain_seconds must be >= 0")
        if self.shadow_queue_depth < 1:
            problems.append("shadow_queue_depth must be >= 1")
        if self.shadow_min_samples < 1:
            problems.append("shadow_min_samples must be >= 1")
        if not 0.0 <= self.shadow_min_agreement <= 1.0:
            problems.append("shadow_min_agreement must be within "
                            "[0, 1]")
        if self.auto_demote_failures < 1:
            problems.append("auto_demote_failures must be >= 1")
        if self.post_promote_window < 0:
            problems.append("post_promote_window must be >= 0")
        if problems:
            raise ValueError("; ".join(problems))
        return self

    def validate_darwin(self) -> "RunOptions":
        """Check the Darwinian-search knobs up front.

        Same contract as :meth:`validate_serving`: a ``ValueError``
        naming every offending knob, which the API layer converts to
        ``UsageError`` (CLI exit 2) before any simulation starts.
        """
        problems = []
        if self.darwin_generations < 1:
            problems.append("darwin_generations must be >= 1")
        if self.darwin_population < 2:
            problems.append("darwin_population must be >= 2")
        objectives = tuple(self.darwin_objectives)
        if not objectives:
            problems.append("darwin_objectives must name at least one "
                            "objective")
        unknown = sorted(set(objectives) - {"cycles", "memory"})
        if unknown:
            problems.append(
                "unknown darwin objective(s) " + ", ".join(unknown)
                + "; valid objectives: cycles, memory"
            )
        if len(set(objectives)) != len(objectives):
            problems.append("darwin_objectives must not repeat an "
                            "objective")
        if (self.darwin_checkpoint_every is not None
                and self.darwin_checkpoint_every < 1):
            problems.append("darwin_checkpoint_every must be >= 1")
        if (self.darwin_budget_seconds is not None
                and self.darwin_budget_seconds <= 0):
            problems.append("darwin_budget_seconds must be positive")
        if problems:
            raise ValueError("; ".join(problems))
        return self

