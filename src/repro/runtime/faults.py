"""Per-seed fault isolation: taxonomy, bounded retry, quarantine, budgets.

A production-scale Phase-I run touches thousands of generated apps; one
pathological seed must not take the whole run down.  The error boundary
here classifies failures as *transient* (worth a bounded, backed-off
retry) or *deterministic* (retrying replays the same crash), converts
give-ups into :class:`QuarantineRecord` entries the run carries in its
result, and enforces a per-seed work budget so a single app cannot stall
the pipeline indefinitely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable


class TransientFault(RuntimeError):
    """A failure that may succeed on retry (I/O hiccup, flaky resource)."""


class DeterministicFault(RuntimeError):
    """A failure that will recur on every retry (bad seed, logic bug)."""


class SeedBudgetExceeded(DeterministicFault):
    """The per-seed work budget ran out; the seed is quarantined."""


# -- serving fault taxonomy (repro serve) -------------------------------

#: Reasons a suggestion fell back to the Perflint baseline.  Every
#: baseline answer must carry one of these in
#: ``Report.degraded_reasons`` — the serving contract is "never
#: silently baseline".
DEGRADED_MODEL_UNAVAILABLE = "model_unavailable"
DEGRADED_INFERENCE_ERROR = "inference_error"
DEGRADED_BREAKER = "breaker"
DEGRADED_DEADLINE = "deadline"


class ServingFault(RuntimeError):
    """Base class for faults raised on the advisor serving path."""


class InferenceUnavailable(ServingFault):
    """A serving inference seam declined to run a group's model.

    The advisor catches this and answers the group's records with the
    Perflint baseline, recording :attr:`reason` in
    ``Report.degraded_reasons`` — an open circuit breaker and a crashed
    model both turn into a flagged baseline answer instead of a failed
    request.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


#: Exception types treated as transient even when raised by third-party
#: code that knows nothing of our taxonomy.
TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    TransientFault,
    ConnectionError,
    TimeoutError,
    InterruptedError,
)

CATEGORY_TRANSIENT = "transient"
CATEGORY_DETERMINISTIC = "deterministic"
CATEGORY_BUDGET = "budget"


def classify(exc: BaseException) -> str:
    """Map an exception to its fault category."""
    if isinstance(exc, SeedBudgetExceeded):
        return CATEGORY_BUDGET
    if isinstance(exc, TRANSIENT_TYPES):
        return CATEGORY_TRANSIENT
    return CATEGORY_DETERMINISTIC


@dataclass(frozen=True)
class QuarantineRecord:
    """One seed the run gave up on, and why."""

    seed: int
    stage: str  # "generate" | "measure" | "finish" | "worker"
    category: str  # transient | deterministic | budget
    error: str
    attempts: int

    def to_payload(self) -> dict:
        return {"seed": self.seed, "stage": self.stage,
                "category": self.category, "error": self.error,
                "attempts": self.attempts}

    @classmethod
    def of(cls, error: BaseException, *, seed: int, stage: str,
           attempts: int) -> "QuarantineRecord":
        """The record of giving up on ``seed`` after ``error``."""
        return cls(seed=seed, stage=stage, category=classify(error),
                   error=f"{type(error).__name__}: {error}",
                   attempts=attempts)

    @classmethod
    def from_payload(cls, payload: dict) -> "QuarantineRecord":
        return cls(seed=payload["seed"], stage=payload["stage"],
                   category=payload["category"], error=payload["error"],
                   attempts=payload["attempts"])


class SeedQuarantined(Exception):
    """Internal control flow: the boundary gave up on this seed."""

    def __init__(self, record: QuarantineRecord) -> None:
        super().__init__(f"seed {record.seed} quarantined at "
                         f"{record.stage}: {record.error}")
        self.record = record


#: Backoff before each retry of a transient fault, in seconds: the
#: retry budget of :func:`run_guarded` and of the pipeline's stages.
RETRY_DELAYS = (0.01, 0.02)


class WorkBudget:
    """Wall-clock budget for processing one seed (generate + measure +
    retries).  ``seconds=None`` disables the guard."""

    def __init__(self, seconds: float | None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.seconds = seconds
        self._clock = clock
        self._started: float | None = None

    def start(self) -> "WorkBudget":
        self._started = self._clock()
        return self

    def exceeded(self) -> bool:
        if self.seconds is None or self._started is None:
            return False
        return (self._clock() - self._started) > self.seconds

    def check(self) -> None:
        if self.exceeded():
            raise SeedBudgetExceeded(
                f"seed work budget of {self.seconds}s exhausted"
            )


def run_guarded(fn: Callable[[], object], *,
                seed: int,
                stage: str,
                budget: WorkBudget | None = None,
                sleep: Callable[[float], None] = time.sleep) -> object:
    """Run ``fn`` inside the error boundary.

    Transient faults are retried after each of :data:`RETRY_DELAYS`
    (unless the work budget is exhausted); deterministic faults, budget
    blow-outs, and exhausted retries raise :class:`SeedQuarantined`
    carrying a structured record.  ``KeyboardInterrupt`` always passes
    through untouched so the caller can flush a checkpoint.
    """
    delays = iter(RETRY_DELAYS)
    attempts = 0
    while True:
        attempts += 1
        try:
            if budget is not None:
                budget.check()
            return fn()
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            category = classify(exc)
            budget_blown = budget is not None and budget.exceeded()
            if category == CATEGORY_TRANSIENT and not budget_blown:
                delay = next(delays, None)
                if delay is not None:
                    import repro.obs as obs

                    obs.counter("faults.retries", stage=stage)
                    sleep(delay)
                    continue
            if budget_blown and category == CATEGORY_TRANSIENT:
                category = CATEGORY_BUDGET
            raise SeedQuarantined(QuarantineRecord(
                seed=seed, stage=stage, category=category,
                error=f"{type(exc).__name__}: {exc}", attempts=attempts,
            )) from exc
