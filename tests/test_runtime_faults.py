"""Unit tests for the fault taxonomy, retry boundary, and injector."""

import pytest

from repro.runtime.faults import (
    RETRY_DELAYS,
    DeterministicFault,
    SeedBudgetExceeded,
    SeedQuarantined,
    TransientFault,
    WorkBudget,
    classify,
    run_guarded,
)
from repro.runtime.inject import FaultInjector, FaultPlan


class TestClassify:
    def test_taxonomy(self):
        assert classify(TransientFault("x")) == "transient"
        assert classify(TimeoutError("x")) == "transient"
        assert classify(ConnectionError("x")) == "transient"
        assert classify(DeterministicFault("x")) == "deterministic"
        assert classify(ValueError("x")) == "deterministic"
        assert classify(SeedBudgetExceeded("x")) == "budget"


class TestRunGuarded:
    def test_success_passthrough(self):
        assert run_guarded(lambda: 42, seed=0, stage="generate") == 42

    def test_transient_retried_to_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientFault("hiccup")
            return "ok"

        result = run_guarded(flaky, seed=7, stage="measure",
                             sleep=lambda _: None)
        assert result == "ok"
        assert len(attempts) == 3

    def test_transient_retries_exhausted(self):
        def always_flaky():
            raise TransientFault("hiccup")

        slept = []
        with pytest.raises(SeedQuarantined) as exc_info:
            run_guarded(always_flaky, seed=7, stage="measure",
                        sleep=slept.append)
        # The fixed budget: two retries, backed off 0.01 s then 0.02 s.
        assert slept == list(RETRY_DELAYS) == [0.01, 0.02]
        record = exc_info.value.record
        assert record.seed == 7
        assert record.stage == "measure"
        assert record.category == "transient"
        assert record.attempts == 3

    def test_deterministic_not_retried(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("always broken")

        with pytest.raises(SeedQuarantined) as exc_info:
            run_guarded(broken, seed=3, stage="generate",
                        sleep=lambda _: None)
        assert len(attempts) == 1
        assert exc_info.value.record.category == "deterministic"

    def test_keyboard_interrupt_passes_through(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_guarded(interrupted, seed=0, stage="generate")

    def test_budget_blocks_retries(self):
        clock = iter([0.0, 0.0, 10.0, 10.0, 10.0]).__next__
        budget = WorkBudget(seconds=1.0, clock=clock).start()

        def flaky():
            raise TransientFault("hiccup")

        with pytest.raises(SeedQuarantined) as exc_info:
            run_guarded(flaky, seed=1, stage="measure",
                        budget=budget, sleep=lambda _: None)
        assert exc_info.value.record.category == "budget"

    def test_disabled_budget_never_exceeded(self):
        budget = WorkBudget(seconds=None).start()
        assert not budget.exceeded()
        budget.check()  # no raise


class TestFaultInjector:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(rng_seed=1, p_transient_generate=0.5,
                         p_deterministic_measure=0.5)
        a, b = FaultInjector(plan), FaultInjector(plan)
        for seed in range(50):
            for stage in ("generate", "measure"):
                assert a.decide(seed, stage) == b.decide(seed, stage)

    def test_probabilities_roughly_respected(self):
        plan = FaultPlan(rng_seed=0, p_transient_generate=0.3)
        injector = FaultInjector(plan)
        fates = [injector.decide(seed, "generate")
                 for seed in range(500)]
        rate = fates.count("transient") / len(fates)
        assert 0.2 < rate < 0.4

    def test_transient_fails_then_succeeds(self):
        plan = FaultPlan(rng_seed=0, p_transient_generate=1.0,
                         transient_failures=1)
        injector = FaultInjector(plan)
        with pytest.raises(TransientFault):
            injector.before(5, "generate")
        injector.before(5, "generate")  # second attempt succeeds

    def test_interrupt_fires_once(self):
        plan = FaultPlan(interrupt_at_seeds=frozenset({9}))
        injector = FaultInjector(plan)
        with pytest.raises(KeyboardInterrupt):
            injector.before(9, "generate")
        injector.before(9, "generate")  # resume path proceeds
