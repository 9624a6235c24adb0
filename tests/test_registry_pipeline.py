"""The resumable retraining pipeline (``repro pipeline``).

The expensive stages are overridden through the trainer/validator seams
(a tiny synthetic suite trains in well under a second), so these tests
exercise the orchestration itself: stage ledger commits, resume
skipping, transient retry with backoff, deterministic quarantine with a
structured reason, corpus-fingerprint staleness, and the quarantine of
an already-registered version.
"""

import pytest

from repro.appgen.config import GeneratorConfig
from repro.machine.configs import CORE2
from repro.models.cache import SCALES
from repro.registry.pipeline import (
    PipelineQuarantined,
    RESULT_PROMOTED,
    RESULT_QUARANTINED,
    RESULT_REGISTERED,
    STAGE_PROMOTE,
    STAGE_REGISTER,
    STAGE_TRAIN,
    STAGE_VALIDATE,
    STAGES,
    run_pipeline,
)
from repro.registry.store import (
    STATUS_QUARANTINED,
    SuiteRegistry,
)
from repro.runtime.faults import DeterministicFault, TransientFault
from repro.runtime.inject import PipelineFaultInjector
from repro.serve.testing import tiny_suite

SCALE = SCALES["tiny"]
CONFIG = GeneratorConfig()


def _trainer(seed=0):
    def train(machine_config, scale, config, workdir, options):
        return tiny_suite(seed)
    return train


def _validator(accuracy=1.0):
    def validate(suite, config, machine_config, apps, seed_base):
        return {group: accuracy for group in sorted(suite.models)}
    return validate


def _run(registry, *, promote=False, fault_hook=None, resume=True,
         min_accuracy=0.0, seed=0, validator=None, workdir=None):
    return run_pipeline(
        CORE2, SCALE, CONFIG, registry,
        promote=promote,
        workdir=workdir, resume=resume, min_accuracy=min_accuracy,
        validation_apps=2, fault_hook=fault_hook,
        trainer=_trainer(seed), validator=validator or _validator(),
        sleep=lambda _s: None,
    )


class TestHappyPath:
    def test_register_only(self, tmp_path):
        registry = SuiteRegistry(tmp_path / "reg")
        result = _run(registry)
        assert result.ok and result.status == RESULT_REGISTERED
        assert result.version == 1
        assert set(STAGES[:-1]) <= set(result.stages)
        assert STAGE_PROMOTE not in result.stages
        # Registered but not live: promotion belongs to the router.
        assert registry.live(result_key(registry)) is None
        info = registry.versions(result_key(registry))[0]
        assert info.validation["green"] is True
        assert info.source == "pipeline"

    def test_register_and_promote(self, tmp_path):
        registry = SuiteRegistry(tmp_path / "reg")
        result = _run(registry, promote=True)
        assert result.status == RESULT_PROMOTED
        assert registry.live(result_key(registry)).version == 1

    def test_second_cycle_registers_next_version(self, tmp_path):
        registry = SuiteRegistry(tmp_path / "reg")
        _run(registry, promote=True)
        result = _run(registry, resume=False, seed=1)
        assert result.version == 2
        assert registry.candidate(result_key(registry)).version == 2


class TestFaults:
    def test_transient_fault_retries_and_succeeds(self, tmp_path):
        registry = SuiteRegistry(tmp_path / "reg")
        injector = PipelineFaultInjector(STAGE_TRAIN, "transient", 1)
        result = _run(registry, fault_hook=injector)
        assert result.ok and injector.raised == 1

    def test_transient_faults_past_budget_quarantine(self, tmp_path):
        registry = SuiteRegistry(tmp_path / "reg")
        injector = PipelineFaultInjector(STAGE_TRAIN, "transient", 99)
        result = _run(registry, fault_hook=injector)
        assert result.status == RESULT_QUARANTINED
        assert result.failed_stage == STAGE_TRAIN
        assert "TransientFault" in result.reason
        # Structured quarantine record lands next to the stage ledger.
        from repro.runtime.artifacts import read_artifact

        record = read_artifact(result.workdir / "quarantine.json",
                               kind="pipeline-quarantine",
                               schema_version=1)
        assert record["stage"] == STAGE_TRAIN

    def test_deterministic_fault_quarantines_immediately(self,
                                                         tmp_path):
        registry = SuiteRegistry(tmp_path / "reg")
        injector = PipelineFaultInjector(STAGE_VALIDATE,
                                         "deterministic", 1)
        result = _run(registry, fault_hook=injector)
        assert result.status == RESULT_QUARANTINED
        assert result.failed_stage == STAGE_VALIDATE
        assert injector.raised == 1  # no retry for deterministic
        from repro.registry.store import RegistryKey

        assert registry.versions(RegistryKey.parse(result.key)) == []

    def test_post_register_failure_quarantines_the_version(
            self, tmp_path):
        registry = SuiteRegistry(tmp_path / "reg")
        injector = PipelineFaultInjector(STAGE_PROMOTE,
                                         "deterministic", 1)
        result = _run(registry, promote=True, fault_hook=injector)
        assert result.status == RESULT_QUARANTINED
        assert result.version == 1
        info = registry.version_info(result_key(registry), 1)
        assert info.status == STATUS_QUARANTINED
        assert "pipeline promote" in info.reason

    def test_red_validation_refuses_promotion(self, tmp_path):
        registry = SuiteRegistry(tmp_path / "reg")
        result = _run(registry, promote=True, min_accuracy=0.99,
                      validator=_validator(accuracy=0.1))
        assert result.status == RESULT_QUARANTINED
        assert result.failed_stage == STAGE_PROMOTE
        assert "not green" in result.reason
        # The registered-but-red version is quarantined, not served.
        info = registry.version_info(result_key(registry), 1)
        assert info.status == STATUS_QUARANTINED


class TestResume:
    def test_resume_skips_completed_stages(self, tmp_path):
        registry = SuiteRegistry(tmp_path / "reg")
        workdir = tmp_path / "work"
        # First run dies at validate (after train committed).
        injector = PipelineFaultInjector(STAGE_VALIDATE,
                                         "deterministic", 99)
        first = _run(registry, fault_hook=injector, workdir=workdir)
        assert first.status == RESULT_QUARANTINED
        assert STAGE_TRAIN in first.stages

        calls = []

        def counting_trainer(machine_config, scale, config, wd, opts):
            calls.append("train")
            return tiny_suite(0)

        second = run_pipeline(
            CORE2, SCALE, CONFIG, registry,
            workdir=workdir, resume=True, validation_apps=2,
            trainer=counting_trainer, validator=_validator(),
            sleep=lambda _s: None,
        )
        assert second.ok
        assert calls == []  # the train stage was never re-run

    def test_crash_between_register_and_ledger_commit_is_idempotent(
            self, tmp_path):
        """A crash after registry.register succeeds but before the
        ledger commit must not register a duplicate version on resume:
        the register stage finds the existing version by its train
        fingerprint and reuses it."""
        from repro.runtime.artifacts import read_artifact, write_artifact

        registry = SuiteRegistry(tmp_path / "reg")
        workdir = tmp_path / "work"
        first = _run(registry, workdir=workdir)
        assert first.ok and first.version == 1
        # Simulate the crash window: drop the register stage from the
        # ledger while the registered version stays on disk.
        state_path = workdir / "pipeline.state.json"
        payload = read_artifact(state_path, kind="pipeline-state",
                                schema_version=1)
        del payload["completed"][STAGE_REGISTER]
        write_artifact(state_path, payload, kind="pipeline-state",
                       schema_version=1)

        second = _run(registry, workdir=workdir)
        assert second.ok and second.version == 1
        key = result_key(registry)
        assert [info.version for info in registry.versions(key)] == [1]

    def test_fresh_run_ignores_the_ledger(self, tmp_path):
        registry = SuiteRegistry(tmp_path / "reg")
        workdir = tmp_path / "work"
        _run(registry, workdir=workdir)
        calls = []

        def counting_trainer(machine_config, scale, config, wd, opts):
            calls.append("train")
            return tiny_suite(1)

        result = run_pipeline(
            CORE2, SCALE, CONFIG, registry,
            workdir=workdir, resume=False, validation_apps=2,
            trainer=counting_trainer, validator=_validator(),
            sleep=lambda _s: None,
        )
        assert result.ok and calls == ["train"]
        assert result.version == 2


class TestFaultInjectorSpec:
    def test_spec_parsing(self):
        injector = PipelineFaultInjector.from_spec("train:transient:2")
        assert (injector.stage, injector.kind,
                injector.remaining) == ("train", "transient", 2)
        assert PipelineFaultInjector.from_spec(
            "validate:deterministic").remaining == 1
        for bad in ("nope", "train:bogus:1", "train:transient:x",
                    "a:b:c:d"):
            with pytest.raises(ValueError):
                PipelineFaultInjector.from_spec(bad)

    def test_injector_raises_then_stops(self):
        injector = PipelineFaultInjector("train", "transient", 1)
        with pytest.raises(TransientFault):
            injector("train")
        injector("train")  # budget spent: no-op
        injector("validate")  # other stages untouched
        deterministic = PipelineFaultInjector("train", "deterministic")
        with pytest.raises(DeterministicFault):
            deterministic("train")


def result_key(registry):
    [key] = registry.keys()
    return key
