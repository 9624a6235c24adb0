"""Unit tests for the public facade (:mod:`repro.api`) and RunOptions."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro import api
from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import generate_app
from repro.containers.registry import MODEL_GROUPS
from repro.core.report import Report
from repro.machine.configs import CORE2
from repro.models import cache as cache_mod
from repro.models.brainy import BrainySuite
from repro.models.validation import ValidationResult
from repro.runtime.checkpoint import TrainingInterrupted
from repro.runtime.options import RunOptions
from repro.training.phase1 import run_phase1
from tests.conftest import UNIT_SCALE as TINY


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_mod, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setitem(cache_mod.SCALES, "unit-api", TINY)
    return tmp_path


@pytest.fixture
def trained_cache(tmp_cache, install_suite):
    """``tmp_cache`` holding the session's trained ``unit-api`` suite."""
    install_suite(tmp_cache / "cache", TINY.name)
    return tmp_cache


class TestFacadeExports:
    def test_top_level_reexports(self):
        assert repro.train is api.train
        assert repro.advise is api.advise
        assert repro.validate is api.validate
        assert repro.UsageError is api.UsageError
        assert repro.SuiteHandle is api.SuiteHandle
        assert issubclass(api.UsageError, ValueError)

    def test_machines_table(self):
        assert set(api.MACHINES) == {"core2", "atom"}
        assert api.resolve_machine("core2") is CORE2
        assert api.resolve_machine(CORE2) is CORE2


class TestTrain:
    def test_train_returns_handle(self, tmp_cache):
        handle = api.train(machine="core2", scale="unit-api")
        assert isinstance(handle, api.SuiteHandle)
        assert handle.machine is CORE2
        assert handle.scale.name == "unit-api"
        assert handle.path.exists()
        assert handle.telemetry_path is None
        assert handle.groups == tuple(sorted(handle.suite.models))
        assert len(handle.groups) >= 5

    def test_train_writes_telemetry(self, trained_suite):
        # The session's shared suite is this call's training:
        # ``api.train(scale="unit-api", telemetry=telemetry)``.
        handle, telemetry = trained_suite
        assert handle.telemetry_path == telemetry
        payload = repro.obs.load_telemetry(telemetry)
        assert payload["meta"]["command"] == "train"
        assert payload["meta"]["scale"] == "unit-api"
        assert payload["spans"]["train"]["count"] == 1
        assert payload["metrics"]["counters"]["train.groups"] \
            == len(handle.groups)

    def test_interrupted_train_still_exports_telemetry(
            self, tmp_cache, monkeypatch):
        telemetry = tmp_cache / "partial.telemetry.json"

        def interrupted(machine_config, scale, **kwargs):
            raise TrainingInterrupted("phase 1 interrupted at seed 7")

        monkeypatch.setattr(api, "get_or_train_suite", interrupted)
        with pytest.raises(TrainingInterrupted):
            api.train(scale="unit-api", telemetry=telemetry)
        assert telemetry.exists()
        payload = repro.obs.load_telemetry(telemetry)
        assert payload["meta"]["command"] == "train"

    def test_bad_inputs_raise_usage_error(self):
        with pytest.raises(api.UsageError, match="unknown machine"):
            api.train(machine="i860")
        with pytest.raises(api.UsageError, match="unknown scale"):
            api.train(scale="galactic")
        with pytest.raises(api.UsageError, match="jobs"):
            api.train(scale="tiny", jobs=0)
        with pytest.raises(api.UsageError, match="checkpoint_every"):
            api.train(scale="tiny", checkpoint_every=0)


class TestAdviseAndValidate:
    def test_advise_returns_report(self, trained_cache):
        report = api.advise("relipmoc", input_name="small",
                            scale="unit-api")
        assert isinstance(report, Report)
        assert len(report) > 0

    def test_advise_bad_app_and_input(self):
        with pytest.raises(api.UsageError, match="unknown app"):
            api.advise("doom")
        with pytest.raises(api.UsageError, match="unknown input"):
            api.advise("relipmoc", input_name="bogus")

    def test_validate_returns_result(self, trained_cache):
        result = api.validate(group="map", scale="unit-api", apps=5)
        assert isinstance(result, ValidationResult)
        assert result.group_name == "map"
        assert result.total <= 5
        assert 0.0 <= result.accuracy <= 1.0

    def test_validate_unknown_group(self):
        with pytest.raises(api.UsageError, match="unknown model group"):
            api.validate(group="trie")


class TestSmallVerbs:
    def test_census_shape(self):
        counts = api.census(files=20, seed=3)
        assert counts
        assert all(isinstance(v, int) for v in counts.values())
        with pytest.raises(api.UsageError, match="files"):
            api.census(files=0)

    def test_appgen_probe(self):
        probe = api.appgen_probe(5, group="map")
        assert probe.runtimes
        assert probe.app.group.name == "map"

    def test_telemetry_summary_missing_file(self, tmp_path):
        with pytest.raises(api.UsageError, match="no telemetry file"):
            api.telemetry_summary(tmp_path / "nope.json")

    def test_telemetry_summary_unreadable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"an artifact\"}")
        with pytest.raises(api.UsageError, match="unreadable"):
            api.telemetry_summary(bad)


class TestRunOptions:
    def test_defaults_and_overrides(self):
        base = RunOptions()
        assert base.jobs is None and base.telemetry is None
        bumped = base.with_overrides(jobs=4, checkpoint_every=10)
        assert (bumped.jobs, bumped.checkpoint_every) == (4, 10)
        assert base.jobs is None  # frozen: original untouched

    def test_explicit_options_pass_through_silently(self):
        opts = RunOptions(jobs=2, checkpoint_every=5,
                          seed_budget_seconds=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert opts.validate_training() is opts

    def test_both_spellings_is_an_error(self):
        """``options=`` is the only spelling of a run knob: a bare knob
        keyword next to it is not accepted."""
        with pytest.raises(TypeError, match="jobs"):
            run_phase1(MODEL_GROUPS["set"], GeneratorConfig.small(),
                       options=RunOptions(jobs=2), jobs=4)
        with pytest.raises(TypeError, match="checkpoint_every"):
            BrainySuite.train(options=RunOptions(),
                              checkpoint_every=5)

    def test_unknown_knob_raises_the_same_typeerror_contract(self):
        """An unrecognised knob is a ``TypeError`` naming the offender,
        whether it is given to RunOptions or to an entry point."""
        with pytest.raises(TypeError, match="jbos"):
            RunOptions(jbos=4)
        with pytest.raises(TypeError, match="jbos"):
            run_phase1(MODEL_GROUPS["set"], GeneratorConfig.small(),
                       options=RunOptions(jobs=2), jbos=4)

    def test_serving_knobs_have_real_defaults(self):
        """Serving knobs default in RunOptions itself (unlike the
        training knobs, where ``None`` defers to the callee)."""
        opts = RunOptions()
        assert opts.deadline_seconds == 2.0
        assert opts.queue_depth == 32
        assert opts.breaker_threshold == 5
        assert opts.breaker_cooldown_seconds == 30.0
        assert opts.drain_seconds == 5.0
        bumped = opts.with_overrides(deadline_seconds=0.5,
                                     queue_depth=4)
        assert (bumped.deadline_seconds, bumped.queue_depth) == (0.5, 4)
        assert opts.queue_depth == 32  # frozen: original untouched


class TestTrainingKnobValidation:
    """Training knobs are checked where they arrive in ``RunOptions``,
    before any app is generated or simulated."""

    @pytest.mark.parametrize("changes,message", [
        (dict(jobs=0), "jobs must be >= 1"),
        (dict(jobs=-2), "jobs must be >= 1"),
        (dict(checkpoint_every=0), "checkpoint_every must be >= 1"),
        (dict(checkpoint_every=-3), "checkpoint_every must be >= 1"),
        (dict(seed_budget_seconds=0.0),
         "seed_budget_seconds must be positive"),
    ])
    def test_bad_knob_named(self, changes, message):
        with pytest.raises(ValueError, match=message):
            RunOptions(**changes).validate_training()

    def test_problems_are_joined(self):
        with pytest.raises(ValueError) as excinfo:
            RunOptions(seed_budget_seconds=0,
                       checkpoint_every=0).validate_training()
        assert "seed_budget_seconds" in str(excinfo.value)
        assert "checkpoint_every" in str(excinfo.value)

    @staticmethod
    def recording_generate(generated):
        """A generator seam that records each seed it is asked for."""
        def generate(seed, group, config):
            generated.append(seed)
            return generate_app(seed, group, config)
        return generate

    def test_phase1_rejects_zero_checkpoint_cadence(self, tmp_path):
        generated = []
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_phase1(MODEL_GROUPS["set"], GeneratorConfig.small(),
                       per_class_target=2, max_seeds=4,
                       checkpoint_path=tmp_path / "p1.json",
                       options=RunOptions(checkpoint_every=0),
                       generate_fn=self.recording_generate(generated))
        assert generated == []

    def test_suite_train_rejects_before_any_group(self):
        with pytest.raises(ValueError, match="seed_budget_seconds"):
            BrainySuite.train(groups=[MODEL_GROUPS["set"]],
                              per_class_target=2, max_seeds=4,
                              options=RunOptions(seed_budget_seconds=-1))

    def test_api_maps_options_knobs_to_usage_error(self):
        with pytest.raises(api.UsageError, match="checkpoint_every"):
            api.train(scale="tiny",
                      options=RunOptions(checkpoint_every=0))
        with pytest.raises(api.UsageError, match="seed_budget_seconds"):
            api.advise("xalan", scale="tiny",
                       options=RunOptions(seed_budget_seconds=0))
