"""Interrupt/resume determinism, quarantine, cache recovery, degradation.

The acceptance bar for the robustness runtime: a Phase-I run interrupted
at an arbitrary seed and resumed yields a byte-identical training set to
an uninterrupted run, and corrupted cache artifacts are detected and
rebuilt with no crash.
"""

import json

import numpy as np
import pytest

from repro.appgen.config import GeneratorConfig
from repro.containers.registry import DSKind, MODEL_GROUPS
from repro.instrumentation.features import num_features
from repro.machine.configs import CORE2
from repro.models import cache as cache_mod
from repro.models.brainy import BrainySuite
from repro.models.cache import (
    ScaleParams,
    get_or_build_dataset,
    get_or_train_suite,
    suite_path,
)
from repro.runtime.checkpoint import TrainingInterrupted
from repro.runtime.inject import FaultInjector, FaultPlan
from repro.runtime.options import RunOptions
from repro.training.phase1 import Phase1Result, run_phase1
from repro.training.phase2 import run_phase2

GROUP = MODEL_GROUPS["set"]
CONFIG = GeneratorConfig.small()
TINY = ScaleParams("unit-resume", per_class_target=3, max_seeds=60,
                   validation_apps=5, hidden=(8,))


def phase1_kwargs(**extra):
    kwargs = dict(per_class_target=3, max_seeds=40)
    kwargs.update(extra)
    return kwargs


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_mod, "CACHE_DIR", tmp_path / "cache")
    return tmp_path / "cache"


class TestPhase1Resume:
    def test_interrupt_then_resume_is_byte_identical(self, tmp_path):
        baseline = run_phase1(GROUP, CONFIG, CORE2, **phase1_kwargs())
        assert len(baseline) > 0
        # Interrupt mid-run at a seed the baseline actually processed.
        victim = baseline.records[len(baseline.records) // 2].seed
        ckpt = tmp_path / "phase1.ckpt.json"
        injector = FaultInjector(
            FaultPlan(interrupt_at_seeds=frozenset({victim}))
        )
        with pytest.raises(TrainingInterrupted):
            run_phase1(GROUP, CONFIG, CORE2,
                       **phase1_kwargs(
                           checkpoint_path=ckpt,
                           generate_fn=injector.wrap_generate(),
                       ))
        assert ckpt.exists()
        resumed = run_phase1(GROUP, CONFIG, CORE2,
                             **phase1_kwargs(resume_from=ckpt))

        base_path = tmp_path / "base.json"
        resumed_path = tmp_path / "resumed.json"
        baseline.save(base_path)
        resumed.save(resumed_path)
        assert base_path.read_bytes() == resumed_path.read_bytes()

        # And the downstream training sets match byte-for-byte too.
        ts_base = run_phase2(baseline)
        ts_resumed = run_phase2(resumed)
        ts_base.save(tmp_path / "ts_base.json")
        ts_resumed.save(tmp_path / "ts_resumed.json")
        assert (tmp_path / "ts_base.json").read_bytes() \
            == (tmp_path / "ts_resumed.json").read_bytes()

    def test_resume_with_faults_matches_uninterrupted(self, tmp_path):
        """Transient + deterministic faults, same plan in both runs."""
        plan = FaultPlan(rng_seed=5, p_transient_generate=0.2,
                         p_deterministic_measure=0.1,
                         transient_failures=1)
        kwargs = phase1_kwargs()

        inj_a = FaultInjector(plan)
        uninterrupted = run_phase1(
            GROUP, CONFIG, CORE2,
            generate_fn=inj_a.wrap_generate(),
            measure_fn=inj_a.wrap_measure(), **kwargs,
        )
        victim = uninterrupted.seeds_tried // 2
        ckpt = tmp_path / "ckpt.json"
        inj_b = FaultInjector(FaultPlan(
            rng_seed=5, p_transient_generate=0.2,
            p_deterministic_measure=0.1, transient_failures=1,
            interrupt_at_seeds=frozenset({victim}),
        ))
        with pytest.raises(TrainingInterrupted):
            run_phase1(GROUP, CONFIG, CORE2,
                       checkpoint_path=ckpt,
                       generate_fn=inj_b.wrap_generate(),
                       measure_fn=inj_b.wrap_measure(), **kwargs)
        inj_c = FaultInjector(plan)
        resumed = run_phase1(GROUP, CONFIG, CORE2,
                             resume_from=ckpt,
                             generate_fn=inj_c.wrap_generate(),
                             measure_fn=inj_c.wrap_measure(), **kwargs)
        uninterrupted.save(tmp_path / "a.json")
        resumed.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()
        assert resumed.quarantined  # the plan injected real casualties

    def test_completed_checkpoint_resumes_instantly(self, tmp_path):
        ckpt = tmp_path / "done.json"
        first = run_phase1(GROUP, CONFIG, CORE2,
                           **phase1_kwargs(checkpoint_path=ckpt))
        assert ckpt.exists()

        def exploding(seed, group, config):  # must never be called
            raise AssertionError("resume of a complete phase re-ran work")

        again = run_phase1(GROUP, CONFIG, CORE2,
                           **phase1_kwargs(resume_from=ckpt,
                                           generate_fn=exploding))
        assert [r.seed for r in again.records] \
            == [r.seed for r in first.records]

    def test_resume_rejects_wrong_group(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        run_phase1(GROUP, CONFIG, CORE2,
                   **phase1_kwargs(checkpoint_path=ckpt))
        with pytest.raises(ValueError, match="group"):
            run_phase1(MODEL_GROUPS["map"], CONFIG, CORE2,
                       **phase1_kwargs(resume_from=ckpt))

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_phase1(GROUP, CONFIG, CORE2,
                       **phase1_kwargs(options=RunOptions(checkpoint_every=5)))


class TestPhase1Quarantine:
    def test_deterministic_faults_quarantined_not_fatal(self):
        plan = FaultPlan(rng_seed=2, p_deterministic_generate=0.3)
        injector = FaultInjector(plan)
        result = run_phase1(GROUP, CONFIG, CORE2,
                            generate_fn=injector.wrap_generate(),
                            **phase1_kwargs())
        assert result.quarantined
        assert all(q.category == "deterministic"
                   for q in result.quarantined)
        quarantined_seeds = {q.seed for q in result.quarantined}
        assert not quarantined_seeds & {r.seed for r in result.records}

    def test_quarantine_survives_save_load(self, tmp_path):
        plan = FaultPlan(rng_seed=2, p_deterministic_generate=0.3)
        injector = FaultInjector(plan)
        result = run_phase1(GROUP, CONFIG, CORE2,
                            generate_fn=injector.wrap_generate(),
                            **phase1_kwargs())
        path = tmp_path / "p1.json"
        result.save(path)
        loaded = Phase1Result.load(path)
        assert loaded.quarantined == result.quarantined


class TestCacheRecovery:
    def test_corrupt_suite_model_rebuilt(self, tmp_cache, capsys):
        config = GeneratorConfig.small()
        get_or_train_suite(CORE2, TINY, config=config)
        model_file = suite_path(CORE2, TINY) / "map.json"
        model_file.write_text(model_file.read_text()[:100])  # truncate
        suite = get_or_train_suite(CORE2, TINY, config=config)
        assert "map" in suite.models
        err = capsys.readouterr().err
        assert "rebuilding" in err
        assert "quarantined to" in err
        suite_dir = suite_path(CORE2, TINY)
        quarantined = suite_dir.with_name(suite_dir.name + ".quarantined")
        assert str(quarantined) in err
        assert quarantined.exists()

    def test_truncated_suite_index_rebuilt(self, tmp_cache):
        config = GeneratorConfig.small()
        get_or_train_suite(CORE2, TINY, config=config)
        index = suite_path(CORE2, TINY) / "suite.json"
        index.write_text("{\"half\": ")
        suite = get_or_train_suite(CORE2, TINY, config=config)
        assert suite.models

    def test_legacy_dataset_format_rebuilt(self, tmp_cache, capsys):
        config = GeneratorConfig.small()
        first = get_or_build_dataset("map", CORE2, TINY, config=config)
        path = (cache_mod.CACHE_DIR / "datasets"
                / f"{CORE2.name}-{TINY.name}-map.json")
        # Simulate a pre-envelope (legacy) cache file.
        path.write_text(json.dumps({"group_name": "map", "X": []}))
        second = get_or_build_dataset("map", CORE2, TINY, config=config)
        assert "rebuilding" in capsys.readouterr().err
        assert second.seeds == first.seeds

    def test_bad_checksum_dataset_rebuilt(self, tmp_cache):
        config = GeneratorConfig.small()
        first = get_or_build_dataset("map", CORE2, TINY, config=config)
        path = (cache_mod.CACHE_DIR / "datasets"
                / f"{CORE2.name}-{TINY.name}-map.json")
        envelope = json.loads(path.read_text())
        envelope["payload"]["seeds"] = [999999]  # checksum now stale
        path.write_text(json.dumps(envelope))
        second = get_or_build_dataset("map", CORE2, TINY, config=config)
        assert second.seeds == first.seeds  # rebuilt, not the lie


class TestSuiteLevelResume:
    def test_train_resume_through_cache(self, tmp_cache, monkeypatch):
        """Interrupt install-time training; --resume picks it up."""
        import repro.training.phase1 as phase1_mod

        config = GeneratorConfig.small()
        real_generate = phase1_mod.generate_app
        injector = FaultInjector(
            FaultPlan(interrupt_at_seeds=frozenset({7}))
        )
        monkeypatch.setattr(phase1_mod, "generate_app",
                            injector.wrap_generate(real_generate))
        with pytest.raises(TrainingInterrupted):
            get_or_train_suite(CORE2, TINY, config=config,
                               options=RunOptions(checkpoint_every=3))
        ckpt_dir = cache_mod.checkpoint_dir(CORE2, TINY)
        assert any(ckpt_dir.iterdir())
        monkeypatch.setattr(phase1_mod, "generate_app", real_generate)
        suite = get_or_train_suite(CORE2, TINY, config=config,
                                   options=RunOptions(checkpoint_every=3),
                                   resume=True)
        assert set(suite.models) == set(MODEL_GROUPS)
        # Successful training cleans its checkpoints up.
        assert not any(ckpt_dir.glob("*.json"))
        # And the cached suite now loads normally.
        loaded = get_or_train_suite(CORE2, TINY, config=config)
        assert set(loaded.models) == set(MODEL_GROUPS)


class TestAdvisorDegradation:
    @pytest.fixture(scope="class")
    def partial_suite(self):
        return BrainySuite.train(
            CORE2, GeneratorConfig.small(),
            groups=[MODEL_GROUPS["set"]],
            per_class_target=3, max_seeds=40,
        )

    def _trace(self, kinds):
        from repro.instrumentation.trace import TraceRecord, TraceSet

        records = [
            TraceRecord(context=f"ctx:{i}", kind=kind,
                        order_oblivious=True,
                        features=np.zeros(num_features()),
                        cycles=100, total_calls=10)
            for i, kind in enumerate(kinds)
        ]
        return TraceSet(program_cycles=1000, records=records)

    def test_missing_group_degrades_not_raises(self, partial_suite):
        from repro.core.advisor import BrainyAdvisor

        trace = self._trace([DSKind.VECTOR, DSKind.SET])
        report = BrainyAdvisor(partial_suite).advise_trace(trace)
        assert len(report) == 2
        by_kind = {s.original: s for s in report}
        assert by_kind[DSKind.VECTOR].degraded
        assert not by_kind[DSKind.SET].degraded
        assert report.degraded_groups == {"vector_oo"}
        assert "WARNING" in report.format()
        assert "(baseline)" in report.format()

    def test_degraded_suggestion_stays_legal(self, partial_suite):
        from repro.containers.registry import candidates_for
        from repro.core.advisor import BrainyAdvisor

        trace = self._trace([DSKind.VECTOR, DSKind.LIST, DSKind.MAP])
        report = BrainyAdvisor(partial_suite).advise_trace(trace)
        for suggestion in report:
            assert suggestion.suggested in candidates_for(
                suggestion.original, order_oblivious=True
            )

    def test_lenient_load_marks_degraded(self, partial_suite, tmp_path):
        partial_suite.save(tmp_path / "suite")
        model_file = tmp_path / "suite" / "set.json"
        model_file.write_text(model_file.read_text()[:50])
        with pytest.raises(ValueError):
            BrainySuite.load(tmp_path / "suite")
        lenient = BrainySuite.load(tmp_path / "suite", lenient=True)
        assert lenient.degraded == {"set"}
        assert "set" not in lenient.models
