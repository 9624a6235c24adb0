"""Telemetry determinism: jobs-invariance and interrupt/resume accounting.

The acceptance bar for the observability layer mirrors the one for
artifacts: the deterministic view of a telemetry payload (span paths,
counts, metric totals — everything except wall-clock times) must be
byte-identical whether a run used one worker or many, and an interrupted
run resumed from its checkpoint must account for each seed exactly once
across the two collectors.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.appgen.config import GeneratorConfig
from repro.containers.registry import MODEL_GROUPS
from repro.machine.configs import CORE2
from repro.obs import Collector, build_payload, deterministic_bytes
from repro.runtime.checkpoint import TrainingInterrupted
from repro.runtime.inject import FaultInjector, FaultPlan
from repro.runtime.options import RunOptions
from repro.training.phase1 import run_phase1
from repro.training.phase2 import run_phase2

GROUP = MODEL_GROUPS["set"]
CONFIG = GeneratorConfig.small()


def _phase_run(jobs: int) -> Collector:
    """Run Phase I + Phase II end to end under a fresh collector."""
    collector = Collector()
    options = RunOptions(jobs=jobs, telemetry=collector)
    p1 = run_phase1(GROUP, CONFIG, CORE2, per_class_target=3,
                    max_seeds=30, options=options)
    with obs.use_collector(collector):
        run_phase2(p1)
    return collector


def _counter_sums(*collectors: Collector, prefix: str) -> dict[str, int]:
    totals: dict[str, int] = {}
    for collector in collectors:
        counters = collector.snapshot()["metrics"]["counters"]
        for key, value in counters.items():
            if key.startswith(prefix):
                totals[key] = totals.get(key, 0) + value
    return totals


class TestJobsInvariance:
    def test_serial_and_parallel_telemetry_identical(self):
        payloads = [
            deterministic_bytes(build_payload(_phase_run(jobs),
                                              wall_time_s=1.0))
            for jobs in (1, 2)
        ]
        assert payloads[0] == payloads[1]

    def test_span_taxonomy_present(self):
        tree = _phase_run(jobs=2).span_tree()
        p1 = tree["phase1"]
        assert p1["count"] == 1
        seed = p1["children"]["phase1.seed"]
        assert seed["count"] > 0
        assert {"generate", "measure"} <= set(seed["children"]) \
            <= {"generate", "measure", "finish"}
        # Phase II is a join: it simulates nothing.
        assert tree["phase2"]["count"] == 1
        assert "children" not in tree["phase2"]

    def test_sim_counters_track_every_run(self):
        collector = _phase_run(jobs=1)
        counters = collector.snapshot()["metrics"]["counters"]
        assert counters["sim.runs"] > 0
        assert counters["sim.cycles"] > 0
        assert counters["sim.l1_accesses"] > 0
        # Same machine work regardless of fan-out.
        parallel = _phase_run(jobs=2).snapshot()["metrics"]["counters"]
        assert parallel["sim.runs"] == counters["sim.runs"]
        assert parallel["sim.cycles"] == counters["sim.cycles"]


class TestInterruptResumeAccounting:
    def test_no_double_counting_across_resume(self, tmp_path):
        baseline = Collector()
        uninterrupted = run_phase1(
            GROUP, CONFIG, CORE2, per_class_target=3, max_seeds=30,
            options=RunOptions(telemetry=baseline),
        )
        victim = uninterrupted.records[len(uninterrupted.records)
                                       // 2].seed
        ckpt = tmp_path / "phase1.ckpt.json"

        interrupted = Collector()
        injector = FaultInjector(
            FaultPlan(interrupt_at_seeds=frozenset({victim}))
        )
        with pytest.raises(TrainingInterrupted):
            run_phase1(GROUP, CONFIG, CORE2, per_class_target=3,
                       max_seeds=30, checkpoint_path=ckpt,
                       generate_fn=injector.wrap_generate(),
                       options=RunOptions(telemetry=interrupted))

        resumed = Collector()
        result = run_phase1(GROUP, CONFIG, CORE2, per_class_target=3,
                            max_seeds=30, resume_from=ckpt,
                            options=RunOptions(telemetry=resumed))
        assert [r.seed for r in result.records] \
            == [r.seed for r in uninterrupted.records]

        # Each seed lands in exactly one of the two collectors: the
        # checkpoint holds only fully-applied seeds, so the resumed run
        # replays nothing and skips nothing.
        for prefix in ("phase1.seeds", "phase1.records",
                       "phase1.no_winner"):
            split = _counter_sums(interrupted, resumed, prefix=prefix)
            whole = _counter_sums(baseline, prefix=prefix)
            assert split == whole, prefix

    def test_interrupted_run_still_counts_checkpoint_flush(self,
                                                           tmp_path):
        collector = Collector()
        injector = FaultInjector(FaultPlan(
            interrupt_at_seeds=frozenset({2}),
        ))
        with pytest.raises(TrainingInterrupted):
            run_phase1(GROUP, CONFIG, CORE2, per_class_target=3,
                       max_seeds=30,
                       checkpoint_path=tmp_path / "ckpt.json",
                       generate_fn=injector.wrap_generate(),
                       options=RunOptions(telemetry=collector))
        counters = collector.snapshot()["metrics"]["counters"]
        assert counters.get("phase1.checkpoints", 0) >= 1


class TestCollectorIsolation:
    def test_run_without_telemetry_leaves_global_null(self):
        run_phase1(GROUP, CONFIG, CORE2, per_class_target=3,
                   max_seeds=10)
        assert obs.get_collector() is obs.NULL_COLLECTOR

    def test_back_to_back_runs_do_not_bleed(self):
        first = _phase_run(jobs=1)
        second = _phase_run(jobs=1)
        assert (first.snapshot()["metrics"]["counters"]
                == second.snapshot()["metrics"]["counters"])
        assert obs.get_collector() is obs.NULL_COLLECTOR
