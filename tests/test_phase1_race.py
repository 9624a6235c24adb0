"""Phase I's candidate race is exact: abandoning runs never changes a
verdict, a record, or a trained artifact."""

import json
import random

import pytest

import repro.models.validation as validation_mod
import repro.obs as obs
from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import generate_app
from repro.appgen.workload import (
    _race_limit,
    best_candidate,
    measure_candidates,
    race_candidates,
)
from repro.containers.registry import DSKind, MODEL_GROUPS
from repro.machine.configs import ATOM, CORE2
from repro.models.validation import validate_model
from repro.runtime.artifacts import ArtifactVersionMismatch, write_artifact
from repro.runtime.checkpoint import (
    PHASE1_CHECKPOINT_KIND,
    PHASE1_CHECKPOINT_SCHEMA_VERSION,
    Phase1Checkpoint,
)
from repro.runtime.inject import FaultInjector, FaultPlan
from repro.training.phase1 import (
    PHASE1_ARTIFACT_KIND,
    PHASE1_SCHEMA_VERSION,
    Phase1Result,
    run_phase1,
)

CONFIG = GeneratorConfig.small()
MARGINS = (0.0, 0.05)


class TestRaceLimit:
    def test_no_completed_run_means_no_limit(self):
        assert _race_limit([], 0.05) is None

    def test_matches_the_abandon_rule_exactly(self):
        # ``x > limit`` must be the same predicate as the rule stated in
        # race_candidates, evaluated with best_candidate's float ratio.
        rng = random.Random(7)
        for _ in range(200):
            completed = sorted(rng.randrange(0, 1000)
                               for _ in range(rng.randint(1, 3)))
            margin = rng.choice((0.0, 0.05, 0.1, 0.3333, 1e-9))
            limit = _race_limit(completed, margin)
            b1 = completed[0]
            for x in range(max(0, b1 - 3), 2 * b1 + 20):
                abandon = ((len(completed) > 1 and x > completed[1])
                           or (b1 > 0 and x / b1 >= 1.0 + margin))
                assert (limit is not None and x > limit) == abandon

    def test_negative_margin_uses_only_the_runner_up_bound(self):
        assert _race_limit([100], -0.5) is None
        assert _race_limit([100, 120], -0.5) == 120


class TestBoundedRun:
    def test_bounded_run_is_abandoned_past_its_limit(self):
        app = generate_app(3, MODEL_GROUPS["vector"], CONFIG)
        run = app.run(DSKind.LIST, CORE2, limit=0)
        assert run.abandoned
        assert 0 < run.cycles

    def test_generous_limit_completes_with_the_same_cycles(self):
        app = generate_app(3, MODEL_GROUPS["set"], CONFIG)
        full = app.run(DSKind.SET, CORE2)
        bounded = app.run(DSKind.SET, CORE2, limit=full.cycles)
        assert not bounded.abandoned
        assert bounded.cycles == full.cycles

    def test_auto_engine_runs_bounded_runs_on_the_scalar_machine(
            self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        app = generate_app(3, MODEL_GROUPS["set"], CONFIG)
        assert app.run(DSKind.SET, CORE2, limit=10**12).machine.engine \
            == "scalar"
        assert app.run(DSKind.SET, CORE2).machine.engine == "vector"


class TestRaceMatchesFullSweep:
    @pytest.mark.parametrize("group_name", sorted(MODEL_GROUPS))
    def test_winner_equals_full_sweep_winner(self, group_name):
        group = MODEL_GROUPS[group_name]
        abandoned = 0
        for seed in range(20):
            app = generate_app(seed, group, CONFIG)
            for machine in (CORE2, ATOM):
                full = measure_candidates(app, machine)
                for margin in MARGINS:
                    raced = race_candidates(app, machine, margin)
                    assert best_candidate(raced, margin) \
                        == best_candidate(full, margin)
                    # Completed runs are exactly the full sweep's.
                    assert raced == {kind: full[kind] for kind in raced}
                    abandoned += len(full) - len(raced)
        assert abandoned > 0

    @pytest.mark.parametrize("group_name,margin",
                             [("vector_oo", 0.05), ("set", 0.0),
                              ("map", 0.05)])
    def test_phase1_bookkeeping_equals_full_sweep(self, group_name, margin):
        group = MODEL_GROUPS[group_name]
        kwargs = dict(per_class_target=3, max_seeds=20, margin=margin)
        raced = run_phase1(group, CONFIG, CORE2, **kwargs)
        full = run_phase1(group, CONFIG, CORE2,
                          measure_fn=measure_candidates, **kwargs)
        assert raced.seeds_tried == full.seeds_tried
        assert raced.no_winner == full.no_winner
        assert [(r.seed, r.best) for r in raced.records] \
            == [(r.seed, r.best) for r in full.records]

    def test_validation_oracle_is_unchanged(self, monkeypatch):
        class _Constant:
            def predict_kind(self, features):
                return DSKind.HASH_MAP

        def run():
            return validate_model(_Constant(), MODEL_GROUPS["map"], CONFIG,
                                  CORE2, n_apps=12, seed_base=81_000)

        raced = run()
        monkeypatch.setattr(validation_mod, "race_candidates",
                            lambda app, machine, margin:
                            measure_candidates(app, machine))
        assert run() == raced

    def test_fault_injector_wraps_the_race_by_default(self):
        app = generate_app(5, MODEL_GROUPS["vector_oo"], CONFIG)
        wrapped = FaultInjector(FaultPlan()).wrap_measure()
        assert wrapped(app, CORE2) == race_candidates(app, CORE2)


class TestRaceTelemetry:
    def test_abandoned_runs_are_counted_and_simulated(self):
        collector = obs.Collector()
        with obs.use_collector(collector):
            result = run_phase1(MODEL_GROUPS["vector_oo"], CONFIG, CORE2,
                                per_class_target=2, max_seeds=8)
        metrics = collector.metrics
        abandoned = metrics.find("phase1.abandoned{kind=")
        assert sum(abandoned.values()) > 0
        candidates = len(MODEL_GROUPS["vector_oo"].classes)
        # Abandoned runs still go through record_sim_run.
        assert metrics.counter_value("sim.runs") \
            == candidates * result.seeds_tried


class TestSchemaBump:
    def test_records_list_only_completed_candidates(self):
        result = run_phase1(MODEL_GROUPS["vector_oo"], CONFIG, CORE2,
                            per_class_target=3, max_seeds=20)
        assert any(len(r.runtimes) < len(result.group.classes)
                   for r in result.records)

    def test_previous_phase1_artifact_is_refused(self, tmp_path):
        result = run_phase1(MODEL_GROUPS["set"], CONFIG, CORE2,
                            per_class_target=1, max_seeds=4)
        path = tmp_path / "set.json"
        result.save(path)
        payload = json.loads(path.read_text())["payload"]
        write_artifact(path, payload, kind=PHASE1_ARTIFACT_KIND,
                       schema_version=PHASE1_SCHEMA_VERSION - 1)
        with pytest.raises(ArtifactVersionMismatch, match="schema_version"):
            Phase1Result.load(path)

    def test_previous_phase1_checkpoint_is_refused(self, tmp_path):
        path = tmp_path / "set.phase1.json"
        run_phase1(MODEL_GROUPS["set"], CONFIG, CORE2, per_class_target=1,
                   max_seeds=4, checkpoint_path=path)
        assert Phase1Checkpoint.load(path).complete
        payload = json.loads(path.read_text())["payload"]
        write_artifact(path, payload, kind=PHASE1_CHECKPOINT_KIND,
                       schema_version=PHASE1_CHECKPOINT_SCHEMA_VERSION - 1)
        with pytest.raises(ArtifactVersionMismatch, match="schema_version"):
            run_phase1(MODEL_GROUPS["set"], CONFIG, CORE2,
                       per_class_target=1, max_seeds=4, resume_from=path)
