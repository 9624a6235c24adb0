"""Phase I's candidate race is exact: abandoning runs never changes a
verdict, a record, or a trained artifact; it runs in cycle order, so its
result depends on the candidate set only, and groups that share an app
family and a candidate set share one Phase I."""

import dataclasses
import json
import random

import pytest

import repro.models.validation as validation_mod
import repro.obs as obs
from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import app_family, generate_app
from repro.appgen.workload import (
    _race_limit,
    best_candidate,
    measure_candidates,
    race_candidates,
)
from repro.containers.registry import DSKind, MODEL_GROUPS
from repro.machine.configs import ATOM, CORE2
from repro.models.brainy import BrainySuite, phase1_tasks
from repro.models.validation import validate_model
from repro.runtime.artifacts import ArtifactVersionMismatch, write_artifact
from repro.runtime.checkpoint import (
    PHASE1_CHECKPOINT_KIND,
    PHASE1_CHECKPOINT_SCHEMA_VERSION,
    Phase1Checkpoint,
)
from repro.runtime.inject import FaultInjector, FaultPlan
from repro.runtime.options import RunOptions
from repro.training.phase1 import (
    PHASE1_ARTIFACT_KIND,
    PHASE1_SCHEMA_VERSION,
    Phase1Result,
    run_phase1,
)
from tests.test_ml_parallel import FlakyExecutor, suite_bytes

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
        # Schema 3 records came from the classes-order race, 4 from the
        # cycle-ordered one.
        assert PHASE1_SCHEMA_VERSION == 4
        result = run_phase1(MODEL_GROUPS["set"], CONFIG, CORE2,
                            per_class_target=1, max_seeds=4)
        path = tmp_path / "set.json"
        result.save(path)
        payload = json.loads(path.read_text())["payload"]
        for old in range(1, PHASE1_SCHEMA_VERSION):
            write_artifact(path, payload, kind=PHASE1_ARTIFACT_KIND,
                           schema_version=old)
            with pytest.raises(ArtifactVersionMismatch,
                               match="schema_version"):
                Phase1Result.load(path)

    def test_previous_phase1_checkpoint_is_refused(self, tmp_path):
        assert PHASE1_CHECKPOINT_SCHEMA_VERSION == 3
        path = tmp_path / "set.phase1.json"
        run_phase1(MODEL_GROUPS["set"], CONFIG, CORE2, per_class_target=1,
                   max_seeds=4, checkpoint_path=path)
        assert Phase1Checkpoint.load(path).complete
        payload = json.loads(path.read_text())["payload"]
        for old in range(1, PHASE1_CHECKPOINT_SCHEMA_VERSION):
            write_artifact(path, payload, kind=PHASE1_CHECKPOINT_KIND,
                           schema_version=old)
            with pytest.raises(ArtifactVersionMismatch,
                               match="schema_version"):
                run_phase1(MODEL_GROUPS["set"], CONFIG, CORE2,
                           per_class_target=1, max_seeds=4,
                           resume_from=path)


class TestCycleOrder:
    @pytest.mark.parametrize("group_name", sorted(MODEL_GROUPS))
    def test_reversing_the_classes_leaves_the_race_unchanged(
            self, group_name):
        group = MODEL_GROUPS[group_name]
        backwards = dataclasses.replace(group, classes=group.classes[::-1])
        for seed in range(10):
            app = generate_app(seed, group, CONFIG)
            app_backwards = generate_app(seed, backwards, CONFIG)
            for machine in (CORE2, ATOM):
                raced = race_candidates(app, machine)
                # Same runs, same totals, same completion order.
                assert list(race_candidates(app_backwards, machine).items()) \
                    == list(raced.items())

    @pytest.mark.parametrize("kind", MODEL_GROUPS["vector_oo"].classes)
    def test_paused_and_resumed_run_equals_one_run(self, kind):
        app = generate_app(11, MODEL_GROUPS["vector_oo"], CONFIG)
        whole = app.run(kind, CORE2)
        total = whole.cycles
        run = app.run(kind, CORE2, limit=0)
        for limit in (total // 5, total // 2, total - 1):
            assert run.abandoned
            if run.cycles <= limit:
                run = app.run(kind, CORE2, limit=limit, resume=run)
        # Stopped past ``total - 1``: after its last interface call.
        assert run.abandoned and run.cycles == total
        stopped = run
        run = app.run(kind, CORE2, resume=run)
        assert not run.abandoned
        assert run.cycles == total
        assert run.seconds == whole.seconds
        assert run.machine.snapshot_tuple() == whole.machine.snapshot_tuple()
        # A stopped run continues once; a finished one not at all.
        for spent in (stopped, run):
            with pytest.raises(ValueError, match="resume"):
                app.run(kind, CORE2, resume=spent)


SIBLINGS = [("vector", "list"), ("vector_oo", "list_oo")]


class TestSharedPhase1:
    def test_default_groups_pack_into_four_tasks(self):
        assert phase1_tasks(MODEL_GROUPS.values()) == [
            ("vector", "list"), ("vector_oo", "list_oo"), ("set",),
            ("map",)]
        assert phase1_tasks([MODEL_GROUPS["list"], MODEL_GROUPS["set"],
                             MODEL_GROUPS["vector"]]) \
            == [("list", "vector"), ("set",)]

    @pytest.mark.parametrize("first,sibling", SIBLINGS)
    def test_siblings_generate_identical_apps(self, first, sibling):
        a, b = MODEL_GROUPS[first], MODEL_GROUPS[sibling]
        assert app_family(a.original) == app_family(b.original)
        for seed in range(20):
            assert generate_app(seed, a, CONFIG).profile \
                == generate_app(seed, b, CONFIG).profile

    @pytest.mark.parametrize("first,sibling", SIBLINGS)
    def test_sibling_phase1_results_are_equal(self, first, sibling):
        kwargs = dict(per_class_target=3, max_seeds=20)
        ours = run_phase1(MODEL_GROUPS[first], CONFIG, CORE2, **kwargs)
        theirs = run_phase1(MODEL_GROUPS[sibling], CONFIG, CORE2,
                            **kwargs)
        assert theirs.seeds_tried == ours.seeds_tried
        assert theirs.no_winner == ours.no_winner
        assert [(r.seed, r.best, list(r.runtimes.items()))
                for r in theirs.records] \
            == [(r.seed, r.best, list(r.runtimes.items()))
                for r in ours.records]
        relabelled = ours.for_group(MODEL_GROUPS[sibling])
        assert relabelled.group is MODEL_GROUPS[sibling]
        assert [r.to_payload() for r in relabelled.records] \
            == [r.to_payload() for r in theirs.records]

    def test_groups_with_other_candidates_do_not_share(self):
        result = run_phase1(MODEL_GROUPS["vector"], CONFIG, CORE2,
                            per_class_target=1, max_seeds=2)
        for name in ("vector_oo", "set"):
            with pytest.raises(ValueError, match="does not share"):
                result.for_group(MODEL_GROUPS[name])


class TestSharedTraining:
    GROUPS = [MODEL_GROUPS["vector"], MODEL_GROUPS["list"]]

    @staticmethod
    def train(groups, **extra):
        return BrainySuite.train(CORE2, CONFIG, groups=groups,
                                 per_class_target=3, max_seeds=40,
                                 **extra)

    @pytest.fixture(scope="class")
    def alone(self, tmp_path_factory):
        """Each group trained on its own, with its telemetry."""
        out = {}
        for group in self.GROUPS:
            collector = obs.Collector()
            suite = self.train([group],
                               options=RunOptions(telemetry=collector))
            out[group.name] = (
                suite_bytes(suite, tmp_path_factory.mktemp(group.name)),
                collector.metrics)
        return out

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_training_is_byte_identical(self, alone, jobs,
                                               tmp_path):
        shared = suite_bytes(
            self.train(self.GROUPS, options=RunOptions(jobs=jobs)),
            tmp_path)
        for group in self.GROUPS:
            name = f"{group.name}.json"
            assert shared[name] == alone[group.name][0][name]

    def test_shared_training_survives_an_executor_fault(self, alone,
                                                        tmp_path):
        flaky = FlakyExecutor(fail_submissions={0})
        shared = suite_bytes(self.train(self.GROUPS, executor=flaky),
                             tmp_path)
        assert flaky.count == 1  # one task for the two groups
        for group in self.GROUPS:
            name = f"{group.name}.json"
            assert shared[name] == alone[group.name][0][name]

    def test_shared_phase1_is_counted_once(self, alone):
        collector = obs.Collector()
        self.train(self.GROUPS, options=RunOptions(telemetry=collector))
        metrics = collector.metrics
        vector = alone["vector"][1]
        assert metrics.find("phase1.shared") == {"phase1.shared{group=list}": 1}
        for name in ("phase1.seeds", "phase1.no_winner"):
            assert metrics.counter_value(name) == vector.counter_value(name)
        assert metrics.find("phase1.records") == vector.find("phase1.records")
        assert metrics.counter_value("train.groups") == 2
