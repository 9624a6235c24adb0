"""Phase I's candidate race is exact: abandoning runs never changes a
verdict, a record, or a trained artifact; it runs in cycle order, so its
result depends on the candidate set only; and the groups of one app
family share one Phase I, racing each seed once over the union of their
candidate sets."""

import dataclasses
import json
import random
import types

import pytest

import repro.appgen.generator as generator_mod
import repro.models.validation as validation_mod
import repro.obs as obs
import repro.training.phase1 as phase1_mod
from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import app_family, generate_app
from repro.appgen.workload import (
    _race_limit,
    best_candidate,
    measure_candidates,
    race_candidates,
    race_sets,
)
from repro.containers.registry import DSKind, MODEL_GROUPS, make_container
from repro.instrumentation.profiler import ProfiledContainer
from repro.machine.configs import ATOM, CORE2
from repro.machine.machine import Machine
from repro.models.brainy import BrainySuite, phase1_tasks
from repro.models.validation import validate_model
from repro.runtime.artifacts import ArtifactVersionMismatch, write_artifact
from repro.runtime.checkpoint import (
    PHASE1_CHECKPOINT_KIND,
    PHASE1_CHECKPOINT_SCHEMA_VERSION,
    Phase1Checkpoint,
)
from repro.runtime.checkpoint import TrainingInterrupted
from repro.runtime.inject import FaultInjector, FaultPlan
from repro.runtime.options import RunOptions
from repro.runtime.parallel import SerialExecutor
from repro.training.phase1 import (
    PHASE1_ARTIFACT_KIND,
    PHASE1_SCHEMA_VERSION,
    Phase1Result,
    run_phase1,
)
from repro.training.phase2 import run_phase2
from tests.test_ml_parallel import suite_bytes

CONFIG = GeneratorConfig.small()
MARGINS = (0.0, 0.05)


class FlakyExecutor(SerialExecutor):
    """In-process executor that fails chosen submissions at get() time
    with ``error``, by default a plain ``OSError``, which the fault
    taxonomy calls deterministic: the parent retries it all the
    same."""

    def __init__(self, fail_submissions, error=None):
        self.fail_submissions = set(fail_submissions)
        self.error = error or OSError("injected executor fault")
        self.count = 0

    def submit(self, fn, args):
        index = self.count
        self.count += 1
        if index in self.fail_submissions:
            error = self.error

            class _Boom:
                def get(self):
                    raise error
            return _Boom()
        return super().submit(fn, args)


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

    def test_each_run_is_recorded_once(self, monkeypatch):
        """Finishing a dropped run records it once, whole: ``sim.runs``
        is the number of machines built and ``sim.l1_accesses`` the
        lines they simulated.  The seam only sees machines built in this
        process, so the run is pinned to one job whatever
        ``REPRO_JOBS`` says; the property is per run, not per
        executor."""
        built = []

        class CountingMachine(generator_mod.Machine):
            def __init__(self, config):
                super().__init__(config)
                built.append(self)

        monkeypatch.setattr(generator_mod, "Machine", CountingMachine)
        collector = obs.Collector()
        with obs.use_collector(collector):
            run_phase1(TestFamilyPhase1.GROUPS, CONFIG, CORE2,
                       **TestFamilyPhase1.KWARGS,
                       options=RunOptions(jobs=1))
        metrics = collector.metrics
        assert sum(metrics.find("phase1.finished{kind=").values()) > 0
        assert metrics.counter_value("sim.runs") == len(built)
        assert metrics.counter_value("sim.l1_accesses") \
            == sum(machine.l1.accesses for machine in built)


class TestSchemaBump:
    def test_records_list_only_completed_candidates(self):
        result = run_phase1(MODEL_GROUPS["vector_oo"], CONFIG, CORE2,
                            per_class_target=3, max_seeds=20)
        assert any(len(r.runtimes) < len(result.group.classes)
                   for r in result.records)

    def test_previous_phase1_artifact_is_refused(self, tmp_path):
        # Schema 3 records came from the classes-order race, 4 from the
        # cycle-ordered one; 5 records carry original-kind features.
        assert PHASE1_SCHEMA_VERSION == 5
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
        assert PHASE1_CHECKPOINT_SCHEMA_VERSION == 4
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


#: The sequence family's two candidate sets.
SEQUENCE_SETS = [MODEL_GROUPS["vector"].classes,
                 MODEL_GROUPS["vector_oo"].classes]
#: ``train-mini``'s apps: the default config at 100 interface calls.
MINI = GeneratorConfig(total_interface_calls=100)


class ScriptedApp:
    """Stands in for a :class:`SyntheticApp` whose runs cost a fixed
    number of cycles per interface call, for race scenarios too rare to
    find among generated apps."""

    def __init__(self, steps):
        self.steps = steps

    def run(self, kind, machine_config, *, limit=None, resume=None):
        run = resume or types.SimpleNamespace(
            kind=kind, cycles=0, calls=iter(self.steps[kind]),
            machine=None)
        run.abandoned = False
        for cost in run.calls:
            run.cycles += cost
            if limit is not None and run.cycles > limit:
                run.abandoned = True
                break
        return run


class TestUnionRace:
    @pytest.mark.parametrize("config", [MINI, CONFIG],
                             ids=["mini", "small"])
    def test_each_set_gets_its_own_race(self, config):
        """Projected onto one candidate set, the union race equals that
        set's own race: the same completed kinds, totals and order."""
        group = MODEL_GROUPS["vector_oo"]
        for seed in range(20):
            app = generate_app(seed, group, config)
            for machine in (CORE2, ATOM):
                for margin in (0.05, 0.0, -0.01, 0.3):
                    union = race_sets(app, machine, SEQUENCE_SETS, margin)
                    for kinds, raced in zip(SEQUENCE_SETS, union.runtimes):
                        alone = race_candidates(
                            generate_app(seed, dataclasses.replace(
                                group, classes=kinds), config),
                            machine, margin)
                        assert list(raced.items()) == list(alone.items())
                    assert set(union.runs) == set().union(*union.runtimes)

    def test_a_run_kept_for_one_set_is_not_counted_past_anothers_bound(
            self):
        """``vector`` completes at 105 for the set without ``hash_set``
        (nothing there bounds it), but the set with ``hash_set`` had
        bounded it at 104, so only the first set records it."""
        app = ScriptedApp({DSKind.VECTOR: [50, 53, 2],
                           DSKind.LIST: [52, 60],
                           DSKind.HASH_SET: [10] * 10})
        sets = [(DSKind.VECTOR, DSKind.LIST),
                (DSKind.VECTOR, DSKind.LIST, DSKind.HASH_SET)]
        union = race_sets(app, CORE2, sets)
        assert union.runtimes == [{DSKind.VECTOR: 105},
                                  {DSKind.HASH_SET: 100}]
        assert union.runtimes == [race_sets(app, CORE2, [kinds]).runtimes[0]
                                  for kinds in sets]

    def test_union_does_no_more_work_than_separate_races(self):
        def simulated(race):
            collector = obs.Collector()
            with obs.use_collector(collector):
                race()
            return collector.metrics.counter_value("sim.l1_accesses")

        group = MODEL_GROUPS["vector_oo"]
        saved = 0
        for seed in range(10):
            app = generate_app(seed, group, CONFIG)
            union = simulated(
                lambda: race_sets(app, CORE2, SEQUENCE_SETS).release())
            apart = sum(
                simulated(lambda: race_sets(app, CORE2, [kinds]).release())
                for kinds in SEQUENCE_SETS)
            assert union <= apart
            saved += apart - union
        assert saved > 0


def profiled_features(app, kind, machine_config):
    """The reference: the app driven through a ``ProfiledContainer``,
    which attributes machine events call by call."""
    machine = Machine(machine_config)
    profiled = ProfiledContainer(make_container(
        kind, machine, app.profile.elem_size,
        app.profile.payload_size or None))
    for _ in app._drive(profiled, random.Random(app.seed)):
        pass
    return profiled.features()


class TestPlainRunFeatures:
    @pytest.mark.parametrize("group_name", sorted(MODEL_GROUPS))
    def test_equal_profiled_attribution_bit_for_bit(self, group_name):
        group = MODEL_GROUPS[group_name]
        for seed in range(3):
            app = generate_app(seed, group, CONFIG)
            for machine in (CORE2, ATOM):
                for kind in group.classes:
                    plain = app.run(kind, machine).features()
                    reference = profiled_features(app, kind, machine)
                    assert plain.tobytes() == reference.tobytes()

    def test_race_runs_carry_the_features_of_a_whole_run(self):
        app = generate_app(4, MODEL_GROUPS["vector_oo"], CONFIG)
        race = race_sets(app, CORE2, SEQUENCE_SETS)
        for kind, run in race.runs.items():
            assert run.features().tobytes() \
                == app.run(kind, CORE2).features().tobytes()

    def test_a_finished_stopped_run_has_the_features_of_a_whole_run(self):
        finished = 0
        for seed in range(6):
            app = generate_app(seed, MODEL_GROUPS["vector_oo"], CONFIG)
            race = race_sets(app, CORE2, SEQUENCE_SETS)
            assert not set(race.stopped) & set(race.runs)
            for kind, run in race.stopped.items():
                with pytest.raises(ValueError, match="completed run"):
                    run.features()
                done = app.run(kind, CORE2, resume=run)
                assert done.features().tobytes() \
                    == app.run(kind, CORE2).features().tobytes()
                finished += 1
        assert finished > 0


def set_bytes(training_set):
    return (training_set.X.tobytes(), training_set.y.tobytes(),
            training_set.seeds)


class TestFamilyPhase1:
    GROUPS = [MODEL_GROUPS[name]
              for name in ("vector", "vector_oo", "list", "list_oo")]
    KWARGS = dict(per_class_target=3, max_seeds=30)

    def test_each_group_gets_its_own_result_and_checkpoint(self,
                                                          tmp_path):
        family = run_phase1(
            self.GROUPS, CONFIG, CORE2, **self.KWARGS,
            checkpoint_path={g.name: tmp_path / f"{g.name}.json"
                             for g in self.GROUPS})
        for group, result in zip(self.GROUPS, family):
            alone_path = tmp_path / f"{group.name}.alone.json"
            alone = run_phase1(group, CONFIG, CORE2, **self.KWARGS,
                               checkpoint_path=alone_path)
            assert result.group is group
            result.save(tmp_path / "a.json")
            alone.save(tmp_path / "b.json")
            assert (tmp_path / "a.json").read_bytes() \
                == (tmp_path / "b.json").read_bytes()
            if group.name in ("vector", "vector_oo"):
                # The set's checkpoint carries its sibling's original
                # features too; without them it is the alone one.
                shared = Phase1Checkpoint.load(tmp_path / f"{group.name}.json")
                own = Phase1Checkpoint.load(alone_path)
                kind = group.original.value
                assert {tuple(r["features"]) for r in shared.records} \
                    == {("vector", "list")}
                assert dataclasses.replace(shared, records=[
                    dict(r, features={kind: r["features"][kind]})
                    for r in shared.records]) == own
            else:  # the set's checkpoint is named after its first group
                assert not (tmp_path / f"{group.name}.json").exists()

    def test_features_come_from_completed_original_runs(self):
        family = run_phase1(self.GROUPS, CONFIG, CORE2, **self.KWARGS)
        for group, result in zip(self.GROUPS, family):
            assert result.records
            for record in result.records:
                assert list(record.features) == [group.original]
                app = generate_app(record.seed, group, CONFIG)
                assert record.features[group.original].tobytes() \
                    == app.run(group.original, CORE2).features().tobytes()
        assert family[0].seeds_tried == max(r.seeds_tried for r in family)

    def test_phase2_after_a_resume_simulates_nothing(self, tmp_path,
                                                     monkeypatch):
        """A resumed Phase I's records carry their features from the
        checkpoint, so Phase II needs no machine and equals a straight
        training's sets byte for byte."""
        straight = run_phase1(self.GROUPS, CONFIG, CORE2, **self.KWARGS)
        paths = {g.name: tmp_path / f"{g.name}.json" for g in self.GROUPS}
        injector = FaultInjector(FaultPlan(interrupt_at_seeds=frozenset({6})))
        with pytest.raises(TrainingInterrupted):
            run_phase1(self.GROUPS, CONFIG, CORE2, **self.KWARGS,
                       checkpoint_path=paths,
                       generate_fn=injector.wrap_generate(),
                       options=RunOptions(jobs=1))
        resumed = run_phase1(self.GROUPS, CONFIG, CORE2, **self.KWARGS,
                             resume_from=paths)

        def no_machine(self, config):
            raise AssertionError("Phase II built a machine")

        monkeypatch.setattr(Machine, "__init__", no_machine)
        for ours, theirs in zip(resumed, straight):
            assert set_bytes(run_phase2(ours)) \
                == set_bytes(run_phase2(theirs))

    def test_a_checkpoint_without_a_siblings_features_is_refused(
            self, tmp_path):
        path = tmp_path / "vector.json"
        run_phase1(MODEL_GROUPS["vector"], CONFIG, CORE2,
                   per_class_target=1, max_seeds=4, checkpoint_path=path)
        assert Phase1Checkpoint.load(path).records
        with pytest.raises(ValueError, match="features of vector, list"):
            run_phase1(self.GROUPS, CONFIG, CORE2, per_class_target=1,
                       max_seeds=4, resume_from={"vector": path})

    def test_groups_of_other_families_are_refused(self):
        with pytest.raises(ValueError, match="app family"):
            run_phase1([MODEL_GROUPS["vector"], MODEL_GROUPS["set"]],
                       CONFIG, CORE2, per_class_target=1, max_seeds=2)


SIBLINGS = [("vector", "list"), ("vector_oo", "list_oo")]


class TestSharedPhase1:
    def test_default_groups_pack_into_three_tasks(self):
        assert phase1_tasks(MODEL_GROUPS.values()) == [
            ("vector", "vector_oo", "list", "list_oo"), ("set",),
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
        # The records carry only their own group's original features, so
        # relabelling cannot supply the sibling's.
        with pytest.raises(ValueError, match="carry no list features"):
            ours.for_group(MODEL_GROUPS[sibling])

    def test_groups_with_other_candidates_do_not_share(self):
        result = run_phase1(MODEL_GROUPS["vector"], CONFIG, CORE2,
                            per_class_target=1, max_seeds=2)
        for name in ("vector_oo", "set"):
            with pytest.raises(ValueError, match="does not share"):
                result.for_group(MODEL_GROUPS[name])


class TestSharedTraining:
    """One training task for the whole sequence family."""

    GROUPS = [MODEL_GROUPS[name]
              for name in ("vector", "list", "vector_oo", "list_oo")]

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

    def assert_alone(self, shared, alone):
        for group in self.GROUPS:
            name = f"{group.name}.json"
            assert shared[name] == alone[group.name][0][name]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_training_is_byte_identical(self, alone, jobs,
                                               tmp_path):
        self.assert_alone(suite_bytes(
            self.train(self.GROUPS, options=RunOptions(jobs=jobs)),
            tmp_path), alone)

    def test_shared_training_survives_an_executor_fault(self):
        """A mid-loop seed whose executor slot fails is retried in the
        parent: every group's Phase I equals the clean
        run's, record for record, with no quarantine."""
        def phase1(**extra):
            return run_phase1(self.GROUPS, CONFIG, CORE2,
                              per_class_target=3, max_seeds=40, **extra)

        clean = phase1()
        flaky = FlakyExecutor(fail_submissions={5})
        collector = obs.Collector()
        faulted = phase1(executor=flaky,
                         options=RunOptions(telemetry=collector))
        assert flaky.count > 6  # the failed seed was not the last
        assert collector.metrics.counter_value(
            "parallel.retries") == 1
        assert len(faulted) == len(clean) == len(self.GROUPS)
        for got, want in zip(faulted, clean):
            assert got.quarantined == [] == want.quarantined
            assert (got.seeds_tried, got.no_winner) \
                == (want.seeds_tried, want.no_winner)
            assert [r.to_payload() for r in got.records] \
                == [r.to_payload() for r in want.records]

    def test_interrupt_and_resume_mid_phase1(self, alone, tmp_path,
                                             monkeypatch):
        injector = FaultInjector(FaultPlan(interrupt_at_seeds=frozenset({6})))
        monkeypatch.setattr(phase1_mod, "generate_app",
                            injector.wrap_generate())
        checkpoints = tmp_path / "checkpoints"
        with pytest.raises(TrainingInterrupted):
            self.train(self.GROUPS, checkpoint_dir=checkpoints,
                       options=RunOptions(checkpoint_every=2))
        # One Phase I checkpoint per candidate set, both mid-loop.
        assert sorted(path.name for path in checkpoints.iterdir()) \
            == ["vector.phase1.json", "vector_oo.phase1.json"]
        for path in checkpoints.iterdir():
            state = Phase1Checkpoint.load(path)
            assert (state.next_offset, state.complete) == (6, False)
        resumed = self.train(self.GROUPS, checkpoint_dir=checkpoints,
                             resume=True)
        self.assert_alone(suite_bytes(resumed, tmp_path / "suite"), alone)
        assert list(checkpoints.iterdir()) == []

    def test_phase2_simulates_nothing(self):
        """Phase I's records carry the original-kind features, so Phase
        II is a join with no span below it, whatever ``jobs``."""
        counters = []
        for jobs in (1, 2):
            collector = obs.Collector()
            self.train(self.GROUPS, options=RunOptions(
                jobs=jobs, telemetry=collector))
            metrics = collector.metrics
            rows = sum(metrics.find("phase2.rows{").values())
            assert rows > 0
            phase2 = collector.span_tree()["train"]["children"][
                "train.group"]["children"]["phase2"]
            assert phase2["count"] == len(self.GROUPS)
            assert "children" not in phase2
            counters.append(collector.snapshot()["metrics"]["counters"])
        assert counters[0] == counters[1]

    def test_no_finish_for_a_seed_whose_class_is_full(self, alone,
                                                      tmp_path,
                                                      monkeypatch):
        """A seed whose winner's class filled ``FINISH_LAG`` seeds back
        cannot become a record, so its stopped runs stay unfinished;
        every record's run is still finished for its features."""
        finished = {}
        for lag in (2, 10**6):
            monkeypatch.setattr(phase1_mod, "FINISH_LAG", lag)
            collector = obs.Collector()
            suite = self.train(self.GROUPS,
                               options=RunOptions(telemetry=collector))
            self.assert_alone(suite_bytes(suite, tmp_path / str(lag)),
                              alone)
            finished[lag] = sum(
                collector.metrics.find("phase1.finished{").values())
        assert finished[2] < finished[10**6]

    def test_a_finish_that_raises_quarantines_the_seed(self, monkeypatch):
        """A stopped run whose finish raises deterministically
        quarantines its seed at stage ``"finish"``: it never becomes a
        record, so Phase II drops no row."""
        real_race_sets = phase1_mod.race_sets

        def broken_steps():
            raise RuntimeError("finish failed")
            yield

        def race_with_broken_stopped_runs(app, *args, **kwargs):
            race = real_race_sets(app, *args, **kwargs)
            if app.seed % 2:
                for run in race.stopped.values():
                    run._steps = broken_steps()
            return race

        monkeypatch.setattr(phase1_mod, "race_sets",
                            race_with_broken_stopped_runs)
        collector = obs.Collector()
        with obs.use_collector(collector):
            family = run_phase1(self.GROUPS, CONFIG, CORE2,
                                per_class_target=3, max_seeds=40,
                                options=RunOptions(jobs=1))
        for result in family:
            assert result.quarantined
            assert {(q.stage, q.category, q.seed % 2)
                    for q in result.quarantined} \
                == {("finish", "deterministic", 1)}
            assert not ({q.seed for q in result.quarantined}
                        & {r.seed for r in result.records})
            training_set = run_phase2(result)
            assert training_set.seeds == [r.seed for r in result.records]
        # Even seeds still finish their stopped runs.
        assert sum(collector.metrics.find("phase1.finished{").values()) > 0

    def test_shared_phase1_is_counted_once(self, alone):
        collector = obs.Collector()
        self.train(self.GROUPS, options=RunOptions(telemetry=collector))
        metrics = collector.metrics
        assert metrics.find("phase1.shared") == {
            f"phase1.shared{{group={name}}}": 1
            for name in ("list", "vector_oo", "list_oo")}
        # Counted per candidate set, as if each set ran alone.
        leaders = [alone["vector"][1], alone["vector_oo"][1]]
        for name in ("phase1.seeds", "phase1.no_winner"):
            assert metrics.counter_value(name) \
                == sum(m.counter_value(name) for m in leaders)
        records = {}
        for m in leaders:
            for key, value in m.find("phase1.records").items():
                records[key] = records.get(key, 0) + value
        assert metrics.find("phase1.records") == records
        assert metrics.counter_value("train.groups") == 4
        # Every (seed, original kind) is simulated at most once.
        rows = metrics.counter_value("phase2.rows")
        assert rows == sum(alone[g.name][1].counter_value("phase2.rows")
                           for g in self.GROUPS)
        assert metrics.counter_value("sim.l1_accesses") < sum(
            alone[g.name][1].counter_value("sim.l1_accesses")
            for g in self.GROUPS)
