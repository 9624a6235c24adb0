"""Unit tests for the two-phase training framework."""

import dataclasses

import numpy as np
import pytest

from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import generate_app
from repro.appgen.workload import DEFAULT_MARGIN, collect_features
from repro.containers.registry import DSKind, MODEL_GROUPS
from repro.instrumentation.features import num_features
from repro.machine.configs import CORE2
from repro.training.dataset import TrainingSet
from repro.training.phase1 import run_phase1
from repro.training.phase2 import run_phase2


@pytest.fixture(scope="module")
def phase1_result():
    return run_phase1(MODEL_GROUPS["vector_oo"], GeneratorConfig.small(),
                      CORE2, per_class_target=4, max_seeds=40)


class TestPhase1:
    def test_winner_clears_margin_over_completed_rivals(self,
                                                         phase1_result):
        # Rivals the race abandoned are absent from ``runtimes``, so a
        # record may hold the winner alone.
        for record in phase1_result.records:
            best = record.runtimes[record.best]
            assert best == min(record.runtimes.values())
            for kind, cycles in record.runtimes.items():
                if kind != record.best:
                    assert cycles / best >= 1.0 + DEFAULT_MARGIN

    def test_class_counts_capped(self, phase1_result):
        for count in phase1_result.class_counts().values():
            assert count <= 4

    def test_seeds_are_unique(self, phase1_result):
        seeds = [r.seed for r in phase1_result.records]
        assert len(seeds) == len(set(seeds))

    def test_bookkeeping(self, phase1_result):
        assert phase1_result.seeds_tried <= 40
        assert phase1_result.no_winner >= 0
        assert len(phase1_result) == len(phase1_result.records)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            run_phase1(MODEL_GROUPS["set"], GeneratorConfig.small(),
                       CORE2, per_class_target=0)

    def test_zero_margin_keeps_more_winners(self):
        config = GeneratorConfig.small()
        strict = run_phase1(MODEL_GROUPS["set"], config, CORE2,
                            per_class_target=100, max_seeds=25,
                            margin=0.05)
        loose = run_phase1(MODEL_GROUPS["set"], config, CORE2,
                           per_class_target=100, max_seeds=25,
                           margin=0.0)
        assert len(loose) >= len(strict)

    def test_seed_base_offsets_population(self):
        config = GeneratorConfig.small()
        a = run_phase1(MODEL_GROUPS["set"], config, CORE2,
                       per_class_target=2, max_seeds=10, seed_base=0)
        b = run_phase1(MODEL_GROUPS["set"], config, CORE2,
                       per_class_target=2, max_seeds=10, seed_base=10_000)
        assert not {r.seed for r in a.records} & {r.seed for r in b.records}

    def test_progress_callback_invoked(self):
        calls = []
        run_phase1(MODEL_GROUPS["set"], GeneratorConfig.small(), CORE2,
                   per_class_target=2, max_seeds=15,
                   progress=lambda seed, res: calls.append(seed))
        assert len(calls) >= 1


class TestPhase2:
    def test_builds_labelled_rows(self, phase1_result):
        training_set = run_phase2(phase1_result)
        assert len(training_set) == len(phase1_result)
        assert training_set.X.shape == (len(training_set), num_features())
        assert training_set.machine_name == phase1_result.machine_name
        assert training_set.seeds == [r.seed for r in phase1_result.records]
        for row, record in zip(training_set.y, phase1_result.records):
            assert training_set.classes[row] == record.best

    def test_set_is_built_at_once_as_row_by_row(self, phase1_result,
                                                monkeypatch):
        group = phase1_result.group
        reference = TrainingSet(group_name=group.name,
                                machine_name=phase1_result.machine_name,
                                classes=group.classes)
        for record in phase1_result.records:
            reference.add(record.features[group.original], record.best,
                          record.seed)

        def row_by_row(*args, **kwargs):
            raise AssertionError("Phase II appended a row")

        monkeypatch.setattr(TrainingSet, "add", row_by_row)
        training_set = run_phase2(phase1_result)
        for got, want in ((training_set.X, reference.X),
                          (training_set.y, reference.y)):
            assert (got.dtype, got.shape, got.tobytes()) \
                == (want.dtype, want.shape, want.tobytes())
        assert training_set.seeds == reference.seeds
        empty = run_phase2(dataclasses.replace(phase1_result, records=[]))
        assert empty.X.shape == (0, num_features())
        assert empty.y.dtype == np.int64 and len(empty) == 0

    def test_rows_are_the_original_kind_runs(self, phase1_result):
        """Algorithm 2's row: the recorded app run on the original kind."""
        group = phase1_result.group
        training_set = run_phase2(phase1_result)
        for row, seed in zip(training_set.X, training_set.seeds):
            app = generate_app(seed, group, GeneratorConfig.small())
            assert row.tobytes() == collect_features(app, CORE2).tobytes()


class TestTrainingSet:
    def _make(self, n=10):
        ts = TrainingSet(group_name="vector_oo", machine_name="core2",
                         classes=MODEL_GROUPS["vector_oo"].classes)
        rng = np.random.default_rng(0)
        for i in range(n):
            ts.add(rng.normal(size=num_features()),
                   ts.classes[i % len(ts.classes)], seed=i)
        return ts

    def test_add_and_lookup(self):
        ts = self._make(6)
        assert len(ts) == 6
        assert ts.kind_of(ts.label_of(DSKind.HASH_SET)) == DSKind.HASH_SET

    def test_class_counts(self):
        ts = self._make(12)
        counts = ts.class_counts()
        assert sum(counts.values()) == 12

    def test_split_partitions(self):
        ts = self._make(20)
        train, val = ts.split(validation_fraction=0.25, seed=1)
        assert len(train) + len(val) == 20
        assert len(val) == 5
        assert set(train.seeds) | set(val.seeds) == set(range(20))
        assert not set(train.seeds) & set(val.seeds)

    def test_split_rejects_bad_fraction(self):
        ts = self._make(10)
        with pytest.raises(ValueError):
            ts.split(validation_fraction=0.0)
        with pytest.raises(ValueError):
            ts.split(validation_fraction=1.0)

    def test_save_load_roundtrip(self, tmp_path):
        ts = self._make(8)
        path = tmp_path / "ts.json"
        ts.save(path)
        loaded = TrainingSet.load(path)
        assert loaded.group_name == ts.group_name
        assert loaded.classes == ts.classes
        assert np.allclose(loaded.X, ts.X)
        assert (loaded.y == ts.y).all()
        assert loaded.seeds == ts.seeds


class TestPhase1Persistence:
    def test_save_load_roundtrip(self, phase1_result, tmp_path):
        path = tmp_path / "seeds" / "vector_oo.json"
        phase1_result.save(path)
        from repro.training.phase1 import Phase1Result
        loaded = Phase1Result.load(path)
        assert loaded.group.name == phase1_result.group.name
        assert loaded.machine_name == phase1_result.machine_name
        assert loaded.seeds_tried == phase1_result.seeds_tried
        assert len(loaded) == len(phase1_result)
        for a, b in zip(loaded.records, phase1_result.records):
            assert (a.seed, a.best, a.runtimes) == (b.seed, b.best,
                                                    b.runtimes)
            assert {k: v.tobytes() for k, v in a.features.items()} \
                == {k: v.tobytes() for k, v in b.features.items()}

    def test_loaded_result_feeds_phase2(self, phase1_result, tmp_path):
        path = tmp_path / "pairs.json"
        phase1_result.save(path)
        from repro.training.phase1 import Phase1Result
        loaded = Phase1Result.load(path)
        training_set = run_phase2(loaded)
        assert training_set.X.tobytes() \
            == run_phase2(phase1_result).X.tobytes()
