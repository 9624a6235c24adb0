"""Unit tests for the synthetic application generator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import SyntheticApp, generate_app
from repro.appgen.workload import (
    best_candidate,
    collect_features,
    measure_candidates,
)
from repro.containers.registry import DSKind, MODEL_GROUPS
from repro.instrumentation.features import FEATURE_NAMES
from repro.machine.configs import ATOM, CORE2


@pytest.fixture
def config():
    return GeneratorConfig.small()


class TestConfig:
    def test_defaults_valid(self):
        GeneratorConfig()
        GeneratorConfig.paper()
        GeneratorConfig.small()

    def test_paper_values_match_table2(self):
        paper = GeneratorConfig.paper()
        assert paper.total_interface_calls == 1000
        assert paper.max_insert_val == 65536
        assert paper.max_search_val == 65536
        assert paper.max_iter_count == 65536

    def test_rejects_bad_totals(self):
        with pytest.raises(ValueError):
            GeneratorConfig(total_interface_calls=0)
        with pytest.raises(ValueError):
            GeneratorConfig(data_elem_sizes=())


class TestProfileSampling:
    def test_profile_is_deterministic_in_seed(self, config):
        group = MODEL_GROUPS["vector_oo"]
        a = generate_app(42, group, config)
        b = generate_app(42, group, config)
        assert a.profile == b.profile

    def test_different_seeds_differ(self, config):
        group = MODEL_GROUPS["vector_oo"]
        profiles = {generate_app(seed, group, config).profile
                    for seed in range(20)}
        assert len(profiles) > 15

    def test_profile_respects_config_bounds(self, config):
        group = MODEL_GROUPS["set"]
        for seed in range(30):
            profile = generate_app(seed, group, config).profile
            assert profile.max_insert_val <= config.max_insert_val
            assert profile.max_iter_count <= config.max_iter_count
            assert profile.elem_size in config.data_elem_sizes
            assert profile.prefill <= config.max_prefill
            assert abs(sum(profile.op_weights) - 1.0) < 1e-9

    def test_insert_never_dropped(self, config):
        group = MODEL_GROUPS["vector_oo"]
        for seed in range(40):
            profile = generate_app(seed, group, config).profile
            assert profile.weight_of("insert") > 0

    def test_sequence_groups_get_push_ops(self, config):
        profile = generate_app(1, MODEL_GROUPS["vector"], config).profile
        assert "push_back" in profile.ops
        assert "push_front" in profile.ops

    def test_tree_groups_have_no_push_ops(self, config):
        profile = generate_app(1, MODEL_GROUPS["set"], config).profile
        assert "push_back" not in profile.ops

    def test_map_group_gets_payload(self, config):
        profiles = [generate_app(seed, MODEL_GROUPS["map"], config).profile
                    for seed in range(5)]
        assert all(p.payload_size in config.payload_sizes
                   for p in profiles)

    def test_weight_of_unknown_op(self, config):
        profile = generate_app(1, MODEL_GROUPS["set"], config).profile
        assert profile.weight_of("push_back") == 0.0


class TestExecution:
    def test_replay_is_deterministic(self, config):
        group = MODEL_GROUPS["vector_oo"]
        app = generate_app(7, group, config)
        first = app.run(DSKind.VECTOR, CORE2).cycles
        second = generate_app(7, group, config).run(
            DSKind.VECTOR, CORE2
        ).cycles
        assert first == second

    def test_rejects_illegal_candidate(self, config):
        app = generate_app(7, MODEL_GROUPS["vector"], config)
        with pytest.raises(ValueError):
            app.run(DSKind.HASH_SET, CORE2)  # order-aware group

    def test_same_logical_state_across_kinds(self, config):
        group = MODEL_GROUPS["vector_oo"]
        app = generate_app(11, group, config)
        sizes = set()
        multisets = set()
        for kind in group.classes:
            run = app.run(kind, CORE2)
            container = run.container
            sizes.add(len(container))
            multisets.add(tuple(sorted(container.to_list())))
        assert len(sizes) == 1
        assert len(multisets) == 1

    def test_features_require_a_completed_run(self, config):
        app = generate_app(3, MODEL_GROUPS["set"], config)
        run = app.run(DSKind.SET, CORE2, limit=0)
        with pytest.raises(ValueError, match="completed run"):
            run.features()
        run = app.run(DSKind.SET, CORE2, resume=run)
        assert run.features().shape == (len(FEATURE_NAMES),)

    def test_total_calls_respected(self, config):
        app = generate_app(5, MODEL_GROUPS["set"], config)
        run = app.run(DSKind.SET, CORE2)
        stats = run.container.stats
        expected = config.total_interface_calls + app.profile.prefill
        assert stats.total_calls == expected


class TestWorkloadHelpers:
    def test_measure_candidates_covers_group(self, config):
        group = MODEL_GROUPS["map"]
        app = generate_app(2, group, config)
        runtimes = measure_candidates(app, CORE2)
        assert set(runtimes) == set(group.classes)
        assert all(cycles > 0 for cycles in runtimes.values())

    def test_best_candidate_margin(self):
        runtimes = {DSKind.VECTOR: 100, DSKind.LIST: 104}
        # 4% gap: below the 5% margin -> no winner.
        assert best_candidate(runtimes) is None
        assert best_candidate(runtimes, margin=0.03) == DSKind.VECTOR
        assert best_candidate(runtimes, margin=0.0) == DSKind.VECTOR

    def test_best_candidate_single_kind_wins(self):
        # A one-candidate group has nothing to out-run: its kind wins.
        assert best_candidate({DSKind.VECTOR: 10}) == DSKind.VECTOR
        assert best_candidate({DSKind.LIST: 0}) == DSKind.LIST

    def test_best_candidate_empty_is_error(self):
        with pytest.raises(ValueError):
            best_candidate({})

    def test_best_candidate_must_beat_all(self):
        runtimes = {DSKind.VECTOR: 100, DSKind.LIST: 103,
                    DSKind.DEQUE: 200}
        assert best_candidate(runtimes) is None  # list is too close

    def test_collect_features_uses_original_kind(self, config):
        group = MODEL_GROUPS["list_oo"]
        app = generate_app(9, group, config)
        features = collect_features(app, CORE2)
        assert features.shape[0] > 0

    def test_architectures_yield_different_cycles(self, config):
        app = generate_app(13, MODEL_GROUPS["vector_oo"], config)
        core2_cycles = app.run(DSKind.VECTOR, CORE2).cycles
        atom_cycles = app.run(DSKind.VECTOR, ATOM).cycles
        assert core2_cycles != atom_cycles


@given(st.integers(min_value=0, max_value=10_000))
def test_any_seed_runs_cleanly(seed):
    config = GeneratorConfig.small()
    group = MODEL_GROUPS["vector_oo"]
    app = generate_app(seed, group, config)
    run = app.run(group.original, CORE2)
    assert run.cycles > 0
