"""Tests for the skewed-search generator extension."""

import dataclasses

import pytest

from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import generate_app
from repro.containers.registry import DSKind, MODEL_GROUPS
from repro.machine.configs import CORE2

SKEWED = GeneratorConfig(
    total_interface_calls=150,
    max_insert_val=512, max_remove_val=512, max_search_val=512,
    max_iter_count=32, max_prefill=64,
    skewed_search_probability=1.0,
)


class TestSampling:
    def test_default_config_never_skews(self):
        config = GeneratorConfig.small()
        for seed in range(30):
            profile = generate_app(seed, MODEL_GROUPS["set"],
                                   config).profile
            assert profile.search_skew == 0.0

    def test_skewed_config_skews(self):
        for seed in range(10):
            profile = generate_app(seed, MODEL_GROUPS["set"],
                                   SKEWED).profile
            assert 0.5 <= profile.search_skew <= 0.95

    def test_default_sampling_stream_unchanged_by_feature(self):
        """Adding the skew knob (off) must not perturb existing seeds."""
        config_off = GeneratorConfig.small()
        explicit_off = dataclasses.replace(
            GeneratorConfig.small(), skewed_search_probability=0.0
        )
        for seed in range(10):
            a = generate_app(seed, MODEL_GROUPS["vector_oo"], config_off)
            b = generate_app(seed, MODEL_GROUPS["vector_oo"],
                             explicit_off)
            assert a.profile == b.profile


class TestExecution:
    def test_skewed_run_is_deterministic(self):
        app = generate_app(3, MODEL_GROUPS["set"], SKEWED)
        first = app.run(DSKind.SET, CORE2).cycles
        again = generate_app(3, MODEL_GROUPS["set"], SKEWED).run(
            DSKind.SET, CORE2
        ).cycles
        assert first == again

    def test_skewed_replay_equivalent_across_kinds(self):
        group = MODEL_GROUPS["set"]
        app = generate_app(5, group, SKEWED)
        contents = set()
        for kind in group.classes:
            run = app.run(kind, CORE2)
            contents.add(tuple(sorted(run.container.to_list())))
        assert len(contents) == 1

    def test_skew_concentrates_find_values(self):
        """With skew ~0.9, repeated hot-key probes shrink the average
        tree-find depth relative to uniform probing."""
        def avg_find_depth(config, seed=11):
            app = generate_app(seed, MODEL_GROUPS["set"], config)
            run = app.run(DSKind.SET, CORE2)
            stats = run.container.stats
            if stats.finds == 0:
                return None
            return stats.find_cost / stats.finds

        uniform = GeneratorConfig(
            total_interface_calls=150,
            max_insert_val=512, max_remove_val=512, max_search_val=512,
            max_iter_count=32, max_prefill=64,
        )
        depths_skewed = [d for d in
                         (avg_find_depth(SKEWED, s) for s in range(8))
                         if d is not None]
        depths_uniform = [d for d in
                          (avg_find_depth(uniform, s) for s in range(8))
                          if d is not None]
        assert depths_skewed and depths_uniform
        # Not necessarily per-seed, but on average skew must not deepen
        # probes (splay-style repetition trends shallow even in RB).
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean(depths_skewed) <= mean(depths_uniform) * 1.3

    def test_splay_benefits_from_skewed_apps(self):
        """The extension loop: under skewed search streams the splay tree
        beats the red-black tree on matched workloads."""
        from repro.containers.registry import make_container
        from repro.machine.machine import Machine
        import random

        def run(kind):
            machine = Machine(CORE2)
            container = make_container(kind, machine, 8)
            rng = random.Random(1)
            values = [rng.randrange(100_000) for _ in range(300)]
            for value in values:
                container.insert(value, 0)
            hot = values[:6]
            for _ in range(400):
                if rng.random() < 0.9:
                    container.find(rng.choice(hot))
                else:
                    container.find(rng.randrange(100_000))
            return machine.cycles

        assert run(DSKind.SPLAY_SET) < run(DSKind.SET)
