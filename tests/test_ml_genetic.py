"""Unit tests for the GA feature selector."""

import multiprocessing
import warnings

import numpy as np
import pytest

from repro.ml.genetic import GAResult, GeneticFeatureSelector
from repro.ml.strategies import (
    GaussianMutation,
    TournamentAncestry,
    UniformCrossover,
)
from repro.runtime.parallel import SerialExecutor

NAMES = ("a", "b", "c", "d", "e", "f")


def make_selector(**kwargs):
    defaults = dict(n_features=6, feature_names=NAMES, population=10,
                    generations=8, seed=0)
    defaults.update(kwargs)
    return GeneticFeatureSelector(**defaults)


# Module-level so a worker pool can pickle them by reference.
def _linear_fitness(weights):
    return float(2.0 * weights[0] + weights[1] - 0.3 * weights[2:].sum())


def _fails_in_workers(weights):
    # Pool workers are daemonic; the parent is not — so this fitness
    # crashes in every worker and only succeeds on the in-parent retry.
    if multiprocessing.current_process().daemon:
        raise ConnectionError("injected worker fault")
    return _linear_fitness(weights)


class TestConstruction:
    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            GeneticFeatureSelector(4, NAMES)

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            make_selector(population=1)

    def test_rejects_full_elitism(self):
        with pytest.raises(ValueError):
            make_selector(population=4, elitism=4)

    def test_rejects_oversized_tournament(self):
        """Tournament contenders are drawn without replacement, so a
        tournament larger than the population must fail at construction
        rather than deep inside rng.choice mid-run."""
        with pytest.raises(ValueError, match="tournament"):
            make_selector(population=6, ancestry=TournamentAncestry(7))

    def test_rejects_nonpositive_tournament(self):
        with pytest.raises(ValueError, match="tournament"):
            make_selector(ancestry=TournamentAncestry(0))

    def test_tournament_equal_to_population_allowed(self):
        make_selector(population=6, ancestry=TournamentAncestry(6))


class TestEvolution:
    def test_finds_informative_features(self):
        """Fitness rewards weight on features 0 and 1 only; the GA must
        rank them above the noise features."""
        def fitness(weights):
            signal = weights[0] + weights[1]
            noise = weights[2:].sum()
            return signal - 0.5 * noise

        result = make_selector(generations=25, population=16).run(fitness)
        top_two = set(result.top_features(2))
        assert top_two == {"a", "b"}

    def test_history_is_monotone_with_elitism(self):
        def fitness(weights):
            return float(weights.sum())

        result = make_selector().run(fitness)
        assert result.history == sorted(result.history)
        assert len(result.history) == 9  # initial + 8 generations

    def test_weights_stay_in_unit_interval(self):
        def fitness(weights):
            return float(-np.abs(weights - 0.5).sum())

        result = make_selector(
            mutation=GaussianMutation(rate=0.9, sigma=2.0)).run(fitness)
        assert (result.weights >= 0.0).all()
        assert (result.weights <= 1.0).all()

    def test_deterministic_given_seed(self):
        def fitness(weights):
            return float(weights[0] - weights[3])

        a = make_selector(seed=5).run(fitness)
        b = make_selector(seed=5).run(fitness)
        assert np.allclose(a.weights, b.weights)
        assert a.fitness == b.fitness

    def test_all_ones_seeded_in_population(self):
        """The 'use everything' chromosome is always evaluated, so the GA
        can never do worse than no selection."""
        def fitness(weights):
            return 1.0 if np.allclose(weights, 1.0) else 0.0

        result = make_selector(generations=0).run(fitness)
        assert result.fitness == 1.0


class FlakyExecutor(SerialExecutor):
    """In-process executor that fails chosen submissions at get() time."""

    def __init__(self, fail_submissions):
        self.fail_submissions = set(fail_submissions)
        self.count = 0

    def submit(self, fn, args):
        index = self.count
        self.count += 1
        if index in self.fail_submissions:
            class _Boom:
                def get(self):
                    raise RuntimeError("injected executor fault")
            return _Boom()
        return super().submit(fn, args)


def _ga_key(result):
    return (result.weights.tobytes(), result.fitness, tuple(result.history))


class TestParallelEvaluation:
    """GA results are byte-identical for any jobs value — all RNG draws
    stay in the parent; only fitness evaluation fans out."""

    def test_jobs_values_agree_bytewise(self):
        serial = make_selector(generations=4).run(_linear_fitness)
        for jobs in (2, 4):
            fanned = make_selector(generations=4).run(_linear_fitness,
                                                      jobs=jobs)
            assert _ga_key(fanned) == _ga_key(serial)

    def test_worker_fault_retried_in_parent(self):
        """A fitness call that crashes worker-side is re-evaluated in
        the parent: same result, no hole in the population."""
        serial = make_selector(generations=2).run(_linear_fitness)
        fanned = make_selector(generations=2).run(_fails_in_workers,
                                                  jobs=2)
        assert _ga_key(fanned) == _ga_key(serial)

    def test_injected_executor_fault_is_healed(self):
        serial = make_selector(generations=3).run(_linear_fitness)
        flaky = FlakyExecutor(fail_submissions={1, 7, 13})
        fanned = make_selector(generations=3).run(_linear_fitness,
                                                  jobs=4, executor=flaky)
        assert _ga_key(fanned) == _ga_key(serial)
        assert flaky.count > 13  # the fault points were actually hit

    def test_unpicklable_fitness_degrades_to_serial(self):
        captured = []

        def closure_fitness(weights):
            captured.append(1)
            return float(weights.sum())

        serial = make_selector(generations=2).run(closure_fitness)
        with pytest.warns(RuntimeWarning, match="running serially"):
            fanned = make_selector(generations=2).run(closure_fitness,
                                                      jobs=4)
        assert _ga_key(fanned) == _ga_key(serial)

    def test_persistent_failure_propagates(self):
        def always_broken(weights):
            raise ValueError("fitness is broken")

        with pytest.raises(ValueError, match="fitness is broken"):
            make_selector(generations=1).run(
                always_broken, executor=SerialExecutor()
            )


class TestGAResult:
    def test_ranked_features_sorted(self):
        result = GAResult(weights=np.array([0.1, 0.9, 0.5]),
                          fitness=1.0, history=[],
                          feature_names=("x", "y", "z"))
        assert [name for name, _ in result.ranked_features()] \
            == ["y", "z", "x"]
        assert result.top_features(1) == ["y"]

    def test_top_features_clamps_oversized_k(self):
        """Asking for more features than exist returns them all instead
        of silently truncating at an arbitrary point."""
        result = GAResult(weights=np.array([0.1, 0.9, 0.5]),
                          fitness=1.0, history=[],
                          feature_names=("x", "y", "z"))
        assert result.top_features(10) == ["y", "z", "x"]
        assert result.top_features(3) == ["y", "z", "x"]

    def test_top_features_rejects_negative_k(self):
        result = GAResult(weights=np.array([0.1, 0.9]),
                          fitness=1.0, history=[],
                          feature_names=("x", "y"))
        with pytest.raises(ValueError, match="must be non-negative"):
            result.top_features(-1)
        assert result.top_features(0) == []


class TestStrategyShim:
    """Strategy objects are the one spelling of the GA tuning knobs."""

    def test_strategy_objects_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            selector = make_selector(
                ancestry=TournamentAncestry(4),
                crossover=UniformCrossover(0.9),
                mutation=GaussianMutation(rate=0.5, sigma=1.0))
        assert selector.ancestry == TournamentAncestry(4)
        assert selector.crossover == UniformCrossover(0.9)
        assert selector.mutation == GaussianMutation(rate=0.5, sigma=1.0)

    def test_both_spellings_rejected(self):
        """The numeric keywords are gone, alone or beside the strategy
        object they used to tune."""
        with pytest.raises(TypeError, match="mutation_rate"):
            make_selector(mutation_rate=0.5,
                          mutation=GaussianMutation(rate=0.5))
        with pytest.raises(TypeError, match="tournament"):
            make_selector(tournament=4)
        with pytest.raises(TypeError, match="crossover_rate"):
            make_selector(crossover_rate=0.9)
