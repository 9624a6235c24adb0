"""Unit tests for the generic GA core and its strategy objects.

Covers the api_redesign guarantees:

* the adapted :class:`GeneticFeatureSelector` stays byte-identical to
  the pre-refactor hard-wired implementation (pinned output digests),
  for any strategy-relevant configuration and any ``jobs`` value;
* NSGA-II helpers (non-dominated sort, crowding distance) against
  hand-checked cases and a brute-force oracle;
* :meth:`GeneticSearch.pareto` finds the true front of an enumerable
  search space and is byte-identical across ``jobs``.
"""

import hashlib

import numpy as np
import pytest

from repro.ml.genetic import GeneticFeatureSelector
from repro.ml.search import (
    GeneticSearch,
    crowding_distance,
    dominates,
    non_dominated_rank,
)
from repro.ml.strategies import (
    GaussianMutation,
    GeneChoiceMutation,
    SeededChoiceInit,
    TournamentAncestry,
    UniformCrossover,
    UnitUniformInit,
)
from repro.runtime.parallel import SerialExecutor

NAMES = ("a", "b", "c", "d", "e", "f")


def _linear_fitness(weights):
    return float(2.0 * weights[0] + weights[1] - 0.3 * weights[2:].sum())


def _ga_digest(result) -> str:
    """SHA-256 of a run's best weights (raw bytes), fitness and
    per-generation history (by ``repr``)."""
    return hashlib.sha256(result.weights.tobytes() + repr(
        (float(result.fitness), tuple(float(h) for h in result.history))
    ).encode()).hexdigest()


LEGACY_CONFIGS = [
    dict(population=10, generations=8, seed=0),
    dict(population=6, generations=5, seed=3, tournament=4,
         crossover_rate=0.9, mutation_rate=0.5, mutation_sigma=1.0,
         elitism=1),
    dict(population=16, generations=3, seed=11, tournament=1,
         crossover_rate=0.0),
    dict(population=5, generations=6, seed=7, tournament=5, elitism=4),
    dict(population=4, generations=0, seed=42),
]

# Digests of the pre-refactor hard-wired GA loop's output, taken from
# a frozen copy of that loop before it was deleted: the adapter must
# reproduce its RNG draw order exactly.
# ``LEGACY_DIGESTS[i]`` is for ``LEGACY_CONFIGS[i]``.
LEGACY_DIGESTS = [
    "93f9bb80b8c816993b9278f02e46fdb04d0919fb58b768d92e1bf6ee05d97e00",
    "d49150eeed02b65232db67271267248cc850af25c300af9e5b018742cdd7ac04",
    "ffc8a90384e387d11b85050957034af684ce7cf1d36c88abae9f0b365f9d9d49",
    "4f2f723140dc07a1ce382b83a99d0aa279f7f03d22281ee19e107f37ab9f1c14",
    "dfaae1822e30d6318c2e507869717ad332c52d36f7dbc77ff00aa5e8c65d3050",
]
#: population=8, generations=4, seed=9 (default strategies).
EXPLICIT_DIGEST = \
    "86bd14d1273621f99eca8e6475c63d1c708883f05744c1ba1bc2d5fbc20f96f2"
#: population=8, generations=4, seed=1.
EXECUTOR_DIGEST = \
    "6519d285418f9a0be4ed555f01ca28b37c29f2c8b286c9b1c4e477b9f66a03db"
#: Two runs of one selector (population=6, generations=3, seed=2).
REUSE_DIGESTS = (
    "9ce6c18d9c8592977de7f488e9aeb524094818bf48fbebdf7d7b50ec2eff001a",
    "14bc552fdd38cb777a16fadbce5edfa876f4f2c41f2b7eb33d524a5efa4cda10",
)


def _adapted_selector(config):
    """The adapter for a LEGACY_CONFIGS entry: each numeric knob the
    legacy loop took becomes the strategy object it maps to; knobs the
    entry leaves out stay at the adapter's defaults."""
    config = dict(config)
    if "tournament" in config:
        config["ancestry"] = TournamentAncestry(config.pop("tournament"))
    if "crossover_rate" in config:
        config["crossover"] = UniformCrossover(config.pop("crossover_rate"))
    if {"mutation_rate", "mutation_sigma"} & config.keys():
        config["mutation"] = GaussianMutation(
            rate=config.pop("mutation_rate", 0.15),
            sigma=config.pop("mutation_sigma", 0.25))
    return GeneticFeatureSelector(6, NAMES, **config)


class TestAdapterByteIdentity:
    """The refactored adapter vs the pinned pre-refactor outputs."""

    @pytest.mark.parametrize(
        "config,digest", list(zip(LEGACY_CONFIGS, LEGACY_DIGESTS)),
        ids=[f"config{i}" for i in range(len(LEGACY_CONFIGS))])
    def test_matches_frozen_legacy_for_any_jobs(self, config, digest):
        for jobs in (None, 2):
            selector = _adapted_selector(config)
            result = selector.run(_linear_fitness, jobs=jobs)
            assert _ga_digest(result) == digest, (config, jobs)

    def test_matches_with_explicit_strategies(self):
        """Passing the default strategies as objects changes nothing."""
        selector = GeneticFeatureSelector(
            6, NAMES, population=8, generations=4, seed=9,
            ancestry=TournamentAncestry(3),
            crossover=UniformCrossover(0.7),
            mutation=GaussianMutation(rate=0.15, sigma=0.25),
        )
        assert _ga_digest(selector.run(_linear_fitness)) == EXPLICIT_DIGEST

    def test_matches_under_in_process_executor(self):
        selector = GeneticFeatureSelector(6, NAMES, population=8,
                                          generations=4, seed=1)
        result = selector.run(_linear_fitness, jobs=4,
                              executor=SerialExecutor())
        assert _ga_digest(result) == EXECUTOR_DIGEST

    def test_rng_reuse_across_runs_matches(self):
        """Callers that run the same selector twice reuse its stream."""
        adapted = GeneticFeatureSelector(6, NAMES, population=6,
                                         generations=3, seed=2)
        assert _ga_digest(adapted.run(_linear_fitness)) == REUSE_DIGESTS[0]
        assert _ga_digest(adapted.run(_linear_fitness)) == REUSE_DIGESTS[1]


class TestSearchValidation:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError, match="population"):
            GeneticSearch(4, population=1)

    def test_rejects_full_elitism_with_detail(self):
        """elitism >= population is rejected up front, naming both
        values — the same contract as the oversized-tournament check."""
        with pytest.raises(ValueError, match="elitism 4.*population of 4"):
            GeneticSearch(3, population=4, elitism=4)

    def test_rejects_oversized_tournament(self):
        with pytest.raises(ValueError, match="tournament size 9"):
            GeneticSearch(3, population=4,
                          ancestry=TournamentAncestry(9))

    def test_rejects_nonpositive_tournament(self):
        with pytest.raises(ValueError, match="tournament"):
            TournamentAncestry(0)

    def test_rejects_empty_objectives(self):
        search = GeneticSearch(2, population=4)
        with pytest.raises(ValueError, match="objective"):
            search.pareto(lambda ch: (1.0,), ())

    def test_rejects_wrong_fitness_arity(self):
        search = GeneticSearch(2, population=4, generations=1)
        with pytest.raises(ValueError, match="1 value.*2 objective"):
            search.pareto(lambda ch: (1.0,), ("cycles", "memory"),
                          executor=SerialExecutor())


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (2.0, 2.0))

    def test_non_dominated_rank_hand_case(self):
        objs = np.array([
            [1.0, 5.0],   # front 0
            [5.0, 1.0],   # front 0
            [2.0, 2.0],   # front 0
            [3.0, 3.0],   # dominated by [2,2] -> front 1
            [6.0, 6.0],   # dominated by everything -> front 2
        ])
        assert non_dominated_rank(objs).tolist() == [0, 0, 0, 1, 2]

    def test_rank_zero_matches_brute_force(self):
        rng = np.random.default_rng(0)
        objs = rng.integers(0, 8, size=(40, 3)).astype(float)
        ranks = non_dominated_rank(objs)
        for i in range(len(objs)):
            brute = any(dominates(objs[j], objs[i])
                        for j in range(len(objs)) if j != i)
            assert (ranks[i] > 0) == brute

    def test_crowding_boundaries_infinite(self):
        objs = np.array([[0.0, 4.0], [1.0, 2.0], [2.0, 1.0], [4.0, 0.0]])
        ranks = np.zeros(4, dtype=np.int64)
        crowd = crowding_distance(objs, ranks)
        assert crowd[0] == np.inf and crowd[3] == np.inf
        assert np.isfinite(crowd[1]) and np.isfinite(crowd[2])
        # Inner distances: normalised neighbour gaps summed per
        # objective.
        assert crowd[1] == pytest.approx((2 - 0) / 4 + (4 - 1) / 4)
        assert crowd[2] == pytest.approx((4 - 1) / 4 + (2 - 0) / 4)

    def test_crowding_small_fronts_infinite(self):
        objs = np.array([[1.0, 1.0], [0.0, 2.0], [5.0, 5.0]])
        ranks = non_dominated_rank(objs)
        crowd = crowding_distance(objs, ranks)
        assert list(crowd) == [np.inf] * 3


# ---------------------------------------------------------------------------
# Pareto search over an enumerable space, checked against brute force.
# ---------------------------------------------------------------------------

#: 4 genes x 3 choices; objective 0 rewards low genes, objective 1 high
#: genes, with a per-gene twist so the front is non-trivial.
_WEIGHTS = np.array([1.0, 2.0, 3.0, 4.0])


def _toy_objectives(chromosome):
    genes = np.asarray(chromosome, dtype=np.float64)
    cost_a = float((genes * _WEIGHTS).sum())
    cost_b = float(((2 - genes) * _WEIGHTS[::-1]).sum())
    return (cost_a, cost_b)


def _brute_force_front():
    points = {}
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    points[(a, b, c, d)] = _toy_objectives((a, b, c, d))
    values = list(points.values())
    front = {
        tuple(v) for v in values
        if not any(dominates(o, v) for o in values)
    }
    return front


def _toy_search(**kwargs):
    choices = (3, 3, 3, 3)
    defaults = dict(
        population=12, generations=10,
        ancestry=TournamentAncestry(3),
        crossover=UniformCrossover(0.7),
        mutation=GeneChoiceMutation(choices, rate=0.3),
        init=SeededChoiceInit(choices),
        elitism=0, seed=0,
    )
    defaults.update(kwargs)
    return GeneticSearch(4, **defaults)


class TestParetoSearch:
    def test_finds_true_front_of_enumerable_space(self):
        result = _toy_search().pareto(_toy_objectives,
                                      ("cost_a", "cost_b"))
        found = {p.objectives for p in result.front}
        assert found == _brute_force_front()

    def test_front_sorted_and_non_dominated(self):
        result = _toy_search().pareto(_toy_objectives, ("a", "b"))
        objectives = [p.objectives for p in result.front]
        assert objectives == sorted(objectives)
        for p in result.front:
            assert not any(q.dominates(p) for q in result.front)

    def test_byte_identical_across_jobs(self):
        serial = _toy_search().pareto(_toy_objectives, ("a", "b"))
        for jobs in (2, 4):
            fanned = _toy_search().pareto(_toy_objectives, ("a", "b"),
                                          jobs=jobs)
            assert [(p.genome, p.objectives) for p in fanned.front] \
                == [(p.genome, p.objectives) for p in serial.front]
            assert fanned.history == serial.history
            assert fanned.evaluations == serial.evaluations

    def test_memoises_revisited_chromosomes(self):
        calls = []

        def counting(chromosome):
            calls.append(tuple(int(g) for g in chromosome))
            return _toy_objectives(chromosome)

        result = _toy_search().pareto(counting, ("a", "b"),
                                      executor=SerialExecutor())
        assert len(calls) == len(set(calls))  # never re-evaluated
        assert result.evaluations == len(calls)
        assert result.evaluations <= 3 ** 4

    def test_seeded_chromosomes_always_evaluated(self):
        seed = (2, 2, 2, 2)
        result = _toy_search(
            init=SeededChoiceInit((3, 3, 3, 3), seeds=(seed,)),
            generations=0,
        ).pareto(_toy_objectives, ("a", "b"))
        assert seed in result.archive
        assert result.archive[seed] == _toy_objectives(seed)

    def test_single_objective_front_is_minimum(self):
        result = _toy_search(generations=12).pareto(
            lambda ch: (_toy_objectives(ch)[0],), ("cost_a",))
        assert [p.objectives for p in result.front] == [(0.0,)]
        assert result.front[0].genome == (0, 0, 0, 0)


class TestStrategies:
    def test_gene_choice_mutation_respects_per_gene_choices(self):
        rng = np.random.default_rng(0)
        mutation = GeneChoiceMutation((2, 5, 1), rate=1.0)
        for _ in range(50):
            child = mutation.mutate(rng, np.array([0, 0, 0]))
            assert 0 <= child[0] < 2
            assert 0 <= child[1] < 5
            assert child[2] == 0

    def test_gene_choice_mutation_draws_fixed_stream(self):
        """Mask and redraw are always drawn, so the stream position
        after a mutate never depends on which genes changed."""
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        GeneChoiceMutation((4, 4), rate=0.0).mutate(rng_a,
                                                    np.array([1, 2]))
        GeneChoiceMutation((4, 4), rate=1.0).mutate(rng_b,
                                                    np.array([1, 2]))
        assert rng_a.random() == rng_b.random()

    def test_seeded_init_validates_seeds(self):
        with pytest.raises(ValueError, match="genes"):
            SeededChoiceInit((3, 3), seeds=((0, 1, 2),))
        with pytest.raises(ValueError, match="choice counts"):
            SeededChoiceInit((3, 3), seeds=((0, 5),))

    def test_seeded_init_places_seeds_first(self):
        init = SeededChoiceInit((3, 3), seeds=((2, 1), (0, 2)))
        pop = init.population(np.random.default_rng(0), 6, 2)
        assert pop[0].tolist() == [2, 1]
        assert pop[1].tolist() == [0, 2]
        assert pop.shape == (6, 2)

    def test_unit_uniform_init_seeds_ones(self):
        pop = UnitUniformInit().population(np.random.default_rng(0),
                                           4, 3)
        assert (pop[0] == 1.0).all()
        assert ((pop >= 0.0) & (pop <= 1.0)).all()
