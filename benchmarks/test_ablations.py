"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but experiments that probe its claims:

* hardware features matter (§5.1 / §7): train with and without them;
* the 5 % Phase-I margin avoids noisy labels (§4.3 footnote);
* more training applications help (the §4.1 overfitting argument);
* GA feature weighting does not hurt (and usually helps) accuracy.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.containers.registry import MODEL_GROUPS
from repro.instrumentation.features import FEATURE_NAMES
from repro.machine.configs import CORE2
from repro.ml.genetic import GeneticFeatureSelector
from repro.models.brainy import BrainyModel
from repro.models.cache import get_or_build_dataset
from repro.models.validation import validate_model
from repro.training.phase1 import run_phase1
from repro.training.phase2 import run_phase2

GROUP = "vector_oo"

#: The software-only subset (everything not derived from HW counters).
SOFTWARE_FEATURES = [
    name for name in FEATURE_NAMES
    if name not in ("l1_miss_rate", "l2_miss_rate", "tlb_miss_rate",
                    "branch_miss_rate", "ipc", "cycles_per_call_log",
                    "allocs_per_call")
]


def _unseen_accuracy(model, gen_config, n_apps=50, seed_base=650_000):
    outcome = validate_model(model, MODEL_GROUPS[GROUP], gen_config,
                             CORE2, n_apps, seed_base=seed_base)
    return outcome.accuracy, outcome.total


@pytest.fixture(scope="module")
def dataset(scale):
    return get_or_build_dataset(GROUP, CORE2, scale)


def test_ablation_hardware_features(benchmark, dataset, gen_config,
                                    report):
    def compute():
        full = BrainyModel.train(dataset, seed=3)
        software_only = BrainyModel.train(
            dataset, seed=3, feature_mask=SOFTWARE_FEATURES
        )
        return (_unseen_accuracy(full, gen_config),
                _unseen_accuracy(software_only, gen_config))

    (acc_full, n_full), (acc_sw, n_sw) = run_once(benchmark, compute)
    report("ablation_hardware_features", [
        f"full feature set:      {100 * acc_full:5.1f}%  (n={n_full})",
        f"software features only:{100 * acc_sw:5.1f}%  (n={n_sw})",
        "(paper's claim: hardware features are critical to accuracy)",
    ])
    # Both models must work; the HW-feature model must not be worse by
    # a wide margin (it is usually better).
    assert acc_full > 0.35
    assert acc_full >= acc_sw - 0.10


def test_ablation_phase1_margin(benchmark, gen_config, report):
    group = MODEL_GROUPS[GROUP]

    def compute():
        accuracies = {}
        for margin in (0.0, 0.05):
            phase1 = run_phase1(group, gen_config, CORE2,
                                per_class_target=20, max_seeds=200,
                                margin=margin, seed_base=10_000)
            training_set = run_phase2(phase1)
            model = BrainyModel.train(training_set, seed=4)
            accuracies[margin] = (_unseen_accuracy(model, gen_config),
                                  len(training_set))
        return accuracies

    accuracies = run_once(benchmark, compute)
    lines = []
    for margin, ((accuracy, n_val), n_train) in accuracies.items():
        lines.append(f"margin={margin:4.2f}: {n_train:3d} training apps, "
                     f"unseen accuracy {100 * accuracy:5.1f}% "
                     f"(n={n_val})")
    lines.append("(the 5% margin keeps barely-best winners out of the "
                 "labels)")
    report("ablation_phase1_margin", lines)
    for (accuracy, _), _ in accuracies.values():
        assert accuracy > 0.3


def test_ablation_training_set_size(benchmark, gen_config, report):
    group = MODEL_GROUPS[GROUP]

    def compute():
        results = {}
        for target, max_seeds in ((5, 60), (25, 280)):
            phase1 = run_phase1(group, gen_config, CORE2,
                                per_class_target=target,
                                max_seeds=max_seeds, seed_base=20_000)
            training_set = run_phase2(phase1)
            model = BrainyModel.train(training_set, seed=5)
            accuracy, n_val = _unseen_accuracy(model, gen_config)
            results[len(training_set)] = accuracy
        return results

    results = run_once(benchmark, compute)
    lines = [f"{n_train:4d} training apps -> unseen accuracy "
             f"{100 * accuracy:5.1f}%"
             for n_train, accuracy in sorted(results.items())]
    lines.append("(§4.1: insufficient training examples overfit; more "
                 "coverage generalises better)")
    report("ablation_training_set_size", lines)
    sizes = sorted(results)
    assert sizes[-1] > sizes[0]
    # The bigger set should not be clearly worse.
    assert results[sizes[-1]] >= results[sizes[0]] - 0.12


def test_ablation_ga_weighting(benchmark, dataset, gen_config, report):
    def compute():
        train, val = dataset.split(validation_fraction=0.3, seed=2)
        baseline = BrainyModel.train(dataset, seed=6)

        def fitness(weights: np.ndarray) -> float:
            model = BrainyModel.train(train, seed=6, epochs=80,
                                      feature_weights=weights)
            X = model.scaler.transform(val.X) * model.feature_weights
            return float(np.mean(model.network.predict(X) == val.y))

        selector = GeneticFeatureSelector(
            n_features=len(FEATURE_NAMES), feature_names=FEATURE_NAMES,
            population=8, generations=4, seed=2,
        )
        ga = selector.run(fitness)
        weighted = BrainyModel.train(dataset, seed=6,
                                     feature_weights=ga.weights)
        return (_unseen_accuracy(baseline, gen_config),
                _unseen_accuracy(weighted, gen_config), ga)

    (acc_base, n1), (acc_ga, n2), ga = run_once(benchmark, compute)
    report("ablation_ga_weighting", [
        f"uniform weights: {100 * acc_base:5.1f}% (n={n1})",
        f"GA weights:      {100 * acc_ga:5.1f}% (n={n2})",
        f"GA top features: {', '.join(ga.top_features(5))}",
    ])
    assert acc_ga >= acc_base - 0.15
