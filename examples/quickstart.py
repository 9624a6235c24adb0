#!/usr/bin/env python
"""Quickstart: train a Brainy model and ask it for a suggestion.

This walks the paper's whole pipeline at toy scale (about a minute):

1. Phase I  — generate seeded synthetic apps, time every candidate
   container on the simulated Core2, record each app's best together
   with the feature vector of its run on the original container.
2. Phase II — join the records into labelled feature vectors.
3. Train the per-model artificial neural network.
4. Predict the best container for applications the model never saw,
   and compare against the empirical oracle.

Run: ``python examples/quickstart.py``
"""

from repro import CORE2, GeneratorConfig
from repro.appgen import generate_app
from repro.appgen.workload import (
    best_candidate,
    collect_features,
    measure_candidates,
)
from repro.containers.registry import MODEL_GROUPS
from repro.models import BrainyModel
from repro.training import run_phase1, run_phase2


def main() -> None:
    config = GeneratorConfig()
    group = MODEL_GROUPS["vector_oo"]  # order-oblivious vector usage
    print(f"Model group: {group.name}  candidates: "
          f"{[k.value for k in group.classes]}")

    print("\nPhase I: timing candidates for seeded synthetic apps ...")
    phase1 = run_phase1(group, config, CORE2,
                        per_class_target=15, max_seeds=150)
    counts = {k.value: v for k, v in phase1.class_counts().items()}
    print(f"  {len(phase1)} labelled apps from {phase1.seeds_tried} seeds; "
          f"winners: {counts}")

    print("\nPhase II: joining records and original-kind features ...")
    training_set = run_phase2(phase1)
    print(f"  {len(training_set)} feature vectors of "
          f"{training_set.X.shape[1]} features each")

    print("\nTraining the ANN ...")
    model = BrainyModel.train(training_set, seed=7)

    print("\nValidating on 20 unseen applications:")
    correct = total = 0
    for seed in range(700_000, 700_040):
        app = generate_app(seed, group, config)
        oracle = best_candidate(measure_candidates(app, CORE2))
        if oracle is None:  # no candidate wins by >= 5%
            continue
        prediction = model.predict_kind(collect_features(app, CORE2))
        total += 1
        correct += prediction == oracle
        if total <= 5:
            mark = "ok " if prediction == oracle else "MISS"
            print(f"  seed {seed}: oracle={oracle.value:9s} "
                  f"brainy={prediction.value:9s} [{mark}]")
    print(f"\nAccuracy on unseen apps: {correct}/{total} "
          f"= {correct / max(1, total):.0%}")


if __name__ == "__main__":
    main()
