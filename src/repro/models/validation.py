"""Model validation against freshly generated applications (Figure 9).

The paper's validation protocol: generate applications the models have
never seen, determine each one's empirically best structure (same 5 %
margin as training), and ask the model to predict it from the original
kind's instrumented run.  This module implements that protocol once, for
the benches, examples and ablations to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import generate_app
from repro.appgen.workload import (
    DEFAULT_MARGIN,
    best_candidate,
    collect_features,
    race_candidates,
)
from repro.containers.registry import DSKind, ModelGroup
from repro.machine.configs import MachineConfig
from repro.ml.metrics import confusion_matrix


@dataclass
class ValidationResult:
    """Outcome of validating one model on fresh applications."""

    group_name: str
    machine_name: str
    correct: int
    total: int
    skipped: int  # apps with no margin winner
    classes: tuple[DSKind, ...]
    y_true: list[int] = field(default_factory=list)
    y_pred: list[int] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return float("nan")
        return self.correct / self.total

    def confusion(self) -> np.ndarray:
        return confusion_matrix(np.asarray(self.y_true),
                                np.asarray(self.y_pred),
                                len(self.classes))

    def format_confusion(self) -> str:
        matrix = self.confusion()
        names = [kind.value[:9] for kind in self.classes]
        width = max(9, *(len(n) for n in names))
        lines = [" " * width + " " + " ".join(n.rjust(width)
                                              for n in names)]
        for i, name in enumerate(names):
            cells = " ".join(str(int(v)).rjust(width) for v in matrix[i])
            lines.append(f"{name.rjust(width)} {cells}")
        return "\n".join(lines)


def validate_model(model, group: ModelGroup, config: GeneratorConfig,
                   machine_config: MachineConfig, n_apps: int,
                   seed_base: int = 500_000,
                   margin: float = DEFAULT_MARGIN) -> ValidationResult:
    """Run the Figure 9 protocol for one model.

    ``model`` needs ``predict_kind(features) -> DSKind`` (a
    :class:`~repro.models.brainy.BrainyModel` or compatible).
    """
    result = ValidationResult(
        group_name=group.name,
        machine_name=machine_config.name,
        correct=0, total=0, skipped=0,
        classes=group.classes,
    )
    for seed in range(seed_base, seed_base + n_apps):
        app = generate_app(seed, group, config)
        oracle = best_candidate(
            race_candidates(app, machine_config, margin), margin=margin)
        if oracle is None:
            result.skipped += 1
            continue
        features = collect_features(app, machine_config)
        predicted = model.predict_kind(features)
        result.total += 1
        result.correct += predicted == oracle
        result.y_true.append(group.classes.index(oracle))
        result.y_pred.append(group.classes.index(predicted))
    return result
