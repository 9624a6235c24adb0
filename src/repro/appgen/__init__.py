"""Synthetic application generator (§4.2, Table 2).

Each generated application is a seeded function-dispatch loop over one
container: a random behaviour profile (interface mix, element size, value
ranges, insertion position policy) is sampled from the seed, then every
loop iteration randomly picks an interface function to invoke.  Replaying
the same seed with a different container kind reproduces *exactly* the
same interaction sequence — the property Phase I/II of the training
framework relies on.
"""

from repro.appgen.config import BehaviorProfile, GeneratorConfig
from repro.appgen.generator import AppRun, SyntheticApp, generate_app
from repro.appgen.workload import (
    best_candidate,
    collect_features,
    measure_candidates,
    race_candidates,
)

__all__ = [
    "AppRun",
    "BehaviorProfile",
    "GeneratorConfig",
    "SyntheticApp",
    "best_candidate",
    "collect_features",
    "generate_app",
    "measure_candidates",
    "race_candidates",
]
