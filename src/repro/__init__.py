"""repro — a reproduction of *Brainy: Effective Selection of Data
Structures* (Jung, Rus, Railing, Clark, Pande; PLDI 2011).

Brainy profiles how a program uses each container — interface mix,
per-operation costs, and hardware events — and predicts, with one neural
network per container kind, which alternative implementation would run
fastest for that program, input, and microarchitecture.

Quickstart — the facade (:mod:`repro.api`) is the public API::

    import repro

    handle = repro.train(machine="core2", scale="tiny")
    report = repro.advise("chord", machine="core2", scale="tiny")

The building blocks (suites, advisors, the machine simulator, the
observability layer :mod:`repro.obs`) are re-exported here for direct
use.  See ``examples/quickstart.py`` for the end-to-end flow and
DESIGN.md for the system inventory.
"""

import repro.obs as obs
from repro.appgen import GeneratorConfig, SyntheticApp, generate_app
from repro.containers import Container, DSKind, make_container
from repro.core import (
    BrainyAdvisor,
    DarwinResult,
    Report,
    Suggestion,
    run_darwin,
)
from repro.instrumentation import FEATURE_NAMES, ProfiledContainer
from repro.machine import ATOM, CORE2, Machine, MachineConfig, PerfCounters
from repro.ml import (
    Ancestry,
    Crossover,
    Fitness,
    GaussianMutation,
    GeneChoiceMutation,
    GeneticSearch,
    Mutation,
    ParetoPoint,
    ParetoResult,
    SeededChoiceInit,
    TournamentAncestry,
    UniformCrossover,
    UnitUniformInit,
)
from repro.models import BrainyModel, BrainySuite, PerflintModel, oracle_select
from repro.runtime import (
    ArtifactError,
    FaultInjector,
    FaultPlan,
    RunOptions,
    TrainingInterrupted,
)
from repro.training import TrainingSet, run_phase1, run_phase2

__version__ = "1.1.0"

from repro import api
from repro.api import (
    SuiteHandle,
    UsageError,
    advise,
    census,
    darwin,
    pipeline,
    registry_status,
    rollback,
    telemetry_summary,
    train,
    validate,
)

__all__ = [
    "ATOM",
    "ArtifactError",
    "RunOptions",
    "SuiteHandle",
    "UsageError",
    "advise",
    "api",
    "census",
    "darwin",
    "obs",
    "pipeline",
    "registry_status",
    "rollback",
    "telemetry_summary",
    "train",
    "validate",
    "Ancestry",
    "BrainyAdvisor",
    "BrainyModel",
    "BrainySuite",
    "CORE2",
    "Container",
    "Crossover",
    "DSKind",
    "DarwinResult",
    "FEATURE_NAMES",
    "FaultInjector",
    "FaultPlan",
    "Fitness",
    "GaussianMutation",
    "GeneChoiceMutation",
    "GeneratorConfig",
    "GeneticSearch",
    "Machine",
    "MachineConfig",
    "Mutation",
    "ParetoPoint",
    "ParetoResult",
    "PerfCounters",
    "PerflintModel",
    "ProfiledContainer",
    "Report",
    "SeededChoiceInit",
    "Suggestion",
    "SyntheticApp",
    "TournamentAncestry",
    "TrainingInterrupted",
    "TrainingSet",
    "UniformCrossover",
    "UnitUniformInit",
    "generate_app",
    "make_container",
    "oracle_select",
    "run_darwin",
    "run_phase1",
    "run_phase2",
    "__version__",
]
