"""Robustness runtime: atomic artifacts, checkpoints, fault isolation.

The training pipeline is long-running by nature (install-time training
over thousands of generated apps), so it must survive interruption,
resume deterministically, quarantine pathological seeds, and never trust
a half-written cache file.  This package holds those concerns so the
training and model layers stay about training and models.
"""

from repro.runtime.artifacts import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactMissing,
    ArtifactVersionMismatch,
    atomic_write_text,
    read_artifact,
    write_artifact,
)
from repro.runtime.checkpoint import (
    Phase1Checkpoint,
    TrainingInterrupted,
)
from repro.runtime.faults import (
    DeterministicFault,
    InferenceUnavailable,
    QuarantineRecord,
    RetryPolicy,
    SeedBudgetExceeded,
    SeedQuarantined,
    ServingFault,
    TransientFault,
    WorkBudget,
    classify,
    run_guarded,
)
from repro.runtime.inject import (
    FaultInjector,
    FaultPlan,
    ServeFaultInjector,
    ServeFaultPlan,
    corrupt_artifact,
)
from repro.runtime.options import RunOptions
from repro.runtime.parallel import (
    PoolExecutor,
    SerialExecutor,
    TaskFailure,
    map_ordered,
    resolve_jobs,
)

__all__ = [
    "PoolExecutor",
    "SerialExecutor",
    "TaskFailure",
    "map_ordered",
    "resolve_jobs",
    "ArtifactCorrupt",
    "ArtifactError",
    "ArtifactMissing",
    "ArtifactVersionMismatch",
    "atomic_write_text",
    "read_artifact",
    "write_artifact",
    "Phase1Checkpoint",
    "TrainingInterrupted",
    "DeterministicFault",
    "InferenceUnavailable",
    "QuarantineRecord",
    "RetryPolicy",
    "SeedBudgetExceeded",
    "SeedQuarantined",
    "ServingFault",
    "TransientFault",
    "WorkBudget",
    "classify",
    "run_guarded",
    "FaultInjector",
    "FaultPlan",
    "ServeFaultInjector",
    "ServeFaultPlan",
    "corrupt_artifact",
    "RunOptions",
]
