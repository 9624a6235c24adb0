"""``repro pipeline``: unattended appgen → train → validate → register
→ (optionally promote), crash-safe at every stage boundary.

The pipeline drives one candidate suite from nothing to a registered
registry version.  Each stage's completion is recorded in a checksummed
state artifact (``pipeline.state.json`` in the work directory), written
atomically after the stage commits — re-running after a crash (or an
operator ``kill -9``) skips completed stages and resumes the training
stage from its own PR-1 checkpoints.

Fault handling mirrors the training error boundary
(:mod:`repro.runtime.faults`): transient faults retry with the fixed
backoff of ``RETRY_DELAYS``, anything deterministic
*quarantines the candidate* with a structured stage + reason instead of
crashing the loop — an unattended retrainer survives a bad corpus draw
and tries again next cycle.  When the failure lands after registration,
the registered version itself is quarantined in the registry.

Stages:

* ``appgen``   — generate one probe app per model group (fast sanity
  that the corpus definition is usable before spending training time);
* ``train``    — train the full suite (checkpointed, resumable) and
  save it under the work directory;
* ``validate`` — the Figure 9 protocol per group; green iff every
  group's accuracy clears ``min_accuracy``;
* ``register`` — commit the suite to the registry (staged + validated +
  atomic rename), carrying the validation outcome in the version meta;
* ``promote``  — optional; only when validation was green (shadow-gated
  promotion belongs to the serving router, this is the bootstrap /
  operator-forced path).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import repro.obs as obs
from repro.appgen.config import GeneratorConfig
from repro.appgen.generator import generate_app
from repro.containers.registry import MODEL_GROUPS
from repro.machine.configs import MachineConfig
from repro.models.brainy import BrainySuite
from repro.models.validation import validate_model
from repro.registry.store import (
    STATUS_LIVE,
    STATUS_REGISTERED,
    RegistryError,
    RegistryKey,
    SuiteRegistry,
    corpus_fingerprint,
    suite_fingerprint,
)
from repro.runtime.artifacts import (
    ArtifactError,
    read_artifact,
    write_artifact,
)
from repro.runtime.checkpoint import TrainingInterrupted
from repro.runtime.faults import CATEGORY_TRANSIENT, RETRY_DELAYS, classify
from repro.runtime.options import RunOptions

STAGE_APPGEN = "appgen"
STAGE_TRAIN = "train"
STAGE_VALIDATE = "validate"
STAGE_REGISTER = "register"
STAGE_PROMOTE = "promote"
STAGES = (STAGE_APPGEN, STAGE_TRAIN, STAGE_VALIDATE, STAGE_REGISTER,
          STAGE_PROMOTE)

STATE_KIND = "pipeline-state"
STATE_SCHEMA_VERSION = 1

#: Pipeline results: the loop completed (registered / promoted) or gave
#: up on this candidate with a structured reason (quarantined).
RESULT_REGISTERED = "registered"
RESULT_PROMOTED = "promoted"
RESULT_QUARANTINED = "quarantined"


class PipelineQuarantined(Exception):
    """Internal control flow: this candidate is not salvageable."""

    def __init__(self, stage: str, reason: str) -> None:
        super().__init__(f"{stage}: {reason}")
        self.stage = stage
        self.reason = reason


@dataclass
class PipelineResult:
    """What one pipeline run produced."""

    status: str
    key: str
    workdir: Path
    version: int | None = None
    stages: dict = field(default_factory=dict)
    #: Quarantine detail: which stage gave up and why.
    failed_stage: str | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != RESULT_QUARANTINED

    def summary(self) -> str:
        if self.ok:
            where = (f"version v{self.version}" if self.version
                     else "no version")
            return (f"pipeline {self.status}: {self.key} {where} "
                    f"(stages: {', '.join(self.stages)})")
        return (f"pipeline quarantined candidate for {self.key} at "
                f"stage {self.failed_stage}: {self.reason}")


class _State:
    """The resumable stage ledger (atomic artifact per stage commit)."""

    def __init__(self, path: Path, corpus: str) -> None:
        self.path = path
        self.corpus = corpus
        self.completed: dict[str, dict] = {}

    @classmethod
    def load_or_new(cls, path: Path, corpus: str,
                    resume: bool) -> "_State":
        state = cls(path, corpus)
        if not resume:
            return state
        try:
            payload = read_artifact(path, kind=STATE_KIND,
                                    schema_version=STATE_SCHEMA_VERSION)
        except (ArtifactError, FileNotFoundError):
            return state
        if payload.get("corpus") != corpus:
            # The corpus definition changed under the work directory;
            # stale stage results must not leak into the new lineage.
            return state
        state.completed = dict(payload.get("completed", {}))
        return state

    def commit(self, stage: str, payload: dict) -> None:
        self.completed[stage] = payload
        write_artifact(self.path,
                       {"corpus": self.corpus,
                        "completed": self.completed},
                       kind=STATE_KIND,
                       schema_version=STATE_SCHEMA_VERSION)


def _default_trainer(machine_config: MachineConfig, scale,
                     config: GeneratorConfig, workdir: Path,
                     options: RunOptions) -> BrainySuite:
    return BrainySuite.train(
        machine_config=machine_config,
        config=config,
        per_class_target=scale.per_class_target,
        max_seeds=scale.max_seeds,
        hidden=scale.hidden,
        checkpoint_dir=workdir / "checkpoints",
        resume=True,
        options=options,
    )


def _default_validator(suite: BrainySuite, config: GeneratorConfig,
                       machine_config: MachineConfig, apps: int,
                       seed_base: int) -> dict[str, float]:
    accuracies = {}
    for group_name in sorted(suite.models):
        outcome = validate_model(
            suite[group_name], MODEL_GROUPS[group_name], config,
            machine_config, apps, seed_base=seed_base,
        )
        accuracies[group_name] = outcome.accuracy
    return accuracies


def run_pipeline(machine_config: MachineConfig, scale,
                 config: GeneratorConfig,
                 registry: SuiteRegistry, *,
                 promote: bool = False,
                 options: RunOptions | None = None,
                 workdir: str | Path | None = None,
                 resume: bool = True,
                 min_accuracy: float = 0.0,
                 validation_apps: int | None = None,
                 seed_base: int = 500_000,
                 fault_hook: Callable[[str], None] | None = None,
                 trainer: Callable | None = None,
                 validator: Callable | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 announce: Callable[[str], None] | None = None
                 ) -> PipelineResult:
    """Run the full retraining loop once; see the module docstring.

    ``fault_hook(stage)`` is called at the top of every stage attempt
    (the fault-injection seam); ``trainer`` / ``validator`` override the
    expensive stages for tests.  ``TrainingInterrupted`` (Ctrl-C /
    SIGTERM mid-train) passes through untouched — the flushed
    checkpoints plus the stage ledger make the next run resume.
    """
    options = (options or RunOptions()).validate_serving()
    trainer = trainer or _default_trainer
    validator = validator or _default_validator
    corpus = corpus_fingerprint(config, scale.name)
    key = RegistryKey(machine=machine_config.name, corpus=corpus)
    workdir = (Path(workdir) if workdir is not None
               else registry.root / "work"
               / f"{machine_config.name}-{scale.name}-{corpus}")
    workdir.mkdir(parents=True, exist_ok=True)
    state = _State.load_or_new(workdir / "pipeline.state.json",
                               corpus, resume)
    say = announce or (lambda message: None)
    suite_dir = workdir / "suite"

    def run_stage(stage: str, fn: Callable[[], dict]) -> dict:
        if stage in state.completed:
            say(f"pipeline: {stage} already complete; skipping")
            return state.completed[stage]
        delays = iter(RETRY_DELAYS)
        while True:
            try:
                with obs.span(f"pipeline.{stage}"):
                    if fault_hook is not None:
                        fault_hook(stage)
                    payload = fn()
            except (TrainingInterrupted, KeyboardInterrupt):
                raise
            except PipelineQuarantined:
                raise
            except Exception as exc:
                if classify(exc) == CATEGORY_TRANSIENT:
                    delay = next(delays, None)
                    if delay is not None:
                        obs.counter("registry.pipeline.retries",
                                    stage=stage)
                        say(f"pipeline: {stage} transient fault "
                            f"({exc}); retrying in {delay:.2f}s")
                        sleep(delay)
                        continue
                raise PipelineQuarantined(
                    stage, f"{type(exc).__name__}: {exc}"
                ) from exc
            state.commit(stage, payload)
            obs.counter("registry.pipeline.stages", stage=stage)
            say(f"pipeline: {stage} complete")
            return payload

    def stage_appgen() -> dict:
        probed = []
        for group_name, group in sorted(MODEL_GROUPS.items()):
            app = generate_app(seed_base, group, config)
            probed.append({"group": group_name, "seed": app.seed})
        return {"probes": probed}

    def stage_train() -> dict:
        suite = trainer(machine_config, scale, config, workdir, options)
        suite.save(suite_dir)
        return {"suite_dir": str(suite_dir),
                "fingerprint": suite_fingerprint(suite_dir),
                "groups": sorted(suite.models)}

    def stage_validate() -> dict:
        suite = BrainySuite.load(suite_dir, lenient=False)
        apps = (validation_apps if validation_apps is not None
                else scale.validation_apps)
        accuracies = validator(suite, config, machine_config, apps,
                               seed_base)
        green = all(accuracy >= min_accuracy
                    for accuracy in accuracies.values())
        return {"green": green, "min_accuracy": min_accuracy,
                "apps": apps, "accuracies": accuracies}

    def stage_register() -> dict:
        validation = state.completed[STAGE_VALIDATE]
        fingerprint = state.completed[STAGE_TRAIN]["fingerprint"]
        # Idempotence: a crash between a successful register and the
        # ledger commit leaves the version registered but unrecorded.
        # Reuse it on resume instead of registering a duplicate (which
        # would also become a stale shadow candidate).
        for info in reversed(registry.versions(key)):
            if (info.fingerprint == fingerprint
                    and info.source == "pipeline"
                    and info.status in (STATUS_REGISTERED,
                                        STATUS_LIVE)):
                say(f"pipeline: register found existing v{info.version}"
                    " with this suite's fingerprint; reusing")
                return {"version": info.version,
                        "fingerprint": info.fingerprint}
        try:
            info = registry.register(
                suite_dir, key,
                validation=validation, source="pipeline",
            )
        except RegistryError as exc:
            raise PipelineQuarantined(STAGE_REGISTER, str(exc)) from exc
        return {"version": info.version,
                "fingerprint": info.fingerprint}

    def stage_promote() -> dict:
        version = state.completed[STAGE_REGISTER]["version"]
        validation = state.completed[STAGE_VALIDATE]
        if not validation["green"]:
            raise PipelineQuarantined(
                STAGE_PROMOTE,
                "validation suite not green "
                f"(accuracies {validation['accuracies']}); "
                "refusing to promote",
            )
        try:
            registry.promote(key, version)
        except RegistryError as exc:
            raise PipelineQuarantined(STAGE_PROMOTE, str(exc)) from exc
        return {"version": version}

    result = PipelineResult(status=RESULT_REGISTERED, key=str(key),
                            workdir=workdir)
    try:
        with obs.span("pipeline", key=str(key)):
            run_stage(STAGE_APPGEN, stage_appgen)
            run_stage(STAGE_TRAIN, stage_train)
            run_stage(STAGE_VALIDATE, stage_validate)
            registered = run_stage(STAGE_REGISTER, stage_register)
            result.version = registered["version"]
            if promote:
                run_stage(STAGE_PROMOTE, stage_promote)
                result.status = RESULT_PROMOTED
    except PipelineQuarantined as exc:
        registered = state.completed.get(STAGE_REGISTER)
        if registered is not None:
            registry.quarantine_version(
                key, registered["version"],
                f"pipeline {exc.stage}: {exc.reason}",
            )
            result.version = registered["version"]
        else:
            # Not registered yet: leave a structured record next to the
            # stage ledger so the unattended loop's giving-up is
            # inspectable.
            write_artifact(
                workdir / "quarantine.json",
                {"stage": exc.stage, "reason": exc.reason,
                 "corpus": corpus},
                kind="pipeline-quarantine", schema_version=1,
            )
        obs.counter("registry.pipeline.quarantined", stage=exc.stage)
        result.status = RESULT_QUARANTINED
        result.failed_stage = exc.stage
        result.reason = exc.reason
    result.stages = dict(state.completed)
    return result
