"""The public programmatic API: what ``import repro`` is for.

One facade fronts the toolkit's lifecycle verbs — :func:`train`,
:func:`advise`, :func:`validate`, :func:`serve`, plus the smaller
:func:`census`, :func:`appgen_probe` and :func:`telemetry_summary` —
with plain-data
inputs (machine/scale/group *names*, not config objects) and structured
returns.  The CLI (:mod:`repro.cli`) is a thin argparse shim over these
functions; scripts and notebooks call them directly::

    import repro

    handle = repro.train(scale="tiny", telemetry="train.telemetry.json")
    report = repro.advise("chord", machine="core2", scale="tiny")

Cross-cutting run knobs travel in a
:class:`repro.runtime.options.RunOptions`; every verb also accepts
``telemetry=PATH`` to record a structured telemetry artifact
(:mod:`repro.obs`) for the run — written even when the run is
interrupted, so a ``Ctrl-C`` leaves both a resumable checkpoint and the
telemetry describing the partial run.

Bad user input (unknown machine/scale/group/input names, nonsensical
knob values) raises :class:`UsageError`, which the CLI maps to exit
code 2.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import repro.obs as obs
from repro.appgen.config import GeneratorConfig
from repro.appgen.configfile import load_config
from repro.appgen.generator import SyntheticApp, generate_app
from repro.appgen.workload import best_candidate, measure_candidates
from repro.containers.registry import DSKind, MODEL_GROUPS, ModelGroup
from repro.core.advisor import BrainyAdvisor
from repro.core.darwin import DarwinResult, run_darwin
from repro.core.report import Report
from repro.machine.configs import ATOM, CORE2, MachineConfig
from repro.models.brainy import BrainySuite
from repro.models.cache import (
    SCALES,
    ScaleParams,
    checkpoint_dir,
    get_or_train_suite,
    suite_path,
)
from repro.models.validation import ValidationResult, validate_model
from repro.runtime.options import RunOptions

MACHINES: dict[str, MachineConfig] = {"core2": CORE2, "atom": ATOM}

#: Case-study applications and their input sets, keyed by CLI name.
APPS: dict[str, tuple[type, tuple[str, ...]]] = {}


def _load_apps() -> None:
    # Deferred: repro.apps pulls in every case study; keep ``import
    # repro`` light until an advise actually needs them.
    if APPS:
        return
    from repro.apps import (
        ChordSimulator,
        Raytracer,
        Relipmoc,
        XalanStringCache,
    )

    APPS.update({
        "xalan": (XalanStringCache, ("test", "train", "reference")),
        "chord": (ChordSimulator, ("small", "medium", "large")),
        "relipmoc": (Relipmoc, ("small", "default", "large")),
        "raytrace": (Raytracer, ("small", "default", "large")),
    })


class UsageError(ValueError):
    """Bad user input, reported with a friendly message (CLI exit 2)."""


def resolve_machine(machine: str | MachineConfig) -> MachineConfig:
    if isinstance(machine, MachineConfig):
        return machine
    try:
        return MACHINES[machine]
    except KeyError:
        raise UsageError(
            f"unknown machine {machine!r}; choose from {sorted(MACHINES)}"
        ) from None


def resolve_scale(scale: str | ScaleParams) -> ScaleParams:
    if isinstance(scale, ScaleParams):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise UsageError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


def resolve_group(group: str | ModelGroup) -> ModelGroup:
    if isinstance(group, ModelGroup):
        return group
    try:
        return MODEL_GROUPS[group]
    except KeyError:
        raise UsageError(
            f"unknown model group {group!r}; "
            f"choose from {sorted(MODEL_GROUPS)}"
        ) from None


def resolve_config(config: str | Path | GeneratorConfig | None
                   ) -> GeneratorConfig:
    if config is None:
        return GeneratorConfig()
    if isinstance(config, GeneratorConfig):
        return config
    return load_config(Path(config))


def _resolve_options(options: RunOptions | None,
                     **overrides: object) -> RunOptions:
    """``options`` with the verb's convenience keywords applied (those
    not ``None``), its training knobs checked (:class:`UsageError`)."""
    options = (options or RunOptions()).with_overrides(
        **{knob: value for knob, value in overrides.items()
           if value is not None})
    try:
        return options.validate_training()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


@contextmanager
def _telemetry_run(path: str | Path | None,
                   meta: dict) -> Iterator[obs.Collector | None]:
    """Collect telemetry for the block and export it to ``path``.

    The export happens in a ``finally``: an interrupted run (Ctrl-C →
    ``TrainingInterrupted``) still leaves its telemetry artifact next to
    the checkpoint it flushed.
    """
    if path is None:
        yield None
        return
    collector = obs.Collector()
    start = time.perf_counter()
    try:
        with obs.use_collector(collector):
            yield collector
    finally:
        obs.export_telemetry(
            collector, Path(path), meta=meta,
            wall_time_s=time.perf_counter() - start,
        )


@dataclass(frozen=True)
class SuiteHandle:
    """What :func:`train` returns: the suite plus where things landed."""

    suite: BrainySuite
    machine: MachineConfig
    scale: ScaleParams
    path: Path
    telemetry_path: Path | None = None

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(sorted(self.suite.models))


def train(machine: str | MachineConfig = "core2",
          scale: str | ScaleParams = "small",
          config: str | Path | GeneratorConfig | None = None,
          *,
          force: bool = False,
          resume: bool = False,
          options: RunOptions | None = None,
          jobs: int | None = None,
          checkpoint_every: int | None = None,
          telemetry: str | Path | None = None) -> SuiteHandle:
    """Install-time training (Phase I + Phase II + ANN fit per group).

    Loads the cached suite when one exists (train once per machine,
    reuse forever); ``force=True`` retrains.  ``checkpoint_every``
    enables periodic checkpoints and ``resume=True`` continues an
    interrupted run from them.  ``telemetry=PATH`` writes a telemetry
    artifact describing the run — readable with
    :func:`telemetry_summary` or ``repro telemetry PATH``.
    """
    machine = resolve_machine(machine)
    scale = resolve_scale(scale)
    options = _resolve_options(options, jobs=jobs,
                               checkpoint_every=checkpoint_every)
    meta = {"command": "train", "machine": machine.name,
            "scale": scale.name, "jobs": options.jobs}
    with _telemetry_run(telemetry, meta):
        suite = get_or_train_suite(
            machine, scale, config=resolve_config(config),
            force=force, resume=resume, options=options,
        )
    return SuiteHandle(
        suite=suite, machine=machine, scale=scale,
        path=suite_path(machine, scale),
        telemetry_path=Path(telemetry) if telemetry is not None else None,
    )


def advise(app: str,
           input_name: str | None = None,
           machine: str | MachineConfig = "core2",
           scale: str | ScaleParams = "small",
           *,
           options: RunOptions | None = None,
           jobs: int | None = None,
           telemetry: str | Path | None = None) -> Report:
    """Profile a case-study application and report replacements.

    Trains (or loads) the suite for ``machine``/``scale`` first, then
    runs the app instrumented and feeds the trace to the advisor.
    """
    _load_apps()
    machine = resolve_machine(machine)
    scale = resolve_scale(scale)
    options = _resolve_options(options, jobs=jobs)
    try:
        app_cls, inputs = APPS[app]
    except KeyError:
        raise UsageError(
            f"unknown app {app!r}; choose from {sorted(APPS)}"
        ) from None
    input_name = input_name or inputs[0]
    if input_name not in inputs:
        raise UsageError(
            f"unknown input {input_name!r} for {app}; choose from {inputs}"
        )
    meta = {"command": "advise", "app": app, "input": input_name,
            "machine": machine.name, "scale": scale.name}
    with _telemetry_run(telemetry, meta):
        suite = get_or_train_suite(machine, scale, options=options)
        advisor = BrainyAdvisor(suite)
        return advisor.advise_app(app_cls(input_name), machine)


def darwin(app: str,
           input_name: str | None = None,
           machine: str | MachineConfig = "core2",
           scale: str | ScaleParams = "small",
           *,
           options: RunOptions | None = None,
           jobs: int | None = None,
           generations: int | None = None,
           population: int | None = None,
           objectives: tuple[str, ...] | None = None,
           seed: int = 0,
           resume: bool = False,
           checkpoint: str | Path | None = None,
           checkpoint_every: int | None = None,
           budget_seconds: float | None = None,
           telemetry: str | Path | None = None) -> DarwinResult:
    """Evolve whole-program container assignments for a case-study app.

    The Darwinian advisor mode: instead of the greedy per-instance
    suggestions of :func:`advise`, an NSGA-II genetic search evolves one
    container choice per site, minimising simulated cycles *and*
    allocator footprint, and returns the Pareto front of non-dominated
    assignments (:class:`repro.core.darwin.DarwinResult`).  The greedy
    advisor assignment is measured, seeded into generation zero, and
    compared against — :meth:`DarwinResult.dominating` lists the evolved
    assignments that strictly beat it on both objectives.

    ``generations`` / ``population`` / ``objectives`` override the
    ``darwin_*`` knobs of ``options``
    (:class:`repro.runtime.options.RunOptions`); so do
    ``checkpoint_every`` (generation cadence for flushing a
    :class:`repro.runtime.checkpoint.DarwinCheckpoint`) and
    ``budget_seconds`` (wall-clock budget — the search stops at a
    generation boundary flagged ``truncated=budget``).  All knobs are
    validated up front (:class:`UsageError`, CLI exit 2).  The front is
    byte-identical for any ``jobs`` value.

    ``checkpoint`` names the checkpoint artifact path; when any of
    ``resume`` / ``checkpoint_every`` / ``budget_seconds`` is set
    without it, a per-(app, input, machine, scale, seed) default inside
    the suite cache's checkpoint directory is used.  ``resume=True``
    continues an interrupted search byte-identically — an interrupted
    run raises :class:`repro.runtime.checkpoint.TrainingInterrupted`
    (CLI exit 130/143) after flushing the checkpoint.
    """
    _load_apps()
    machine = resolve_machine(machine)
    scale = resolve_scale(scale)
    options = _resolve_options(
        options, jobs=jobs, darwin_generations=generations,
        darwin_population=population,
        darwin_objectives=(tuple(objectives) if objectives is not None
                           else None),
        darwin_checkpoint_every=checkpoint_every,
        darwin_budget_seconds=budget_seconds)
    if seed < 0:
        raise UsageError("seed must be non-negative")
    try:
        options.validate_darwin()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        app_cls, inputs = APPS[app]
    except KeyError:
        raise UsageError(
            f"unknown app {app!r}; choose from {sorted(APPS)}"
        ) from None
    input_name = input_name or inputs[0]
    if input_name not in inputs:
        raise UsageError(
            f"unknown input {input_name!r} for {app}; choose from {inputs}"
        )
    checkpoint_path = Path(checkpoint) if checkpoint is not None else None
    wants_checkpoint = (resume
                        or options.darwin_checkpoint_every is not None
                        or options.darwin_budget_seconds is not None)
    if checkpoint_path is None and wants_checkpoint:
        checkpoint_path = (
            checkpoint_dir(machine, scale)
            / f"darwin-{app}-{input_name}-seed{seed}.json"
        )
    if checkpoint_path is not None:
        checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"command": "darwin", "app": app, "input": input_name,
            "machine": machine.name, "scale": scale.name,
            "generations": options.darwin_generations,
            "population": options.darwin_population}
    with _telemetry_run(telemetry, meta):
        suite = get_or_train_suite(machine, scale, options=options)
        advisor = BrainyAdvisor(suite)
        return run_darwin(
            app_cls(input_name), machine, advisor, options=options,
            seed=seed, input_name=input_name,
            checkpoint=checkpoint_path, resume=resume,
        )


def validate(group: str | ModelGroup = "vector_oo",
             machine: str | MachineConfig = "core2",
             scale: str | ScaleParams = "small",
             config: str | Path | GeneratorConfig | None = None,
             *,
             apps: int = 40,
             seed_base: int = 500_000,
             options: RunOptions | None = None,
             jobs: int | None = None,
             telemetry: str | Path | None = None) -> ValidationResult:
    """The Figure 9 protocol: fresh apps, empirical best vs prediction."""
    machine = resolve_machine(machine)
    scale = resolve_scale(scale)
    group = resolve_group(group)
    options = _resolve_options(options, jobs=jobs)
    meta = {"command": "validate", "group": group.name,
            "machine": machine.name, "scale": scale.name, "apps": apps}
    with _telemetry_run(telemetry, meta):
        suite = get_or_train_suite(machine, scale, options=options)
        if group.name not in suite.models:
            raise UsageError(
                f"suite has no model for group {group.name!r}"
            )
        return validate_model(suite[group.name], group,
                              resolve_config(config), machine,
                              apps, seed_base=seed_base)


def serve(machine: str | MachineConfig = "core2",
          scale: str | ScaleParams = "small",
          *,
          suite_dir: str | Path | None = None,
          registry: str | Path | None = None,
          registry_key: str | None = None,
          auto_promote: bool = True,
          host: str = "127.0.0.1",
          port: int = 0,
          workers: int = 1,
          threads: int = 2,
          max_restarts: int = 3,
          restart_backoff: float = 1.0,
          options: RunOptions | None = None,
          jobs: int | None = None,
          poll_interval: float = 1.0,
          telemetry: str | Path | None = None) -> int:
    """Run the resilient advisor service until SIGTERM/SIGINT.

    With ``suite_dir`` the service loads (and watches, for hot reload) a
    suite saved there by :meth:`BrainySuite.save`; with ``registry`` it
    serves a versioned suite registry instead — routing by request tag,
    shadow-evaluating candidates, promoting them when the gates pass
    (unless ``auto_promote=False``), and rolling a regressing promotion
    back automatically.  Otherwise it trains or loads the cached suite
    for ``machine``/``scale`` and serves from the cache directory.
    Serving knobs — ``deadline_seconds``, ``queue_depth``,
    ``breaker_threshold``, ``breaker_cooldown_seconds``,
    ``drain_seconds`` and the registry's ``shadow_*`` /
    ``auto_demote_failures`` / ``post_promote_window`` —
    travel in ``options`` (:class:`repro.runtime.options.RunOptions`)
    and are validated up front (:class:`UsageError`, CLI exit 2).

    ``workers`` is the number of shared-nothing server *processes* on
    the one port (``SO_REUSEPORT`` kernel balancing — see
    :mod:`repro.serve.fleet`; a platform without the socket option
    serves with ``workers=1`` only); ``threads`` bounds each
    process's inference concurrency.  With ``workers > 1`` the
    telemetry artifact merges every worker's ``serve.*`` metrics, and
    the fleet is self-healing: a worker that dies outside drain is
    respawned with exponential backoff starting at ``restart_backoff``
    seconds, up to ``max_restarts`` times per worker slot
    (the crash-loop cap; ``0`` disables respawning).

    Blocks until the process is signalled, then drains and (with
    ``telemetry=PATH``) exports the serving telemetry artifact; returns
    the exit code (0 clean drain, 1 drain budget expired).
    """
    from repro.serve import FleetSpec, run_fleet, run_server
    from repro.serve.fleet import FleetUnsupported, _build_service

    if workers < 1:
        raise UsageError("workers must be >= 1")
    if threads < 1:
        raise UsageError("threads must be >= 1")
    if max_restarts < 0:
        raise UsageError("max_restarts must be >= 0")
    if restart_backoff <= 0:
        raise UsageError("restart_backoff must be positive")
    if poll_interval <= 0:
        raise UsageError("poll_interval must be positive")
    if registry is not None and suite_dir is not None:
        raise UsageError("pass either registry or suite_dir, not both")
    options = _resolve_options(options, jobs=jobs)
    try:
        options.validate_serving()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if registry is not None:
        registry = Path(registry)
        if not registry.is_dir():
            raise UsageError(
                f"no registry directory at {registry} (create one with "
                "`repro pipeline --registry DIR`)"
            )
    elif suite_dir is not None:
        suite_dir = Path(suite_dir)
        if not (suite_dir / "suite.json").exists():
            raise UsageError(
                f"no saved suite at {suite_dir} (expected "
                f"{suite_dir / 'suite.json'}; train one with "
                "`repro train` or BrainySuite.save)"
            )
    else:
        machine = resolve_machine(machine)
        scale = resolve_scale(scale)
        get_or_train_suite(machine, scale, options=options)
        suite_dir = suite_path(machine, scale)
    spec = FleetSpec(
        suite_dir=str(suite_dir) if suite_dir is not None else None,
        registry=str(registry) if registry is not None else None,
        registry_key=registry_key, auto_promote=auto_promote,
        options=options, threads=threads, host=host, port=port,
        poll_interval=poll_interval,
        telemetry=str(telemetry) if telemetry is not None else None,
        max_restarts=max_restarts,
        restart_backoff_seconds=restart_backoff,
    )
    if workers > 1:
        try:
            return run_fleet(spec, workers)
        except FleetUnsupported as exc:
            raise UsageError(str(exc)) from None
    try:
        service = _build_service(spec, 0)
    except (ValueError, RuntimeError) as exc:
        raise UsageError(str(exc)) from None
    return run_server(service, host=host, port=port,
                      telemetry=telemetry, poll_interval=poll_interval)


def pipeline(machine: str | MachineConfig = "core2",
             scale: str | ScaleParams = "tiny",
             config: str | Path | GeneratorConfig | None = None,
             *,
             registry: str | Path,
             promote: bool = False,
             resume: bool = True,
             min_accuracy: float = 0.0,
             validation_apps: int | None = None,
             workdir: str | Path | None = None,
             options: RunOptions | None = None,
             jobs: int | None = None,
             fault_spec: str | None = None,
             telemetry: str | Path | None = None,
             announce=None):
    """One unattended retraining cycle: appgen → train → validate →
    register (→ promote); see :func:`repro.registry.run_pipeline`.

    Crash-safe and resumable: each completed stage is recorded in the
    work directory's stage ledger, training resumes from its own
    checkpoints, and re-running after any interruption picks up where
    it stopped.  Transient faults retry with backoff; deterministic
    failures quarantine the candidate (exit stays 0 — the structured
    quarantine record is the outcome) rather than crash the loop.
    ``fault_spec`` (``stage:kind:count``, e.g. ``train:transient:1``)
    injects faults for smoke tests.
    """
    from repro.registry.pipeline import run_pipeline
    from repro.registry.store import SuiteRegistry
    from repro.runtime.inject import PipelineFaultInjector

    machine = resolve_machine(machine)
    scale = resolve_scale(scale)
    options = _resolve_options(options, jobs=jobs)
    try:
        options.validate_serving()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if min_accuracy < 0 or min_accuracy > 1:
        raise UsageError("min_accuracy must be within [0, 1]")
    if validation_apps is not None and validation_apps < 1:
        raise UsageError("validation_apps must be >= 1")
    fault_hook = None
    if fault_spec is not None:
        try:
            fault_hook = PipelineFaultInjector.from_spec(fault_spec)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    store = SuiteRegistry(registry)
    meta = {"command": "pipeline", "machine": machine.name,
            "scale": scale.name, "registry": str(store.root)}
    with _telemetry_run(telemetry, meta):
        return run_pipeline(
            machine, scale, resolve_config(config), store,
            promote=promote, options=options, workdir=workdir,
            resume=resume, min_accuracy=min_accuracy,
            validation_apps=validation_apps, fault_hook=fault_hook,
            announce=announce,
        )


def rollback(registry: str | Path, *,
             machine: str | None = None,
             key: str | None = None,
             reason: str | None = None) -> dict:
    """Restore a registry key's previous live version (atomic flip).

    A running ``repro serve --registry`` instance picks the flip up on
    its next poll; the demoted version is barred from candidacy.
    """
    from repro.registry.store import RegistryError, SuiteRegistry

    registry = Path(registry)
    if not registry.is_dir():
        raise UsageError(f"no registry directory at {registry}")
    store = SuiteRegistry(registry)
    try:
        resolved = store.resolve_key(machine=machine, key=key)
        info = store.rollback(resolved, reason=reason)
    except RegistryError as exc:
        raise UsageError(str(exc)) from None
    return {"key": str(resolved), "version": info.version,
            "fingerprint": info.fingerprint, "status": info.status}


def registry_status(registry: str | Path) -> dict:
    """Every key's versions and liveness, for ``repro registry list``."""
    from repro.registry.store import SuiteRegistry

    registry = Path(registry)
    if not registry.is_dir():
        raise UsageError(f"no registry directory at {registry}")
    store = SuiteRegistry(registry)
    payload: dict = {"root": str(store.root), "keys": {}}
    for reg_key in store.keys():
        live = store.live(reg_key)
        payload["keys"][str(reg_key)] = {
            "live": live.version if live is not None else None,
            "previous": store.previous(reg_key),
            "versions": [
                {"version": info.version, "status": info.status,
                 "created": info.created,
                 "fingerprint": info.fingerprint,
                 "source": info.source,
                 "reason": info.reason,
                 "validation_green": (
                     info.validation.get("green")
                     if isinstance(info.validation, dict) else None)}
                for info in store.versions(reg_key)
            ],
        }
    return payload


def census(files: int = 200, seed: int = 0) -> dict[str, int]:
    """The Figure 2 container census over a synthetic corpus."""
    from repro.corpus.scanner import ranked, scan_corpus
    from repro.corpus.synth import generate_corpus

    if files < 1:
        raise UsageError("files must be >= 1")
    corpus = generate_corpus(files=files, seed=seed)
    return dict(ranked(scan_corpus(corpus)))


@dataclass(frozen=True)
class AppgenProbe:
    """What :func:`appgen_probe` returns: one synthetic app, measured."""

    app: SyntheticApp
    runtimes: dict[DSKind, int]
    best: DSKind | None


def appgen_probe(seed: int,
                 group: str | ModelGroup = "vector_oo",
                 machine: str | MachineConfig = "core2",
                 config: str | Path | GeneratorConfig | None = None
                 ) -> AppgenProbe:
    """Generate one synthetic app and measure every legal candidate."""
    group = resolve_group(group)
    machine = resolve_machine(machine)
    app = generate_app(seed, group, resolve_config(config))
    runtimes = measure_candidates(app, machine)
    return AppgenProbe(app=app, runtimes=runtimes,
                       best=best_candidate(runtimes))


def telemetry_summary(path: str | Path, top: int = 5) -> str:
    """Render a telemetry artifact written by ``telemetry=PATH``."""
    from repro.runtime.artifacts import ArtifactError

    try:
        payload = obs.load_telemetry(path)
    except FileNotFoundError:
        raise UsageError(f"no telemetry file at {path}") from None
    except ArtifactError as exc:
        raise UsageError(f"unreadable telemetry file {path}: {exc}"
                         ) from None
    return obs.format_telemetry(payload, top=top)


__all__ = [
    "APPS",
    "AppgenProbe",
    "DarwinResult",
    "MACHINES",
    "Report",
    "RunOptions",
    "SuiteHandle",
    "UsageError",
    "ValidationResult",
    "advise",
    "appgen_probe",
    "census",
    "darwin",
    "pipeline",
    "registry_status",
    "resolve_config",
    "resolve_group",
    "resolve_machine",
    "resolve_scale",
    "rollback",
    "serve",
    "telemetry_summary",
    "train",
    "validate",
]
