"""Command-line interface: a thin argparse shim over :mod:`repro.api`.

The subcommands mirror the tool's lifecycle:

* ``repro train``     — install-time training for a machine (Phase I+II+ANN)
* ``repro advise``    — profile a case-study app and print the report
* ``repro darwin``    — evolve whole-program container assignments (NSGA-II)
* ``repro serve``     — run the resilient advisor service (long-running)
* ``repro pipeline``  — one unattended retraining cycle into a registry
* ``repro rollback``  — restore a registry key's previous live version
* ``repro registry``  — inspect a suite registry (``registry list``)
* ``repro census``    — the Figure 2 container census over a corpus
* ``repro appgen``    — generate one synthetic application's trace summary
* ``repro validate``  — the Figure 9 protocol for one model group
* ``repro telemetry`` — summarise a telemetry artifact from ``--telemetry``

Run ``repro --help`` (or any subcommand's ``--help``).  All behaviour
lives in :mod:`repro.api`; this module only parses arguments, calls the
facade, and formats results for the terminal.

Exit codes: 0 success, 2 usage error (unknown machine/group/scale/input),
130 interrupted (Ctrl-C; training flushes a checkpoint first and
``repro train --resume`` continues where it left off), 143 terminated
(SIGTERM; same checkpoint-and-flush path as Ctrl-C, conventional
``128 + 15`` code for supervisors), 1 anything else.  ``repro serve``
handles SIGTERM itself: graceful drain, exit 0.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro import api
from repro.containers.registry import MODEL_GROUPS
from repro.models.cache import SCALES
from repro.reporting import bar_chart, format_table
from repro.runtime.checkpoint import TrainingInterrupted

#: Back-compat alias: the CLI's usage-error type is the API's.
CLIError = api.UsageError

_MACHINES = api.MACHINES

#: App names for argparse choices (api.APPS loads lazily).
_APP_NAMES = ("chord", "raytrace", "relipmoc", "xalan")


def cmd_train(args: argparse.Namespace) -> int:
    print(f"training suite for {args.machine} at scale {args.scale} ...")
    handle = api.train(
        machine=args.machine, scale=args.scale, config=args.config,
        force=args.force, resume=args.resume,
        checkpoint_every=args.checkpoint_every, jobs=args.jobs,
        telemetry=args.telemetry,
    )
    print(f"models: {', '.join(handle.groups)}")
    if handle.telemetry_path is not None:
        print(f"telemetry: {handle.telemetry_path}")
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    report = api.advise(
        args.app, input_name=args.input, machine=args.machine,
        scale=args.scale, jobs=args.jobs, telemetry=args.telemetry,
    )
    print(report.format())
    return 0


def cmd_darwin(args: argparse.Namespace) -> int:
    result = api.darwin(
        args.app, input_name=args.input, machine=args.machine,
        scale=args.scale, jobs=args.jobs,
        generations=args.generations, population=args.population,
        objectives=(tuple(args.objectives.split(","))
                    if args.objectives else None),
        seed=args.seed,
        resume=args.resume, checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        budget_seconds=args.budget_seconds,
        telemetry=args.telemetry,
    )
    if args.out:
        import json
        from pathlib import Path

        Path(args.out).write_text(
            json.dumps(result.to_payload(), sort_keys=True, indent=2)
            + "\n")
    print(result.format())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime.options import RunOptions

    options = RunOptions(
        deadline_seconds=args.deadline,
        queue_depth=args.queue_depth,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_seconds=args.breaker_cooldown,
        drain_seconds=args.drain,
        shadow_queue_depth=args.shadow_queue_depth,
        shadow_min_samples=args.shadow_min_samples,
        shadow_min_agreement=args.shadow_min_agreement,
        auto_demote_failures=args.auto_demote_failures,
        post_promote_window=args.post_promote_window,
    )
    return api.serve(
        machine=args.machine, scale=args.scale,
        suite_dir=args.suite_dir, registry=args.registry,
        registry_key=args.registry_key,
        auto_promote=not args.no_auto_promote,
        host=args.host, port=args.port,
        workers=args.workers, threads=args.threads,
        max_restarts=args.max_restarts,
        restart_backoff=args.restart_backoff,
        options=options,
        poll_interval=args.poll_interval, telemetry=args.telemetry,
    )


def cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.runtime.options import RunOptions

    result = api.pipeline(
        machine=args.machine, scale=args.scale, config=args.config,
        registry=args.registry, promote=args.promote,
        resume=not args.fresh, min_accuracy=args.min_accuracy,
        validation_apps=args.validation_apps, workdir=args.workdir,
        options=RunOptions(), jobs=args.jobs,
        fault_spec=args.inject_fault, telemetry=args.telemetry,
        announce=print,
    )
    print(result.summary())
    if not result.ok and args.strict:
        return 1
    return 0


def cmd_rollback(args: argparse.Namespace) -> int:
    outcome = api.rollback(args.registry, machine=args.machine,
                           key=args.key, reason=args.reason)
    print(f"rolled {outcome['key']} back to v{outcome['version']} "
          f"({outcome['fingerprint'][:19]}…)")
    return 0


def cmd_registry(args: argparse.Namespace) -> int:
    status = api.registry_status(args.registry)
    print(f"registry {status['root']}")
    if not status["keys"]:
        print("  (no keys)")
        return 0
    for key_name, entry in sorted(status["keys"].items()):
        live = entry["live"]
        print(f"  {key_name}: live="
              f"{'v%d' % live if live is not None else 'none'}"
              + (f" previous=v{entry['previous']}"
                 if entry["previous"] is not None else ""))
        rows = []
        for version in entry["versions"]:
            green = version["validation_green"]
            rows.append([
                f"v{version['version']}",
                version["status"],
                ("green" if green else
                 "red" if green is not None else "-"),
                (version["source"] or "-"),
                (version["reason"] or "")[:48],
            ])
        print(format_table(
            ["version", "status", "validation", "source", "reason"],
            rows,
        ))
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    counts = api.census(files=args.files, seed=args.seed)
    print(bar_chart({name: float(count)
                     for name, count in counts.items() if count}))
    return 0


def cmd_appgen(args: argparse.Namespace) -> int:
    probe = api.appgen_probe(args.seed, group=args.group,
                             machine=args.machine, config=args.config)
    profile = probe.app.profile
    mix = {op: f"{weight:.2f}"
           for op, weight in zip(profile.ops, profile.op_weights)}
    print(f"seed {args.seed}, group {probe.app.group.name}: "
          f"elem={profile.elem_size}B "
          f"prefill={profile.prefill} mix={mix}")
    rows = [[kind.value, f"{cycles:,}"]
            for kind, cycles in sorted(probe.runtimes.items(),
                                       key=lambda kv: kv[1])]
    print(format_table(["candidate", "cycles"], rows, align_right=[1]))
    print(f"best (5% margin): "
          f"{probe.best.value if probe.best else 'none'}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    outcome = api.validate(
        group=args.group, machine=args.machine, scale=args.scale,
        config=args.config, apps=args.apps, seed_base=args.seed_base,
        jobs=args.jobs, telemetry=args.telemetry,
    )
    print(f"{outcome.group_name} on {outcome.machine_name}: "
          f"{outcome.correct}/{outcome.total} "
          f"= {100 * outcome.accuracy:.0f}% "
          f"({outcome.skipped} apps had no margin winner)")
    print(outcome.format_confusion())
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    print(api.telemetry_summary(args.file, top=args.top))
    return 0


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", metavar="PATH",
                        help="write a telemetry artifact (spans, "
                             "metrics) for this run to PATH; inspect "
                             "with `repro telemetry PATH`")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Brainy (PLDI 2011) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="install-time model training")
    train.add_argument("--machine", choices=sorted(_MACHINES),
                       default="core2")
    train.add_argument("--scale", choices=sorted(SCALES), default="small")
    train.add_argument("--config", help="Table 2 configuration file")
    train.add_argument("--force", action="store_true",
                       help="retrain even if cached")
    train.add_argument("--checkpoint-every", type=int, metavar="N",
                       help="checkpoint training state every N seeds")
    train.add_argument("--resume", action="store_true",
                       help="resume an interrupted training run from "
                            "its checkpoints")
    train.add_argument("--jobs", type=int, metavar="N",
                       help="fan seeds out over N worker processes "
                            "(results are identical to a serial run; "
                            "default: REPRO_JOBS or serial)")
    _add_telemetry_arg(train)
    train.set_defaults(fn=cmd_train)

    advise = sub.add_parser("advise",
                            help="advise a case-study application")
    advise.add_argument("app", choices=_APP_NAMES)
    advise.add_argument("--input", help="application input set")
    advise.add_argument("--machine", choices=sorted(_MACHINES),
                        default="core2")
    advise.add_argument("--scale", choices=sorted(SCALES),
                        default="small")
    advise.add_argument("--jobs", type=int, metavar="N",
                        help="worker processes if the suite must be "
                             "trained first (default: REPRO_JOBS or "
                             "serial)")
    _add_telemetry_arg(advise)
    advise.set_defaults(fn=cmd_advise)

    from repro.runtime.options import RunOptions

    darwin_defaults = RunOptions()
    darwin = sub.add_parser(
        "darwin",
        help="evolve whole-program container assignments (NSGA-II "
             "Pareto front over cycles and memory footprint)",
    )
    darwin.add_argument("app", choices=_APP_NAMES)
    darwin.add_argument("--input", help="application input set")
    darwin.add_argument("--machine", choices=sorted(_MACHINES),
                        default="core2")
    darwin.add_argument("--scale", choices=sorted(SCALES),
                        default="small")
    darwin.add_argument("--generations", type=int, metavar="N",
                        help="NSGA-II generations to evolve (default "
                             f"{darwin_defaults.darwin_generations})")
    darwin.add_argument("--population", type=int, metavar="N",
                        help="chromosomes per generation (default "
                             f"{darwin_defaults.darwin_population})")
    darwin.add_argument("--objectives", metavar="LIST",
                        help="comma-separated objectives to minimise, "
                             "from: cycles, memory (default "
                             "cycles,memory; reported points always "
                             "carry both measurements)")
    darwin.add_argument("--seed", type=int, default=0,
                        help="GA random seed (default 0)")
    darwin.add_argument("--jobs", type=int, metavar="N",
                        help="fan fitness evaluations out over N "
                             "worker processes (the front is "
                             "byte-identical for any N; default: "
                             "REPRO_JOBS or serial)")
    darwin.add_argument("--checkpoint", metavar="PATH",
                        help="darwin checkpoint artifact path "
                             "(default: derived inside the suite "
                             "cache's checkpoint directory when "
                             "--resume/--checkpoint-every/"
                             "--budget-seconds is used)")
    darwin.add_argument("--checkpoint-every", type=int, metavar="N",
                        dest="checkpoint_every",
                        help="flush a checkpoint every N completed "
                             "generations (interrupts always flush "
                             "the last generation boundary)")
    darwin.add_argument("--resume", action="store_true",
                        help="resume an interrupted search from its "
                             "checkpoint; the resumed front is "
                             "byte-identical to an uninterrupted run")
    darwin.add_argument("--budget-seconds", type=float,
                        metavar="SECONDS", dest="budget_seconds",
                        help="wall-clock budget: stop cleanly at the "
                             "next generation boundary, checkpoint, "
                             "and report the best front so far "
                             "flagged truncated=budget")
    darwin.add_argument("--out", metavar="PATH",
                        help="also write the full DarwinResult payload "
                             "as sorted JSON to PATH")
    _add_telemetry_arg(darwin)
    darwin.set_defaults(fn=cmd_darwin)

    defaults = RunOptions()
    serve = sub.add_parser(
        "serve", help="run the resilient advisor service"
    )
    serve.add_argument("--machine", choices=sorted(_MACHINES),
                       default="core2")
    serve.add_argument("--scale", choices=sorted(SCALES),
                       default="small")
    serve.add_argument("--suite-dir", metavar="DIR",
                       help="serve a suite saved at DIR (skips "
                            "training; the directory is watched for "
                            "hot reload)")
    serve.add_argument("--registry", metavar="DIR",
                       help="serve a versioned suite registry at DIR "
                            "(tag routing, shadow evaluation, gated "
                            "promotion, auto rollback); mutually "
                            "exclusive with --suite-dir")
    serve.add_argument("--registry-key", metavar="KEY",
                       help="default routing key for untagged requests "
                            "(machine/corpus, or a unique machine "
                            "preset name; optional when the registry "
                            "has exactly one key)")
    serve.add_argument("--no-auto-promote", action="store_true",
                       help="registry mode: never promote candidates "
                            "automatically; only the explicit promote "
                            "op flips liveness")
    serve.add_argument("--shadow-queue-depth", type=int, metavar="N",
                       default=defaults.shadow_queue_depth,
                       help="bounded shadow-evaluation queue; a full "
                            "queue sheds the shadow sample, never the "
                            "live answer "
                            f"(default {defaults.shadow_queue_depth})")
    serve.add_argument("--shadow-min-samples", type=int, metavar="N",
                       default=defaults.shadow_min_samples,
                       help="shadow samples required before promotion "
                            f"(default {defaults.shadow_min_samples})")
    serve.add_argument("--shadow-min-agreement", type=float,
                       metavar="FRACTION",
                       default=defaults.shadow_min_agreement,
                       help="minimum mean shadow agreement for "
                            "promotion "
                            f"(default {defaults.shadow_min_agreement})")
    serve.add_argument("--auto-demote-failures", type=int, metavar="N",
                       default=defaults.auto_demote_failures,
                       help="model failures inside the post-promote "
                            "watch that trigger automatic rollback "
                            f"(default {defaults.auto_demote_failures})")
    serve.add_argument("--post-promote-window", type=int, metavar="N",
                       default=defaults.post_promote_window,
                       help="answered requests the post-promote watch "
                            "covers; 0 disables it "
                            f"(default {defaults.post_promote_window})")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one; the bound "
                            "address is printed on startup)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="shared-nothing server processes on the "
                            "one port (N > 1 needs SO_REUSEPORT; "
                            "default 1)")
    serve.add_argument("--threads", type=int, default=2, metavar="N",
                       help="inference worker threads per process "
                            "(bounded concurrency; default 2)")
    serve.add_argument("--max-restarts", type=int, default=3,
                       metavar="N", dest="max_restarts",
                       help="fleet self-healing: respawn a worker that "
                            "dies outside drain up to N times per "
                            "worker slot (crash-loop cap; 0 disables "
                            "respawning; default 3)")
    serve.add_argument("--restart-backoff", type=float, default=1.0,
                       metavar="SECONDS", dest="restart_backoff",
                       help="initial respawn delay, doubled per "
                            "consecutive restart of the same worker "
                            "slot (default 1.0)")
    serve.add_argument("--deadline", type=float, metavar="SECONDS",
                       default=defaults.deadline_seconds,
                       help="per-request budget before answering from "
                            "the baseline flagged degraded=deadline "
                            f"(default {defaults.deadline_seconds})")
    serve.add_argument("--queue-depth", type=int, metavar="N",
                       default=defaults.queue_depth,
                       help="bounded work queue; excess requests are "
                            "shed with status=overloaded, and a freed "
                            "worker answers at most this many queued "
                            "requests in one batched pass "
                            f"(default {defaults.queue_depth})")
    serve.add_argument("--breaker-threshold", type=int, metavar="N",
                       default=defaults.breaker_threshold,
                       help="consecutive inference failures that open "
                            "a model group's circuit breaker "
                            f"(default {defaults.breaker_threshold})")
    serve.add_argument("--breaker-cooldown", type=float,
                       metavar="SECONDS",
                       default=defaults.breaker_cooldown_seconds,
                       help="open time before a breaker half-opens "
                            "for a probe request (default "
                            f"{defaults.breaker_cooldown_seconds})")
    serve.add_argument("--drain", type=float, metavar="SECONDS",
                       default=defaults.drain_seconds,
                       help="SIGTERM drain budget for in-flight "
                            "requests "
                            f"(default {defaults.drain_seconds})")
    serve.add_argument("--poll-interval", type=float,
                       metavar="SECONDS", default=1.0,
                       help="how often to check the suite artifact "
                            "for hot reload (default 1.0)")
    _add_telemetry_arg(serve)
    serve.set_defaults(fn=cmd_serve)

    pipeline = sub.add_parser(
        "pipeline",
        help="one unattended retraining cycle into a suite registry",
    )
    pipeline.add_argument("--registry", metavar="DIR", required=True,
                          help="registry root directory (created if "
                               "missing)")
    pipeline.add_argument("--machine", choices=sorted(_MACHINES),
                          default="core2")
    pipeline.add_argument("--scale", choices=sorted(SCALES),
                          default="tiny")
    pipeline.add_argument("--config", help="Table 2 configuration file")
    pipeline.add_argument("--promote", action="store_true",
                          help="promote the registered version when "
                               "validation is green (bootstrap / "
                               "operator-forced path; otherwise the "
                               "serving router promotes after shadow "
                               "gating)")
    pipeline.add_argument("--fresh", action="store_true",
                          help="ignore the stage ledger and start the "
                               "cycle over (default: resume)")
    pipeline.add_argument("--min-accuracy", type=float, default=0.0,
                          metavar="FRACTION",
                          help="per-group validation accuracy floor "
                               "for a green outcome (default 0.0)")
    pipeline.add_argument("--validation-apps", type=int, metavar="N",
                          help="validation apps per group (default: "
                               "the scale's setting)")
    pipeline.add_argument("--workdir", metavar="DIR",
                          help="stage ledger + checkpoint directory "
                               "(default: under the registry root)")
    pipeline.add_argument("--jobs", type=int, metavar="N",
                          help="worker processes for training "
                               "(default: REPRO_JOBS or serial)")
    pipeline.add_argument("--inject-fault", metavar="SPEC",
                          help="inject a fault: stage:kind[:count], "
                               "e.g. train:transient:1 (smoke tests)")
    pipeline.add_argument("--strict", action="store_true",
                          help="exit 1 when the candidate was "
                               "quarantined (default: exit 0 with the "
                               "structured quarantine outcome)")
    _add_telemetry_arg(pipeline)
    pipeline.set_defaults(fn=cmd_pipeline)

    rollback = sub.add_parser(
        "rollback",
        help="restore a registry key's previous live version",
    )
    rollback.add_argument("--registry", metavar="DIR", required=True)
    rollback.add_argument("--machine", help="machine preset (resolves "
                                            "the key when unique)")
    rollback.add_argument("--key", metavar="MACHINE/CORPUS",
                          help="explicit registry key")
    rollback.add_argument("--reason", help="recorded on the demoted "
                                           "version's metadata")
    rollback.set_defaults(fn=cmd_rollback)

    registry = sub.add_parser(
        "registry", help="inspect a suite registry"
    )
    registry_sub = registry.add_subparsers(dest="registry_command",
                                           required=True)
    registry_list = registry_sub.add_parser(
        "list", help="every key's versions and liveness"
    )
    registry_list.add_argument("--registry", metavar="DIR",
                               required=True)
    registry_list.set_defaults(fn=cmd_registry)

    census = sub.add_parser("census", help="Figure 2 container census")
    census.add_argument("--files", type=int, default=200)
    census.add_argument("--seed", type=int, default=0)
    census.set_defaults(fn=cmd_census)

    appgen = sub.add_parser("appgen",
                            help="generate + measure one synthetic app")
    appgen.add_argument("seed", type=int)
    appgen.add_argument("--group", choices=sorted(MODEL_GROUPS),
                        default="vector_oo")
    appgen.add_argument("--machine", choices=sorted(_MACHINES),
                        default="core2")
    appgen.add_argument("--config", help="Table 2 configuration file")
    appgen.set_defaults(fn=cmd_appgen)

    validate = sub.add_parser(
        "validate", help="Figure 9 validation for one model group"
    )
    validate.add_argument("--group", choices=sorted(MODEL_GROUPS),
                          default="vector_oo")
    validate.add_argument("--machine", choices=sorted(_MACHINES),
                          default="core2")
    validate.add_argument("--scale", choices=sorted(SCALES),
                          default="small")
    validate.add_argument("--apps", type=int, default=40)
    validate.add_argument("--seed-base", type=int, default=500_000)
    validate.add_argument("--config", help="Table 2 configuration file")
    validate.add_argument("--jobs", type=int, metavar="N",
                          help="worker processes if the suite must be "
                               "trained first (default: REPRO_JOBS or "
                               "serial)")
    _add_telemetry_arg(validate)
    validate.set_defaults(fn=cmd_validate)

    telemetry = sub.add_parser(
        "telemetry", help="summarise a telemetry artifact"
    )
    telemetry.add_argument("file", help="telemetry artifact path "
                                        "(from --telemetry)")
    telemetry.add_argument("--top", type=int, default=5, metavar="N",
                           help="slowest span instances to show")
    telemetry.set_defaults(fn=cmd_telemetry)

    return parser


def _install_sigterm_as_interrupt() -> tuple[dict, object | None]:
    """Route SIGTERM through the Ctrl-C path.

    Training already handles ``KeyboardInterrupt`` by flushing a
    checkpoint and the telemetry artifact; raising it from the SIGTERM
    handler gives a supervisor's ``kill`` the exact same safety, with
    the returned flag distinguishing the exit code (143 vs 130).
    ``repro serve`` replaces this handler with its own graceful-drain
    one for the duration of the serve loop.
    """
    terminated: dict = {"flag": False}

    def _on_sigterm(signum, frame):  # pragma: no cover - signal path
        terminated["flag"] = True
        raise KeyboardInterrupt("terminated (SIGTERM)")

    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # non-main thread / exotic platform
        previous = None
    return terminated, previous


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    terminated, previous = _install_sigterm_as_interrupt()
    try:
        return args.fn(args)
    except api.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingInterrupted as exc:
        word = "terminated" if terminated["flag"] else "interrupted"
        print(f"{word}: {exc}", file=sys.stderr)
        print("rerun with --resume to continue from the checkpoint",
              file=sys.stderr)
        return 143 if terminated["flag"] else 130
    except KeyboardInterrupt:
        print("terminated" if terminated["flag"] else "interrupted",
              file=sys.stderr)
        return 143 if terminated["flag"] else 130
    finally:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass


if __name__ == "__main__":  # pragma: no cover - direct execution
    raise SystemExit(main())
