"""Multi-worker scale-out for ``repro serve`` (``--workers N``).

One parent process supervises ``N`` **shared-nothing** worker
processes, each running the full single-process serving stack
(:class:`~repro.serve.loop.AdvisorService` behind
:func:`~repro.serve.server.run_server`): its own dispatcher threads
(a freed one answers whatever is queued for its advisor in one batched
inference pass), circuit breakers, hot-reload watcher and — in registry
mode — its own :class:`~repro.serve.reload.RegistryRouter`.  Nothing is
shared between workers, so one worker's stuck model call, tripped
breaker or corrupt reload cannot affect another's answers.

One way onto one port: every worker binds its own listening socket to
the *same* address with ``SO_REUSEPORT`` and the kernel balances
incoming connections across them.  The parent resolves ``port=0`` up
front with a bound (never listening) probe socket so all workers agree
on the concrete port, then closes the probe once the fleet is ready.
Linux, macOS and the BSDs expose the option; a platform without it
(Windows) serves with ``--workers 1`` only.

Lifecycle: the parent announces ``serving on HOST:PORT`` only after
every worker reported ready (same line supervisors already parse for
the single-process server).  SIGTERM/SIGINT forwards to every worker,
each drains within ``RunOptions.drain_seconds``, and the parent exits 0
only when all workers drained cleanly.  With ``--telemetry PATH`` each
worker exports ``PATH.workerN`` and the parent merges their ``serve.*``
metrics (counters summed, histograms folded; spans are per-process and
stay in the per-worker artifacts) into one artifact at ``PATH``.

The fleet is **self-healing**: a worker that dies outside drain with a
non-zero exit is respawned with exponential backoff
(``restart_backoff_seconds`` doubled per consecutive restart of the
slot) up to ``max_restarts`` times per worker slot — the crash-loop
cap, after which the slot is abandoned and the fleet exit code flags
the failure.  Respawned workers re-report ready, the kernel starts
balancing connections onto their socket, and they carry their restart
count in health (``worker.restarts``); the merged telemetry counts
``serve.worker_restarts{worker=}``.  A successfully-healed crash does
*not* fail the fleet's exit code.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import socket
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.runtime.options import RunOptions

#: Seconds the parent waits for each worker's ready report.
READY_TIMEOUT_SECONDS = 120.0
#: Slack on top of drain_seconds before stragglers are killed.
JOIN_MARGIN_SECONDS = 10.0
#: Ceiling on the exponential respawn backoff.
MAX_RESTART_BACKOFF_SECONDS = 30.0


@dataclass(frozen=True)
class FleetSpec:
    """Everything a worker process needs to rebuild the service.

    Kept to plain picklable values (paths as strings, knobs in
    :class:`RunOptions`) because workers start via the ``spawn``
    context — no parent state leaks in except what is listed here.
    """

    suite_dir: str | None = None
    registry: str | None = None
    registry_key: str | None = None
    auto_promote: bool = True
    options: RunOptions = RunOptions()
    threads: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    poll_interval: float = 1.0
    telemetry: str | None = None
    #: Crash-loop cap: respawns allowed per worker slot (0 disables
    #: self-healing entirely).
    max_restarts: int = 3
    #: Initial respawn delay, doubled per consecutive restart of the
    #: same slot (capped at :data:`MAX_RESTART_BACKOFF_SECONDS`).
    restart_backoff_seconds: float = 1.0


class _RestartTracker:
    """Pure respawn bookkeeping: exponential backoff per worker slot,
    crash-loop cap.  No clocks, no processes — unit-testable."""

    def __init__(self, max_restarts: int, backoff_seconds: float, *,
                 max_backoff_seconds: float = MAX_RESTART_BACKOFF_SECONDS
                 ) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if backoff_seconds <= 0:
            raise ValueError("backoff_seconds must be positive")
        self.max_restarts = max_restarts
        self.backoff_seconds = backoff_seconds
        self.max_backoff_seconds = max_backoff_seconds
        #: Worker slot -> respawns performed so far.
        self.restarts: dict[int, int] = {}

    def delay(self, worker_id: int) -> float | None:
        """Backoff before the slot's *next* respawn, or ``None`` when
        the crash-loop cap is exhausted."""
        used = self.restarts.get(worker_id, 0)
        if used >= self.max_restarts:
            return None
        return min(self.backoff_seconds * (2 ** used),
                   self.max_backoff_seconds)

    def note_restart(self, worker_id: int) -> int:
        """Record a respawn; returns the slot's restart count."""
        self.restarts[worker_id] = self.restarts.get(worker_id, 0) + 1
        return self.restarts[worker_id]


def _build_service(spec: FleetSpec, worker_id: int,
                   worker_restarts: int = 0):
    from repro.serve.loop import AdvisorService

    if spec.registry is not None:
        from repro.registry.store import SuiteRegistry

        return AdvisorService(
            registry=SuiteRegistry(Path(spec.registry)),
            registry_key=spec.registry_key,
            auto_promote=spec.auto_promote,
            options=spec.options, workers=spec.threads,
            worker_id=worker_id, worker_restarts=worker_restarts,
        )
    return AdvisorService(spec.suite_dir, options=spec.options,
                          workers=spec.threads, worker_id=worker_id,
                          worker_restarts=worker_restarts)


def _worker_main(worker_id: int, spec: FleetSpec, ready_queue,
                 worker_restarts: int = 0) -> None:
    """Entry point of one worker process: build, announce, serve."""
    from repro.serve.server import run_server

    pid = os.getpid()

    def announce(message: str, flush: bool = True) -> None:
        if message.startswith("serving on "):
            host, _, port = message[len("serving on "):].rpartition(":")
            ready_queue.put({"worker": worker_id, "pid": pid,
                             "host": host, "port": int(port),
                             "restarts": worker_restarts})
            return  # the parent announces the fleet address once
        print(f"[worker {worker_id}] {message}", flush=flush)

    try:
        service = _build_service(spec, worker_id, worker_restarts)
    except Exception as exc:
        ready_queue.put({"worker": worker_id, "pid": pid,
                         "error": f"{type(exc).__name__}: {exc}"})
        raise SystemExit(1)
    telemetry = (f"{spec.telemetry}.worker{worker_id}"
                 if spec.telemetry is not None else None)
    code = run_server(service, host=spec.host, port=spec.port,
                      telemetry=telemetry,
                      poll_interval=spec.poll_interval,
                      reuse_port=True,
                      announce=announce)
    raise SystemExit(code)


def _probe_socket(host: str, port: int) -> socket.socket:
    """Reserve the fleet's concrete port without accepting anything.

    Bound with ``SO_REUSEPORT`` but never listening, so it fixes the
    ``port=0`` resolution for every worker while the kernel keeps
    balancing real connections only among the workers' listening
    sockets.
    """
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((host, port))
    except BaseException:
        probe.close()
        raise
    return probe


def _merge_worker_telemetry(telemetry: str, reports: list[dict],
                            drained: bool, announce,
                            restarts: dict[int, int] | None = None
                            ) -> None:
    """Fold every worker's exported metrics into one artifact.

    Counters sum, gauges last-write, histograms fold (count/total/
    min/max exact; sample caps respected) — exactly the
    :meth:`~repro.obs.metrics.MetricsRegistry.merge` semantics the
    parallel-training path already uses.  A worker that died before
    exporting is skipped with an announcement, never an exception: the
    merged view must outlive partial failures.  A respawned slot
    reports ready more than once; only its latest report is merged (the
    replacement overwrote the slot's ``PATH.workerN`` artifact), and
    its respawn count lands in ``serve.worker_restarts{worker=}``.
    """
    import repro.obs as obs
    from repro.obs.export import export_telemetry, load_telemetry

    collector = obs.Collector()
    wall_times = [0.0]
    merged_from = []
    # One report per slot (latest wins) in deterministic order — the
    # artifact must not depend on shutdown or respawn races.
    latest = {report["worker"]: report for report in reports}
    for worker_id in sorted(latest):
        worker_path = f"{telemetry}.worker{worker_id}"
        try:
            payload = load_telemetry(worker_path)
        except Exception as exc:
            announce(f"telemetry merge: skipping worker "
                     f"{worker_id} ({type(exc).__name__}: {exc})",
                     flush=True)
            continue
        collector.metrics.merge(payload.get("metrics", {}))
        if payload.get("wall_time_s"):
            wall_times.append(float(payload["wall_time_s"]))
        merged_from.append(worker_id)
    for worker_id in sorted(restarts or {}):
        count = (restarts or {})[worker_id]
        if count:
            collector.metrics.count("serve.worker_restarts", count,
                                    worker=str(worker_id))
    export_telemetry(
        collector, Path(telemetry),
        meta={"command": "serve", "fleet": True,
              "workers": merged_from, "drained": drained,
              "restarts": {str(worker_id): count for worker_id, count
                           in sorted((restarts or {}).items())}},
        wall_time_s=max(wall_times),
    )


def run_fleet(spec: FleetSpec, workers: int, *,
              install_signal_handlers: bool = True,
              announce=print) -> int:
    """Run ``workers`` shared-nothing server processes on one port.

    Blocks until SIGTERM/SIGINT (or every worker has died), forwards
    the signal, waits out the drain, merges telemetry.  Returns 0 only
    when every worker exited 0 (clean drain); 1 otherwise.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    context = multiprocessing.get_context("spawn")
    ready_queue = context.Queue()

    probe: socket.socket | None = _probe_socket(spec.host, spec.port)
    host, port = spec.host, probe.getsockname()[1]
    worker_spec = replace(spec, port=port)
    tracker = _RestartTracker(spec.max_restarts,
                              spec.restart_backoff_seconds)

    procs: list[multiprocessing.Process] = []
    stop = threading.Event()
    previous_handlers = {}

    def _on_signal(signum, frame):  # pragma: no cover - signal path
        stop.set()

    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous_handlers[signum] = signal.signal(signum,
                                                          _on_signal)
            except (ValueError, OSError):  # non-main thread
                pass

    failed = False
    reports: list[dict] = []
    try:
        for worker_id in range(workers):
            proc = context.Process(
                target=_worker_main,
                args=(worker_id, worker_spec, ready_queue),
                name=f"repro-serve-worker-{worker_id}",
                daemon=False,
            )
            proc.start()
            procs.append(proc)

        # Every worker must report ready (or fail) before the fleet
        # address is announced — supervisors treat the announcement as
        # "traffic is safe now".
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS
        while len(reports) < workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                announce("fleet startup timed out waiting for workers",
                         flush=True)
                return 1
            try:
                report = ready_queue.get(timeout=min(remaining, 0.5))
            except Exception:
                if any(not proc.is_alive() and proc.exitcode != 0
                       for proc in procs):
                    announce("a worker died during startup", flush=True)
                    return 1
                continue
            if "error" in report:
                announce(f"worker {report['worker']} failed to start: "
                         f"{report['error']}", flush=True)
                return 1
            reports.append(report)
            announce(f"worker {report['worker']} ready "
                     f"(pid {report['pid']}) on "
                     f"{report['host']}:{report['port']}", flush=True)

        probe.close()
        probe = None
        announce(f"fleet of {workers} worker"
                 f"{'' if workers == 1 else 's'} (SO_REUSEPORT)",
                 flush=True)
        announce(f"serving on {host}:{port}", flush=True)

        # Supervise: wake on signal, notice dead workers as they go,
        # respawn crashed slots with exponential backoff (self-heal).
        alive = dict(enumerate(procs))
        pending_respawn: dict[int, float] = {}  # slot -> due monotonic
        while not stop.wait(0.2):
            now = time.monotonic()
            exited = [worker_id for worker_id, proc in alive.items()
                      if not proc.is_alive()]
            for worker_id in exited:
                proc = alive.pop(worker_id)
                announce(f"worker {worker_id} exited with code "
                         f"{proc.exitcode}", flush=True)
                if proc.exitcode == 0:
                    continue  # voluntary clean exit: not respawned
                delay = tracker.delay(worker_id)
                if delay is None:
                    # Crash-loop cap reached: abandon the slot and flag
                    # the fleet exit code.
                    failed = True
                    announce(f"worker {worker_id} crash-looped past "
                             f"--max-restarts {tracker.max_restarts}; "
                             "not respawning", flush=True)
                    continue
                pending_respawn[worker_id] = now + delay
                announce(f"respawning worker {worker_id} in "
                         f"{delay:.1f}s (restart "
                         f"{tracker.restarts.get(worker_id, 0) + 1}"
                         f"/{tracker.max_restarts})", flush=True)
            for worker_id in [w for w, due in pending_respawn.items()
                              if due <= now]:
                del pending_respawn[worker_id]
                count = tracker.note_restart(worker_id)
                proc = context.Process(
                    target=_worker_main,
                    args=(worker_id, worker_spec, ready_queue, count),
                    name=f"repro-serve-worker-{worker_id}-r{count}",
                    daemon=False,
                )
                proc.start()
                procs.append(proc)
                alive[worker_id] = proc
            # Pick up respawned workers' ready reports without
            # blocking the supervise tick.
            while True:
                try:
                    report = ready_queue.get_nowait()
                except (queue_mod.Empty, OSError):
                    break
                if "error" in report:
                    announce(f"worker {report['worker']} failed to "
                             f"restart: {report['error']}", flush=True)
                    continue  # its death is noticed next tick
                reports.append(report)
                announce(f"worker {report['worker']} ready "
                         f"(pid {report['pid']}) on "
                         f"{report['host']}:{report['port']} "
                         f"(restart {report.get('restarts', 0)})",
                         flush=True)
            if not alive and not pending_respawn:
                announce("all workers exited; shutting down",
                         flush=True)
                break

        # Drain: forward the signal, wait out the budget.
        # Only the *current* generation of each slot counts toward the
        # exit code — a crash that was healed by a respawn already
        # either succeeded (replacement drains below) or set ``failed``
        # at the crash-loop cap.
        current = list(alive.values())
        for proc in current:
            if proc.is_alive():
                proc.terminate()  # SIGTERM → graceful in-worker drain
        join_budget = (spec.options.drain_seconds
                       + JOIN_MARGIN_SECONDS)
        join_deadline = time.monotonic() + join_budget
        for proc in current:
            proc.join(timeout=max(0.1,
                                  join_deadline - time.monotonic()))
            if proc.is_alive():
                announce(f"killing worker {proc.name} (drain budget "
                         "expired)", flush=True)
                proc.kill()
                proc.join(timeout=5.0)
                failed = True
            elif proc.exitcode != 0:
                failed = True
        if spec.telemetry is not None and reports:
            _merge_worker_telemetry(spec.telemetry, reports,
                                    drained=not failed,
                                    announce=announce,
                                    restarts=dict(tracker.restarts))
        announce("fleet drained cleanly" if not failed
                 else "fleet shut down with failures", flush=True)
        return 1 if failed else 0
    finally:
        if probe is not None:
            probe.close()
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - error paths
                proc.kill()
        if install_signal_handlers:
            for signum, handler in previous_handlers.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass
