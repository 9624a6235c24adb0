"""Parallel seed fan-out: worker pools with deterministic ordered merge.

Phase I/II outcomes are pure functions of their seed, which makes the
training loops embarrassingly parallel — *except* that every consumer
(class-count early stop, checkpoint prefixes, artifact bytes) depends on
seeds being applied strictly in order.  The contract here keeps both
properties:

* **Dispatch is out-of-order**: tasks are fanned out to ``jobs`` worker
  processes and complete in whatever order the scheduler likes.
* **Consumption is in-order**: :func:`map_ordered` yields results in
  submission order, so the merge loop downstream sees exactly the
  sequence a serial run would have produced.  Artifacts are therefore
  byte-identical for any ``jobs`` (proven by test), and checkpoints
  always describe a completed-seed *prefix*.

Executors are a seam: the default is a real ``multiprocessing`` pool for
``jobs > 1`` and a zero-overhead in-process executor for ``jobs == 1``;
tests and the fault-injection harness pass :class:`SerialExecutor`
explicitly so stateful injected callables work under any ``jobs`` value.

Worker processes are initialised deterministically (fixed ``random`` /
NumPy global seeds, independent of ``PYTHONHASHSEED`` and of which
worker picks up which task) and ignore SIGINT so an interrupt is handled
solely by the parent, which flushes a checkpoint at the merged prefix.

Telemetry composes with the fan-out the same way results do: when the
parent's :mod:`repro.obs` collector is enabled and tasks cross a process
boundary, each task runs under a fresh buffering collector and its
snapshot ships back with the result; :func:`map_ordered` merges it into
the parent collector at the in-order consume point.  On the in-process
path tasks evaluate lazily at that same consume point, so their spans
nest directly into the parent collector at the identical graft point.
Span paths, counts, and metric totals are therefore identical for any
``jobs`` value — only wall-times differ.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

#: Tasks kept in flight per worker: enough to hide scheduling latency,
#: small enough to bound speculative work past an early-stop boundary.
DEFAULT_WINDOW_PER_JOB = 4


def resolve_jobs(jobs: int | None) -> int:
    """Resolve a ``jobs`` setting: explicit value, else ``REPRO_JOBS``,
    else serial."""
    source = "jobs"
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS={env!r} is not an integer"
            ) from None
        source = "REPRO_JOBS"
    if jobs < 1:
        raise ValueError(f"{source} must be >= 1, got {jobs}")
    return jobs


class _ShippedResult:
    """A task result bundled with the worker-side telemetry snapshot."""

    __slots__ = ("result", "telemetry")

    def __init__(self, result: Any, telemetry: dict) -> None:
        self.result = result
        self.telemetry = telemetry


class _TelemetryTask:
    """Wrap a task callable so its telemetry ships back with its result.

    Used only across process boundaries, where the parent collector is
    unreachable: the wrapped call runs under a fresh enabled collector
    whose snapshot travels home with the result.  Picklable iff the
    wrapped callable is.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, *args: Any) -> _ShippedResult:
        from repro.obs import Collector, use_collector

        collector = Collector()
        with use_collector(collector):
            result = self.fn(*args)
        return _ShippedResult(result, collector.snapshot())


@dataclass
class TaskFailure:
    """Sentinel yielded when a task raised instead of returning.

    Worker functions built on :func:`repro.runtime.faults.run_guarded`
    convert expected per-seed failures into quarantine outcomes, so a
    ``TaskFailure`` means the *infrastructure* failed (worker crash,
    unpicklable payload, resource exhaustion).  The merge loop maps it
    onto the fault taxonomy: transient → in-parent retry, deterministic
    → quarantine.
    """

    task: Any
    error: Exception


class _LazyCall:
    """A pending in-process call, evaluated at result-collection time.

    Laziness matters: the serial executor must not do work for tasks the
    merge loop never consumes (early stop), and an exception must surface
    at the same loop position it would in a plain serial loop.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, fn: Callable, args: tuple) -> None:
        self._fn = fn
        self._args = args

    def get(self) -> Any:
        return self._fn(*self._args)


class SerialExecutor:
    """In-process executor: the ``jobs=1`` path and the test seam.

    Runs everything in the calling process, so stateful worker callables
    (fault injectors, counters) behave exactly as in a serial loop.
    """

    in_process = True

    def submit(self, fn: Callable, args: tuple) -> _LazyCall:
        return _LazyCall(fn, args)

    def shutdown(self) -> None:
        pass


def _pool_initializer() -> None:
    """Deterministic, signal-safe worker start-up.

    Seeds the global RNGs to a fixed value so any stray global-state use
    in worker code is reproducible regardless of ``PYTHONHASHSEED``,
    process spawn order, or which worker executes which seed (each
    task's own RNG is derived from its seed and never touches these).
    SIGINT is ignored so Ctrl-C is handled only by the parent, which
    owns checkpoint flushing.  SIGTERM is restored to the default
    disposition: forked workers inherit the CLI's SIGTERM-as-interrupt
    handler, which would turn the pool's own ``terminate()`` into a
    KeyboardInterrupt traceback from every worker mid-teardown.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    import random

    random.seed(0)
    try:
        import numpy as np

        np.random.seed(0)
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass


class PoolExecutor:
    """``multiprocessing.Pool`` executor with deterministic worker init."""

    in_process = False

    def __init__(self, jobs: int) -> None:
        import multiprocessing as mp

        self._pool = mp.get_context().Pool(
            processes=jobs, initializer=_pool_initializer
        )

    def submit(self, fn: Callable, args: tuple):
        return self._pool.apply_async(fn, args)

    def shutdown(self) -> None:
        # terminate(), not close(): speculative tasks past an early-stop
        # or interrupt boundary must not hold the parent hostage.
        self._pool.terminate()
        self._pool.join()


def make_executor(jobs: int) -> SerialExecutor | PoolExecutor:
    """The default executor for a ``jobs`` setting."""
    if jobs <= 1:
        return SerialExecutor()
    return PoolExecutor(jobs)


def usable_jobs(worker: Callable, jobs: int, what: str) -> int:
    """Clamp ``jobs`` to 1 when ``worker`` cannot cross a process boundary.

    Injected seams (fault injectors, monkeypatched callables) are often
    closures; rather than exploding deep inside the pool, degrade to the
    in-process path with a warning — the results are byte-identical
    either way, only slower.
    """
    if jobs <= 1:
        return jobs
    try:
        pickle.dumps(worker)
    except Exception as exc:
        warnings.warn(
            f"{what} is not picklable ({exc}); running serially instead "
            f"of with jobs={jobs}",
            RuntimeWarning, stacklevel=3,
        )
        return 1
    return jobs


def map_ordered(fn: Callable[[Any], Any],
                tasks: Iterable[Any],
                *,
                jobs: int = 1,
                window: int | None = None,
                executor=None) -> Iterator[Any]:
    """Yield ``fn(task)`` for every task, in task order.

    Up to ``window`` tasks (default ``jobs * 4``) are in flight at once;
    results are consumed strictly head-first, so the caller's merge loop
    observes the serial sequence no matter how execution interleaves.
    A task that raises yields a :class:`TaskFailure` in its slot instead
    of aborting the stream; ``KeyboardInterrupt`` propagates immediately
    (the generator's ``finally`` shuts the pool down).  Closing the
    generator early (e.g. on an early-stop break) discards speculative
    in-flight work.

    When the active :mod:`repro.obs` collector is enabled, each task's
    telemetry lands in the parent collector at the task's in-order
    consume point (discarded tasks' telemetry is discarded with them) —
    via a shipped snapshot for pool workers, directly for in-process
    execution — keeping telemetry content deterministic across ``jobs``
    values.
    """
    from repro.obs import get_collector

    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    parent_collector = get_collector()
    own_executor = executor is None
    if executor is None:
        executor = make_executor(jobs)
    # In-process executors evaluate lazily at the consume point below,
    # where the parent collector is active and spans nest directly at
    # the same graft point a shipped snapshot would merge into — so only
    # real process boundaries pay the snapshot/merge cost.
    ship_telemetry = (parent_collector.enabled
                      and not getattr(executor, "in_process", False))
    if ship_telemetry:
        fn = _TelemetryTask(fn)
    if window is None:
        window = max(2, jobs * DEFAULT_WINDOW_PER_JOB)
    pending: deque[tuple[Any, Any]] = deque()
    task_iter = iter(tasks)
    exhausted = False
    try:
        while True:
            while not exhausted and len(pending) < window:
                try:
                    task = next(task_iter)
                except StopIteration:
                    exhausted = True
                    break
                pending.append((task, executor.submit(fn, (task,))))
            if not pending:
                return
            task, handle = pending.popleft()
            try:
                result = handle.get()
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                result = TaskFailure(task, exc)
            if ship_telemetry and isinstance(result, _ShippedResult):
                parent_collector.merge(result.telemetry)
                result = result.result
            yield result
    finally:
        if own_executor:
            executor.shutdown()


def map_retry(fn: Callable[[Any], Any],
              tasks: Iterable[Any],
              *,
              jobs: int = 1,
              executor=None) -> Iterator[Any]:
    """:func:`map_ordered` for fan-outs whose tasks must all succeed.

    A :class:`TaskFailure` slot is re-executed once in the parent
    process instead of being yielded: transient pool faults (lost
    worker, flaky resource) heal invisibly, and a deterministic error
    surfaces with its natural traceback at the same loop position a
    serial run would raise it.

    Used by the GA fitness fan-out, where — unlike the per-seed loops —
    there is no quarantine slot to degrade into.
    """
    for result in map_ordered(fn, tasks, jobs=jobs, executor=executor):
        if isinstance(result, TaskFailure):
            result = fn(result.task)
        yield result
