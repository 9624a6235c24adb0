"""The parallel training engine: ordered fan-out, determinism, faults.

The acceptance bar for the parallel runtime: a Phase-I/II run with any
``jobs`` value produces artifacts byte-identical to a serial run —
including under injected quarantines, worker crashes, and an interrupt
resumed mid-fan-out — and two parallel runs agree checksum-for-checksum
regardless of ``PYTHONHASHSEED``.
"""

import hashlib
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.appgen.config import GeneratorConfig
from repro.containers.registry import MODEL_GROUPS
from repro.machine.configs import CORE2
from repro.runtime.checkpoint import TrainingInterrupted
import repro.obs as obs
import repro.training.phase1 as phase1_mod
from repro.runtime.faults import CATEGORY_DETERMINISTIC, CATEGORY_TRANSIENT
from repro.runtime.inject import FaultInjector, FaultPlan
from repro.runtime.options import RunOptions
from repro.runtime.parallel import (
    SerialExecutor,
    TaskFailure,
    map_ordered,
    resolve_jobs,
    usable_jobs,
)
from repro.training.phase1 import run_phase1
from tests.test_phase1_race import FlakyExecutor

GROUP = MODEL_GROUPS["set"]
CONFIG = GeneratorConfig.small()


def phase1_kwargs(**extra):
    kwargs = dict(per_class_target=3, max_seeds=40)
    kwargs.update(extra)
    return kwargs


# Module-level so a worker pool can pickle them by reference.
def _square(x):
    return x * x


def _crash_on_seven(x):
    if x == 7:
        raise ValueError("crash")
    return x


def _crash_in_worker_on_three(x):
    """Fails only inside a pool worker: a fault of the pool, not the
    task."""
    if x == 3 and multiprocessing.current_process().name != "MainProcess":
        raise OSError(24, "Too many open files")
    return x * x


class CountingExecutor(SerialExecutor):
    """Records every submitted task (still lazy, still in-process)."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, args):
        self.submitted.append(args[0])
        return super().submit(fn, args)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(0)


class TestMapOrdered:
    def test_serial_preserves_order(self):
        assert list(map_ordered(_square, range(10))) \
            == [x * x for x in range(10)]

    def test_pool_preserves_order(self):
        results = list(map_ordered(_square, range(25), jobs=2))
        assert results == [x * x for x in range(25)]

    def test_failure_lands_in_its_slot(self):
        results = list(map_ordered(_crash_on_seven, range(10)))
        assert [r for i, r in enumerate(results) if i != 7] \
            == [x for x in range(10) if x != 7]
        failure = results[7]
        assert isinstance(failure, TaskFailure)
        assert failure.task == 7
        assert isinstance(failure.error, ValueError)

    def test_pool_failure_lands_in_its_slot(self):
        results = list(map_ordered(_crash_on_seven, range(10), jobs=2))
        assert isinstance(results[7], TaskFailure)
        assert results[7].task == 7

    def test_zero_window_rejected(self):
        """A window of 0 would submit nothing and end the stream empty."""
        with pytest.raises(ValueError, match="window"):
            list(map_ordered(_square, range(3), window=0))

    def test_window_bounds_speculation(self):
        executor = CountingExecutor()
        stream = map_ordered(_square, range(100), window=5,
                             executor=executor)
        assert next(stream) == 0
        # Exactly the window was submitted ahead of the first result.
        assert executor.submitted == list(range(5))
        stream.close()
        assert executor.submitted == list(range(5))

    def test_serial_executor_is_lazy(self):
        evaluated = []

        def tracking(x):
            evaluated.append(x)
            return x

        stream = map_ordered(tracking, range(100), window=5)
        assert next(stream) == 0
        # Submission is not evaluation: early stop must not pay for
        # speculative tasks.
        assert evaluated == [0]
        stream.close()
        assert evaluated == [0]


class TestMapRetry:
    """map_ordered runs a failed task once more in the calling process,
    for any executor, and yields a TaskFailure only when that retry
    fails too."""

    def test_passthrough_without_failures(self):
        collector = obs.Collector()
        with obs.use_collector(collector):
            assert list(map_ordered(_square, range(10), jobs=2)) \
                == [x * x for x in range(10)]
        assert collector.metrics.counter_value("parallel.retries") == 0

    def test_failed_slot_retried_in_parent(self):
        calls = []

        def flaky_once(x):
            calls.append(x)
            if x == 7 and calls.count(7) == 1:
                raise ValueError("first attempt fails")
            return x * x

        collector = obs.Collector()
        with obs.use_collector(collector):
            assert list(map_ordered(flaky_once, range(10))) \
                == [x * x for x in range(10)]
        assert calls.count(7) == 2
        assert collector.metrics.counter_value("parallel.retries") == 1

    def test_pool_failure_heals_in_parent(self):
        """A task that fails only on its pool worker leaves no trace
        but the parent collector's retry count."""
        collector = obs.Collector()
        with obs.use_collector(collector):
            results = list(map_ordered(_crash_in_worker_on_three,
                                       range(6), jobs=2))
        assert results == [x * x for x in range(6)]
        assert collector.metrics.counter_value("parallel.retries") == 1

    def test_deterministic_failure_propagates(self):
        """A persistent failure yields its TaskFailure after exactly
        two calls, and the stream goes on."""
        calls = []

        def broken_seven(x):
            calls.append(x)
            return _crash_on_seven(x)

        results = list(map_ordered(broken_seven, range(10)))
        assert calls.count(7) == 2
        assert isinstance(results[7], TaskFailure)
        assert str(results[7].error) == "crash"
        assert results[8:] == [8, 9]

    def test_interrupt_during_retry_propagates(self):
        def interrupted_retry(x):
            raise KeyboardInterrupt

        stream = map_ordered(
            interrupted_retry, range(3),
            executor=FlakyExecutor({0}, OSError("lost worker")))
        with pytest.raises(KeyboardInterrupt):
            next(stream)


class TestUsableJobs:
    def test_picklable_worker_keeps_jobs(self):
        assert usable_jobs(_square, 4, "worker") == 4

    def test_closure_degrades_to_serial(self):
        captured = []

        def closure(x):  # closes over a local: not picklable
            return captured

        with pytest.warns(RuntimeWarning, match="running serially"):
            assert usable_jobs(closure, 4, "worker") == 1


class TestWorkerCrashRecovery:
    """A Phase I seed whose executor slot fails is retried in the
    parent whatever the error; a seed that fails on the retry too is
    quarantined at stage ``worker`` with ``attempts=2``."""

    KWARGS = dict(per_class_target=1, max_seeds=4)

    @staticmethod
    def saved(result, path):
        result.save(path)
        return path.read_bytes()

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        return self.saved(run_phase1(GROUP, CONFIG, CORE2, **self.KWARGS),
                          tmp_path_factory.mktemp("clean") / "p1.json")

    @staticmethod
    def breaking_seed(monkeypatch, seed, error):
        """Make the seed worker raise ``error`` on every call for
        ``seed``; returns the list of seeds it was called with."""
        calls = []
        evaluate = phase1_mod.evaluate_seed

        def broken(task, **kwargs):
            calls.append(task)
            if task == seed:
                raise error
            return evaluate(task, **kwargs)

        monkeypatch.setattr(phase1_mod, "evaluate_seed", broken)
        return calls

    def test_deterministic_crash_quarantined(self, monkeypatch):
        calls = self.breaking_seed(monkeypatch, 1, ValueError("bad state"))
        result = run_phase1(GROUP, CONFIG, CORE2, **self.KWARGS)
        assert calls.count(1) == 2
        [record] = result.quarantined
        assert record.seed == 1
        assert record.stage == "worker"
        assert record.category == CATEGORY_DETERMINISTIC
        assert record.error == "ValueError: bad state"
        assert record.attempts == 2

    def test_any_crash_retried_in_parent(self, clean, tmp_path):
        """A plain ``OSError`` (``EMFILE``) classifies deterministic,
        and is retried all the same."""
        result = run_phase1(
            GROUP, CONFIG, CORE2,
            executor=FlakyExecutor(
                {0}, OSError(24, "Too many open files")),
            **self.KWARGS)
        assert result.quarantined == []
        assert self.saved(result, tmp_path / "p1.json") == clean

    def test_transient_crash_retried_in_parent(self, clean, tmp_path):
        result = run_phase1(
            GROUP, CONFIG, CORE2,
            executor=FlakyExecutor({1}, ConnectionError("lost worker")),
            **self.KWARGS)
        assert result.quarantined == []
        assert self.saved(result, tmp_path / "p1.json") == clean

    def test_transient_crash_retry_fails_then_quarantines(self,
                                                          monkeypatch):
        self.breaking_seed(monkeypatch, 0, TimeoutError("still slow"))
        result = run_phase1(GROUP, CONFIG, CORE2, **self.KWARGS)
        [record] = result.quarantined
        assert record.category == CATEGORY_TRANSIENT
        assert record.attempts == 2


class TestParallelSerialEquivalence:
    """The core invariant: artifacts are byte-identical for any jobs."""

    @pytest.fixture(scope="class")
    def serial_phase1(self):
        return run_phase1(GROUP, CONFIG, CORE2, **phase1_kwargs())

    def test_phase1_jobs4_matches_serial(self, serial_phase1, tmp_path):
        parallel = run_phase1(GROUP, CONFIG, CORE2,
                              **phase1_kwargs(options=RunOptions(jobs=4)))
        serial_phase1.save(tmp_path / "serial.json")
        parallel.save(tmp_path / "parallel.json")
        assert (tmp_path / "serial.json").read_bytes() \
            == (tmp_path / "parallel.json").read_bytes()

    def test_quarantined_seed_matches_serial(self, tmp_path):
        """Injected deterministic faults under fan-out land in the same
        quarantine slots a serial run produces."""
        plan = FaultPlan(rng_seed=2, p_deterministic_generate=0.3)
        serial = run_phase1(
            GROUP, CONFIG, CORE2,
            generate_fn=FaultInjector(plan).wrap_generate(),
            **phase1_kwargs(),
        )
        assert serial.quarantined
        # Injector closures are stateful, so the fan-out variant runs on
        # an in-process executor: same merge loop, same window logic.
        fanned = run_phase1(
            GROUP, CONFIG, CORE2,
            generate_fn=FaultInjector(plan).wrap_generate(),
            executor=SerialExecutor(),
            **phase1_kwargs(options=RunOptions(jobs=4)),
        )
        serial.save(tmp_path / "serial.json")
        fanned.save(tmp_path / "fanned.json")
        assert (tmp_path / "serial.json").read_bytes() \
            == (tmp_path / "fanned.json").read_bytes()

    def test_interrupt_and_resume_mid_fanout(self, serial_phase1,
                                             tmp_path):
        """Ctrl-C during a fanned-out run checkpoints the merged prefix;
        resume completes to a byte-identical artifact."""
        victim = serial_phase1.records[
            len(serial_phase1.records) // 2].seed
        ckpt = tmp_path / "phase1.ckpt.json"
        injector = FaultInjector(
            FaultPlan(interrupt_at_seeds=frozenset({victim}))
        )
        with pytest.raises(TrainingInterrupted):
            run_phase1(GROUP, CONFIG, CORE2,
                       **phase1_kwargs(
                           checkpoint_path=ckpt,
                           generate_fn=injector.wrap_generate(),
                           executor=SerialExecutor(),
                           options=RunOptions(jobs=4),
                       ))
        assert ckpt.exists()
        resumed = run_phase1(GROUP, CONFIG, CORE2,
                             **phase1_kwargs(resume_from=ckpt,
                                             options=RunOptions(jobs=2)))
        serial_phase1.save(tmp_path / "serial.json")
        resumed.save(tmp_path / "resumed.json")
        assert (tmp_path / "serial.json").read_bytes() \
            == (tmp_path / "resumed.json").read_bytes()

    def test_unpicklable_seam_degrades_with_warning(self):
        """A stateful injected seam can't cross process boundaries: the
        run warns and falls back to in-process, same results."""
        injector = FaultInjector(FaultPlan())
        with pytest.warns(RuntimeWarning, match="running serially"):
            result = run_phase1(
                GROUP, CONFIG, CORE2,
                generate_fn=injector.wrap_generate(),
                **phase1_kwargs(options=RunOptions(jobs=4)),
            )
        assert len(result) > 0


_HASHSEED_SCRIPT = """
import sys
from repro.appgen.config import GeneratorConfig
from repro.containers.registry import MODEL_GROUPS
from repro.machine.configs import CORE2
from repro.runtime.options import RunOptions
from repro.training.phase1 import run_phase1

result = run_phase1(MODEL_GROUPS["set"], GeneratorConfig.small(), CORE2,
                    per_class_target=2, max_seeds=16,
                    options=RunOptions(jobs=4))
result.save(sys.argv[1])
"""


class TestHashSeedIndependence:
    def test_two_jobs4_runs_have_identical_checksums(self, tmp_path):
        """Two ``--jobs 4`` runs under different ``PYTHONHASHSEED``
        values produce bit-identical artifacts."""
        digests = []
        for hashseed in ("1", "2"):
            out = tmp_path / f"phase1-{hashseed}.json"
            env = dict(os.environ,
                       PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT, str(out)],
                check=True, env=env, timeout=600,
            )
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
