"""Multi-worker fleet tests: real processes on one shared port.

``repro serve --workers N`` forks N shared-nothing server processes
on one ``SO_REUSEPORT`` port, exercised end to end: concurrent clients
on the one announced port, byte-identity of every answer against a
local advisor, worker identity in health probes, SIGTERM draining every
worker, the merged per-worker telemetry artifact, and the respawn of a
killed worker.  A platform without ``SO_REUSEPORT`` refuses
``workers > 1`` before any process starts.
"""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.api as api
from repro.core.advisor import BrainyAdvisor
from repro.serve.fleet import _RestartTracker
from repro.serve.protocol import encode
from repro.serve.testing import (
    advise_payload,
    make_mixed_trace,
    tiny_suite,
)

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fleet-suite")
    tiny_suite().save(directory)
    return directory


def _spawn_fleet(suite_dir, telemetry, *, extra=()):
    env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--suite-dir", str(suite_dir), "--port", "0",
         "--workers", "2", "--threads", "2",
         "--telemetry", str(telemetry), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )


def _read_address(proc, timeout=180.0):
    """Returns (host, port, startup_lines) — the fleet announces its
    mode and per-worker readiness before the final address line."""
    startup = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("serving on "):
            host, _, port = line.strip().rpartition(":")
            return host.removeprefix("serving on "), int(port), startup
        startup.append(line)
        if not line and proc.poll() is not None:
            break
    raise AssertionError(
        f"fleet never announced its address; stderr:\n"
        f"{proc.stderr.read()}"
    )


def _request(host, port, payload, timeout=60.0):
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(encode(payload))
        return json.loads(conn.makefile("rb").readline())


def _drive_fleet(suite_dir, telemetry):
    """Spawn a 2-worker fleet, burst it, drain it; return stdout and
    the telemetry payload."""
    proc = _spawn_fleet(suite_dir, telemetry)
    try:
        host, port, startup = _read_address(proc)

        health = _request(host, port, {"op": "health"})["detail"]
        assert health["worker"].keys() >= {"id", "pid"}
        assert health["worker"]["id"] in (0, 1)

        # Concurrent burst on the shared port: every answer must be
        # byte-identical to the local advisor, whichever worker served.
        trace = make_mixed_trace(1, seed=3)
        expected = json.dumps(
            BrainyAdvisor(tiny_suite()).advise_trace(trace).to_payload(),
            sort_keys=True)
        line = encode(advise_payload(trace, request_id="fleet"))
        answers = [None] * 8
        barrier = threading.Barrier(8)

        def client(index):
            with socket.create_connection((host, port),
                                          timeout=60.0) as conn:
                reader = conn.makefile("rb")
                barrier.wait()
                got = []
                for _ in range(3):
                    conn.sendall(line)
                    got.append(json.loads(reader.readline()))
                answers[index] = got

        threads = [threading.Thread(target=client, args=(i,),
                                    daemon=True) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        for per_client in answers:
            assert per_client is not None
            for answer in per_client:
                assert answer["status"] == "ok"
                assert json.dumps(answer["report"],
                                  sort_keys=True) == expected

        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120.0)
        assert proc.returncode == 0, (out, err)
        return "".join(startup) + out, \
            json.loads(telemetry.read_text())["payload"]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


class TestFleet:
    def test_reuseport_fleet_end_to_end(self, suite_dir, tmp_path):
        if not hasattr(socket, "SO_REUSEPORT"):
            pytest.skip("SO_REUSEPORT unavailable on this platform")
        telemetry = tmp_path / "fleet.telemetry.json"
        out, payload = _drive_fleet(suite_dir, telemetry)
        assert "fleet of 2 workers (SO_REUSEPORT)" in out
        assert "fleet drained cleanly" in out
        meta = payload["meta"]
        assert meta["fleet"] is True and meta["workers"] == [0, 1]
        # Merged counters: 24 burst requests + the health probe landed
        # somewhere across the two workers and sum in the merged view.
        counters = payload["metrics"]["counters"]
        assert counters.get("serve.requests{status=ok}", 0) >= 24


class TestRestartTracker:
    """Pure respawn bookkeeping behind the self-healing supervise
    loop: exponential backoff, ceiling, crash-loop cap."""

    def test_backoff_doubles_until_the_cap_exhausts(self):
        tracker = _RestartTracker(3, 1.0)
        delays = []
        while (delay := tracker.delay(0)) is not None:
            delays.append(delay)
            tracker.note_restart(0)
        assert delays == [1.0, 2.0, 4.0]
        assert tracker.delay(0) is None
        assert tracker.restarts == {0: 3}

    def test_backoff_is_ceiled(self):
        tracker = _RestartTracker(10, 8.0, max_backoff_seconds=20.0)
        tracker.note_restart(1)
        tracker.note_restart(1)  # 8 * 2**2 = 32 -> ceiling
        assert tracker.delay(1) == 20.0

    def test_slots_are_independent(self):
        tracker = _RestartTracker(2, 0.5)
        tracker.note_restart(0)
        assert tracker.delay(0) == 1.0
        assert tracker.delay(1) == 0.5

    def test_zero_max_restarts_disables_self_healing(self):
        assert _RestartTracker(0, 1.0).delay(0) is None

    def test_invalid_knobs_are_rejected(self):
        with pytest.raises(ValueError, match="max_restarts"):
            _RestartTracker(-1, 1.0)
        with pytest.raises(ValueError, match="backoff"):
            _RestartTracker(3, 0.0)


class TestSelfHealingFleet:
    def test_killed_worker_is_respawned_and_answers_identically(
            self, suite_dir, tmp_path):
        """SIGKILL one worker mid-serve: the supervisor respawns it
        within the backoff window, the kernel balances connections
        onto it, health reports the restart count, answers stay
        byte-identical, and the drain still exits 0."""
        if not hasattr(socket, "SO_REUSEPORT"):
            pytest.skip("SO_REUSEPORT unavailable on this platform")
        telemetry = tmp_path / "heal.telemetry.json"
        proc = _spawn_fleet(
            suite_dir, telemetry,
            extra=("--max-restarts", "2", "--restart-backoff", "0.1"))
        try:
            host, port, _ = _read_address(proc)

            victim = _request(host, port,
                              {"op": "health"})["detail"]["worker"]
            assert victim["restarts"] == 0
            os.kill(victim["pid"], signal.SIGKILL)

            respawned = None
            deadline = time.monotonic() + 120.0
            while respawned is None and time.monotonic() < deadline:
                try:
                    worker = _request(
                        host, port, {"op": "health"},
                        timeout=10.0)["detail"]["worker"]
                except (OSError, ValueError):
                    time.sleep(0.2)  # mid-respawn: retry the probe
                    continue
                if worker["id"] == victim["id"]:
                    if worker["restarts"] >= 1:
                        respawned = worker
                    else:
                        time.sleep(0.2)
            assert respawned is not None, \
                "killed worker never came back"
            assert respawned["pid"] != victim["pid"]
            assert respawned["restarts"] == 1

            # The healed fleet still answers byte-identically.
            trace = make_mixed_trace(1, seed=3)
            expected = json.dumps(
                BrainyAdvisor(tiny_suite()).advise_trace(
                    trace).to_payload(), sort_keys=True)
            for _ in range(4):  # the kernel spreads these across workers
                answer = _request(host, port,
                                  advise_payload(trace,
                                                 request_id="heal"))
                assert answer["status"] == "ok"
                assert json.dumps(answer["report"],
                                  sort_keys=True) == expected

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=120.0)
            assert proc.returncode == 0, (out, err)
            assert f"respawning worker {victim['id']} in" in out
            assert "restart 1/2" in out
            assert "fleet drained cleanly" in out

            payload = json.loads(telemetry.read_text())["payload"]
            meta = payload["meta"]
            assert meta["workers"] == [0, 1]
            assert meta["restarts"] == {str(victim["id"]): 1}
            counters = payload["metrics"]["counters"]
            key = f"serve.worker_restarts{{worker={victim['id']}}}"
            assert counters.get(key) == 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestNoReusePort:
    def test_multi_worker_serve_is_refused_before_spawning(
            self, suite_dir, monkeypatch):
        """Without SO_REUSEPORT, ``workers > 1`` is a usage error
        (CLI exit 2) raised before any worker process starts."""
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        spawned = []
        monkeypatch.setattr(multiprocessing.context.SpawnProcess,
                            "start", lambda self: spawned.append(self))
        with pytest.raises(api.UsageError, match="SO_REUSEPORT"):
            api.serve(suite_dir=suite_dir, workers=2)
        assert spawned == []
