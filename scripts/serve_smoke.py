#!/usr/bin/env python
"""CI smoke test for the serving runtime.

Trains a tiny suite, starts ``repro serve`` against it as a real
subprocess, then exercises the serving guarantees end to end:

* concurrent advise requests, all answered with structured statuses;
* a multi-client burst — persistent connections all firing at once,
  so requests queue up and are answered in batched passes, every
  answer compared byte-for-byte against a locally computed reference
  report (this is the stage that catches dispatch-ordering and batch
  fan-out regressions);
* one request with a hopeless (1 ms) deadline — must come back as a
  structured response (``degraded`` baseline or ``ok``), never hang;
* a hot reload mid-traffic (rewrite the suite, trigger the reload op,
  advise across the swap) plus a *corrupt* reload that must be rejected
  while the last-known-good suite keeps serving;
* SIGTERM — graceful drain, exit 0, telemetry artifact on disk.

With ``--workers N`` (N > 1) it smokes the multi-process fleet
instead: the burst lands on one shared port, health identifies the
answering worker, SIGTERM drains every worker, and the exported
telemetry is the merged per-worker view.

With ``--registry`` it exercises the registry serving mode instead:
register → serve → shadow a new candidate off live traffic → gated
auto-promotion → operator rollback, all against a live ``repro serve
--registry`` process that never fails a request.

Exits non-zero (with a diagnostic) on the first violated expectation.
Run from the repo root: ``PYTHONPATH=src python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.advisor import BrainyAdvisor  # noqa: E402
from repro.registry.store import RegistryKey, SuiteRegistry  # noqa: E402
from repro.runtime.inject import corrupt_artifact  # noqa: E402
from repro.serve.protocol import encode  # noqa: E402
from repro.serve.testing import (  # noqa: E402
    advise_payload,
    make_mixed_trace,
    make_trace,
    tiny_suite,
)


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"serve-smoke: ok: {message}")


def request(host: str, port: int, payload: dict,
            timeout: float = 30.0) -> dict:
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(encode(payload))
        line = conn.makefile("rb").readline()
    if not line:
        fail("server closed the connection without answering")
    return json.loads(line)


def read_address(proc: subprocess.Popen, timeout: float = 60.0
                 ) -> tuple[str, int]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("serving on "):
            host, _, port = line.strip().rpartition(":")
            return host.removeprefix("serving on "), int(port)
        if not line and proc.poll() is not None:
            break
    fail("server never announced its address")
    raise AssertionError  # unreachable


def burst(host: str, port: int, *, clients: int = 8,
          per_client: int = 20) -> None:
    """Persistent multi-client burst: more clients than worker threads.

    Every client holds one connection and fires requests back to back,
    so the server sees genuinely overlapping arrivals — requests queue
    behind busy workers, and a freed worker answers them in one batched
    pass and fans the reports back out.  Every
    ``ok`` answer must match the locally computed report byte for byte;
    a batching bug that crosses wires between requests fails here.
    """
    trace = make_mixed_trace(1, seed=7)
    expected = json.dumps(
        BrainyAdvisor(tiny_suite()).advise_trace(trace).to_payload(),
        sort_keys=True)
    line = encode(advise_payload(trace, request_id="burst"))
    barrier = threading.Barrier(clients)
    failures: list[str] = []

    def client(index: int) -> None:
        try:
            with socket.create_connection((host, port),
                                          timeout=60.0) as conn:
                reader = conn.makefile("rb")
                barrier.wait()
                for seq in range(per_client):
                    conn.sendall(line)
                    answer = json.loads(reader.readline())
                    if answer.get("status") != "ok":
                        failures.append(
                            f"client {index} req {seq}: status "
                            f"{answer.get('status')}")
                        return
                    got = json.dumps(answer["report"], sort_keys=True)
                    if got != expected:
                        failures.append(
                            f"client {index} req {seq}: report "
                            "differs from local advisor")
                        return
        except Exception as exc:  # noqa: BLE001 - report, don't hang
            failures.append(f"client {index}: {exc!r}")

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    check(not failures,
          f"burst: {clients} clients x {per_client} requests, every "
          "answer ok and byte-identical"
          + (f" ({failures[0]})" if failures else ""))


def registry_mode() -> int:
    """register → shadow → auto-promote → rollback, live server."""
    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-reg-"))
    root = tmp / "registry"
    key = RegistryKey("core2", "5m0ke5m0ke50")

    print("serve-smoke: seeding registry with v1 ...")
    registry = SuiteRegistry(root)
    registry.register(tiny_suite(0), key, validation={"green": True})
    registry.promote(key)

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--registry", str(root), "--port", "0",
         "--poll-interval", "0.1", "--shadow-min-samples", "3",
         "--shadow-min-agreement", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env,
    )
    try:
        host, port = read_address(proc)
        print(f"serve-smoke: registry server up on {host}:{port}")

        health = request(host, port, {"op": "health"})["detail"]
        check(health["suite_version"] == 1
              and health["suite_fingerprint"].startswith("sha256:"),
              "health names live version and fingerprint")

        first = request(host, port,
                        advise_payload(make_trace(3), request_id="r0"))
        check(first["status"] in ("ok", "degraded"),
              f"advise against v1 answered ({first['status']})")

        # Same weights → full shadow agreement; live traffic alone
        # must carry the candidate through the gates.
        registry.register(tiny_suite(0), key,
                          validation={"green": True})
        deadline = time.monotonic() + 60.0
        version = 1
        while time.monotonic() < deadline and version != 2:
            response = request(host, port, advise_payload(
                make_trace(3), request_id="shadow"))
            if response["status"] not in ("ok", "degraded"):
                fail(f"live answer failed during shadowing: {response}")
            version = request(host, port,
                              {"op": "health"})["detail"]["suite_version"]
            time.sleep(0.1)
        check(version == 2, "candidate auto-promoted off live traffic")

        rolled = request(host, port, {"op": "rollback",
                                      "reason": "smoke"})
        check(rolled["status"] == "ok"
              and rolled["detail"]["version"] == 1,
              "operator rollback op restored v1")
        after = request(host, port,
                        advise_payload(make_trace(3), request_id="r1"))
        check(after["status"] in ("ok", "degraded"),
              "still answering after rollback")

        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60.0)
        check(proc.returncode == 0,
              f"SIGTERM drained cleanly (exit {proc.returncode})"
              + ("" if proc.returncode == 0 else f"; stderr: {err}"))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    print("serve-smoke: PASS (registry mode)")
    return 0


def kill_and_await_respawn(host: str, port: int) -> None:
    """SIGKILL one worker and wait for its self-healed replacement.

    The supervisor must respawn the slot within the backoff window;
    health then reports the replacement's pid and restart count.
    """
    victim = request(host, port, {"op": "health"})["detail"]["worker"]
    check(victim.get("restarts") == 0,
          f"health reports restart count ({victim})")
    print(f"serve-smoke: killing worker {victim['id']} "
          f"(pid {victim['pid']}) ...")
    os.kill(victim["pid"], signal.SIGKILL)

    deadline = time.monotonic() + 120.0
    respawned = None
    while respawned is None and time.monotonic() < deadline:
        try:
            worker = request(host, port, {"op": "health"},
                             timeout=10.0)["detail"]["worker"]
        except (OSError, ValueError, SystemExit):
            time.sleep(0.2)  # mid-respawn: retry the probe
            continue
        if worker["id"] == victim["id"] and worker["restarts"] >= 1:
            respawned = worker
        else:
            time.sleep(0.2)
    check(respawned is not None
          and respawned["pid"] != victim["pid"],
          f"killed worker respawned with a new pid ({respawned})")


def fleet_mode(workers: int, *, kill_worker: bool = False) -> int:
    """Multi-process fleet: one port, merged telemetry, clean drain.

    With ``kill_worker`` one worker is SIGKILLed mid-serve; the
    self-healing supervisor must respawn it within the backoff window,
    the healed fleet must keep answering byte-identically, and the
    drain must still exit 0.
    """
    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-fleet-"))
    suite_dir = tmp / "suite"
    telemetry = tmp / "serve.telemetry.json"

    print("serve-smoke: training tiny suite ...")
    tiny_suite().save(suite_dir)

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               PYTHONUNBUFFERED="1")
    command = [sys.executable, "-m", "repro.cli", "serve",
               "--suite-dir", str(suite_dir), "--port", "0",
               "--workers", str(workers), "--threads", "2",
               "--deadline", "30",
               "--telemetry", str(telemetry)]
    if kill_worker:
        command += ["--max-restarts", "2", "--restart-backoff", "0.1"]
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env,
    )
    try:
        host, port = read_address(proc, timeout=180.0)
        print(f"serve-smoke: fleet up on {host}:{port}")

        health = request(host, port, {"op": "health"})["detail"]
        worker = health.get("worker", {})
        check("id" in worker and "pid" in worker,
              f"health identifies the answering worker ({worker})")

        burst(host, port)

        if kill_worker:
            kill_and_await_respawn(host, port)
            # The healed fleet still answers byte-identically.
            burst(host, port)

        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120.0)
        check(proc.returncode == 0,
              f"SIGTERM drained the fleet cleanly "
              f"(exit {proc.returncode})"
              + ("" if proc.returncode == 0 else f"; stderr: {err}"))
        check("fleet drained cleanly" in out,
              "fleet drain reported on stdout")
        check(telemetry.exists(), "merged telemetry artifact exported")
        payload = json.loads(telemetry.read_text())["payload"]
        check(payload["meta"].get("fleet") is True
              and len(payload["meta"].get("workers", [])) == workers,
              "telemetry meta records the merged fleet view")
        if kill_worker:
            check("respawning worker" in out,
                  "supervisor announced the respawn")
            restarts = payload["meta"].get("restarts", {})
            check(sum(restarts.values()) >= 1,
                  f"telemetry meta records the restart ({restarts})")
            counters = payload["metrics"]["counters"]
            check(any(k.startswith("serve.worker_restarts")
                      for k in counters),
                  "serve.worker_restarts counted in merged telemetry")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    healed = ", one worker killed and healed" if kill_worker else ""
    print(f"serve-smoke: PASS (fleet mode, {workers} workers{healed})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--registry", action="store_true",
                        help="smoke the registry serving mode instead")
    parser.add_argument("--workers", type=int, default=1,
                        help="smoke the multi-process fleet with this "
                             "many workers (default: single process)")
    parser.add_argument("--kill-worker", action="store_true",
                        help="fleet mode: SIGKILL one worker mid-serve "
                             "and require a self-healed respawn")
    args = parser.parse_args()
    if args.kill_worker and args.workers < 2:
        parser.error("--kill-worker requires --workers >= 2")
    if args.registry:
        return registry_mode()
    if args.workers > 1:
        return fleet_mode(args.workers, kill_worker=args.kill_worker)

    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    suite_dir = tmp / "suite"
    telemetry = tmp / "serve.telemetry.json"

    print("serve-smoke: training tiny suite ...")
    tiny_suite().save(suite_dir)

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--suite-dir", str(suite_dir), "--port", "0",
         "--deadline", "30", "--poll-interval", "0.1",
         "--threads", "2",
         "--telemetry", str(telemetry)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env,
    )
    try:
        host, port = read_address(proc)
        print(f"serve-smoke: server up on {host}:{port}")

        health = request(host, port, {"op": "health"})["detail"]
        worker = health.get("worker", {})
        check("id" in worker and "pid" in worker,
              f"health identifies the answering worker ({worker})")

        # Persistent multi-client burst: queued requests batch up.
        burst(host, port)

        # Concurrent requests, one of them past-deadline; every answer
        # must be structured.
        payloads = [advise_payload(make_trace(seed=i),
                                   request_id=f"c{i}")
                    for i in range(6)]
        payloads.append(advise_payload(make_trace(),
                                       request_id="past-deadline",
                                       deadline_seconds=0.001))
        with ThreadPoolExecutor(max_workers=7) as pool:
            responses = list(pool.map(
                lambda p: request(host, port, p), payloads
            ))
        check(all(r["status"] in ("ok", "degraded", "overloaded")
                  for r in responses),
              "concurrent burst: every response structured "
              f"({[r['status'] for r in responses]})")
        tight = next(r for r in responses
                     if r.get("id") == "past-deadline")
        check(tight["status"] in ("ok", "degraded"),
              f"past-deadline request answered ({tight['status']}), "
              "not hung")

        # Hot reload mid-traffic: rewrite the suite and advise while
        # the reload lands.
        tiny_suite(seed=1).save(suite_dir)
        with ThreadPoolExecutor(max_workers=2) as pool:
            reload_future = pool.submit(request, host, port,
                                        {"op": "reload"})
            during = request(host, port, advise_payload(
                make_trace(), request_id="during-reload"))
            reloaded = reload_future.result()
        check(reloaded["status"] == "ok",
              "reload op answered structurally")
        check(during["status"] in ("ok", "degraded"),
              f"advise during hot reload answered ({during['status']})")

        # Corrupt reload: rejected, last-known-good keeps serving.
        corrupt_artifact(suite_dir / "vector_oo.json")
        rejected = request(host, port, {"op": "reload"})
        check(rejected["detail"]["reloaded"] is False
              and rejected["detail"]["stale"] is True,
              "corrupt suite version rejected (stale flag up)")
        still = request(host, port, advise_payload(make_trace()))
        check(still["status"] == "ok",
              "last-known-good suite still serving after corrupt "
              "reload")

        metrics = request(host, port, {"op": "metrics"})
        counters = metrics["detail"]["counters"]
        check(counters.get("serve.reload_rejected", 0) >= 1,
              "serve.reload_rejected counted")
        check(any(k.startswith("serve.requests")
                  for k in counters),
              "serve.requests counters exported")

        # Graceful drain on SIGTERM.
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60.0)
        check(proc.returncode == 0,
              f"SIGTERM drained cleanly (exit {proc.returncode})"
              + ("" if proc.returncode == 0 else f"; stderr: {err}"))
        check("drained cleanly" in out, "drain reported on stdout")
        check(telemetry.exists(), "telemetry artifact exported")
        payload = json.loads(telemetry.read_text())["payload"]
        check(payload["meta"]["command"] == "serve"
              and payload["meta"]["drained"] is True,
              "telemetry meta records the drained serve run")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    print("serve-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
