"""Serving benchmark: the dispatch loop and multi-worker scale-out.

Two measurements, reported separately because they isolate different
layers (the pSTL-Bench discipline: publish the scaling curve per layer,
don't launder one layer's overhead through another's speedup):

* **dispatch_loop** — the component under test.  Closed-loop concurrent
  clients drive :meth:`AdvisorService.handle_payload` directly (no
  sockets) at several concurrencies, taking the median of several
  rounds.  Requests that queue behind busy workers are answered in
  batched passes; ``mean_batch`` is the mean of the service's own
  ``serve.batch_size`` histogram.
* **end_to_end_tcp** — the full ``repro serve`` process (fleet mode
  included) driven over real sockets by persistent NDJSON clients, for
  each ``--workers`` value.  Includes per-request TCP/JSON framing —
  the honest deployment numbers.  ``mean_batch`` comes from the
  server's telemetry artifact.

Every answer in both measurements is compared byte-for-byte against a
locally computed reference report; a cell that got faster by answering
wrong fails the run.  The benchmark trace spans every model group
(:func:`repro.serve.testing.make_mixed_trace` — a handful of hot
containers across kinds, the shape real Brainy traces have), because
the per-group forward-pass overhead is precisely what a batched pass
amortizes.  ``cpu_count`` is recorded: multi-process scaling cannot
beat the physical core budget (see ``docs/serving.md``).

Writes ``BENCH_serve.json`` at the repo root (see ``--out``)::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.advisor import BrainyAdvisor  # noqa: E402
from repro.obs import load_telemetry  # noqa: E402
from repro.serve.loop import AdvisorService  # noqa: E402
from repro.serve.testing import (  # noqa: E402
    advise_payload,
    make_mixed_trace,
    save_tiny_suite,
    tiny_suite,
)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _stats(latencies: list[list[float]], wall: float) -> dict:
    flat = sorted(lat for per in latencies for lat in per)
    return {
        "requests": len(flat),
        "wall_seconds": round(wall, 4),
        "req_per_s": round(len(flat) / wall, 1) if wall else 0.0,
        "p50_ms": round(_percentile(flat, 0.50) * 1000.0, 3),
        "p99_ms": round(_percentile(flat, 0.99) * 1000.0, 3),
    }


# ---------------------------------------------------------------------------
# Part one: the dispatch loop in isolation (no sockets).
# ---------------------------------------------------------------------------

def _mean_batch(histograms: dict) -> float | None:
    hist = histograms.get("serve.batch_size", {})
    return (round(hist["total"] / hist["count"], 1)
            if hist.get("count") else None)


def _loop_run(suite, payload, expected: str, *, concurrency: int,
              per_client: int) -> dict:
    service = AdvisorService(suite=suite, workers=2)
    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    bad = [0] * concurrency
    barrier = threading.Barrier(concurrency + 1)

    def client(index: int) -> None:
        for _ in range(3):  # warmup
            service.handle_payload(payload)
        barrier.wait()
        for _ in range(per_client):
            t0 = time.perf_counter()
            answer = service.handle_payload(payload)
            latencies[index].append(time.perf_counter() - t0)
            if (answer.get("status") != "ok"
                    or json.dumps(answer["report"], sort_keys=True)
                    != expected):
                bad[index] += 1

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(concurrency)]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    service.drain()
    result = _stats(latencies, wall)
    result["bad_answers"] = sum(bad)
    result["mean_batch"] = _mean_batch(
        service.metrics.snapshot()["histograms"])
    return result


def bench_dispatch_loop(*, concurrencies: list[int], rounds: int,
                        per_client: int) -> dict:
    trace = make_mixed_trace(1, seed=42)
    suite = tiny_suite()
    expected = json.dumps(
        BrainyAdvisor(suite).advise_trace(trace).to_payload(),
        sort_keys=True)
    payload = advise_payload(trace, request_id="bench")

    sections = []
    for concurrency in concurrencies:
        runs = [_loop_run(suite, payload, expected,
                          concurrency=concurrency, per_client=per_client)
                for _ in range(rounds)]
        sections.append({
            "concurrency": concurrency,
            "rounds": rounds,
            "req_per_s": statistics.median(
                run["req_per_s"] for run in runs),
            "mean_batch": statistics.median(
                run["mean_batch"] for run in runs),
            "best": max(runs, key=lambda r: r["req_per_s"]),
            "bad_answers": sum(r["bad_answers"] for r in runs),
        })
    return {
        "workers": 2,
        "requests_per_client": per_client,
        "by_concurrency": sections,
    }


# ---------------------------------------------------------------------------
# Part two: the full server over TCP (fleet mode included).
# ---------------------------------------------------------------------------

def spawn_server(suite_dir: Path, *, workers: int, threads: int = 2,
                 telemetry: Path | None = None
                 ) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start ``repro serve`` and wait for its address announcement."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    command = [sys.executable, "-m", "repro.cli", "serve",
               "--suite-dir", str(suite_dir),
               "--workers", str(workers), "--threads", str(threads),
               "--port", "0"]
    if telemetry is not None:
        command += ["--telemetry", str(telemetry)]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before announcing")
        if line.startswith("serving on "):
            host, _, port = line[len("serving on "):].strip() \
                .rpartition(":")
            return proc, (host, int(port))
    proc.kill()
    raise RuntimeError("server never announced its address")


def stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:  # pragma: no cover - safety net
        proc.kill()
        proc.communicate()


def run_load(address: tuple[str, int], *, concurrency: int,
             per_client: int, request_line: bytes,
             expected_report: str) -> dict:
    """Closed-loop burst: persistent clients, next request the moment
    the previous answer lands."""
    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    bad = [0] * concurrency
    barrier = threading.Barrier(concurrency + 1)

    def client(index: int) -> None:
        with socket.create_connection(address, timeout=60.0) as conn:
            reader = conn.makefile("rb")
            conn.sendall(request_line)  # warmup, untimed
            reader.readline()
            barrier.wait()
            for _ in range(per_client):
                t0 = time.perf_counter()
                conn.sendall(request_line)
                answer = json.loads(reader.readline())
                latencies[index].append(time.perf_counter() - t0)
                if (answer.get("status") != "ok"
                        or json.dumps(answer["report"], sort_keys=True)
                        != expected_report):
                    bad[index] += 1

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(concurrency)]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    result = _stats(latencies, wall)
    result["bad_answers"] = sum(bad)
    return result


def bench_tcp_grid(suite_dir: Path, *, workers_list: list[int],
                   concurrency: int, per_client: int) -> dict:
    trace = make_mixed_trace(1, seed=42)
    expected = json.dumps(
        BrainyAdvisor(tiny_suite()).advise_trace(trace).to_payload(),
        sort_keys=True)
    request_line = (json.dumps(advise_payload(trace,
                                              request_id="bench"))
                    + "\n").encode()

    cells = []
    for workers in workers_list:
        telemetry = suite_dir.parent / f"serve-{workers}.telemetry.json"
        proc, address = spawn_server(suite_dir, workers=workers,
                                     telemetry=telemetry)
        try:
            result = run_load(address, concurrency=concurrency,
                              per_client=per_client,
                              request_line=request_line,
                              expected_report=expected)
        finally:
            stop_server(proc)
        result["mean_batch"] = _mean_batch(
            load_telemetry(telemetry)["metrics"]["histograms"])
        cells.append({"workers": workers, **result})
    single = cells[0]["req_per_s"] if cells else None
    for cell in cells:
        cell["speedup_vs_single"] = (
            round(cell["req_per_s"] / single, 2) if single else None)
    return {
        "concurrency": concurrency,
        "requests_per_client": per_client,
        "note": ("includes per-request TCP/JSON framing, identical in "
                 "every cell; see dispatch_loop for the loop alone"),
        "cells": cells,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid for CI smoke")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_serve.json")
    args = parser.parse_args(argv)

    if args.quick:
        loop_kwargs = dict(concurrencies=[8], rounds=3, per_client=30)
        tcp_kwargs = dict(workers_list=[1, 2], concurrency=8,
                          per_client=15)
    else:
        loop_kwargs = dict(concurrencies=[8, 16, 32], rounds=7,
                           per_client=60)
        tcp_kwargs = dict(workers_list=[1, 2], concurrency=8,
                          per_client=50)

    dispatch_loop = bench_dispatch_loop(**loop_kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        suite_dir = Path(tmp) / "suite"
        save_tiny_suite(suite_dir)
        tcp_grid = bench_tcp_grid(suite_dir, **tcp_kwargs)

    bad = (sum(s["bad_answers"]
               for s in dispatch_loop["by_concurrency"])
           + sum(c["bad_answers"] for c in tcp_grid["cells"]))
    payload = {
        "benchmark": "serve-loop",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "trace_records": len(make_mixed_trace(1).records),
        "reports_identical": bad == 0,
        "dispatch_loop": dispatch_loop,
        "end_to_end_tcp": tcp_grid,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if bad:
        print("FAIL: some answers were wrong or errored",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
