"""End-to-end benchmark of train / advise / darwin / serve.

    python3 benchmarks/e2e/run.py --workload NAME [--seed N]
        [--seconds S] [--trace 0|1] [--quick] [--out PATH]

Runs one workload (see ``README.md`` beside this file) from this
checkout's sources, checks every output against its oracle, and prints
one JSON line last: ``correct``, ``attempted``, ``failed`` and the
metrics ``BENCHMARK.json`` lists — the end-to-end ones with ``--trace
0``, the per-layer ones with ``--trace 1``.  The full record of the run
goes to ``--out`` (default ``.bench_build/e2e/runs/``), and a traced
run's spans beside it (``.spans.jsonl``).  Exits 1 when any output was
wrong, 2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import measure
from loadgen import ClosedLoop
from spans import load_spans, outermost, totals

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"

SERVE = "serve-tcp"
#: Set-up probes per run; ``setup_s`` is their median.
COLD_STARTS = 9
SERVE_WARMUP_S = 2.0
#: Serve load runs in windows this long, a calibration between each.
SERVE_WINDOW_S = 1.0
READY_TIMEOUT_S = 120.0


class Child:
    """A subprocess whose stdout announces readiness with one line.

    Used as a context manager: leaving the block kills and reaps the
    process unless it was already reaped.
    """

    def __init__(self, argv: list[str], env: dict, log: Path) -> None:
        self.log = open(log, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                     stdout=subprocess.PIPE,
                                     stderr=self.log)

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.reap(30.0)

    def wait_line(self, prefix: bytes,
                  timeout: float = READY_TIMEOUT_S) -> bytes:
        """Block until stdout prints a line starting with ``prefix``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith(prefix):
                return line
        raise RuntimeError(f"child never printed {prefix!r}; see {self.log.name}")

    def reap(self, timeout: float) -> tuple[int, float]:
        """Wait for exit (killing it after ``timeout``); returns the
        exit code and the child's peak RSS in MB."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    def stop(self, timeout: float = 30.0) -> tuple[int, float]:
        self.proc.send_signal(signal.SIGTERM)
        return self.reap(timeout)


def child_env(cache: Path) -> dict:
    """The environment without any ``REPRO_*`` override, so the
    program runs its defaults; the cache is the run's own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache)
    return env


def ensure_suite(workloads) -> Path:
    """The trained ``mini`` suite, checked against its pinned digests;
    trained once per checkout when missing or different."""
    cache = BUILD / "suite-cache"
    path = workloads.suite_dir(cache)
    if workloads.suite_problems(path):
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
        with Child([sys.executable, str(E2E_DIR / "workloads.py"),
                    "--workload", "train-mini", "--prepare",
                    "--workdir", str(cache)],
                   child_env(cache), BUILD / "prepare.log") as child:
            child.reap(600.0)
        problems = workloads.suite_problems(path)
        if problems:
            raise RuntimeError("; ".join(problems))
    return path


# ---------------------------------------------------------------------------
# train / advise / darwin: the workload process.
# ---------------------------------------------------------------------------

def run_process_workload(args, workdir: Path) -> dict:
    argv = [sys.executable, str(E2E_DIR / "workloads.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)]
    if args.quick:
        argv.append("--quick")
    env = child_env(workdir / "cache")
    # Each set-up probe is rescaled by the calibrations on either side.
    setups = []
    for _ in range(0 if args.trace else args.cold_starts):
        before = measure.calibration()
        with Child(argv + ["--ready-only"], env,
                   workdir / "probe.log") as child:
            child.wait_line(b"ready")
            setup = time.perf_counter() - child.started
            child.reap(60.0)
        setups.append(measure.at_reference(
            setup, (before + measure.calibration()) / 2.0))
    with Child(argv, env, workdir / "workload.log") as child:
        out = child.wait_line(b'{"attempted"', args.seconds + 120.0)
        code, peak_rss_mb = child.reap(30.0)
    if code != 0:
        raise RuntimeError(f"workload process exited {code}; see "
                           f"{workdir / 'workload.log'}")
    result = json.loads(out)
    run = {"attempted": result["attempted"], "failed": result["failed"],
           "errors": result["errors"], "extras": {
               "ops": len(result["op_times"]),
               "op_times": result["op_times"], **result["quality"]}}
    if args.trace:
        run["metrics"] = result["layers"]
        run["layers_abs"] = result["layers_abs"]
    else:
        run["metrics"] = {"setup_s": measure.median(setups),
                          "op_s": measure.median(measure.calibrated(
                              result["op_times"], result["calibrations"])),
                          "peak_rss_mb": peak_rss_mb}
        run["extras"].update(setups=setups,
                             wall_s=measure.median(result["op_times"]),
                             calibrations=result["calibrations"])
    return run


# ---------------------------------------------------------------------------
# serve: the server process and the closed-loop client.
# ---------------------------------------------------------------------------

def serve_argv(suite: Path, traced_spans: Path | None) -> list[str]:
    cli = ["serve", "--suite-dir", str(suite), "--workers", "1",
           "--threads", "2", "--port", "0"]
    if traced_spans is None:
        return [sys.executable, "-m", "repro.cli", *cli]
    return [sys.executable, str(E2E_DIR / "traced_server.py"),
            str(traced_spans), *cli]


def server_ready(child: Child, first: tuple[bytes, bytes]
                 ) -> tuple[tuple[str, int], float, bool]:
    """Wait for ``serving on`` and byte-check one answer; returns the
    address, the set-up time and whether the first answer was right."""
    line = child.wait_line(b"serving on ").decode().strip()
    host, _, port = line[len("serving on "):].rpartition(":")
    address = (host, int(port))
    request, expected = first
    with socket.create_connection(address, timeout=30.0) as conn:
        conn.sendall(request)
        answer = conn.makefile("rb").readline()
    return address, time.perf_counter() - child.started, answer == expected


@dataclass
class ServeLoad:
    """One server's closed-loop load, in calibrated windows."""

    windows: list = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0

    @property
    def latencies(self) -> list[float]:
        return [t for w in self.windows for t in w.latencies]

    @property
    def window_calibrations(self) -> list[float]:
        """The mean of the calibrations just before and after each
        window."""
        c = self.calibrations
        return [(before + after) / 2.0 for before, after in zip(c, c[1:])]

    def at_reference(self) -> list[list[float]]:
        """Each window's latencies at the reference host's speed."""
        return [[measure.at_reference(t, cal) for t in w.latencies]
                for w, cal in zip(self.windows, self.window_calibrations)]


def serve_metrics(load: ServeLoad) -> dict:
    """A load's calibrated metrics: ``op_s``, the median over windows of
    each window's median latency; ``rps``, the median over windows of
    correct answers per reference-host second; ``p99_ms``, the
    :func:`measure.block_p99` of every latency."""
    windows = load.at_reference()
    return {
        # A window a stall left without a timed answer has no median.
        "op_s": measure.median([measure.median(w) for w in windows if w]),
        "rps": measure.median([
            len(w) / measure.at_reference(SERVE_WINDOW_S, cal)
            for w, cal in zip(windows, load.window_calibrations)]),
        "p99_ms": measure.block_p99([t for w in windows for t in w])
        * 1000.0,
    }


def drive_server(child: Child, address, requests, seed: int,
                 warmup_s: float, seconds: float) -> ServeLoad:
    """Warm up, drive ``seconds`` of closed-loop load in windows of
    :data:`SERVE_WINDOW_S` with a calibration around each, then stop
    the server.  The request order is a seeded shuffle, cycled."""
    order = list(requests)
    random.Random(seed).shuffle(order)
    load = ServeLoad()
    with ClosedLoop(address, itertools.cycle(
            [(line, expected) for _, line, expected in order])) as loop:
        warm = loop.run(warmup_s, 0.0)
        load.calibrations.append(measure.calibration())
        for _ in range(max(1, round(seconds / SERVE_WINDOW_S))):
            load.windows.append(loop.run(0.0, SERVE_WINDOW_S))
            load.calibrations.append(measure.calibration())
    code, load.peak_rss_mb = child.stop()
    for run in [warm, *load.windows]:
        load.attempted += run.attempted
        load.failed += run.failed
    load.failed += code != 0
    return load


def serve_layers(spans, latencies: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics of a traced server from its spans and its
    client latencies."""
    requests = totals(spans, "serve.handle")[1]
    per_request = {name: totals(spans, name)[0] / requests * 1000.0
                   for name in ("serve.decode", "serve.handle",
                                "serve.encode")}
    # advise_trace calls advise_traces, and both are wrapped: count
    # only the outer call of each inference.
    infer_s, infers = outermost(spans, "core.infer")
    per_request["core.infer"] = infer_s / requests * 1000.0
    mean_ms = sum(latencies) / len(latencies) * 1000.0
    server_ms = (per_request["serve.decode"] + per_request["serve.handle"]
                 + per_request["serve.encode"])
    absolute = {
        "serve.decode_ms": per_request["serve.decode"],
        "serve.handle_ms": per_request["serve.handle"],
        "serve.queue_ms": per_request["serve.handle"]
        - per_request["core.infer"],
        "serve.encode_ms": per_request["serve.encode"],
        "serve.wire_ms": mean_ms - server_ms,
        "core.infer_ms": per_request["core.infer"],
        "latency_mean_ms": mean_ms,
    }
    metrics = {key + "_pct": 100.0 * absolute[key + "_ms"] / mean_ms
               for key in ("serve.decode", "serve.handle", "serve.queue",
                           "serve.encode", "serve.wire")}
    metrics["core.infer_pct"] = 100.0 * absolute["core.infer_ms"] / mean_ms
    metrics["serve.batch_size"] = requests / infers
    metrics["serve.requests"] = float(requests)
    metrics["coverage"] = 100.0 * server_ms / mean_ms
    return metrics, absolute


def run_serve(args, workdir: Path, suite: Path) -> dict:
    import workloads

    requests = workloads.serve_requests(suite)
    env = child_env(workdir / "cache")
    first = (requests[0][1], requests[0][2])
    warmup = 0.5 if args.quick else SERVE_WARMUP_S
    failed = attempted = 0
    setups = []
    if not args.trace:
        for probe in range(args.cold_starts):
            # Each set-up probe is rescaled by the calibrations on
            # either side; the server idles during the one after.
            before = measure.calibration()
            with Child(serve_argv(suite, None), env,
                       workdir / "server.log") as child:
                address, setup, ok = server_ready(child, first)
                setups.append(measure.at_reference(
                    setup, (before + measure.calibration()) / 2.0))
                attempted += 1
                failed += not ok
                if probe < args.cold_starts - 1:
                    child.stop()
                else:
                    load = drive_server(child, address, requests, args.seed,
                                        warmup, args.seconds)
        calibrated = serve_metrics(load)
        return {
            "attempted": attempted + load.attempted,
            "failed": failed + load.failed,
            "errors": [],
            "metrics": {"setup_s": measure.median(setups),
                        "op_s": calibrated["op_s"],
                        "peak_rss_mb": load.peak_rss_mb},
            "extras": {
                "requests": len(load.latencies), "setups": setups,
                "wall_s": measure.median(load.latencies),
                "calibrations": load.calibrations,
                "rps": calibrated["rps"],
                "p99_ms": calibrated["p99_ms"],
            },
        }
    # Traced: an untraced load, then the same load on a traced server.
    loads = []
    for traced_spans in (None, workdir / "spans.jsonl"):
        with Child(serve_argv(suite, traced_spans), env,
                   workdir / "server.log") as child:
            address, _, ok = server_ready(child, first)
            load = drive_server(child, address, requests, args.seed,
                                warmup, args.seconds / 2.0)
        attempted += 1 + load.attempted
        failed += (not ok) + load.failed
        loads.append(load)
    untraced, traced = loads
    metrics, absolute = serve_layers(load_spans(workdir / "spans.jsonl"),
                                     traced.latencies)
    metrics["trace_overhead"] = 100.0 * (
        measure.median([t for w in traced.at_reference() for t in w])
        / measure.median([t for w in untraced.at_reference() for t in w])
        - 1.0)
    return {"attempted": attempted, "failed": failed, "errors": [],
            "metrics": metrics, "layers_abs": absolute,
            "extras": {"requests": [len(x.latencies) for x in loads]}}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up probe, no warm-up, a window of "
                             "at most 3 s; the same oracles")
    parser.add_argument("--out", type=Path,
                        help="where to write the run's full JSON record")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    args.cold_starts = 1 if args.quick else COLD_STARTS
    if args.quick:
        args.seconds = min(args.seconds, 3.0)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = args.out or (BUILD / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.time_ns()}.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    workdir = BUILD / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "cache").mkdir(parents=True)
    # On an error the work directory stays, with the children's logs.
    if (args.workload == SERVE
            or workloads.WORKLOADS[args.workload].needs_suite):
        suite = ensure_suite(workloads)
        shutil.copytree(suite, workloads.suite_dir(workdir / "cache"))
    if args.workload == SERVE:
        run = run_serve(args, workdir, workloads.suite_dir(workdir / "cache"))
    else:
        run = run_process_workload(args, workdir)
    if args.trace:
        shutil.move(workdir / "spans.jsonl", out.with_suffix(".spans.jsonl"))
    shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        # A layer off the workload's path reads 0.
        run["metrics"] = {m["name"]: run["metrics"].get(m["name"], 0.0)
                          for m in spec["per_layer"]}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": run["metrics"][m["name"]],
                           "unit": m["unit"]} for m in wanted}
    line = {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, **line,
              "extras": run.get("extras", {}),
              "layers_abs": run.get("layers_abs", {}),
              "errors": run["errors"][:20],
              "host": {"platform": platform.platform(),
                       "cpus": os.cpu_count(),
                       "python": platform.python_version()},
              "finished": time.strftime("%Y-%m-%dT%H:%M:%S")}
    out.write_text(json.dumps(record, indent=2) + "\n")
    for error in run["errors"][:5]:
        print(error, file=sys.stderr)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
