"""Training-engine benchmark harness.

Measures the two performance features of the parallel training engine:

* **Phase-I fan-out** — wall-clock for an identical Phase-I workload at
  ``--jobs 1/2/4``, with artifact checksums proving every jobs value
  produces byte-identical results.  Speedups scale with physical cores;
  the host's ``cpu_count`` is recorded alongside so a single-core CI
  runner's flat numbers are interpretable.
* **Telemetry overhead** — wall-clock for an identical Phase-I workload
  with the default null collector vs a live :class:`repro.obs.Collector`
  (the median of interleaved live/null pair ratios).  The observability
  layer's contract is that spans and counters are coarse enough to cost
  ~nothing; the bench enforces an overhead ceiling of 3 %.
* **Machine-simulator hot path** — ns/access for the optimized
  dict-as-ordered-set LRU simulator against the legacy list-based LRU
  (embedded below as the baseline), over several access patterns and
  both the footprint-scaled and the full (real) machine geometries.
  The O(assoc + tlb_entries) → O(1) win is largest at real geometries,
  where the old TLB scanned up to 256 entries per hit.

Writes ``BENCH_training.json`` at the repo root (see ``--out``)::

    PYTHONPATH=src python benchmarks/bench_training.py --quick
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

from repro.appgen.config import GeneratorConfig
from repro.containers.registry import MODEL_GROUPS
from repro.machine.configs import CORE2, CORE2_FULL, MachineConfig
from repro.machine.machine import Machine
from repro.runtime.options import RunOptions
from repro.training.phase1 import run_phase1

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Legacy baseline: the pre-optimisation list-based LRU simulator.
# ---------------------------------------------------------------------------

class LegacyMachine(Machine):
    """The simulator as it was before the dict-LRU hot-path rewrite.

    Tag stores are recency-ordered lists (head = MRU, tail = victim), so
    every hit scans and every touch memmoves — O(assoc) per line, and
    O(tlb_entries) per TLB hit.  Kept verbatim as the benchmark baseline.
    """

    def __init__(self, config: MachineConfig) -> None:
        super().__init__(config)
        self.l1._sets = [[] for _ in range(self.l1.num_sets)]
        self.l2._sets = [[] for _ in range(self.l2.num_sets)]
        self.tlb._pages = []

    def access(self, addr: int, nbytes: int = 8) -> None:
        if nbytes <= 0:
            raise ValueError(f"access size must be positive: {nbytes}")
        shift = self._line_shift
        first = addr >> shift
        last = (addr + nbytes - 1) >> shift
        cycles = self._cycles
        l1 = self.l1
        l2 = self.l2
        tlb = self.tlb
        l1_sets = l1._sets
        l1_mask = l1.num_sets - 1
        l1_assoc = l1.assoc
        l2_sets = l2._sets
        l2_mask = l2.num_sets - 1
        l2_assoc = l2.assoc
        tlb_pages = tlb._pages
        tlb_entries = tlb.entries
        page_delta = self._page_shift - shift
        last_page = self._last_page
        l1_lat = self._l1_lat
        l1.accesses += last - first + 1
        stream = 1.0
        for line in range(first, last + 1):
            page = line >> page_delta
            if page != last_page:
                last_page = page
                tlb.accesses += 1
                if page in tlb_pages:
                    if tlb_pages[0] != page:
                        tlb_pages.remove(page)
                        tlb_pages.insert(0, page)
                else:
                    tlb.misses += 1
                    tlb_pages.insert(0, page)
                    if len(tlb_pages) > tlb_entries:
                        tlb_pages.pop()
                    cycles += self._tlb_penalty
            cycles += l1_lat * stream
            ways = l1_sets[line & l1_mask]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
                if self.prefetcher is not None:
                    self.prefetcher.on_hit(line)
            else:
                l1.misses += 1
                ways.insert(0, line)
                if len(ways) > l1_assoc:
                    ways.pop()
                if self.prefetcher is not None:
                    for target in self.prefetcher.on_miss(line):
                        target_ways = l1_sets[target & l1_mask]
                        if target not in target_ways:
                            target_ways.insert(0, target)
                            if len(target_ways) > l1_assoc:
                                target_ways.pop()
                cycles += self._l2_lat * stream
                l2.accesses += 1
                ways2 = l2_sets[line & l2_mask]
                if line in ways2:
                    if ways2[0] != line:
                        ways2.remove(line)
                        ways2.insert(0, line)
                else:
                    l2.misses += 1
                    ways2.insert(0, line)
                    if len(ways2) > l2_assoc:
                        ways2.pop()
                    cycles += self._mem_lat * stream
            stream = self._stream
        self._last_page = last_page
        self._cycles = cycles


# ---------------------------------------------------------------------------
# Machine-simulator microbench.
# ---------------------------------------------------------------------------

def _trace_random(n: int, span: int = 1 << 22) -> list[tuple[int, int]]:
    rng = random.Random(42)
    sizes = (8, 8, 8, 16, 64)
    return [(rng.randrange(span), rng.choice(sizes)) for _ in range(n)]


def _trace_stream(n: int, span: int = 1 << 22) -> list[tuple[int, int]]:
    return [((i * 64) % span, 64) for i in range(n)]


def _trace_mixed(n: int, span: int = 1 << 20) -> list[tuple[int, int]]:
    """Container-like mix: hot node touches, cold touches, long scans."""
    rng = random.Random(7)
    hot = [rng.randrange(span) for _ in range(64)]
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.70:
            out.append((rng.choice(hot), 8))
        elif r < 0.95:
            out.append((rng.randrange(span), 8))
        else:
            out.append((rng.randrange(span), rng.randrange(256, 4096)))
    return out


def _trace_hot(n: int, span: int = 1 << 21) -> list[tuple[int, int]]:
    """Locality-heavy single-line touches (a resident working set)."""
    rng = random.Random(3)
    hot = [rng.randrange(span) for _ in range(2048)]
    return [(rng.choice(hot), 8) for _ in range(n)]


def _run_trace(machine_cls, config: MachineConfig,
               trace: list[tuple[int, int]]) -> tuple[Machine, float]:
    machine = machine_cls(config)
    access = machine.access
    start = time.perf_counter()
    for addr, nbytes in trace:
        access(addr, nbytes)
    return machine, time.perf_counter() - start


def _counters(machine: Machine) -> tuple:
    return (machine.l1.accesses, machine.l1.misses,
            machine.l2.accesses, machine.l2.misses,
            machine.tlb.accesses, machine.tlb.misses)


def _cycles_close(a: Machine, b: Machine) -> bool:
    """Cycle totals agree to float precision.

    The legacy baseline accumulates integer latencies and fractional
    stream costs interleaved in one float; the current machine keeps an
    exact integer accumulator plus an ordered float one.  The sums are
    mathematically equal but round differently in the last bits, so the
    comparison uses a relative tolerance.  Cache/TLB/branch counters
    still compare exactly.
    """
    ca, cb = a.cycles, b.cycles
    return abs(ca - cb) <= max(1, int(1e-9 * max(abs(ca), abs(cb))))


def bench_machine_sim(quick: bool) -> dict:
    n = 30_000 if quick else 200_000
    repeats = 2 if quick else 3
    cases = [
        ("core2-scaled", CORE2, "random", _trace_random(n)),
        ("core2-scaled", CORE2, "stream", _trace_stream(n)),
        ("core2-scaled", CORE2, "mixed", _trace_mixed(n)),
        ("core2-full", CORE2_FULL, "hot", _trace_hot(n)),
        ("core2-full", CORE2_FULL, "random", _trace_random(n, 1 << 24)),
    ]
    results = []
    for machine_name, config, workload, trace in cases:
        legacy_machine, _ = _run_trace(LegacyMachine, config, trace)
        new_machine, _ = _run_trace(Machine, config, trace)
        if _counters(legacy_machine) != _counters(new_machine) \
                or not _cycles_close(legacy_machine, new_machine):
            raise AssertionError(
                f"counter mismatch on {machine_name}/{workload}: "
                f"{_counters(legacy_machine)} vs {_counters(new_machine)}"
            )
        legacy_s = min(_run_trace(LegacyMachine, config, trace)[1]
                       for _ in range(repeats))
        new_s = min(_run_trace(Machine, config, trace)[1]
                    for _ in range(repeats))
        row = {
            "machine": machine_name,
            "workload": workload,
            "accesses": n,
            "legacy_ns_per_access": round(legacy_s / n * 1e9, 1),
            "optimized_ns_per_access": round(new_s / n * 1e9, 1),
            "speedup": round(legacy_s / new_s, 3),
            "counters_identical": True,
        }
        results.append(row)
        print(f"  machine-sim {machine_name:13s} {workload:7s} "
              f"legacy {row['legacy_ns_per_access']:7.1f} ns/access  "
              f"optimized {row['optimized_ns_per_access']:7.1f} ns/access  "
              f"speedup {row['speedup']:.2f}x")
    return {"cases": results}


# ---------------------------------------------------------------------------
# Phase-I fan-out bench.
# ---------------------------------------------------------------------------

def bench_phase1(quick: bool, jobs_list: list[int],
                 scratch: Path) -> dict:
    group = MODEL_GROUPS["set"]
    config = GeneratorConfig.small()
    if quick:
        kwargs = dict(per_class_target=2, max_seeds=16)
    else:
        kwargs = dict(per_class_target=5, max_seeds=120)
    # Warm code/import caches so jobs=1 is not charged for them.
    run_phase1(group, config, CORE2, per_class_target=1, max_seeds=4)
    timings = []
    checksums = set()
    for jobs in jobs_list:
        start = time.perf_counter()
        result = run_phase1(group, config, CORE2,
                            options=RunOptions(jobs=jobs), **kwargs)
        elapsed = time.perf_counter() - start
        artifact = scratch / f"phase1-jobs{jobs}.json"
        result.save(artifact)
        digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
        checksums.add(digest)
        timings.append({
            "jobs": jobs,
            "seconds": round(elapsed, 3),
            "seeds_tried": result.seeds_tried,
            "records": len(result),
            "artifact_sha256": digest,
        })
        print(f"  phase1 jobs={jobs}: {elapsed:6.2f}s "
              f"({result.seeds_tried} seeds, {len(result)} records)")
    if len(checksums) != 1:
        raise AssertionError(
            f"jobs values produced different artifacts: {checksums}"
        )
    base = timings[0]["seconds"]
    for row in timings:
        row["speedup_vs_jobs1"] = round(base / row["seconds"], 3) \
            if row["seconds"] else None
    return {
        "group": group.name,
        "machine": CORE2.name,
        **kwargs,
        "artifacts_identical": True,
        "timings": timings,
    }


# ---------------------------------------------------------------------------
# Telemetry overhead bench.
# ---------------------------------------------------------------------------

TELEMETRY_OVERHEAD_CEILING_PCT = 3.0


def bench_telemetry_overhead(quick: bool) -> dict:
    from repro.obs import Collector

    group = MODEL_GROUPS["set"]
    config = GeneratorConfig.small()
    if quick:
        kwargs = dict(per_class_target=3, max_seeds=40)
    else:
        kwargs = dict(per_class_target=5, max_seeds=120)
    repeats = 40

    def timed(options: RunOptions | None) -> float:
        start = time.perf_counter()
        run_phase1(group, config, CORE2, options=options, **kwargs)
        return time.perf_counter() - start

    timed(None)  # warm caches; neither variant pays first-run costs
    # Interleave the variants in pairs, alternating which runs first, so
    # clock drift (turbo, thermal, noisy neighbours) hits both equally.
    # On a shared host single runs spread by ±10 %, and the minimum of
    # each arm lands wherever a quiet moment fell; the median of the
    # pair ratios does not.
    null_times, live_times = [], []
    for i in range(repeats):
        if i % 2:
            live_times.append(timed(RunOptions(telemetry=Collector())))
            null_times.append(timed(None))
        else:
            null_times.append(timed(None))
            live_times.append(timed(RunOptions(telemetry=Collector())))
    null_s = statistics.median(null_times)
    live_s = statistics.median(live_times)
    overhead_pct = (statistics.median(
        live / null for null, live in zip(null_times, live_times))
        - 1.0) * 100.0
    print(f"  telemetry  null {null_s:6.3f}s  live {live_s:6.3f}s  "
          f"overhead {overhead_pct:+.2f}%")
    if overhead_pct > TELEMETRY_OVERHEAD_CEILING_PCT:
        raise AssertionError(
            f"telemetry overhead {overhead_pct:.2f}% exceeds the "
            f"{TELEMETRY_OVERHEAD_CEILING_PCT}% ceiling"
        )
    return {
        "group": group.name,
        **kwargs,
        "repeats": repeats,
        "null_collector_s": round(null_s, 4),
        "live_collector_s": round(live_s, 4),
        "overhead_pct": round(overhead_pct, 3),
        "ceiling_pct": TELEMETRY_OVERHEAD_CEILING_PCT,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small budgets for CI smoke runs")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_training.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--jobs-list", default="1,2,4",
                        help="comma-separated jobs values to time")
    parser.add_argument(
        "--only", action="append",
        choices=("machine-sim", "telemetry", "phase1"),
        help="run only the named section(s); repeatable, default all")
    args = parser.parse_args(argv)
    jobs_list = [int(j) for j in args.jobs_list.split(",") if j]
    sections = set(args.only or
                   ("machine-sim", "telemetry", "phase1"))

    scratch = args.out.parent / ".bench_scratch"
    scratch.mkdir(parents=True, exist_ok=True)

    payload = {
        "benchmark": "training-engine",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
    }
    if "machine-sim" in sections:
        print("machine-simulator microbench:")
        payload["machine_sim"] = bench_machine_sim(args.quick)
    if "telemetry" in sections:
        print("telemetry overhead:")
        payload["telemetry_overhead"] = bench_telemetry_overhead(
            args.quick)
    if "phase1" in sections:
        print("phase-1 fan-out:")
        payload["phase1_fanout"] = bench_phase1(
            args.quick, jobs_list, scratch)

    for leftover in scratch.glob("phase1-jobs*.json"):
        leftover.unlink()
    try:
        scratch.rmdir()
    except OSError:
        pass

    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
