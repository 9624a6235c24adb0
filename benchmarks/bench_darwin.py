"""Darwinian whole-program search benchmark.

Times ``repro.core.darwin.run_darwin`` on two case-study apps and
scores the evolved Pareto front against the greedy per-instance advisor
baseline:

* **hypervolume** — the (cycles x footprint) area each front dominates,
  measured against a reference point 10% worse than the worst measured
  baseline (declared defaults or greedy) on both axes; larger is
  better.  The greedy assignment is a
  single point, so its hypervolume is one rectangle — the gap between
  the two numbers is what whole-program evolution buys over
  per-instance greed.
* **wall-time** — the full NSGA-II search versus one greedy advisor
  pass.  Fitness memoisation keeps the evaluation count near the size
  of the reachable assignment space, so the ratio stays small.

The advisor runs over an *empty* suite (the Perflint baseline) so the
benchmark needs no trained models.  Writes ``BENCH_darwin.json`` at the
repo root (see ``--out``)::

    PYTHONPATH=src python benchmarks/bench_darwin.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.apps.chord import ChordSimulator
from repro.apps.xalan import XalanStringCache
from repro.core.advisor import BrainyAdvisor
from repro.core.darwin import AssignmentPoint, DarwinResult, run_darwin
from repro.machine.configs import CORE2
from repro.models import BrainySuite
from repro.runtime.options import RunOptions

REPO_ROOT = Path(__file__).resolve().parents[1]

#: (app factory, input name) pairs under benchmark.
APPS = (
    (lambda: XalanStringCache("test"), "test"),
    (lambda: ChordSimulator("small"), "small"),
)

#: Reference-point margin: 10% worse than the worst measured baseline
#: (defaults or greedy) on both axes, so every baseline scores a
#: non-zero hypervolume.
REF_MARGIN = 1.1


def hypervolume(points: list[AssignmentPoint],
                ref: tuple[float, float]) -> float:
    """Area dominated by ``points`` up to ``ref`` (2-D minimisation).

    Standard sweep: sort by cycles ascending and stack rectangles from
    each point to the previous footprint level.  Points outside the
    reference box contribute nothing.
    """
    ref_cycles, ref_fp = ref
    inside = sorted(
        ((p.cycles, p.footprint_bytes) for p in points
         if p.cycles < ref_cycles and p.footprint_bytes < ref_fp),
    )
    area = 0.0
    prev_fp = ref_fp
    for cycles, fp in inside:
        if fp >= prev_fp:
            continue  # dominated within the sweep
        area += (ref_cycles - cycles) * (prev_fp - fp)
        prev_fp = fp
    return area


def bench_app(make_app, input_name: str, quick: bool,
              jobs: int | None) -> dict:
    generations, population = (3, 6) if quick else (12, 16)
    advisor = BrainyAdvisor(BrainySuite("core2"))

    start = time.perf_counter()
    advisor.advise_app(make_app(), CORE2)
    greedy_wall = time.perf_counter() - start

    start = time.perf_counter()
    result: DarwinResult = run_darwin(
        make_app(), CORE2, advisor,
        options=RunOptions(darwin_generations=generations,
                           darwin_population=population, jobs=jobs),
        seed=0, input_name=input_name,
    )
    darwin_wall = time.perf_counter() - start

    ref = (max(result.default.cycles,
               result.greedy.cycles) * REF_MARGIN,
           max(result.default.footprint_bytes,
               result.greedy.footprint_bytes) * REF_MARGIN)
    front_hv = hypervolume(result.front, ref)
    greedy_hv = hypervolume([result.greedy], ref)

    entry = {
        "app": result.app_name,
        "input": input_name,
        "generations": generations,
        "population": population,
        "front_size": len(result.front),
        "evaluations": result.evaluations,
        "dominating_greedy": len(result.dominating()),
        "front_hypervolume": front_hv,
        "greedy_hypervolume": greedy_hv,
        "hypervolume_gain": (front_hv / greedy_hv
                             if greedy_hv > 0 else None),
        "darwin_wall_s": round(darwin_wall, 4),
        "greedy_wall_s": round(greedy_wall, 4),
        "front": [p.to_payload() for p in result.front],
        "greedy": result.greedy.to_payload(),
        "default": result.default.to_payload(),
    }
    print(f"  {result.app_name}/{input_name}: "
          f"front={entry['front_size']} "
          f"evals={entry['evaluations']} "
          f"dominating={entry['dominating_greedy']} "
          f"hv-gain={entry['hypervolume_gain']:.3f} "
          f"wall={darwin_wall:.2f}s (greedy {greedy_wall:.2f}s)")
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small budgets for CI smoke runs")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_darwin.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="fitness fan-out workers (default: serial)")
    args = parser.parse_args(argv)

    print("darwinian whole-program search:")
    apps = [bench_app(make_app, input_name, args.quick, args.jobs)
            for make_app, input_name in APPS]

    payload = {
        "benchmark": "darwin",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "apps": apps,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
