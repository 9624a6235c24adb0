"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are each a run record written by ``run.py``, a JSON list
of such records, or a directory of them; ``--quick`` records are
skipped.  For every workload, every end-to-end metric in
``BENCHMARK.json`` and each side metric in :data:`SIDE_BOUNDS`, it
prints each side's median and quartiles and a verdict:

* ``ok`` — B's median is within the metric's bound of A's;
* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than the bound;
* ``unresolved`` — a side's spread (inter-quartile distance over the
  median) exceeds the bound, so the runs cannot tell, unless every run
  of B reads better than every run of A.

Other side metrics the records carry (``wall_s``, ``ops``, ...) and the
per-layer metrics of traced runs are printed without a verdict.  Exits
1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import measure

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Side metrics gated like the end-to-end ones: ``{name: (better,
#: bound)}``.  Each is reported by one workload only, so it cannot be an
#: end-to-end metric of ``BENCHMARK.json``, where every workload reports
#: every metric.  ``hv_ratio`` is deterministic, so any drop regresses.
SIDE_BOUNDS = {
    "hv_ratio": ("higher", 0.0),
    "rps": ("higher", 0.25),
    "p99_ms": ("lower", 0.25),
}


def load_runs(path: Path) -> list[dict]:
    if path.is_dir():
        return [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> str:
    """The comparison rule for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    if measure.spread(a) > bound or measure.spread(b) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better"
        return "unresolved"
    change = sign * (measure.median(b) - measure.median(a)) \
        / abs(measure.median(a))
    if change > bound:
        return "REGRESSION"
    if change < -bound:
        return "better"
    return "ok"


def values(runs: list[dict], workload: str, trace: int, metric: str
           ) -> list[float]:
    found = []
    for run in runs:
        if (run["workload"] != workload or run["trace"] != trace
                or run.get("quick")):
            continue
        if metric in run["metrics"]:
            found.append(run["metrics"][metric]["value"])
        elif isinstance(run.get("extras", {}).get(metric), (int, float)):
            found.append(run["extras"][metric])
    return found


def describe(xs: list[float]) -> str:
    if not xs:
        return f"{'-':>34s}"
    q1, q2, q3 = measure.quartiles(xs)
    return f"{q2:12.5g} [{q1:9.5g} {q3:9.5g}] n={len(xs):<2d}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    side_metrics = sorted({key for run in runs_a + runs_b if run["trace"] == 0
                           for key, value in run.get("extras", {}).items()
                           if isinstance(value, (int, float))})
    regressed = False
    print(f"{'workload':14s} {'metric':30s} {'A median [q1 q3]':>34s} "
          f"{'B median [q1 q3]':>34s}  verdict")
    gated = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    gated.update(SIDE_BOUNDS)
    for workload in (w["name"] for w in spec["workloads"]):
        names = [m["name"] for m in spec["end_to_end"]]
        names += [key for key in side_metrics if key not in names]
        for name in names:
            a = values(runs_a, workload, 0, name)
            b = values(runs_b, workload, 0, name)
            if not a and not b:
                continue
            mark = "-"
            if name in gated and a and b:
                better, bound = gated[name]
                mark = verdict(a, b, bound, better)
                regressed |= mark == "REGRESSION"
            print(f"{workload:14s} {name:30s} {describe(a)} {describe(b)}  "
                  f"{mark}")
        for m in spec["per_layer"]:
            a = values(runs_a, workload, 1, m["name"])
            b = values(runs_b, workload, 1, m["name"])
            if a or b:
                print(f"{workload:14s} {m['name']:30s} {describe(a)} "
                      f"{describe(b)}  -")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
