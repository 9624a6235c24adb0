"""The workloads, their oracles and their layer spans.

This module runs inside the workload process (``python workloads.py
...``, spawned by ``run.py``), which times the program's own public
verbs: :func:`repro.api.train`, :func:`repro.api.advise` and
:func:`repro.api.darwin`.  ``run.py`` imports it for the shared
constants and for the serve workload's requests and expected answers.

Every workload uses ``jobs=1``: the reference host has two CPUs, too few
to show a fan-out gain honestly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import repro.api as api
from repro.apps import (
    ChordSimulator,
    Raytracer,
    Relipmoc,
    XalanStringCache,
    run_case_study,
)
from repro.appgen.config import GeneratorConfig
from repro.models.cache import ScaleParams

import measure
from spans import Tracer, coverage, self_times, totals

# ``hv_ratio`` uses the darwin component bench's hypervolume.
sys.path.insert(1, str(Path(__file__).resolve().parents[1]))
from bench_darwin import REF_MARGIN, hypervolume  # noqa: E402

#: The training every workload uses: the ``tiny`` scale's model with 8
#: seeds per model group instead of 90, on apps of 100 interface calls
#: instead of 400.  A ``tiny`` train takes about a minute, longer than
#: one run may last; this one takes under two seconds, so a run holds a
#: dozen and their median is steady, while replay and event emission
#: still take most of it.  Eight seeds is the fewest that give every
#: group the four Phase-I records a model fit needs.
MINI = ScaleParams("mini", per_class_target=2, max_seeds=8,
                   validation_apps=30, hidden=(16,))
MINI_APPS = GeneratorConfig(total_interface_calls=100)
MACHINE = "core2"

APP_CLASSES = {"xalan": XalanStringCache, "chord": ChordSimulator,
               "relipmoc": Relipmoc, "raytrace": Raytracer}
#: The four case studies ``advise-apps`` sweeps and ``serve-tcp`` sends.
ADVISE_APPS = (("xalan", "train"), ("chord", "medium"),
               ("relipmoc", "default"), ("raytrace", "default"))
#: The darwin search: raytrace's 81-assignment space, on the small scene
#: so a run holds dozens of searches.  Each search draws its own GA
#: seed, and how many assignments it evaluates depends on that seed; a
#: run's median over many searches steadies what one search cannot.
DARWIN_APP = ("raytrace", "small")

#: SHA-256 of the canonical JSON payload of each model the ``mini``
#: scale trains (two trainings give byte-identical suites).
SUITE_DIGESTS = {
    "list":
        "50ed3fc2c3139980e28e9a090fc85bb4316aa00536064846cc978bb14942e1f8",
    "list_oo":
        "9f6fe0e91e0204313bf5af1ad09201815b2199f95329cbce5c3f741fafdedbe2",
    "map":
        "97dca662dd73a2d272d8aa3b1247aad65b67df47a6b5b5b98f0f344444828f4d",
    "set":
        "9bcd260a3e4b15711f39ef1f81b0207d5247860407f34f216d401b17fba413aa",
    "vector":
        "778d8fb0890f512d11fa36721b07809d536b8cb3b6e31462778a4eb0d41216d4",
    "vector_oo":
        "8ff48a699dafb256f442c9a5aab7f8123eb110a3379a29f9214c677cb09805cd",
}
#: SHA-256 of each ``advise-apps`` report payload over that suite.
REPORT_DIGESTS = {
    "xalan/train":
        "af6aa3d567149db687ca8183a5acc7905f7313580dfc4a3fdcb7e4835c93d2c9",
    "chord/medium":
        "f38cf720d0e4a18b2aa38d8c2544663c1a294ab6f4d056acc59c59c251d99219",
    "relipmoc/default":
        "728fb124fc696c6d71ef205cc85dcbde35cfc609c59754e3eed126e527f01b8c",
    "raytrace/default":
        "77ed51986c286bfafb44f4502b4a7dcaf8d05ec829790380e7e0d58c6ccabe4b",
}


def payload_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def suite_digests(directory: Path) -> dict[str, str]:
    """Digest of each model artifact's payload in a saved suite."""
    return {path.stem: payload_digest(json.loads(path.read_text())["payload"])
            for path in sorted(Path(directory).glob("*.json"))
            if path.name != "suite.json"}


def suite_problems(directory: Path) -> list[str]:
    try:
        found = suite_digests(directory)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable suite at {directory}: {exc}"]
    if found != SUITE_DIGESTS:
        return [f"suite at {directory}: model digests {found} differ from "
                "the pinned ones"]
    return []


def suite_dir(cache: Path) -> Path:
    """Where ``api.train`` saves the ``mini`` suite under a cache root."""
    return Path(cache) / "suites" / f"{MACHINE}-{MINI.name}"


# ---------------------------------------------------------------------------
# Operations and their oracles.
# ---------------------------------------------------------------------------

def train_op(i: int, seed: int, telemetry):
    return api.train(MACHINE, MINI, MINI_APPS, force=True, jobs=1,
                     telemetry=telemetry(0)).path


def train_problems(path, state) -> list[str]:
    return suite_problems(path)


def advise_op(i: int, seed: int, telemetry):
    return [(f"{app}/{name}",
             api.advise(app, name, MACHINE, MINI, jobs=1,
                        telemetry=telemetry(k)))
            for k, (app, name) in enumerate(ADVISE_APPS)]


def advise_problems(reports, state) -> list[str]:
    return [f"{key}: report digest {digest} is not the pinned one"
            for key, report in reports
            if (digest := payload_digest(report.to_payload()))
            != REPORT_DIGESTS[key]]


def darwin_seed(run_seed: int, i: int) -> int:
    """Op ``i`` of a run searches with its own GA seed, so a run's
    median spans several searches rather than repeating one."""
    return run_seed * 1000 + i


def darwin_op(i: int, seed: int, telemetry):
    app, name = DARWIN_APP
    return api.darwin(app, name, MACHINE, MINI, jobs=1,
                      seed=darwin_seed(seed, i), telemetry=telemetry(0))


def hv_ratio(result) -> float:
    """Front hypervolume over greedy hypervolume, against
    ``bench_darwin.py``'s reference point."""
    ref = (max(result.default.cycles, result.greedy.cycles) * REF_MARGIN,
           max(result.default.footprint_bytes,
               result.greedy.footprint_bytes) * REF_MARGIN)
    return (hypervolume(result.front, ref)
            / hypervolume([result.greedy], ref))


def darwin_problems(result, state) -> list[str]:
    """Front points are mutually non-dominated, dominate at least the
    greedy hypervolume, and re-measure to the reported objectives.

    ``state`` memoizes re-measured assignments across a run's ops.
    """
    front = result.front
    problems = [f"front point {p.kinds} is dominated"
                for p in front if any(q.dominates(p) for q in front)]
    if hv_ratio(result) < 1.0:
        problems.append("front hypervolume is below the greedy one")
    app, name = DARWIN_APP
    for p in front:
        if p.kinds not in state:
            run = run_case_study(
                APP_CLASSES[app](name), api.resolve_machine(MACHINE),
                kinds={ctx.split(":", 1)[1]: kind
                       for ctx, kind in p.kind_map().items()})
            state[p.kinds] = (run.cycles, run.footprint_bytes)
        if state[p.kinds] != (p.cycles, p.footprint_bytes):
            problems.append(
                f"front point {p.kinds} reported "
                f"{(p.cycles, p.footprint_bytes)}, re-measured "
                f"{state[p.kinds]}")
    return problems


@dataclass(frozen=True)
class Workload:
    op: Callable
    problems: Callable
    warmup: int
    needs_suite: bool
    #: Per-op quality readings reported beside the timings.
    quality: Callable | None = None


WORKLOADS = {
    "train-mini": Workload(train_op, train_problems, 0, False),
    "advise-apps": Workload(advise_op, advise_problems, 1, True),
    "darwin-raytrace": Workload(darwin_op, darwin_problems, 1, True,
                             quality=lambda r: {"hv_ratio": hv_ratio(r)}),
}


# ---------------------------------------------------------------------------
# Serve: the requests and their expected raw answers.
# ---------------------------------------------------------------------------

def serve_requests(suite_path: Path) -> list[tuple[str, bytes, bytes]]:
    """``(name, request line, expected answer line)`` for each trace
    ``advise-apps`` profiles; the answer is encoded locally from the
    same suite, so a served answer must match it byte for byte."""
    from repro.core.advisor import BrainyAdvisor
    from repro.instrumentation.trace import TraceSet
    from repro.models.brainy import BrainySuite
    from repro.serve.protocol import encode, response_for_report

    advisor = BrainyAdvisor(BrainySuite.load(suite_path))
    machine = api.resolve_machine(MACHINE)
    requests = []
    for app_name, input_name in ADVISE_APPS:
        app = APP_CLASSES[app_name](input_name)
        keyed = sorted(f"{app.name}:{site.name}"
                       for site in app.sites() if site.keyed)
        trace = run_case_study(app, machine, instrument=True).trace()
        line = encode({"op": "advise", "id": app_name,
                       "trace": trace.to_payload(),
                       "keyed_contexts": keyed})
        # Answer the trace as the server sees it: after the JSON trip.
        wire_trace = TraceSet.from_payload(json.loads(line)["trace"])
        report = advisor.advise_trace(wire_trace, frozenset(keyed))
        requests.append((app_name, line, encode(
            response_for_report(report, app_name).to_payload())))
    return requests


# ---------------------------------------------------------------------------
# Layer spans for the traced run.
# ---------------------------------------------------------------------------

def _run_layer(args, kwargs) -> str:
    # SyntheticApp.run(self, kind, machine_config, instrument) and
    # run_case_study(app, machine_config, kinds, instrument) both take
    # the flag fourth.
    instrumented = kwargs.get("instrument",
                              args[3] if len(args) > 3 else False)
    return ("machine.instrumented_run" if instrumented
            else "containers.emit")


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry where its caller resolves it."""
    import repro.core.advisor as advisor_mod
    import repro.core.darwin as darwin_mod
    import repro.models.brainy as brainy_mod
    import repro.obs.export as export_mod
    import repro.training.phase1 as phase1_mod
    import repro.training.phase2 as phase2_mod
    from repro.apps.base import AppResult
    from repro.appgen.generator import SyntheticApp
    from repro.instrumentation.profiler import ProfiledContainer
    from repro.machine.vector import TraceRecorder
    from repro.ml.ann import NeuralNetwork
    from repro.ml.search import GeneticSearch

    patch = tracer.patch
    patch(phase1_mod, "generate_app", "appgen.generate")
    patch(phase2_mod, "generate_app", "appgen.generate")
    patch(SyntheticApp, "run", _run_layer)
    patch(advisor_mod, "run_case_study", _run_layer)
    patch(darwin_mod, "run_case_study", _run_layer, tag="darwin_eval")
    patch(TraceRecorder, "replay", "machine.replay")
    patch(brainy_mod, "run_phase1", "training.phase1")
    patch(brainy_mod, "run_phase2", "training.phase2")
    patch(ProfiledContainer, "features", "instrumentation.features")
    patch(AppResult, "trace", "instrumentation.features")
    patch(NeuralNetwork, "fit", "ml.fit")
    patch(GeneticSearch, "pareto", "ml.search")
    patch(advisor_mod.BrainyAdvisor, "advise_app", "core.greedy")
    patch(advisor_mod.BrainyAdvisor, "advise_trace", "core.infer")
    patch(advisor_mod.BrainyAdvisor, "advise_traces", "core.infer")
    patch(brainy_mod.BrainySuite, "load", "models.suite_load")
    patch(brainy_mod, "write_artifact", "runtime.artifact_write")
    patch(export_mod, "write_artifact", "runtime.artifact_write")


#: Per-layer metric -> span whose *self* time it reports, as a share of
#: the op.
SELF_SHARES = {
    "appgen.generate_pct": "appgen.generate",
    "containers.emit_pct": "containers.emit",
    "machine.replay_pct": "machine.replay",
    "machine.instrumented_run_pct": "machine.instrumented_run",
    "training.phase1_pct": "training.phase1",
    "training.phase2_pct": "training.phase2",
    "instrumentation.features_pct": "instrumentation.features",
    "ml.fit_pct": "ml.fit",
    "ml.search_pct": "ml.search",
    "models.suite_load_pct": "models.suite_load",
    "core.infer_pct": "core.infer",
    "runtime.artifact_write_pct": "runtime.artifact_write",
}
#: Per-layer count -> program telemetry counter it sums, per op.
TELEMETRY_COUNTS = {
    "machine.runs": "sim.runs",
    "machine.l1_accesses": "sim.l1_accesses",
    "training.phase1_seeds": "phase1.seeds",
    "training.phase1_records": "phase1.records",
    "ml.epochs": "ann.epochs",
}


def counter_total(counters: dict, name: str) -> float:
    """Sum of a telemetry counter over all of its label sets."""
    return sum(value for key, value in counters.items()
               if key == name or key.startswith(name + "{"))


def layer_metrics(spans, ops: int, counters: dict) -> tuple[dict, dict]:
    """(per-layer metrics, absolute self seconds per op) of ``ops``
    traced ops whose root spans are named ``op``."""
    own = self_times(spans)
    root, _ = totals(spans, "op")

    def pct(seconds: float) -> float:
        return 100.0 * seconds / root

    metrics = {key: pct(own.get(name, 0.0))
               for key, name in SELF_SHARES.items()}
    metrics["appgen.apps"] = totals(spans, "appgen.generate")[1] / ops
    metrics["machine.replay_calls"] = totals(spans, "machine.replay")[1] / ops
    eval_s, evals = totals(spans, tag="darwin_eval")
    metrics["core.darwin_evals"] = evals / ops
    metrics["core.darwin_eval_pct"] = pct(eval_s)
    metrics["core.greedy_pct"] = pct(totals(spans, "core.greedy")[0])
    for key, name in TELEMETRY_COUNTS.items():
        metrics[key] = counter_total(counters, name) / ops
    metrics["coverage"] = 100.0 * coverage(spans, "op")
    absolute = {name: seconds / ops for name, seconds in own.items()}
    return metrics, absolute


# ---------------------------------------------------------------------------
# The workload process.
# ---------------------------------------------------------------------------

class OpRunner:
    """Runs one workload's ops, checks each against its oracle, and
    keeps the timings, failures and (traced) spans and counters."""

    def __init__(self, workload: Workload, seed: int, workdir: Path
                 ) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = Tracer()
        self.counters: dict[str, float] = {}
        self.oracle_state: dict = {}
        self.quality: dict[str, list[float]] = {}
        self.errors: list[str] = []
        self.attempted = self.failed = 0

    def run(self, i: int, traced: bool) -> float:
        """Op number ``i``; returns its wall time in seconds."""
        files: list[Path] = []

        def telemetry(k: int):
            if not traced:
                return None
            files.append(self.workdir / f"telemetry-{i}-{k}.json")
            return files[-1]

        self.attempted += 1
        args = (i, self.seed, telemetry)
        start = time.perf_counter()
        try:
            if traced:
                install_layers(self.tracer)
                try:
                    out = self.tracer.call("op", self.workload.op, args, {})
                finally:
                    self.tracer.unpatch()
            else:
                out = self.workload.op(*args)
            elapsed = time.perf_counter() - start
            problems = self.workload.problems(out, self.oracle_state)
        except Exception:
            elapsed = time.perf_counter() - start
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.errors.extend(problems)
        elif self.workload.quality is not None:
            for key, value in self.workload.quality(out).items():
                self.quality.setdefault(key, []).append(value)
        for path in filter(Path.exists, files):
            payload = json.loads(path.read_text())["payload"]
            for key, value in payload["metrics"]["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value
        return elapsed


def run_ops(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path, quick: bool = False) -> dict:
    """Warm up, then run the workload's op until ``seconds`` are spent.

    No op starts that is expected to end more than half an op past the
    window, so runs of long ops average ``seconds`` rather than falling
    short of it.  Untimed calibrations (:func:`measure.calibration`)
    bracket every op.  With ``trace`` the ops alternate untraced and
    traced, each traced op repeating the untraced one before it, so the
    per-layer numbers and the tracing overhead come from one run.
    """
    workload = WORKLOADS[name]
    runner = OpRunner(workload, seed, workdir)
    warmup = 0 if quick else workload.warmup
    for i in range(warmup):
        runner.run(i, traced=False)
    times: list[float] = []
    traced: list[bool] = []
    calibrations = [measure.calibration()]
    deadline = time.perf_counter() + seconds
    while True:
        plain, done = traced.count(False), traced.count(True)
        on = trace and done < plain
        # A traced op takes the index, so the inputs, of the untraced
        # op before it.
        times.append(runner.run(warmup + (done if on else plain), on))
        traced.append(on)
        calibrations.append(measure.calibration())
        if trace and not any(traced):
            continue
        if time.perf_counter() + measure.median(times) / 2 > deadline:
            break

    plain = [t for t, on in zip(times, traced) if not on]
    result = {"attempted": runner.attempted, "failed": runner.failed,
              "errors": runner.errors, "op_times": plain,
              "quality": {key: measure.median(values)
                          for key, values in runner.quality.items()}}
    if not trace:
        result["calibrations"] = calibrations
        return result
    runner.tracer.dump(workdir / "spans.jsonl")
    metrics, absolute = layer_metrics(runner.tracer.spans, sum(traced),
                                      runner.counters)
    at_reference = measure.calibrated(times, calibrations)
    metrics["trace_overhead"] = 100.0 * (
        measure.median([t for t, on in zip(at_reference, traced) if on])
        / measure.median([t for t, on in zip(at_reference, traced)
                          if not on]) - 1.0)
    result.update(layers=metrics, layers_abs=absolute)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--ready-only", action="store_true",
                        help="exit once ready (a set-up probe)")
    parser.add_argument("--prepare", action="store_true",
                        help="train the mini suite once and exit")
    args = parser.parse_args(argv)

    if args.prepare:
        problems = suite_problems(train_op(0, 0, lambda k: None))
        print("\n".join(problems), file=sys.stderr)
        return 1 if problems else 0
    # Ready: imports done and, for the verbs that use one, the suite
    # loaded once.
    if WORKLOADS[args.workload].needs_suite:
        from repro.models.brainy import BrainySuite
        from repro.models.cache import CACHE_DIR

        BrainySuite.load(suite_dir(CACHE_DIR))
    print("ready", flush=True)
    if args.ready_only:
        return 0
    result = run_ops(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.workdir, quick=args.quick)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
