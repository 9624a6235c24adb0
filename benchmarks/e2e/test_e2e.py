"""Fast checks of the benchmark's own arithmetic and plumbing.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import measure
import run
import workloads
from loadgen import ClosedLoop, LoadResult
from spans import Span, Tracer, coverage, outermost, self_times, totals

E2E = Path(__file__).resolve().parent
SPEC = json.loads((E2E.parents[1] / "BENCHMARK.json").read_text())


# -- measure ----------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_block_p99_ignores_one_slow_block():
    quiet = [1.0] * 1000
    busier = [2.0] * 1000
    burst = [1.0] * 989 + [100.0] * 11
    pooled = measure.percentile(quiet + busier + burst, 99)
    assert pooled == 2.0
    assert measure.block_p99(quiet + busier + burst) == 2.0
    assert measure.block_p99(quiet + burst + burst) == 100.0
    # Less than one block: the pooled p99.
    assert measure.block_p99([1.0] * 98 + [5.0, 9.0]) == 5.0


def test_quartiles_and_spread():
    assert measure.quartiles([1, 2, 3, 4, 5]) == (1.5, 3, 4.5)
    assert measure.spread([1, 2, 3, 4, 5]) == 1.0
    assert measure.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert measure.spread([4.0, 4.0, 4.0]) == 0.0


def test_calibrated_divides_by_the_calibrations_around_each_time():
    ref = measure.REFERENCE_CALIBRATION_S
    # The host ran at reference speed, then twice as slow.
    assert measure.calibrated([1.0, 3.0], [ref, ref, 3 * ref]) == \
        pytest.approx([1.0, 1.5])
    with pytest.raises(ValueError):
        measure.calibrated([1.0], [ref])


# -- spans ------------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [Span(1, None, "op", 0.0, 10.0),
             Span(2, 1, "a", 1.0, 4.0),
             Span(3, 2, "b", 2.0, 3.0),
             Span(4, 1, "a", 5.0, 6.0)]
    assert self_times(spans) == {"op": 6.0, "a": 3.0, "b": 1.0}
    assert totals(spans, "a") == (4.0, 2)
    assert coverage(spans, "op") == pytest.approx(0.4)


def test_outermost_counts_a_self_calling_layer_once():
    spans = [Span(1, None, "infer", 0.0, 4.0),
             Span(2, 1, "decode", 0.5, 3.5),
             Span(3, 2, "infer", 1.0, 3.0),
             Span(4, None, "infer", 5.0, 6.0),
             Span(5, None, "op", 7.0, 9.0),
             Span(6, 5, "infer", 7.5, 8.0)]
    assert totals(spans, "infer") == (7.5, 4)
    assert outermost(spans, "infer") == (5.5, 3)


class _Box:
    @classmethod
    def make(cls, x):
        return x + 1

    def work(self, x):
        return _Box.make(x) * 2


def test_tracer_nests_and_restores():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    raw = _Box.__dict__["make"]
    tracer.patch(_Box, "make", "make")
    tracer.patch(_Box, "work", lambda args, kwargs: f"work{args[1]}",
                 tag="t")
    assert tracer.call("op", _Box().work, (3,), {}) == 8
    tracer.unpatch()
    assert _Box.__dict__["make"] is raw
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"op", "work3", "make"}
    assert by_name["op"].parent is None
    assert by_name["work3"].parent == by_name["op"].sid
    assert by_name["work3"].tag == "t"
    assert by_name["make"].parent == by_name["work3"].sid
    # Each span opens and closes on its own tick: op 0-5, work 1-4,
    # make 2-3.
    assert self_times(tracer.spans) == {"op": 2.0, "work3": 2.0,
                                        "make": 1.0}


def test_tracer_dump_round_trips(tmp_path):
    tracer = Tracer()
    tracer.call("op", lambda: None, (), {})
    tracer.dump(tmp_path / "spans.jsonl")
    from spans import load_spans

    assert load_spans(tmp_path / "spans.jsonl") == tracer.spans


# -- per-layer metrics ------------------------------------------------------

def test_layer_metrics_shares_and_counts():
    spans = [Span(1, None, "op", 0.0, 10.0),
             Span(2, 1, "containers.emit", 1.0, 9.0, "darwin_eval"),
             Span(3, 2, "machine.replay", 2.0, 6.0),
             Span(4, 1, "appgen.generate", 9.0, 10.0),
             Span(5, None, "op", 20.0, 30.0)]
    metrics, absolute = workloads.layer_metrics(
        spans, 2, {"sim.runs": 4, "phase1.records{best=vector}": 3,
                   "phase1.records{best=list}": 1})
    assert metrics["containers.emit_pct"] == pytest.approx(20.0)
    assert metrics["machine.replay_pct"] == pytest.approx(20.0)
    assert metrics["appgen.generate_pct"] == pytest.approx(5.0)
    assert metrics["core.darwin_evals"] == 0.5
    assert metrics["core.darwin_eval_pct"] == pytest.approx(40.0)
    assert metrics["machine.runs"] == 2
    assert metrics["training.phase1_records"] == 2
    assert metrics["coverage"] == pytest.approx(45.0)
    assert absolute["op"] == pytest.approx(5.5)


def _per_layer_names() -> set[str]:
    return {m["name"] for m in SPEC["per_layer"]}


def test_the_traced_paths_name_every_per_layer_metric():
    names = _per_layer_names()
    spans = [Span(1, None, "op", 0.0, 1.0)]
    layered, _ = workloads.layer_metrics(spans, 1, {})
    metrics, _ = run.serve_layers(_server_spans(), [0.003, 0.004])
    assert set(layered) <= names and set(metrics) <= names
    assert set(layered) | set(metrics) | {"trace_overhead"} == names


def _server_spans() -> list[Span]:
    """Two requests as a traced server records them: decode, handle and
    encode on the connection thread; inference on a worker thread, where
    ``advise_trace`` calls ``advise_traces`` and both are wrapped."""
    spans = []
    for k, t in enumerate((0.0, 0.01)):
        sid = 10 * k
        spans += [Span(sid + 1, None, "serve.decode", t, t + 0.0001),
                  Span(sid + 2, None, "serve.handle", t, t + 0.002),
                  Span(sid + 3, None, "core.infer", t + 0.0005, t + 0.0015),
                  Span(sid + 4, sid + 3, "core.infer",
                       t + 0.0006, t + 0.0014),
                  Span(sid + 5, None, "serve.encode", t, t + 0.0001)]
    return spans


def test_serve_layers_count_nested_inference_once():
    metrics, absolute = run.serve_layers(_server_spans(), [0.003, 0.004])
    assert absolute["core.infer_ms"] == pytest.approx(1.0)
    assert absolute["serve.queue_ms"] == pytest.approx(1.0)
    assert absolute["serve.wire_ms"] == pytest.approx(3.5 - 2.2)
    assert metrics["core.infer_pct"] == pytest.approx(100.0 / 3.5)
    assert metrics["serve.batch_size"] == 1
    assert metrics["serve.requests"] == 2


def test_serve_metrics_rescale_each_window():
    ref = measure.REFERENCE_CALIBRATION_S
    # The host ran at reference speed for the first window, then at
    # half speed: the second window's answers took twice as long and
    # there were half as many.
    load = run.ServeLoad(
        windows=[LoadResult(latencies=[0.001] * 1000),
                 LoadResult(latencies=[0.002] * 500)],
        calibrations=[ref, ref, 3 * ref])
    metrics = run.serve_metrics(load)
    assert metrics["op_s"] == pytest.approx(0.001)
    assert metrics["rps"] == pytest.approx(1000.0)
    assert metrics["p99_ms"] == pytest.approx(1.0)


# -- compare ----------------------------------------------------------------

def test_compare_verdicts():
    a = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(a, [10.4, 10.5, 10.45, 10.5, 10.6], 0.1,
                           "lower") == "ok"
    assert compare.verdict(a, [12.0, 12.1, 11.9, 12.0, 12.2], 0.1,
                           "lower") == "REGRESSION"
    assert compare.verdict(a, [8.0, 8.1, 7.9, 8.0, 8.2], 0.1,
                           "lower") == "better"
    # Higher is better: a drop is the regression.
    assert compare.verdict([100.0] * 3, [80.0] * 3, 0.1,
                           "higher") == "REGRESSION"
    wide = [5.0, 10.0, 15.0, 10.0, 20.0]
    assert compare.verdict(wide, a, 0.1, "lower") == "unresolved"
    assert compare.verdict(a, wide, 0.1, "lower") == "unresolved"
    # Too wide to resolve, but every B run beats every A run.
    assert compare.verdict(wide, [1.0, 2.0, 3.0], 0.1, "lower") == "better"


def test_compare_cli_flags_a_regression(tmp_path, capsys):
    def record(workload, value):
        return {"workload": workload, "trace": 0,
                "metrics": {"op_s": {"value": value, "unit": "s"}},
                "extras": {"rps": 1.0}}

    (tmp_path / "a.json").write_text(json.dumps(
        [record("train-mini", 5.0 + i / 100) for i in range(5)]))
    (tmp_path / "b").mkdir()
    for i in range(5):
        (tmp_path / "b" / f"{i}.json").write_text(
            json.dumps(record("train-mini", 8.0 + i / 100)))
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "rps" in out


def _darwin_record(hv_ratio, quick=False):
    return {"workload": "darwin-raytrace", "trace": 0, "quick": quick,
            "metrics": {"op_s": {"value": 0.5, "unit": "s"}},
            "extras": {"hv_ratio": hv_ratio}}


def test_compare_gates_side_metrics(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps([_darwin_record(1.2)] * 5))
    (tmp_path / "same.json").write_text(json.dumps([_darwin_record(1.2)] * 5))
    (tmp_path / "b.json").write_text(json.dumps([_darwin_record(1.1)] * 5))
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "same.json")]) == 0
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "b.json")]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["hv_ratio", "REGRESSION"] in [[r[1], r[-1]] for r in rows]


def test_compare_skips_quick_runs():
    runs = [_darwin_record(1.2), _darwin_record(0.5, quick=True)]
    assert compare.values(runs, "darwin-raytrace", 0, "hv_ratio") == [1.2]


# -- serve: the closed-loop client ------------------------------------------

@pytest.fixture
def tiny_server():
    from repro.serve.loop import AdvisorService
    from repro.serve.server import AdvisorServer
    from repro.serve.testing import tiny_suite

    suite = tiny_suite()
    service = AdvisorService(suite=suite, workers=2)
    server = AdvisorServer(service).start()
    try:
        yield suite, server.address
    finally:
        server.close()
        service.begin_drain()
        service.drain()


def _request_and_answer(suite):
    from repro.core.advisor import BrainyAdvisor
    from repro.serve.protocol import encode, response_for_report
    from repro.serve.testing import advise_payload, make_mixed_trace

    trace = make_mixed_trace(1, seed=3)
    line = encode(advise_payload(trace, request_id="t"))
    answer = encode(response_for_report(
        BrainyAdvisor(suite).advise_trace(trace), "t").to_payload())
    return line, answer


def test_closed_loop_times_byte_correct_answers(tiny_server):
    suite, address = tiny_server
    line, answer = _request_and_answer(suite)
    with ClosedLoop(address, itertools.repeat((line, answer))) as loop:
        first = loop.run(warmup_s=0.1, measure_s=0.3)
        # The connections persist: a second burst reuses them.
        second = loop.run(warmup_s=0.0, measure_s=0.2)
        assert len(loop.conns) == 2
    for result in (first, second):
        assert result.failed == 0
        assert result.latencies
        assert all(0 < t < 0.5 for t in result.latencies)
    # Warm-up answers and the answers that land after the window are
    # checked but not timed.
    assert first.attempted > len(first.latencies)


def test_closed_loop_counts_a_corrupted_expectation(tiny_server):
    suite, address = tiny_server
    line, answer = _request_and_answer(suite)
    corrupted = answer.replace(b'"ok"', b'"OK"')
    assert corrupted != answer
    with ClosedLoop(address, itertools.repeat((line, corrupted))) as loop:
        result = loop.run(warmup_s=0.0, measure_s=0.3)
    assert result.attempted > 0
    assert result.failed == result.attempted
    assert result.latencies == []


# -- the entry point --------------------------------------------------------

def test_run_refuses_a_tree_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark,
    ``run.py`` exits non-zero without printing a result."""
    shutil.copy(E2E.parents[1] / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(E2E, bench, ignore=shutil.ignore_patterns(
        "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "train-mini",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
