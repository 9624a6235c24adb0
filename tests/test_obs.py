"""Unit tests for the observability subsystem (:mod:`repro.obs`)."""

from __future__ import annotations

import pickle
import random
import threading

import pytest

import repro.obs as obs
from repro.obs import (
    Collector,
    HISTOGRAM_VALUE_CAP,
    NULL_COLLECTOR,
    NULL_SPAN,
    NullCollector,
    build_payload,
    deterministic_bytes,
    deterministic_view,
    export_telemetry,
    format_telemetry,
    load_telemetry,
    metric_key,
    use_collector,
)
from repro.obs.spans import SLOWEST_PER_PATH, SpanNode


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestSpans:
    def test_spans_nest_into_a_tree(self):
        c = Collector(clock=FakeClock())
        with c.span("train"):
            for seed in range(3):
                with c.span("phase1.seed", seed=seed):
                    pass
        tree = c.span_tree()
        assert tree["train"]["count"] == 1
        child = tree["train"]["children"]["phase1.seed"]
        assert child["count"] == 3

    def test_span_durations_accumulate(self):
        c = Collector(clock=FakeClock(step=1.0))
        with c.span("a"):
            pass  # enter reads 0.0, exit reads 1.0 -> 1 second
        node = c.span_tree()["a"]
        assert node["total_s"] == pytest.approx(1.0)
        assert node["max_s"] == pytest.approx(1.0)

    def test_slowest_instances_bounded_and_sorted(self):
        clock = FakeClock(step=0.0)
        c = Collector(clock=clock)
        for i in range(SLOWEST_PER_PATH + 4):
            clock.step = float(i)  # span i takes i seconds
            with c.span("work", index=i):
                pass
        slowest = c.span_tree()["work"]["slowest"]
        assert len(slowest) == SLOWEST_PER_PATH
        seconds = [entry["seconds"] for entry in slowest]
        assert seconds == sorted(seconds, reverse=True)
        assert slowest[0]["attrs"]["index"] == SLOWEST_PER_PATH + 3

    def test_slowest_kept_as_if_always_sorted(self):
        # Repeated durations make ties: the kept list, order and ties
        # included, is what appending and sorting every sample keeps.
        rng = random.Random(7)
        node = SpanNode("work")
        reference: list = []
        for index in range(2000):
            # Few distinct values, whose top slowly rises.
            seconds = rng.randrange(index // 100 + 4) / 4
            attrs = {"index": index}
            node.record(seconds, attrs)
            reference.append((seconds, attrs))
            reference.sort(key=lambda item: -item[0])
            del reference[SLOWEST_PER_PATH:]
            assert node.slowest == reference
        assert node.count == 2000

    def test_exception_inside_span_still_records(self):
        c = Collector(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with c.span("broken"):
                raise RuntimeError("boom")
        assert c.span_tree()["broken"]["count"] == 1

    def test_merge_grafts_under_active_span(self):
        worker = Collector(clock=FakeClock())
        with worker.span("phase1.seed", seed=7):
            worker.metrics.count("phase1.seeds")
        shipped = worker.snapshot()
        assert pickle.loads(pickle.dumps(shipped)) == shipped

        parent = Collector(clock=FakeClock())
        with parent.span("phase1"):
            parent.merge(shipped)
        tree = parent.span_tree()
        assert tree["phase1"]["children"]["phase1.seed"]["count"] == 1
        assert parent.metrics.counter_value("phase1.seeds") == 1

    def test_thread_safety_under_concurrent_spans(self):
        c = Collector()
        n, per = 8, 200

        def work():
            for _ in range(per):
                with c.span("t"):
                    c.metrics.count("hits")

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.span_tree()["t"]["count"] == n * per
        assert c.metrics.counter_value("hits") == n * per


class TestMetrics:
    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {}) == "m"
        assert metric_key("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"

    def test_counters_sum_and_gauges_overwrite(self):
        c = Collector()
        c.metrics.count("n", 2)
        c.metrics.count("n", 3)
        c.metrics.gauge("g", 1.0)
        c.metrics.gauge("g", 9.0)
        assert c.metrics.counter_value("n") == 5
        assert c.metrics.gauge_value("g") == 9.0

    def test_histogram_caps_raw_values(self):
        c = Collector()
        for i in range(HISTOGRAM_VALUE_CAP + 10):
            c.metrics.observe("h", float(i))
        hist = c.metrics.snapshot()["histograms"]["h"]
        assert hist["count"] == HISTOGRAM_VALUE_CAP + 10
        assert len(hist["values"]) == HISTOGRAM_VALUE_CAP
        assert hist["dropped"] == 10
        assert hist["min"] == 0.0
        assert hist["max"] == float(HISTOGRAM_VALUE_CAP + 9)

    def test_histogram_merge_sums_aggregates(self):
        a, b = Collector(), Collector()
        a.metrics.observe("h", 1.0)
        b.metrics.observe("h", 5.0)
        a.metrics.merge(b.metrics.snapshot())
        hist = a.metrics.snapshot()["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["total"] == 6.0
        assert hist["min"] == 1.0
        assert hist["max"] == 5.0


class TestActiveCollector:
    def test_default_is_null_and_helpers_are_noops(self):
        assert obs.get_collector() is NULL_COLLECTOR
        assert obs.span("anything") is NULL_SPAN
        obs.counter("nothing")
        obs.gauge("nothing", 1.0)
        obs.observe("nothing", 1.0)
        assert NullCollector().snapshot() == {"spans": {}, "metrics": {}}

    def test_use_collector_restores_previous(self):
        c = Collector()
        with use_collector(c):
            assert obs.get_collector() is c
            obs.counter("x")
        assert obs.get_collector() is NULL_COLLECTOR
        assert c.metrics.counter_value("x") == 1

    def test_use_collector_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_collector(Collector()):
                raise RuntimeError("boom")
        assert obs.get_collector() is NULL_COLLECTOR


class TestExport:
    def _collector(self) -> Collector:
        c = Collector(clock=FakeClock(step=0.5))
        with use_collector(c):
            with obs.span("phase1", group="vector"):
                with obs.span("phase1.seed", seed=3):
                    obs.counter("phase1.seeds")
            obs.gauge("ga.best_fitness", 0.75)
            obs.observe("ann.epoch_loss", 0.5)
        return c

    def test_artifact_round_trip(self, tmp_path):
        path = tmp_path / "run.telemetry.json"
        written = export_telemetry(self._collector(), path,
                                   meta={"command": "unit"},
                                   wall_time_s=2.0)
        loaded = load_telemetry(path)
        assert loaded == written
        assert loaded["meta"]["command"] == "unit"
        assert loaded["meta"]["tool"] == "repro"
        assert loaded["wall_time_s"] == 2.0
        assert loaded["spans"]["phase1"]["count"] == 1

    def test_deterministic_view_strips_timings(self):
        payload = build_payload(self._collector(), wall_time_s=2.0)
        view = deterministic_view(payload)
        assert view["spans"]["phase1"] == {
            "count": 1,
            "children": {"phase1.seed": {"count": 1}},
        }
        assert "wall_time_s" not in view
        assert view["metrics"]["counters"]["phase1.seeds"] == 1
        assert isinstance(deterministic_bytes(payload), bytes)

    def test_format_telemetry_renders_all_sections(self):
        c = self._collector()
        c.metrics.count("phase1.quarantined", 2,
                        stage="measure", category="deterministic")
        c.metrics.count("sim.l1_accesses", 1000)
        payload = build_payload(c, meta={"command": "train"},
                                wall_time_s=2.0)
        text = format_telemetry(payload)
        assert "telemetry: train (wall 2.00s)" in text
        assert "span tree" in text
        assert "phase1.seed" in text
        assert "slowest spans" in text
        assert "cache-sim events: 1,000" in text
        assert "gauges:" in text
        assert "histograms" in text
        assert ("phase1.quarantined{category=deterministic,stage=measure}"
                in text)

    def test_format_telemetry_reproducible_with_fake_clock(self):
        texts = {
            format_telemetry(build_payload(self._collector(),
                                           meta={"command": "unit"},
                                           wall_time_s=2.0))
            for _ in range(2)
        }
        assert len(texts) == 1  # byte-identical rendering


class TestWorkerShipping:
    def test_map_ordered_ships_telemetry(self):
        from repro.runtime.parallel import map_ordered

        c = Collector()
        with use_collector(c):
            with obs.span("outer"):
                results = list(map_ordered(_traced_square, [1, 2, 3],
                                           jobs=2))
        assert results == [1, 4, 9]
        tree = c.span_tree()
        assert tree["outer"]["children"]["task"]["count"] == 3
        assert c.metrics.counter_value("tasks") == 3

    def test_jobs_values_produce_identical_content(self):
        from repro.runtime.parallel import map_ordered

        views = []
        for jobs in (1, 3):
            c = Collector()
            with use_collector(c):
                list(map_ordered(_traced_square, range(5), jobs=jobs))
            views.append(deterministic_bytes(
                build_payload(c, wall_time_s=1.0)))
        assert views[0] == views[1]

    def test_disabled_collector_ships_nothing(self):
        from repro.runtime.parallel import map_ordered

        assert list(map_ordered(_traced_square, [2], jobs=1)) == [4]


def _traced_square(n: int) -> int:
    with obs.span("task", n=n):
        obs.counter("tasks")
    return n * n
