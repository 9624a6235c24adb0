"""Deterministic fault-injection tests for the serving runtime.

Every failure behavior the serving layer promises — deadline → flagged
baseline, queue overflow → structured shed, breaker trip/half-open,
corrupt hot-reload → last-known-good, graceful drain — is provoked here
with the injection seams (event-blocked slow inference, scripted
failures, a fake clock, deterministic artifact corruption), and the
matching ``serve.*`` metrics are asserted in the same tests.
"""

import threading

import pytest

from repro.runtime.faults import (
    DEGRADED_BREAKER,
    DEGRADED_DEADLINE,
    DEGRADED_INFERENCE_ERROR,
)
from repro.runtime.inject import (
    ServeFaultInjector,
    ServeFaultPlan,
    corrupt_artifact,
)
from repro.runtime.options import RunOptions
from repro.serve import (
    AdviseRequest,
    AdvisorServer,
    AdvisorService,
    CircuitBreaker,
    CLOSED,
    Dispatcher,
    HALF_OPEN,
    OPEN,
    request_once,
)
from repro.serve.protocol import (
    ProtocolError,
    ServeResponse,
    decode_line,
    encode,
    summarize_degradation,
)
from repro.serve.testing import advise_payload, make_trace, tiny_suite


pytestmark = pytest.mark.usefixtures("drained_services")


@pytest.fixture(scope="module")
def suite():
    return tiny_suite()


@pytest.fixture(scope="module")
def suite_dir(suite, tmp_path_factory):
    directory = tmp_path_factory.mktemp("suite")
    suite.save(directory)
    return directory


def request(**kwargs):
    return AdviseRequest.from_payload(advise_payload(make_trace(),
                                                     **kwargs))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker("g", threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker("g", cooldown_seconds=-1)

    def test_opens_after_exactly_threshold_failures(self):
        breaker = CircuitBreaker("g", threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN and not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker("g", threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_after_cooldown_allows_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker("g", threshold=1,
                                 cooldown_seconds=10.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # second concurrent caller blocked

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker("g", threshold=1,
                                 cooldown_seconds=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(6.0)
        assert breaker.allow()
        breaker.record_failure()     # probe failed: reopen + new cooldown
        assert breaker.state == OPEN
        clock.advance(6.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_state_gauge_exported_on_transitions(self):
        from repro.obs.metrics import MetricsRegistry

        clock = FakeClock()
        metrics = MetricsRegistry()
        breaker = CircuitBreaker("vector_oo", threshold=1,
                                 cooldown_seconds=1.0, clock=clock,
                                 metrics=metrics)
        gauge = lambda: metrics.gauge_value("serve.breaker_state",
                                            group="vector_oo")
        assert gauge() == 0.0
        breaker.record_failure()
        assert gauge() == 1.0
        clock.advance(2.0)
        assert breaker.state == HALF_OPEN and gauge() == 2.0
        breaker.record_success()
        assert gauge() == 0.0


class _Squares:
    """A stand-in advisor: answers each "trace" (an int) with its
    square, after ``gate`` opens."""

    def __init__(self):
        self.gate = threading.Event()
        self.gate.set()

    def advise_traces(self, batch):
        self.gate.wait()
        return [trace * trace for trace, _ in batch]


class TestDispatcher:
    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="workers"):
            Dispatcher(0, 1)
        with pytest.raises(ValueError, match="queue_depth"):
            Dispatcher(1, 0)

    def test_runs_work_and_quiesces(self):
        dispatcher = Dispatcher(2, 4)
        advisor = _Squares()
        tasks = [dispatcher.try_submit(advisor, i) for i in range(4)]
        assert all(t is not None for t in tasks)
        for i, task in enumerate(tasks):
            assert task.done.wait(5.0)
            assert task.result == i * i
        assert dispatcher.quiesce(5.0)
        dispatcher.close()

    def test_close_stops_the_workers(self):
        before = set(threading.enumerate())
        dispatcher = Dispatcher(3, 4)
        workers = [t for t in threading.enumerate() if t not in before]
        assert len(workers) == 3
        task = dispatcher.try_submit(_Squares(), 3)
        assert task.done.wait(5.0) and task.result == 9
        assert dispatcher.quiesce(5.0)
        dispatcher.close()
        for worker in workers:
            worker.join(5.0)
            assert not worker.is_alive()
        assert dispatcher.try_submit(_Squares(), 4) is None

    def test_full_queue_returns_none(self):
        advisor = _Squares()
        advisor.gate.clear()
        dispatcher = Dispatcher(1, 1)
        running = dispatcher.try_submit(advisor, 0)
        # Give the worker time to pick the first task up, then fill the
        # single queue slot; the next submit must shed.
        deadline_task = None
        for _ in range(100):
            deadline_task = dispatcher.try_submit(advisor, 1)
            if deadline_task is not None and dispatcher.queued == 1:
                break
        assert dispatcher.try_submit(advisor, 2) is None
        advisor.gate.set()
        assert running.done.wait(5.0)
        dispatcher.close()


class TestProtocol:
    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_line(b"{nope")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1,2]")
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_line(b'{"op": "frobnicate"}')

    def test_advise_request_round_trip(self):
        req = request(deadline_seconds=1.5, request_id="abc")
        again = AdviseRequest.from_payload(req.to_payload())
        assert again.deadline_seconds == 1.5
        assert again.request_id == "abc"
        assert again.trace.to_payload() == req.trace.to_payload()

    def test_old_batched_field_changes_no_answer_byte(self, suite):
        """Clients written against the removed ``batched`` wire field
        still get the same bytes: the field is ignored."""
        service = AdvisorService(suite=suite, workers=1)
        payload = advise_payload(make_trace(3, seed=4))
        answers = [encode(service.handle_payload({**payload, **extra}))
                   for extra in ({}, {"batched": False},
                                 {"batched": True})]
        assert answers[0] == answers[1] == answers[2]

    def test_wrong_length_features_rejected_before_queueing(
            self, suite, monkeypatch):
        """A record whose feature vector has the wrong length is a
        decode error: it never reaches (or fails) an inference pass."""
        service = AdvisorService(suite=suite, workers=1)
        passes = []
        advise_traces = service.advisor.advise_traces

        def counting(batch):
            passes.append(batch)
            return advise_traces(batch)

        monkeypatch.setattr(service.advisor, "advise_traces", counting)
        payload = advise_payload(make_trace(), request_id="short")
        payload["trace"]["records"][0]["features"] = [0.0, 1.0]
        answer = service.handle_payload(payload)
        assert answer["status"] == "error"
        assert answer["id"] == "short"
        assert answer["error"].startswith("bad trace payload: ")
        assert passes == []
        assert service.handle_payload(
            advise_payload(make_trace()))["status"] == "ok"
        assert len(passes) == 1

    def test_non_numeric_cycles_rejected_before_queueing(
            self, suite, monkeypatch):
        """A record whose ``cycles`` is not a number is a decode error,
        like a malformed feature vector: no inference pass sees it."""
        service = AdvisorService(suite=suite, workers=1)
        passes = []
        advise_traces = service.advisor.advise_traces

        def counting(batch):
            passes.append(batch)
            return advise_traces(batch)

        monkeypatch.setattr(service.advisor, "advise_traces", counting)
        payload = advise_payload(make_trace(), request_id="cyc")
        payload["trace"]["records"][0]["cycles"] = "x"
        answer = service.handle_payload(payload)
        assert answer["status"] == "error"
        assert answer["id"] == "cyc"
        assert answer["error"] == ("bad trace payload: cycles must be a "
                                   "number, not 'x'")
        assert passes == []

    def test_advise_request_validates_deadline(self):
        with pytest.raises(ProtocolError, match="positive"):
            AdviseRequest.from_payload(
                advise_payload(make_trace(), deadline_seconds=-1)
            )

    def test_response_round_trips_and_encodes_one_line(self):
        resp = ServeResponse(status="ok", request_id="r",
                             detail={"a": 1})
        wire = encode(resp.to_payload())
        assert wire.endswith(b"\n") and wire.count(b"\n") == 1
        assert ServeResponse.from_payload(resp.to_payload()) == resp
        assert decode_line(b'{"op":"health"}') == {"op": "health"}

    def test_summarize_degradation(self, suite):
        from repro.core.report import Report

        report = Report(program_cycles=100)
        assert summarize_degradation(report) is None
        report.mark_degraded("vector_oo", DEGRADED_DEADLINE)
        assert summarize_degradation(report) == DEGRADED_DEADLINE
        report.mark_degraded("list", DEGRADED_BREAKER)
        assert summarize_degradation(report) == "mixed"


class TestDeadline:
    def test_slow_inference_answers_baseline_flagged_deadline(self, suite):
        injector = ServeFaultInjector(
            ServeFaultPlan(slow_groups=frozenset({"vector_oo"}))
        )
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(deadline_seconds=0.1),
            inference=injector.wrap_inference(),
        )
        try:
            response = service.submit(request())
            assert response.status == "degraded"
            assert response.degraded == DEGRADED_DEADLINE
            assert response.report.degraded_reasons == {
                "vector_oo": DEGRADED_DEADLINE
            }
            # Every suggestion is present (baseline, not truncated) and
            # individually flagged.
            assert len(response.report.suggestions) == 4
            assert all(s.degraded for s in response.report)
            # Metrics recorded in the same breath.
            assert service.metrics.counter_value("serve.deadline") == 1
            assert service.metrics.counter_value(
                "serve.requests", status="degraded") == 1
            latency = service.metrics.histogram_stats("serve.latency_ms")
            assert latency is not None and latency["count"] == 1
        finally:
            injector.release.set()

    def test_per_request_deadline_overrides_default(self, suite):
        injector = ServeFaultInjector(
            ServeFaultPlan(slow_groups=frozenset({"vector_oo"}))
        )
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(deadline_seconds=60.0),
            inference=injector.wrap_inference(),
        )
        try:
            response = service.submit(request(deadline_seconds=0.1))
            assert response.degraded == DEGRADED_DEADLINE
        finally:
            injector.release.set()

    def test_fast_request_is_ok_and_unflagged(self, suite):
        service = AdvisorService(suite=suite, workers=1)
        response = service.submit(request())
        assert response.status == "ok"
        assert response.degraded is None
        assert response.report.degraded_reasons == {}
        assert not any(s.degraded for s in response.report)


class TestLoadShedding:
    def test_queue_overflow_sheds_fast_with_structured_response(
            self, suite):
        injector = ServeFaultInjector(
            ServeFaultPlan(slow_groups=frozenset({"vector_oo"}))
        )
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(deadline_seconds=30.0, queue_depth=1),
            inference=injector.wrap_inference(),
        )
        try:
            # Occupy the single worker (blocks on the injector event),
            # then fill the single queue slot.
            background = threading.Thread(
                target=service.submit,
                args=(request(deadline_seconds=5.0),), daemon=True,
            )
            background.start()
            assert injector.started.wait(10.0)
            assert service._dispatcher.try_submit(
                service.advisor, make_trace()) is not None
            # Queue full: the next request is shed immediately with a
            # structured response (no hang — finishes well inside the
            # 30s deadline because it never waits at all).
            response = service.submit(request(request_id="shed-me"))
            assert response.status == "overloaded"
            assert response.request_id == "shed-me"
            assert "queue full" in response.error
            assert response.report is None
            assert service.metrics.counter_value("serve.shed") == 1
            assert service.metrics.counter_value(
                "serve.requests", status="overloaded") == 1
        finally:
            injector.release.set()
            background.join(timeout=10.0)


class TestCircuitBreakerServing:
    def test_breaker_opens_after_threshold_then_half_opens(self, suite):
        clock = FakeClock()
        injector = ServeFaultInjector(
            ServeFaultPlan(fail_groups={"vector_oo": 2})
        )
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(deadline_seconds=30.0,
                               breaker_threshold=2,
                               breaker_cooldown_seconds=10.0),
            clock=clock,
            inference=injector.wrap_inference(),
        )
        # Two failing calls: both degraded inference_error; the second
        # trips the breaker.
        for _ in range(2):
            response = service.submit(request())
            assert response.status == "degraded"
            assert response.degraded == DEGRADED_INFERENCE_ERROR
        breaker = service.breaker("vector_oo")
        assert breaker.state == OPEN
        assert service.metrics.gauge_value(
            "serve.breaker_state", group="vector_oo") == 1.0
        assert service.metrics.counter_value(
            "serve.inference_failures", group="vector_oo") == 2

        # Open breaker: requests short-circuit to the baseline without
        # touching the model (the injector's failure budget is spent, so
        # a model call would now succeed — it must not get one).
        calls_before = injector.calls
        response = service.submit(request())
        assert response.degraded == DEGRADED_BREAKER
        assert injector.calls == calls_before
        assert service.metrics.counter_value(
            "serve.breaker_short_circuit", group="vector_oo") == 1

        # After the cool-down the next request is the half-open probe;
        # it succeeds and closes the breaker.
        clock.advance(11.0)
        assert breaker.state == HALF_OPEN
        assert service.metrics.gauge_value(
            "serve.breaker_state", group="vector_oo") == 2.0
        response = service.submit(request())
        assert response.status == "ok"
        assert breaker.state == CLOSED
        assert service.metrics.gauge_value(
            "serve.breaker_state", group="vector_oo") == 0.0

    def test_failed_probe_reopens(self, suite):
        clock = FakeClock()
        injector = ServeFaultInjector(
            ServeFaultPlan(fail_groups={"vector_oo": -1})
        )
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(deadline_seconds=30.0,
                               breaker_threshold=1,
                               breaker_cooldown_seconds=5.0),
            clock=clock,
            inference=injector.wrap_inference(),
        )
        service.submit(request())
        assert service.breaker("vector_oo").state == OPEN
        clock.advance(6.0)
        response = service.submit(request())  # probe fails
        assert response.degraded == DEGRADED_INFERENCE_ERROR
        assert service.breaker("vector_oo").state == OPEN

    def test_other_groups_keep_full_model_service(self, suite):
        injector = ServeFaultInjector(
            ServeFaultPlan(fail_groups={"vector_oo": -1})
        )
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(deadline_seconds=30.0,
                               breaker_threshold=1),
            inference=injector.wrap_inference(),
        )
        service.submit(request())  # trips vector_oo
        from repro.containers.registry import DSKind

        response = service.submit(AdviseRequest.from_payload(
            advise_payload(make_trace(kind=DSKind.LIST))
        ))
        assert response.status == "ok"
        assert response.degraded is None


class TestHotReload:
    def test_corrupt_new_version_keeps_last_known_good(self, suite,
                                                       tmp_path):
        suite.save(tmp_path)
        service = AdvisorService(tmp_path, workers=1)
        assert service.submit(request()).status == "ok"

        corrupt_artifact(tmp_path / "vector_oo.json")
        outcome = service.reload_now()
        assert outcome["reloaded"] is False
        assert outcome["stale"] is True
        assert "checksum" in outcome["error"]
        # Still serving the previous (validated) suite, full fidelity.
        response = service.submit(request())
        assert response.status == "ok" and response.degraded is None
        assert service.metrics.counter_value(
            "serve.reload_rejected") == 1
        assert service.metrics.gauge_value("serve.reload_stale") == 1.0

        # A good version lands: swap, stale flag clears.
        suite.save(tmp_path)
        outcome = service.reload_now()
        assert outcome["reloaded"] is True
        assert outcome["generation"] == 1
        assert outcome["stale"] is False
        assert service.metrics.gauge_value("serve.reload_stale") == 0.0
        assert service.submit(request()).status == "ok"

    def test_unchanged_files_are_not_revalidated(self, suite, tmp_path):
        suite.save(tmp_path)
        service = AdvisorService(tmp_path, workers=1)
        corrupt_artifact(tmp_path / "vector_oo.json")
        assert service.reload_now()["reloaded"] is False
        # Same bytes again: rejected version is remembered, not re-read.
        outcome = service.reload_now()
        assert outcome["reloaded"] is False
        assert service.metrics.counter_value(
            "serve.reload_rejected") == 1

    def test_in_memory_service_reports_not_watching(self, suite):
        service = AdvisorService(suite=suite, workers=1)
        assert service.reload_now() == {"reloaded": False,
                                        "watching": False}


class TestDrain:
    def test_drain_finishes_in_flight_and_rejects_new(self, suite):
        injector = ServeFaultInjector(
            ServeFaultPlan(slow_groups=frozenset({"vector_oo"}))
        )
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(deadline_seconds=30.0, drain_seconds=10.0),
            inference=injector.wrap_inference(),
        )
        results = []
        background = threading.Thread(
            target=lambda: results.append(
                service.submit(request(deadline_seconds=20.0))),
            daemon=True,
        )
        background.start()
        assert injector.started.wait(10.0)

        service.begin_drain()
        rejected = service.submit(request())
        assert rejected.status == "unavailable"
        assert "draining" in rejected.error
        assert not service.ready()[0]

        injector.release.set()
        assert service.drain() is True
        background.join(timeout=10.0)
        assert results and results[0].status == "ok"
        assert service.metrics.gauge_value("serve.drained") == 1.0

    def test_drain_budget_expiry_reports_false(self, suite):
        injector = ServeFaultInjector(
            ServeFaultPlan(slow_groups=frozenset({"vector_oo"}))
        )
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(deadline_seconds=30.0),
            inference=injector.wrap_inference(),
        )
        background = threading.Thread(
            target=service.submit,
            args=(request(deadline_seconds=20.0),), daemon=True,
        )
        background.start()
        try:
            assert injector.started.wait(10.0)
            assert service.drain(drain_seconds=0.1) is False
            assert service.metrics.gauge_value("serve.drained") == 0.0
        finally:
            injector.release.set()
            background.join(timeout=10.0)


class TestProbesAndOps:
    def test_health_and_ready(self, suite):
        service = AdvisorService(suite=suite, workers=1)
        health = service.health()
        assert health["draining"] is False
        assert "vector_oo" in health["groups"]
        assert service.ready() == (True, None)

    def test_handle_payload_dispatch(self, suite):
        service = AdvisorService(suite=suite, workers=1)
        assert service.handle_payload(
            advise_payload(make_trace()))["status"] == "ok"
        assert service.handle_payload({"op": "health"})["status"] == "ok"
        assert service.handle_payload({"op": "ready"})["status"] == "ok"
        metrics = service.handle_payload({"op": "metrics"})
        assert "serve.requests{status=ok}" in \
            metrics["detail"]["counters"]
        bad = service.handle_payload({"op": "advise", "id": "x"})
        assert bad["status"] == "error"
        assert "trace" in bad["error"]
        assert service.handle_payload({"op": "wat"})["status"] == "error"

    def test_degraded_suite_group_flags_model_unavailable(self, suite):
        from repro.models.brainy import BrainySuite
        from repro.runtime.faults import DEGRADED_MODEL_UNAVAILABLE

        partial = BrainySuite(machine_name=suite.machine_name,
                              models=dict(suite.models))
        del partial.models["vector_oo"]
        partial.degraded.add("vector_oo")
        service = AdvisorService(suite=partial, workers=1)
        response = service.submit(request())
        assert response.status == "degraded"
        assert response.degraded == DEGRADED_MODEL_UNAVAILABLE


class TestServerTCP:
    def test_round_trips_over_a_socket(self, suite):
        service = AdvisorService(suite=suite, workers=2)
        server = AdvisorServer(service).start()
        try:
            host, port = server.address
            ok = request_once(host, port, advise_payload(make_trace()))
            assert ok["status"] == "ok"
            assert len(ok["report"]["suggestions"]) == 4
            health = request_once(host, port, {"op": "health"})
            assert health["status"] == "ok"
            assert health["detail"]["draining"] is False
            bad = request_once(host, port, {"op": "nope"})
            assert bad["status"] == "error"
        finally:
            server.close()

    def test_malformed_line_gets_structured_error(self, suite):
        import json
        import socket

        service = AdvisorService(suite=suite, workers=1)
        server = AdvisorServer(service).start()
        try:
            host, port = server.address
            with socket.create_connection((host, port),
                                          timeout=10.0) as conn:
                conn.sendall(b"this is not json\n")
                line = conn.makefile("rb").readline()
            payload = json.loads(line)
            assert payload["status"] == "error"
            assert "invalid JSON" in payload["error"]
        finally:
            server.close()


class TestServiceValidation:
    def test_requires_a_suite(self):
        with pytest.raises(ValueError, match="suite"):
            AdvisorService()

    def test_rejects_bad_knobs(self, suite):
        with pytest.raises(ValueError, match="deadline"):
            AdvisorService(suite=suite,
                           options=RunOptions(deadline_seconds=0))
        with pytest.raises(ValueError, match="drain"):
            AdvisorService(suite=suite,
                           options=RunOptions(drain_seconds=-1))
        with pytest.raises(ValueError, match="workers"):
            AdvisorService(suite=suite, workers=0)
