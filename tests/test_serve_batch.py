"""Batched dispatch: byte-identity, mechanics, breaker isolation.

The serving loop has one dispatch path: a worker that comes free
answers every request queued for its advisor with one
:meth:`~repro.core.advisor.BrainyAdvisor.advise_traces` pass.  The
acceptance contract: whatever the worker count and however many
requests arrive together, every answer — ok, breaker-open baseline,
deadline-degraded baseline — is byte-identical to the per-record
reference path (``advise_trace(batched=False)``) for the same trace.
These tests drive genuinely concurrent requests and compare full report
payloads (``json.dumps(..., sort_keys=True)``), then pin the mechanics
with a worker stalled on a slow model group: a backlog forms one batch,
advisors never share a pass, an expired request is skipped, admission
still sheds at ``queue_depth``, and per-group breakers stay independent
inside a batch.
"""

import json
import sys
import threading
import time

import pytest

import repro.obs as obs
from repro.containers.registry import DSKind
from repro.core.advisor import BrainyAdvisor
from repro.instrumentation.trace import TraceRecord, TraceSet
from repro.runtime.faults import (
    DEGRADED_BREAKER,
    DEGRADED_DEADLINE,
    InferenceUnavailable,
)
from repro.runtime.inject import ServeFaultInjector, ServeFaultPlan
from repro.runtime.options import RunOptions
from repro.serve import AdviseRequest, AdvisorService, OPEN
from repro.serve.testing import (
    advise_payload,
    make_mixed_trace,
    make_trace,
    tiny_suite,
)


pytestmark = pytest.mark.usefixtures("drained_services")


@pytest.fixture(scope="module")
def suite():
    return tiny_suite()


def canon(report_payload):
    return json.dumps(report_payload, sort_keys=True)


def request_for(trace, request_id="r1", **kwargs):
    return AdviseRequest.from_payload(
        advise_payload(trace, request_id=request_id, **kwargs))


def submit_concurrently(service, requests):
    """Fire all requests at once so they overlap in the queue."""
    responses = [None] * len(requests)
    barrier = threading.Barrier(len(requests))

    def one(index):
        barrier.wait()
        responses[index] = service.submit(requests[index])

    threads = [threading.Thread(target=one, args=(i,), daemon=True)
               for i in range(len(requests))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert all(response is not None for response in responses)
    return responses


def batch_sizes(service):
    return service.metrics.snapshot()["histograms"]["serve.batch_size"]


class Backlog:
    """Requests queued, in order, behind a worker stalled on the
    injector's slow group (``vector_oo``: a plain vector trace)."""

    def __init__(self, service, injector):
        self.service = service
        self.injector = injector
        self.responses = {}
        self._threads = []
        self._start(request_for(make_trace(1), request_id="blocker",
                                deadline_seconds=30.0))
        assert injector.started.wait(10.0)

    def _start(self, request):
        def submit():
            self.responses[request.request_id] = \
                self.service.submit(request)

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        self._threads.append(thread)

    def queue(self, request):
        """Submit ``request`` and wait until it sits in the queue."""
        before = self.service._dispatcher.queued
        self._start(request)
        give_up = time.monotonic() + 10.0
        while self.service._dispatcher.queued == before:
            assert time.monotonic() < give_up, "request never queued"
            time.sleep(0.001)

    def release(self):
        self.injector.release.set()
        for thread in self._threads:
            thread.join(timeout=10.0)
        return self.responses


def refuse_list_oo(group_name, model, rows, masks):
    """A reference inference seam: ``list_oo``'s breaker is open."""
    if group_name == "list_oo":
        raise InferenceUnavailable(DEGRADED_BREAKER)
    return model.predict_kinds(rows, legal_masks=masks)


def stalled_service(suite, plan=None, **options):
    """A one-worker service whose ``vector_oo`` inference stalls."""
    plan = plan or ServeFaultPlan()
    injector = ServeFaultInjector(ServeFaultPlan(
        fail_groups=plan.fail_groups,
        slow_groups=frozenset({"vector_oo"})))
    options.setdefault("deadline_seconds", 30.0)
    service = AdvisorService(
        suite=suite, workers=1, options=RunOptions(**options),
        inference=injector.wrap_inference(),
    )
    return service, injector


class TestAdvisorBatchEntryPoint:
    def test_advise_traces_identical_to_advise_trace(self, suite):
        advisor = BrainyAdvisor(suite)
        batch = [
            (make_mixed_trace(1, seed=3), frozenset()),
            (make_trace(4, kind=DSKind.LIST, seed=5), frozenset()),
            (make_trace(2, kind=DSKind.MAP, keyed=True, seed=6),
             frozenset({"app:site0"})),
            (make_mixed_trace(2, seed=7), frozenset()),
        ]
        together = advisor.advise_traces(batch)
        for (trace, keyed), report in zip(batch, together):
            alone = advisor.advise_trace(trace, keyed)
            assert canon(report.to_payload()) == canon(alone.to_payload())

    def test_single_trace_batch_matches_per_record_reference(self, suite):
        advisor = BrainyAdvisor(suite)
        trace = make_mixed_trace(2, seed=11)
        [report] = advisor.advise_traces([(trace, frozenset())])
        reference = advisor.advise_trace(trace, batched=False)
        assert canon(report.to_payload()) == canon(reference.to_payload())


class TestBatchedByteIdentity:
    @pytest.mark.parametrize("concurrency", [1, 8, 32])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_any_knobs_match_the_unbatched_path(self, suite, workers,
                                                concurrency):
        """Every answer equals the per-record path's — including the
        breaker-open baseline of a group whose model always fails."""
        injector = ServeFaultInjector(
            ServeFaultPlan(fail_groups={"list_oo": -1}))
        service = AdvisorService(
            suite=suite, workers=workers,
            options=RunOptions(breaker_threshold=1,
                               deadline_seconds=30.0),
            inference=injector.wrap_inference(),
        )

        reference = BrainyAdvisor(suite, infer=refuse_list_oo)
        trip = make_trace(1, kind=DSKind.LIST)
        assert service.submit(request_for(trip)).status == "degraded"
        assert service.breaker("list_oo").state == OPEN

        shapes = ([make_mixed_trace(1, seed=i) for i in range(4)]
                  + [make_trace(3, kind=DSKind.SET, seed=i)
                     for i in range(2)]
                  + [make_trace(2, kind=DSKind.MAP, keyed=True, seed=9),
                     make_mixed_trace(2, seed=13)])
        traces = [shapes[i % len(shapes)] for i in range(concurrency)]
        responses = submit_concurrently(service, [
            request_for(trace, request_id=f"r{i}")
            for i, trace in enumerate(traces)
        ])
        for trace, response in zip(traces, responses):
            expected = reference.advise_trace(trace, batched=False)
            assert response.status == ("degraded" if expected.degraded_groups
                                       else "ok")
            assert canon(response.report.to_payload()) \
                == canon(expected.to_payload())
        sizes = batch_sizes(service)
        assert sizes["total"] == concurrency + 1
        service.drain()

    def test_breaker_open_answers_identically_under_batching(self, suite):
        """With a group's breaker open, requests answered in one batch
        get the same flagged-baseline bytes as the per-record path."""
        service, injector = stalled_service(
            suite, ServeFaultPlan(fail_groups={"list_oo": -1}),
            breaker_threshold=1)
        trip = request_for(make_trace(1, kind=DSKind.LIST))
        assert service.submit(trip).status == "degraded"
        assert service.breaker("list_oo").state == OPEN

        backlog = Backlog(service, injector)
        traces = [make_mixed_trace(1, seed=4 + i) for i in range(4)]
        for i, trace in enumerate(traces):
            backlog.queue(request_for(trace, request_id=f"b{i}"))
        responses = backlog.release()
        reference = BrainyAdvisor(suite, infer=refuse_list_oo)
        for i, trace in enumerate(traces):
            got = responses[f"b{i}"]
            assert got.status == "degraded"
            assert got.degraded == DEGRADED_BREAKER
            assert canon(got.report.to_payload()) == canon(
                reference.advise_trace(trace, batched=False).to_payload())
        assert batch_sizes(service)["max"] == 4

    def test_deadline_expiry_inside_window_degrades_identically(
            self, suite):
        """A request whose deadline passes while it waits in the queue
        answers the flagged baseline, byte for byte, and its worker
        skips it: the model never sees it."""
        service, injector = stalled_service(suite)
        backlog = Backlog(service, injector)
        trace = make_trace(3, kind=DSKind.SET, seed=2)
        tight = request_for(trace, request_id="tight",
                            deadline_seconds=0.05)
        backlog.queue(tight)
        give_up = time.monotonic() + 10.0
        while "tight" not in backlog.responses:
            assert time.monotonic() < give_up
            time.sleep(0.005)
        got = backlog.responses["tight"]
        want = BrainyAdvisor(suite).baseline_report(
            trace, reason=DEGRADED_DEADLINE)
        assert got.status == "degraded"
        assert got.degraded == DEGRADED_DEADLINE
        assert canon(got.report.to_payload()) == canon(want.to_payload())
        assert service.metrics.counter_value("serve.deadline") == 1

        assert backlog.release()["blocker"].status == "ok"
        assert service.drain() is True
        # Only the blocker's one vector_oo call reached the model.
        assert injector.calls == 1
        assert batch_sizes(service)["count"] == 1


class TestBatchMechanics:
    def test_concurrent_requests_coalesce_into_one_batch(self, suite):
        """A stalled worker with N queued requests for its advisor
        answers all N in one pass once it is free."""
        service, injector = stalled_service(suite)
        backlog = Backlog(service, injector)
        traces = [make_mixed_trace(1, seed=i) for i in range(4)]
        for i, trace in enumerate(traces):
            backlog.queue(request_for(trace, request_id=f"c{i}"))
        responses = backlog.release()
        reference = BrainyAdvisor(suite)
        for i, trace in enumerate(traces):
            assert responses[f"c{i}"].status == "ok"
            assert canon(responses[f"c{i}"].report.to_payload()) == canon(
                reference.advise_trace(trace, batched=False).to_payload())
        sizes = batch_sizes(service)
        # The blocker's pass, then one batch of all four.
        assert sizes["count"] == 2 and sizes["total"] == 5.0
        assert sizes["max"] == 4

    def test_requests_for_two_advisors_never_share_a_batch(self, suite):
        """Requests routed to different advisors (a hot-reload
        generation here; registry tags alike) queue interleaved and are
        answered in one pass per advisor."""
        service, injector = stalled_service(suite)
        backlog = Backlog(service, injector)
        first = service._advisor
        second = service._make_advisor(tiny_suite(seed=1))
        for i, advisor in enumerate((first, second, first, second)):
            service._advisor = advisor
            backlog.queue(request_for(make_mixed_trace(1, seed=i),
                                      request_id=f"g{i}"))
        responses = backlog.release()
        for i, advisor in enumerate((first, second, first, second)):
            want = advisor.advise_trace(make_mixed_trace(1, seed=i),
                                        batched=False)
            assert canon(responses[f"g{i}"].report.to_payload()) \
                == canon(want.to_payload())
        sizes = batch_sizes(service)
        assert sizes["count"] == 3 and sizes["total"] == 5.0
        assert sizes["max"] == 2

    def test_admission_sheds_at_queue_depth(self, suite):
        service, injector = stalled_service(suite, queue_depth=2)
        backlog = Backlog(service, injector)
        for i in range(2):
            backlog.queue(request_for(make_trace(2, kind=DSKind.SET,
                                                 seed=i),
                                      request_id=f"q{i}"))
        shed = service.submit(request_for(make_trace(2), request_id="x"))
        assert shed.status == "overloaded"
        assert shed.report is None
        assert "queue full" in shed.error
        assert service.metrics.counter_value("serve.shed") == 1
        responses = backlog.release()
        assert all(responses[f"q{i}"].status == "ok" for i in range(2))
        assert batch_sizes(service)["max"] == 2

    def test_a_trace_that_breaks_the_pass_fails_alone(self, suite):
        """A pass that raises is retried one request at a time, so a
        malformed trace cannot fail the requests batched with it."""
        service, injector = stalled_service(suite)
        backlog = Backlog(service, injector)
        bad = TraceSet(program_cycles=1000, records=[TraceRecord(
            context="app:bad", kind=DSKind.SET, order_oblivious=True,
            features=[0.0, 1.0], cycles=10, total_calls=1)])
        good = make_mixed_trace(1, seed=5)
        backlog.queue(AdviseRequest(trace=good, request_id="good"))
        backlog.queue(AdviseRequest(trace=bad, request_id="bad"))
        responses = backlog.release()
        assert responses["bad"].status == "error"
        assert responses["good"].status == "ok"
        assert canon(responses["good"].report.to_payload()) == canon(
            BrainyAdvisor(suite).advise_trace(good,
                                              batched=False).to_payload())
        assert service.metrics.counter_value("serve.errors") == 1

    def test_every_request_is_answered_once_under_contention(self, suite):
        """More workers than cores and a tiny switch interval: a lost
        or doubled queue update would drop or repeat an answer."""
        service = AdvisorService(
            suite=suite, workers=4,
            options=RunOptions(queue_depth=64, deadline_seconds=30.0))
        traces = [make_mixed_trace(1, seed=i % 5) for i in range(64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            responses = submit_concurrently(service, [
                request_for(trace, request_id=f"s{i}")
                for i, trace in enumerate(traces)])
        finally:
            sys.setswitchinterval(interval)
        reference = BrainyAdvisor(suite)
        for i, (trace, response) in enumerate(zip(traces, responses)):
            assert response.request_id == f"s{i}"
            assert canon(response.report.to_payload()) == canon(
                reference.advise_trace(trace, batched=False).to_payload())
        assert batch_sizes(service)["total"] == len(traces)
        assert service.drain() is True

    def test_queue_depth_gauge_tracks_window_occupancy(self, suite):
        """The gauge is written at every admission and reads the
        requests waiting in the queue."""
        service, injector = stalled_service(suite)
        backlog = Backlog(service, injector)
        for i in range(3):
            backlog.queue(request_for(make_trace(1, kind=DSKind.SET,
                                                 seed=i),
                                      request_id=f"d{i}"))
        assert service.metrics.gauge_value("serve.queue_depth") == 3.0
        backlog.release()
        service.submit(request_for(make_trace(1, kind=DSKind.SET)))
        assert service.metrics.gauge_value("serve.queue_depth") <= 1.0


class TestServedTelemetry:
    def test_advise_counters_cover_every_served_record(self, suite):
        """``advise.records`` / ``advise.suggestions`` count every
        served record, whether requests ran alone or in one batch."""
        traces = [make_mixed_trace(1, seed=i) for i in range(3)]
        counts = []
        for together in (False, True):
            service, injector = stalled_service(suite)
            with obs.use_collector(service.collector):
                if together:
                    backlog = Backlog(service, injector)
                    for i, trace in enumerate(traces):
                        backlog.queue(request_for(trace,
                                                  request_id=f"t{i}"))
                    backlog.release()
                else:
                    injector.release.set()
                    service.submit(request_for(make_trace(1)))
                    for trace in traces:
                        service.submit(request_for(trace))
            metrics = service.metrics
            counts.append((metrics.counter_value("advise.records"),
                           metrics.counter_value("advise.suggestions")))
            passes = service.collector.span_tree()["advise"]["count"]
            assert passes == (2 if together else 4)
        served = 1 + sum(len(trace) for trace in traces)
        assert counts[0] == counts[1] == (served, served)


class TestBreakerIsolationUnderConcurrentFailures:
    def test_two_groups_trip_and_probe_independently(self, suite):
        """vector_oo and list_oo tripping at the same time keep
        independent open/half-open state: list_oo's successful probe
        closes it while vector_oo's failing probe re-opens it."""

        class StepClock:
            def __init__(self):
                self.now = 0.0
                self._lock = threading.Lock()

            def __call__(self):
                with self._lock:
                    return self.now

            def advance(self, seconds):
                with self._lock:
                    self.now += seconds

        clock = StepClock()
        injector = ServeFaultInjector(ServeFaultPlan(
            fail_groups={"vector_oo": -1, "list_oo": 1}))
        service = AdvisorService(
            suite=suite, workers=2, clock=clock,
            options=RunOptions(deadline_seconds=30.0,
                               breaker_threshold=1,
                               breaker_cooldown_seconds=10.0),
            inference=injector.wrap_inference(),
        )
        vec = AdviseRequest.from_payload(advise_payload(
            make_trace(1, kind=DSKind.VECTOR)))
        lst = AdviseRequest.from_payload(advise_payload(
            make_trace(1, kind=DSKind.LIST)))

        # Concurrent failures: both groups trip together.
        responses = submit_concurrently(
            service,
            [AdviseRequest.from_payload(advise_payload(
                make_trace(1, kind=DSKind.VECTOR))),
             AdviseRequest.from_payload(advise_payload(
                 make_trace(1, kind=DSKind.LIST)))])
        assert all(r.status == "degraded" for r in responses)
        assert service.breaker("vector_oo").state == OPEN
        assert service.breaker("list_oo").state == OPEN

        # Past the cooldown both are probe-eligible.  list_oo's failure
        # budget (1) is spent, so its probe succeeds and closes it;
        # vector_oo fails forever, so its probe re-opens it.  Probing
        # concurrently proves the half-open single-probe slots are
        # per group, not shared.
        clock.advance(11.0)
        probes = submit_concurrently(service, [vec, lst])
        by_status = sorted(p.status for p in probes)
        assert by_status == ["degraded", "ok"]
        assert service.breaker("vector_oo").state == OPEN
        assert service.breaker("list_oo").state != OPEN

    def test_open_breaker_short_circuits_only_its_group_in_a_batch(
            self, suite):
        """One batch carrying both a map trace and a list trace: the
        open map breaker degrades the former and must not touch the
        latter."""
        service, injector = stalled_service(
            suite, ServeFaultPlan(fail_groups={"map": -1}),
            breaker_threshold=1)
        trip = request_for(make_trace(1, kind=DSKind.MAP))
        assert service.submit(trip).status == "degraded"
        assert service.breaker("map").state == OPEN

        short_circuits_before = service.metrics.counter_value(
            "serve.breaker_short_circuit", group="map")
        backlog = Backlog(service, injector)
        backlog.queue(request_for(make_trace(2, kind=DSKind.MAP),
                                  request_id="map"))
        backlog.queue(request_for(make_trace(2, kind=DSKind.LIST),
                                  request_id="lst"))
        by_id = backlog.release()
        assert by_id["map"].status == "degraded"
        assert by_id["map"].degraded == DEGRADED_BREAKER
        assert by_id["lst"].status == "ok"
        assert by_id["lst"].degraded is None
        assert not any(s.degraded for s in by_id["lst"].report)
        assert batch_sizes(service)["max"] == 2
        assert service.metrics.counter_value(
            "serve.breaker_short_circuit",
            group="map") > short_circuits_before
        # The whole point of per-group breakers: list_oo never tripped.
        assert service.metrics.counter_value(
            "serve.breaker_short_circuit", group="list_oo") == 0
