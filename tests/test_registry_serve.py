"""Registry-mode serving, in process: routing, shadowing, promotion,
demotion, probes, and up-front knob validation.

Everything here drives :class:`AdvisorService` directly (no sockets) so
the router's state machine is deterministic: ``reload_now()`` is the
poll tick, ``wait_idle()`` settles the shadow queue, and the serving
fault injector produces the model failures the auto-demote watch
counts.  The subprocess acceptance path lives in
``test_registry_e2e.py``.
"""

import os
import signal
import threading
import time

import pytest

from repro import api
from repro.registry.store import (
    RegistryError,
    RegistryKey,
    STATUS_QUARANTINED,
    STATUS_ROLLED_BACK,
    SuiteRegistry,
)
from repro.runtime.inject import (
    ServeFaultInjector,
    ServeFaultPlan,
    corrupt_artifact,
)
from repro.runtime.options import RunOptions
from repro.serve.loop import AdvisorService
from repro.serve.testing import advise_payload, make_trace, tiny_suite

pytestmark = pytest.mark.usefixtures("drained_services")


KEY = RegistryKey("core2", "cafef00d1234")

#: Small thresholds so tests cross the gates with a handful of requests.
FAST_OPTIONS = RunOptions(
    shadow_min_samples=3, shadow_min_agreement=0.9,
    auto_demote_failures=2, post_promote_window=20,
    breaker_threshold=100,  # keep breakers out of auto-demote tests
)


@pytest.fixture()
def registry(tmp_path):
    store = SuiteRegistry(tmp_path / "reg")
    store.register(tiny_suite(0), KEY, validation={"green": True})
    store.promote(KEY)
    return store


def _service(registry, **kwargs):
    kwargs.setdefault("options", FAST_OPTIONS)
    return AdvisorService(registry=registry, **kwargs)


def _advise(service, tag="", request_id="r1"):
    return service.handle_payload(
        advise_payload(make_trace(3), request_id=request_id, tag=tag))


class TestRouting:
    def test_untagged_machine_and_full_key_tags_all_route(self,
                                                          registry):
        service = _service(registry)
        assert _advise(service)["status"] == "ok"
        assert _advise(service, tag="core2")["status"] == "ok"
        assert _advise(service, tag=str(KEY))["status"] == "ok"

    def test_unknown_tag_is_a_structured_error(self, registry):
        service = _service(registry)
        response = _advise(service, tag="atom/nope")
        assert response["status"] == "error"
        assert "unknown or unserveable" in response["error"]
        assert str(KEY) in response["error"]

    def test_tag_rejected_outside_registry_mode(self):
        service = AdvisorService(suite=tiny_suite(0))
        response = _advise(service, tag="core2")
        assert response["status"] == "error"
        assert "not in registry mode" in response["error"]

    def test_health_names_version_and_fingerprint(self, registry):
        service = _service(registry)
        health = service.health()
        assert health["suite_version"] == 1
        fingerprint = health["suite_fingerprint"]
        assert fingerprint and fingerprint.startswith("sha256:")
        assert fingerprint == registry.live(KEY).fingerprint
        assert str(KEY) in health["registry"]
        assert service.ready() == (True, None)


class TestShadowAndPromotion:
    def test_candidate_is_shadowed_then_gate_promoted(self, registry):
        service = _service(registry)
        # Identical weights → full agreement with the live suite.
        registry.register(tiny_suite(0), KEY,
                          validation={"green": True})
        service.reload_now()  # shadow spins up
        shadow = service.router.shadow_for(str(KEY))
        assert shadow is not None and shadow.version == 2
        for i in range(4):
            assert _advise(service, request_id=f"s{i}")["status"] == "ok"
        assert shadow.wait_idle()
        assert shadow.stats().agreement == pytest.approx(1.0)
        tick = service.reload_now()
        assert str(KEY) in tick["promoted"]
        assert registry.live(KEY).version == 2
        assert service.health()["suite_version"] == 2
        # The shadow is retired with the promotion.
        assert service.router.shadow_for(str(KEY)) is None

    def test_no_auto_promote_keeps_candidate_shadowing(self, registry):
        service = _service(registry, auto_promote=False)
        registry.register(tiny_suite(0), KEY,
                          validation={"green": True})
        service.reload_now()
        for i in range(4):
            _advise(service, request_id=f"s{i}")
        service.router.shadow_for(str(KEY)).wait_idle()
        service.reload_now()
        assert registry.live(KEY).version == 1  # still not promoted

    def test_red_validation_blocks_the_gate(self, registry):
        service = _service(registry)
        registry.register(tiny_suite(0), KEY,
                          validation={"green": False})
        service.reload_now()
        for i in range(4):
            _advise(service, request_id=f"s{i}")
        service.router.shadow_for(str(KEY)).wait_idle()
        service.reload_now()
        assert registry.live(KEY).version == 1

    def test_promote_op_enforces_gates_unless_forced(self, registry):
        service = _service(registry)
        registry.register(tiny_suite(0), KEY,
                          validation={"green": True})
        service.reload_now()
        # No shadow traffic yet: the op refuses politely.
        refused = service.handle_payload({"op": "promote", "id": "p"})
        assert refused["status"] == "error"
        assert "gates not met" in refused["error"]
        forced = service.handle_payload({"op": "promote", "id": "p",
                                         "force": True})
        assert forced["status"] == "ok"
        assert forced["detail"]["version"] == 2
        assert registry.live(KEY).version == 2

    def test_rollback_op_restores_previous(self, registry):
        service = _service(registry)
        registry.register(tiny_suite(1), KEY,
                          validation={"green": True})
        service.reload_now()
        service.handle_payload({"op": "promote", "force": True})
        response = service.handle_payload({"op": "rollback",
                                           "reason": "operator"})
        assert response["status"] == "ok"
        assert response["detail"]["version"] == 1
        assert registry.live(KEY).version == 1
        assert (registry.version_info(KEY, 2).status
                == STATUS_ROLLED_BACK)
        assert _advise(service)["status"] == "ok"

    def test_registry_ops_refused_outside_registry_mode(self):
        service = AdvisorService(suite=tiny_suite(0))
        for op in ("promote", "rollback"):
            response = service.handle_payload({"op": op})
            assert response["status"] == "error"
            assert "registry mode" in response["error"]

    def test_bootstrap_with_two_candidates_never_downgrades(
            self, tmp_path):
        """Two registered versions before serving starts: bootstrap
        promotes the newest, and the leftover older version must not be
        shadow-evaluated back over it."""
        store = SuiteRegistry(tmp_path / "reg")
        store.register(tiny_suite(0), KEY, validation={"green": True})
        store.register(tiny_suite(1), KEY, validation={"green": True})
        service = _service(store)
        assert store.live(KEY).version == 2
        assert service.router.shadow_for(str(KEY)) is None
        for i in range(4):
            assert _advise(service, request_id=f"b{i}")["status"] == "ok"
        service.reload_now()
        assert store.live(KEY).version == 2

    def test_unforced_promote_without_live_requires_green(
            self, tmp_path):
        """With no live version there is no shadow traffic to gate on,
        but an unforced promote op still demands validation green —
        same bar as the bootstrap path."""
        store = SuiteRegistry(tmp_path / "reg")
        store.register(tiny_suite(0), KEY, validation={"green": False})
        service = _service(store)
        refused = service.handle_payload({"op": "promote", "id": "p"})
        assert refused["status"] == "error"
        assert "validation-green" in refused["error"]
        assert store.live(KEY) is None
        forced = service.handle_payload({"op": "promote", "id": "p",
                                         "force": True})
        assert forced["status"] == "ok"
        assert store.live(KEY).version == 1
        assert _advise(service)["status"] == "ok"


class TestRegression:
    def test_corrupt_live_version_quarantined_with_fallback(
            self, registry):
        service = _service(registry)
        registry.register(tiny_suite(1), KEY,
                          validation={"green": True})
        service.reload_now()
        service.handle_payload({"op": "promote", "force": True})
        assert registry.live(KEY).version == 2
        # Bytes change under the live version: the injected regression.
        corrupt_artifact(
            next(registry.version_dir(KEY, 2).glob("*.json")))
        service.reload_now()
        assert registry.live(KEY).version == 1
        assert (registry.version_info(KEY, 2).status
                == STATUS_QUARANTINED)
        assert _advise(service)["status"] == "ok"
        assert service.health()["suite_version"] == 1

    def test_auto_demote_after_post_promote_failures(self, registry):
        injector = ServeFaultInjector(ServeFaultPlan())
        service = _service(registry,
                           inference=injector.wrap_inference())
        registry.register(tiny_suite(1), KEY,
                          validation={"green": True})
        service.reload_now()
        service.handle_payload({"op": "promote", "force": True})
        assert registry.live(KEY).version == 2
        # The freshly-promoted suite starts failing inference.
        injector._failures_left["vector_oo"] = -1
        for i in range(3):
            response = _advise(service, request_id=f"f{i}")
            assert response["status"] == "degraded"
            assert response["degraded"] in ("inference_error", "mixed")
        service.reload_now()  # executes the scheduled demotion
        assert registry.live(KEY).version == 1
        info = registry.version_info(KEY, 2)
        assert info.status == STATUS_ROLLED_BACK
        assert "auto-demote" in info.reason
        snapshot = service.metrics.snapshot()["counters"]
        assert any(name.startswith("registry.auto_demote")
                   for name in snapshot)
        # Serving continues from the restored version.
        injector._failures_left["vector_oo"] = 0
        assert _advise(service)["status"] == "ok"

    def test_gate_passing_candidate_that_corrupts_is_not_fatal(
            self, registry):
        """The gates pass on shadow stats, but the candidate corrupted
        after shadow spin-up: pre-promote validation fails inside
        promote_now.  The poll tick must swallow that (LKG keeps
        serving), not crash the serving process."""
        service = _service(registry)
        registry.register(tiny_suite(0), KEY,
                          validation={"green": True})
        service.reload_now()
        for i in range(4):
            _advise(service, request_id=f"s{i}")
        service.router.shadow_for(str(KEY)).wait_idle()
        corrupt_artifact(
            next(registry.version_dir(KEY, 2).glob("*.json")))
        tick = service.reload_now()  # must not raise
        assert str(KEY) not in tick["promoted"]
        assert registry.live(KEY).version == 1
        assert (registry.version_info(KEY, 2).status
                == STATUS_QUARANTINED)
        assert _advise(service)["status"] == "ok"
        detail = service.router.health()[str(KEY)]
        assert "auto-promote failed" in detail["error"]
        counters = service.metrics.snapshot()["counters"]
        assert any(name.startswith("registry.promote_rejected")
                   for name in counters)

    def test_reload_op_survives_router_failure(self, registry,
                                               monkeypatch):
        service = _service(registry)

        def boom():
            raise RegistryError("registry exploded")

        monkeypatch.setattr(service.router, "refresh", boom)
        response = service.handle_payload({"op": "reload", "id": "r"})
        assert response["status"] == "error"
        assert "reload failed" in response["error"]
        assert "registry exploded" in response["error"]
        # Live answers are unaffected.
        assert _advise(service)["status"] == "ok"

    def test_report_outcome_lock_free_without_a_watch(self, registry):
        """With no post-promote watch armed, the request path must not
        touch the router lock (refresh() holds it across strict suite
        loads)."""
        service = _service(registry)
        router = service.router
        assert router._lock.acquire(blocking=False)
        try:
            done = []

            def report():
                router.report_outcome(str(KEY), failure=True)
                done.append(True)

            thread = threading.Thread(target=report, daemon=True)
            thread.start()
            thread.join(timeout=2.0)
            assert done, "report_outcome blocked on the router lock"
        finally:
            router._lock.release()

    def test_clean_watch_window_keeps_the_promotion(self, registry):
        service = _service(registry, options=FAST_OPTIONS.with_overrides(
            post_promote_window=3))
        registry.register(tiny_suite(1), KEY,
                          validation={"green": True})
        service.reload_now()
        service.handle_payload({"op": "promote", "force": True})
        for i in range(5):
            assert _advise(service, request_id=f"c{i}")["status"] == "ok"
        service.reload_now()
        assert registry.live(KEY).version == 2


class TestPollLoopResilience:
    def test_run_server_survives_reload_failure(self, registry,
                                                monkeypatch):
        """A failing reconciliation pass must not take the server down:
        the poll loop keeps serving, announces the failure once, and
        the process still drains cleanly on SIGTERM."""
        from repro.serve.server import run_server

        service = _service(registry)

        def boom():
            raise RegistryError("manifest unreadable")

        monkeypatch.setattr(service, "reload_now", boom)
        messages = []

        def announce(message, flush=False):
            messages.append(message)

        def fire_sigterm():
            time.sleep(0.4)
            os.kill(os.getpid(), signal.SIGTERM)

        threading.Thread(target=fire_sigterm, daemon=True).start()
        code = run_server(service, poll_interval=0.05,
                          announce=announce)
        assert code == 0
        failures = [m for m in messages if "reload failed" in m]
        assert len(failures) == 1  # announced once, not per poll
        assert "manifest unreadable" in failures[0]


class TestKnobValidation:
    BAD_OPTIONS = [
        RunOptions(deadline_seconds=0),
        RunOptions(queue_depth=0),
        RunOptions(breaker_threshold=0),
        RunOptions(drain_seconds=-1),
        RunOptions(shadow_queue_depth=0),
        RunOptions(shadow_min_samples=0),
        RunOptions(shadow_min_agreement=1.5),
        RunOptions(auto_demote_failures=0),
        RunOptions(post_promote_window=-1),
    ]

    @pytest.mark.parametrize("options", BAD_OPTIONS,
                             ids=lambda o: o and "bad-knob")
    def test_validate_serving_names_the_offender(self, options):
        with pytest.raises(ValueError):
            options.validate_serving()

    def test_api_serve_maps_bad_knobs_to_usage_error(self, registry):
        with pytest.raises(api.UsageError,
                           match="deadline_seconds must be positive"):
            api.serve(registry=registry.root,
                      options=RunOptions(deadline_seconds=-1))

    def test_api_pipeline_maps_bad_knobs_to_usage_error(self, tmp_path):
        with pytest.raises(api.UsageError,
                           match="shadow_min_samples"):
            api.pipeline(registry=tmp_path / "reg",
                         options=RunOptions(shadow_min_samples=0))

    def test_api_pipeline_rejects_bad_fault_spec(self, tmp_path):
        with pytest.raises(api.UsageError, match="fault"):
            api.pipeline(registry=tmp_path / "reg",
                         fault_spec="train:bogus")

    def test_api_serve_rejects_missing_or_conflicting_sources(
            self, tmp_path, registry):
        with pytest.raises(api.UsageError, match="no registry"):
            api.serve(registry=tmp_path / "missing")
        with pytest.raises(api.UsageError, match="not both"):
            api.serve(registry=registry.root,
                      suite_dir=tmp_path / "anything")

    def test_service_rejects_registry_with_no_keys(self, tmp_path):
        empty = SuiteRegistry(tmp_path / "empty")
        with pytest.raises(RuntimeError, match="no keys"):
            AdvisorService(registry=empty)

    def test_constructor_validates_knobs_in_every_mode(self):
        with pytest.raises(ValueError, match="queue_depth"):
            AdvisorService(suite=tiny_suite(0),
                           options=RunOptions(queue_depth=0))
