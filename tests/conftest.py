"""Shared fixtures and hypothesis settings."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from repro import api
from repro.appgen.config import GeneratorConfig
from repro.machine.configs import ATOM, CORE2
from repro.machine.machine import Machine
from repro.models import cache as cache_mod
from repro.serve import AdvisorService

# Keep property tests brisk: the containers run a real simulator per op.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def core2() -> Machine:
    return Machine(CORE2)


@pytest.fixture
def atom() -> Machine:
    return Machine(ATOM)


@pytest.fixture
def small_config() -> GeneratorConfig:
    return GeneratorConfig.small()


#: The training scale of the suite the facade and CLI tests share.
UNIT_SCALE = cache_mod.ScaleParams("unit-api", per_class_target=3,
                                   max_seeds=60, validation_apps=5,
                                   hidden=(8,))


@pytest.fixture(scope="session")
def trained_suite(tmp_path_factory):
    """One ``api.train`` at :data:`UNIT_SCALE` per test session, in a
    cache of its own: ``(handle, telemetry path)``.

    Tests read it and never write to it; a test that needs a trained
    suite in its own cache copies it there with :func:`install_suite`.
    """
    root = tmp_path_factory.mktemp("trained-suite")
    telemetry = root / "train.telemetry.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_mod, "CACHE_DIR", root / "cache")
        patch.setitem(cache_mod.SCALES, UNIT_SCALE.name, UNIT_SCALE)
        handle = api.train(machine="core2", scale=UNIT_SCALE.name,
                           telemetry=telemetry)
    return handle, telemetry


@pytest.fixture
def install_suite(trained_suite):
    """``install(cache_root, scale_name)`` copies the session's suite to
    where a scale of that name looks for its core2 suite.  Any scale
    with :data:`UNIT_SCALE`'s training budget trains this very suite."""
    def install(cache_root: Path, scale_name: str) -> None:
        shutil.copytree(trained_suite[0].path,
                        Path(cache_root) / "suites" / f"core2-{scale_name}")

    return install


@pytest.fixture
def drained_services(monkeypatch):
    """Drain and close every :class:`AdvisorService` the test builds
    when it ends, so its worker threads exit.

    A pass still running after a deadline answer writes ``advise.*``
    counters into whatever collector is active, and that collector is
    process-global: undrained, it can land in a later test's telemetry.
    """
    built = []
    real_init = AdvisorService.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(AdvisorService, "__init__", init)
    yield
    for service in built:
        assert service.drain(drain_seconds=10.0), \
            "a serve worker pass outlived its test"
        service.close()
