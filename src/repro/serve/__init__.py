"""The resilient advisor serving runtime (``repro serve``).

A long-running, stdlib-only service wrapping the advisor behind a
bounded-concurrency dispatch loop with four guarantees:

* per-request **deadlines** (baseline answer flagged
  ``degraded=deadline`` instead of a hang),
* **load shedding** (bounded queue; fast structured ``overloaded``),
* per-model-group **circuit breakers** (consecutive failures route the
  group to the Perflint baseline until a half-open probe recovers),
* **hot reload** with last-known-good fallback (a corrupt new suite
  artifact never replaces a working one).

With ``--registry`` the same service serves a versioned
:class:`~repro.registry.store.SuiteRegistry` instead of one directory:
requests route by tag to each key's live version, candidates are
shadow-evaluated on mirrored traffic, promotion is gated, and a
regressing promotion is rolled back automatically (see
:class:`~repro.serve.reload.RegistryRouter` and ``docs/registry.md``).

See ``docs/serving.md`` for the operator guide.
"""

from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.fleet import FleetSpec, run_fleet
from repro.serve.loop import AdvisorService, Dispatcher
from repro.serve.protocol import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_UNAVAILABLE,
    AdviseRequest,
    ProtocolError,
    ServeResponse,
)
from repro.serve.reload import (
    RegistryRouter,
    RegistryRouterError,
    SuiteReloader,
)
from repro.serve.server import (
    AdvisorServer,
    request_once,
    run_server,
)

__all__ = [
    "AdviseRequest",
    "AdvisorServer",
    "AdvisorService",
    "CircuitBreaker",
    "CLOSED",
    "Dispatcher",
    "FleetSpec",
    "HALF_OPEN",
    "OPEN",
    "ProtocolError",
    "RegistryRouter",
    "RegistryRouterError",
    "request_once",
    "run_fleet",
    "run_server",
    "ServeResponse",
    "STATUS_DEGRADED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "STATUS_UNAVAILABLE",
    "SuiteReloader",
]
