"""Simulator engine selection.

Two engines sit behind the same event API:

* ``scalar`` — :class:`~repro.machine.machine.Machine` walks the
  cache/TLB/predictor hierarchy inside every event call;
* ``vector`` — :class:`~repro.machine.vector.TraceRecorder` records
  events into a typed buffer and replays whole chunks through numpy
  decode plus one tight LRU loop, bit-identical counters.

``auto`` (the default everywhere) picks per run: every run that reads
counters mid-run would flush the recorder's buffer a handful of events
at a time and erase the replay advantage, so ``auto`` resolves to
``scalar`` for them and to ``vector`` for runs observed only at the
end.  Two kinds of run read mid-run: instrumented runs
(``snapshot_tuple()`` after every container operation) and Phase I's
race runs (``cycles`` after every interface call).  The race advances
its candidates in cycle order, so every race run reads cycles mid-run
and training (Phase I and Phase II) no longer uses the vector recorder;
``repro appgen`` probes, the full sweep and darwin evaluations still
do.  On Phase I traffic the scalar machine measured no slower than the
recorder (``train-mini`` trains: median 2.50 s scalar vs 2.61 s vector
on a shared 2-CPU host; docs/performance.md).

Selection precedence, strongest first:

1. an explicit ``engine=`` argument (``--sim-engine`` / ``RunOptions``);
2. the ``REPRO_SIM_ENGINE`` environment variable;
3. ``MachineConfig.sim_engine`` (defaults to ``auto``).
"""

from __future__ import annotations

import os

from repro.machine.configs import MachineConfig
from repro.machine.machine import Machine
from repro.machine.vector import TraceRecorder

#: Accepted values for every engine knob (config field, env var, CLI).
VALID_ENGINES = ("scalar", "vector", "auto")

_ENV_VAR = "REPRO_SIM_ENGINE"


def validate_engine(engine: str, source: str = "sim_engine") -> str:
    """Return ``engine`` or raise ``ValueError`` naming the valid set."""
    if engine not in VALID_ENGINES:
        raise ValueError(
            f"{source}: unknown simulator engine {engine!r} "
            f"(valid: {', '.join(VALID_ENGINES)})")
    return engine


def resolve_engine(config: MachineConfig, *, instrumented: bool = False,
                   engine: str | None = None) -> str:
    """Resolve the concrete engine ("scalar" or "vector") for one run.

    ``instrumented`` means the run reads counters mid-run.
    """
    if engine is None:
        engine = os.environ.get(_ENV_VAR) or config.sim_engine
        source = (_ENV_VAR if os.environ.get(_ENV_VAR)
                  else "MachineConfig.sim_engine")
    else:
        source = "engine"
    validate_engine(engine, source)
    if engine == "auto":
        return "scalar" if instrumented else "vector"
    return engine


def make_machine(config: MachineConfig, *, instrumented: bool = False,
                 engine: str | None = None):
    """Build the simulator for one run under the resolved engine.

    Returns a :class:`Machine` or an API-compatible
    :class:`TraceRecorder`; callers treat the result uniformly (both
    expose ``engine`` as an attribute for telemetry).
    """
    if resolve_engine(config, instrumented=instrumented,
                      engine=engine) == "vector":
        return TraceRecorder(config)
    return Machine(config)
