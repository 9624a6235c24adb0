"""Placeholder for the retired trace-replay engine.

:class:`~repro.machine.machine.Machine` is the only simulator.  This
stub exists only because ``benchmarks/e2e/workloads.py:install_layers``
still imports ``TraceRecorder`` and patches its ``replay``; the
ROADMAP item that drops that patch deletes this module.
"""


class TraceRecorder:
    """Never constructed; nothing replays a trace any more."""

    def replay(self) -> None:
        raise RuntimeError("the trace-replay engine has been removed")
