"""Profiling container wrapper (the paper's modified STL).

The paper's profiling data structures inherit from the originals, record
behaviour (including hardware performance counters) in their interface
functions, and then call the original interfaces.  The Python analogue is
a transparent wrapper: every interface call is bracketed by machine
counter snapshots so only events raised *inside* the container are
attributed to it, no matter how much other application work runs on the
same machine in between.
"""

from __future__ import annotations

import numpy as np

from repro.containers.base import Container, OpCost
from repro.instrumentation.features import feature_vector
from repro.machine.events import PerfCounters

_NUM_COUNTERS = 11


class ProfiledContainer:
    """Wrap a container, attributing machine events to its interface calls.

    Parameters
    ----------
    inner:
        The container to profile.
    context:
        A free-form calling-context string (e.g. allocation site), kept so
        the advisor can point developers at the declaration to change.
    """

    def __init__(self, inner: Container, context: str = "<unknown>") -> None:
        self.inner = inner
        self.context = context
        self.machine = inner.machine
        self._hw = [0] * _NUM_COUNTERS

    # -- wrapped interface -------------------------------------------------

    def insert(self, value: int, hint: int | None = None) -> int:
        before = self.machine.snapshot_tuple()
        result = self.inner.insert(value, hint)
        self._absorb(before)
        return result

    def erase(self, value: int) -> int:
        before = self.machine.snapshot_tuple()
        result = self.inner.erase(value)
        self._absorb(before)
        return result

    def find(self, value: int) -> bool:
        before = self.machine.snapshot_tuple()
        result = self.inner.find(value)
        self._absorb(before)
        return result

    def iterate(self, steps: int) -> int:
        before = self.machine.snapshot_tuple()
        result = self.inner.iterate(steps)
        self._absorb(before)
        return result

    def push_back(self, value: int) -> int:
        before = self.machine.snapshot_tuple()
        result = self.inner.push_back(value)
        self._absorb(before)
        return result

    def push_front(self, value: int) -> int:
        before = self.machine.snapshot_tuple()
        result = self.inner.push_front(value)
        self._absorb(before)
        return result

    def clear(self) -> None:
        before = self.machine.snapshot_tuple()
        self.inner.clear()
        self._absorb(before)

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, value: int) -> bool:
        return value in self.inner

    def to_list(self) -> list[int]:
        return self.inner.to_list()

    # -- measurement --------------------------------------------------------

    def _absorb(self, before: tuple[int, ...]) -> None:
        after = self.machine.snapshot_tuple()
        hw = self._hw
        for i in range(_NUM_COUNTERS):
            hw[i] += after[i] - before[i]

    @property
    def stats(self) -> OpCost:
        """Software features (kept by the container itself)."""
        return self.inner.stats

    def hardware_counters(self) -> PerfCounters:
        """Hardware events attributed to this container's interface calls."""
        return PerfCounters(*self._hw)

    def attributed_cycles(self) -> int:
        return self._hw[0]

    def features(self) -> np.ndarray:
        """The canonical feature vector for this container's run so far."""
        return feature_vector(
            self.inner.stats,
            self.hardware_counters(),
            self.inner.element_bytes,
            self.machine.config.line_bytes,
        )
