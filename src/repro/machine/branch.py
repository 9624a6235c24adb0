"""Conditional-branch predictors.

Two classic predictors are provided:

* :class:`BimodalPredictor` — a table of saturating 2-bit counters indexed
  by branch PC (a gshare with no history bits).  Captures per-branch
  bias: the rarely-taken "vector is full, call resize" branch of
  ``push_back`` mispredicts on every resize, which is exactly the effect
  the paper identifies as a strong feature (Figure 6).
* :class:`GSharePredictor` — the PC xor-ed with a global history register,
  capturing correlated patterns.

Both expose ``predict_and_update(pc, taken) -> bool`` returning whether the
prediction was *correct*.
"""

from __future__ import annotations


class GSharePredictor:
    """Gshare: 2-bit counters indexed by PC xor global branch history."""

    __slots__ = ("table_size", "history_bits", "_counters", "_history",
                 "branches", "mispredicts")

    def __init__(self, table_size: int = 4096, history_bits: int = 8) -> None:
        if table_size & (table_size - 1):
            raise ValueError("table_size must be a power of two")
        self.table_size = table_size
        self.history_bits = history_bits
        # 2-bit counter: 0,1 predict not-taken; 2,3 predict taken.
        # Initialised weakly not-taken.
        self._counters = bytearray([1] * table_size)
        self._history = 0
        self.branches = 0
        self.mispredicts = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        self.branches += 1
        idx = (pc ^ self._history) & (self.table_size - 1)
        counter = self._counters[idx]
        correct = (counter >= 2) == taken
        if not correct:
            self.mispredicts += 1
        if taken:
            if counter < 3:
                self._counters[idx] = counter + 1
        elif counter > 0:
            self._counters[idx] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & (
            (1 << self.history_bits) - 1
        )
        return correct

    def reset(self) -> None:
        """Restore the freshly-constructed state (tables, history,
        counters)."""
        self._counters = bytearray([1] * self.table_size)
        self._history = 0
        self.branches = 0
        self.mispredicts = 0

    @property
    def miss_rate(self) -> float:
        if self.branches == 0:
            return 0.0
        return self.mispredicts / self.branches


class BimodalPredictor(GSharePredictor):
    """Table of 2-bit saturating counters indexed by branch PC: gshare
    with no history bits, so the index is the PC alone."""

    __slots__ = ()

    def __init__(self, table_size: int = 4096) -> None:
        super().__init__(table_size, history_bits=0)
