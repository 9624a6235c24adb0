"""Simulated microarchitecture substrate.

The paper measures hardware events (L1 misses, conditional-branch
mispredictions, cycles) with PAPI performance counters on real Intel Core2
and Atom machines.  This package replaces the real hardware with a
trace-driven simulation: containers issue loads, stores, branches and
allocations against a :class:`Machine`, which runs them through
set-associative caches, a TLB and a branch predictor, and accounts cycles.

Two presets mirror the paper's Figure 7 systems:

>>> from repro.machine import Machine, CORE2, ATOM
>>> m = Machine(CORE2)
>>> addr = m.malloc(64)
>>> m.read(addr, 8)
>>> m.counters().l1_misses
1
"""

from repro.machine.branch import BimodalPredictor, GSharePredictor
from repro.machine.cache import Cache
from repro.machine.configs import (
    ATOM,
    ATOM_FULL,
    CORE2,
    CORE2_FULL,
    MachineConfig,
    config_table,
)
from repro.machine.events import PerfCounters
from repro.machine.machine import Machine
from repro.machine.memory import Allocator
from repro.machine.prefetch import NextLinePrefetcher
from repro.machine.tlb import TLB

__all__ = [
    "ATOM",
    "ATOM_FULL",
    "Allocator",
    "BimodalPredictor",
    "CORE2",
    "CORE2_FULL",
    "Cache",
    "GSharePredictor",
    "Machine",
    "MachineConfig",
    "NextLinePrefetcher",
    "PerfCounters",
    "TLB",
    "config_table",
]
