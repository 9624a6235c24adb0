"""Unit tests for the Machine: cycle accounting and counter attribution,
plus pinned SHA-256 oracles of every observable measurement on
randomized event streams (issued event by event, and with runs of
events played by ``walk``) and of a Phase I artifact."""

import hashlib
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.appgen.config import GeneratorConfig
from repro.containers.avltree import AVLTree
from repro.containers.hashtable import HashTable
from repro.containers.linked_list import DoublyLinkedList
from repro.containers.rbtree import RedBlackTree
from repro.containers.registry import MODEL_GROUPS
from repro.containers.splaytree import SplayTree
from repro.machine.cache import Cache
from repro.machine.configs import (
    ATOM,
    ATOM_FULL,
    CORE2,
    CORE2_FULL,
    MachineConfig,
)
from repro.machine.machine import Machine
from repro.machine.prefetch import NextLinePrefetcher
from repro.runtime.artifacts import canonical_json, read_artifact
from repro.training.phase1 import (
    PHASE1_ARTIFACT_KIND,
    PHASE1_SCHEMA_VERSION,
    run_phase1,
)
from repro.training.phase2 import run_phase2


class TestBasics:
    def test_fresh_machine_is_zeroed(self, core2):
        counters = core2.counters()
        assert counters.cycles == 0
        assert counters.instructions == 0
        assert counters.l1_accesses == 0

    def test_instr_cost(self, core2):
        core2.instr(100)
        assert core2.instructions == 100
        assert core2.cycles == int(100 * CORE2.cpi_base)

    def test_atom_instructions_cost_more(self, core2, atom):
        core2.instr(1000)
        atom.instr(1000)
        assert atom.cycles > core2.cycles

    def test_div_latency(self, core2, atom):
        core2.div()
        atom.div()
        assert core2.cycles == CORE2.div_latency
        assert atom.cycles == ATOM.div_latency
        assert atom.cycles > core2.cycles

    def test_access_rejects_non_positive(self, core2):
        with pytest.raises(ValueError):
            core2.access(0x1000, 0)

    def test_unknown_predictor_rejected(self):
        import dataclasses
        bad = dataclasses.replace(CORE2, predictor="perceptron")
        with pytest.raises(ValueError):
            Machine(bad)

    def test_seconds_at_frequency(self, core2):
        core2.instr(2_400_000)
        # 2.4M instructions at cpi 0.4 = 960k cycles at 2.4 GHz = 0.4 ms.
        assert core2.seconds == pytest.approx(0.0004, rel=1e-3)


class TestMemoryHierarchy:
    def test_cold_access_misses_everywhere(self, core2):
        addr = core2.allocator.malloc(64)  # avoid malloc's header touch
        core2.access(addr, 8)
        counters = core2.counters()
        assert counters.l1_accesses == 1
        assert counters.l1_misses == 1
        assert counters.l2_misses == 1
        assert counters.tlb_misses == 1

    def test_warm_access_hits(self, core2):
        addr = core2.allocator.malloc(64)
        core2.access(addr, 8)
        before = core2.counters()
        core2.access(addr, 8)
        after = core2.counters()
        assert after.l1_misses == before.l1_misses
        assert after.cycles - before.cycles == CORE2.l1_latency

    def test_multi_line_access_counts_lines(self, core2):
        addr = core2.allocator.malloc(256)
        core2.access(addr, 256)
        expected = ((addr + 255) // 64) - (addr // 64) + 1
        assert core2.counters().l1_accesses == expected

    def test_streaming_discount(self):
        """A contiguous multi-line access is cheaper per line than the
        same lines accessed individually (more so on Core2 than Atom)."""
        def contiguous(config):
            machine = Machine(config)
            addr = machine.allocator.malloc(4096)
            machine.access(addr, 4096)
            return machine.cycles

        def separate(config):
            machine = Machine(config)
            addr = machine.allocator.malloc(4096)
            for offset in range(0, 4096, config.line_bytes):
                machine.access(addr + offset, 8)
            return machine.cycles

        assert contiguous(CORE2) < separate(CORE2)
        assert contiguous(ATOM) < separate(ATOM)
        core2_ratio = contiguous(CORE2) / separate(CORE2)
        atom_ratio = contiguous(ATOM) / separate(ATOM)
        assert core2_ratio < atom_ratio  # OoO streams better

    def test_l2_capacity_difference(self):
        """A working set that fits Core2's L2 but not Atom's must show a
        higher L2 miss rate on Atom."""
        results = {}
        for config in (CORE2, ATOM):
            machine = Machine(config)
            base = machine.allocator.malloc(3 * CORE2.l2_size // 4)
            span = 3 * CORE2.l2_size // 4
            for _ in range(3):
                for offset in range(0, span, config.line_bytes):
                    machine.access(base + offset, 8)
            results[config.name] = machine.counters().l2_miss_rate
        assert results["atom"] > results["core2"] * 2

    def test_inlined_l1_path_matches_cache_class(self):
        """Differential: Machine.access's inlined tag handling must agree
        with the standalone Cache for single-line accesses to one page."""
        import random
        machine = Machine(CORE2)
        reference = Cache(CORE2.l1_size, CORE2.l1_assoc, CORE2.line_bytes)
        rng = random.Random(0)
        base = 0x40000000  # one page, so the TLB path stays quiet
        for _ in range(300):
            line_index = rng.randrange(8)
            addr = base + line_index * CORE2.line_bytes
            machine.access(addr, 8)
            reference.access(addr >> 6)
        assert machine.l1.misses == reference.misses
        assert machine.l1.accesses == reference.accesses


class TestBranches:
    def test_branch_counts(self, core2):
        for i in range(10):
            core2.branch(1, i % 2 == 0)
        counters = core2.counters()
        assert counters.branches == 10
        assert counters.branch_mispredicts > 0

    def test_mispredict_costs_cycles(self, core2):
        core2.branch(1, True)   # cold: mispredicted
        with_miss = core2.cycles
        for _ in range(10):
            core2.branch(1, True)
        before = core2.cycles
        core2.branch(1, True)   # warm: predicted
        without_miss = core2.cycles - before
        assert with_miss > without_miss

    def test_loop_branches_accounting(self, core2):
        core2.loop_branches(3, 100)
        counters = core2.counters()
        assert counters.branches == 101
        assert counters.branch_mispredicts == 1

    def test_loop_branches_zero_iterations(self, core2):
        core2.loop_branches(3, 0)
        counters = core2.counters()
        assert counters.branches == 1
        assert counters.branch_mispredicts == 0

    def test_loop_branches_rejects_negative(self, core2):
        with pytest.raises(ValueError):
            core2.loop_branches(3, -1)


class TestMallocFree:
    def test_malloc_costs(self, core2):
        core2.malloc(64)
        counters = core2.counters()
        assert counters.allocations == 1
        assert counters.instructions >= CORE2.malloc_instructions
        assert counters.allocated_bytes > 0

    def test_free_costs_less_than_malloc(self, core2, atom):
        addr = core2.malloc(64)
        after_malloc = core2.cycles
        core2.free(addr)
        free_cost = core2.cycles - after_malloc
        assert 0 < free_cost < after_malloc


class TestSnapshots:
    def test_snapshot_tuple_matches_counters(self, core2):
        core2.malloc(128)
        core2.instr(50)
        core2.branch(1, True)
        tup = core2.snapshot_tuple()
        counters = core2.counters()
        assert tup == (
            counters.cycles, counters.instructions,
            counters.l1_accesses, counters.l1_misses,
            counters.l2_accesses, counters.l2_misses,
            counters.tlb_misses, counters.branches,
            counters.branch_mispredicts, counters.allocations,
            counters.allocated_bytes,
        )

    def test_reset_clears_counters_keeps_heap(self, core2):
        addr = core2.malloc(64)
        core2.reset()
        assert core2.cycles == 0
        assert core2.counters().branches == 0
        assert core2.allocator.is_live(addr)
        core2.access(addr, 8)
        assert core2.counters().l1_misses == 1  # caches were flushed


@given(st.integers(min_value=1, max_value=4096))
def test_access_line_count_formula(nbytes):
    machine = Machine(CORE2)
    addr = 0x2000_0000
    machine.access(addr, nbytes)
    expected = ((addr + nbytes - 1) // 64) - (addr // 64) + 1
    assert machine.counters().l1_accesses == expected


def machine_state(machine: Machine) -> tuple:
    """Every observable measurement: the counter snapshot, the raw
    ``snapshot_tuple`` the instrumentation reads, the TLB access count
    (not in the public snapshot) and the float ``seconds``."""
    return (
        machine.counters(),
        machine.snapshot_tuple(),
        machine.tlb.accesses,
        machine.seconds,
    )


def state_digest(*machines: Machine) -> str:
    """SHA-256 over :func:`machine_state` of each machine, with
    ``seconds`` compared by ``repr`` so any last-bit drift shows."""
    states = []
    for machine in machines:
        counters, snapshot, tlb_accesses, seconds = machine_state(machine)
        states.append([counters.as_dict(), list(snapshot), tlb_accesses,
                       repr(seconds)])
    return hashlib.sha256(json.dumps(states).encode()).hexdigest()


def drive_random_stream(machine, seed, events=4000, with_reset=False):
    """A seeded mixed stream of every event kind the machine accepts."""
    rng = random.Random(seed)
    addrs = []
    for _ in range(events):
        r = rng.random()
        if r < 0.52:
            if addrs and rng.random() < 0.4:
                machine.access(rng.choice(addrs),
                               rng.choice((1, 7, 8, 16, 64, 200, 5000)))
            else:
                machine.access(rng.randrange(1 << 22),
                               rng.choice((8, 8, 8, 16)))
        elif r < 0.67:
            machine.instr(rng.randrange(0, 200))
        elif r < 0.80:
            machine.branch(rng.randrange(4096), rng.random() < 0.7)
        elif r < 0.85:
            machine.div(rng.randrange(0, 4))
        elif r < 0.90:
            machine.loop_branches(rng.randrange(4096),
                                  rng.randrange(0, 50))
        elif r < 0.97:
            addrs.append(machine.malloc(rng.randrange(1, 512)))
        elif addrs:
            machine.free(addrs.pop(rng.randrange(len(addrs))))
        # Mid-stream observation points.
        if rng.random() < 0.002:
            machine.snapshot_tuple()
        if with_reset and rng.random() < 0.001:
            machine.reset()
    return machine


def repeat_range_lines(config: MachineConfig) -> tuple[int, ...]:
    """Range sizes, in lines, that reach every regime of a repeated
    range on ``config``: inside L1, between L1 capacity and
    ``nsets * (assoc + 1)`` lines (some sets overflow, some do not),
    beyond the ATOM L2, and beyond the TLB's reach."""
    line = config.line_bytes
    nsets = config.l1_size // (config.l1_assoc * line)
    l1_lines = config.l1_lines
    tlb_lines = config.tlb_entries * (config.page_bytes // line)
    overflow = nsets * (config.l1_assoc + 1)
    return (2, 3, 5, l1_lines // 2, l1_lines, l1_lines + nsets // 2,
            overflow - 1, overflow + 3, ATOM.l2_size // line + 40,
            tlb_lines + 3 * config.page_bytes // line)


def drive_repeat_stream(machine, seed, events=300):
    """A seeded stream whose multi-line ranges are re-issued one to
    three times, sometimes through a different ``(addr, nbytes)`` over
    the same lines, with instructions, branches, heap calls, single-line
    touches and resets interleaved between a range and its repeats.

    Returns the trail of ``snapshot_tuple``, TLB accesses and
    ``repr(seconds)`` observed after every range and its repeats, so a
    later reset cannot hide an earlier divergence."""
    rng = random.Random(seed)
    trail = []
    line = machine.config.line_bytes
    sizes = repeat_range_lines(machine.config)
    weights = (6, 6, 6, 4, 4, 3, 3, 3, 2, 1)
    addrs = []
    for _ in range(events):
        lines = rng.choices(sizes, weights)[0]
        addr = rng.randrange(1 << 23)
        nbytes = (lines - 1) * line + 1 + rng.randrange(line)
        machine.access(addr, nbytes)
        for _ in range(rng.randrange(1, 4)):
            r = rng.random()
            if r < 0.15:
                machine.instr(rng.randrange(1, 100))
            elif r < 0.25:
                machine.branch(rng.randrange(4096), rng.random() < 0.6)
            elif r < 0.30:
                addrs.append(machine.malloc(rng.randrange(1, 256)))
            elif r < 0.35 and addrs:
                machine.free(addrs.pop(rng.randrange(len(addrs))))
            elif r < 0.40:
                machine.access(rng.randrange(1 << 23), 8)
            elif r < 0.43:
                machine.reset()
            if rng.random() < 0.2:
                # Same lines, different bytes: trim into the first line
                # and stop short of the end of the last one.
                first = addr - addr % line
                last_end = (addr + nbytes - 1) // line * line + line
                lo = first + rng.randrange(line)
                hi = last_end - rng.randrange(line)
                machine.access(lo, hi - lo)
            else:
                machine.access(addr, nbytes)
        trail.append([list(machine.snapshot_tuple()), machine.tlb.accesses,
                      repr(machine.seconds)])
    return trail


def drive_straddle_stream(machine, seed, events=600):
    """A seeded stream of node-sized accesses (24-72 bytes, a tree or
    hash node's ``24 + elem``) placed just before line and page ends,
    so most span two lines and some a third; the first of every stream
    is a two-line access whose second line opens a new page.  Nodes
    come in same-sized runs, as a descent touches them, are re-touched
    from a small pool (hits and exact repeats), and are interleaved
    with instructions, branches and heap calls.

    Returns the trail observed after every run, ending with the
    memory-side state no counter exposes (:func:`cache_state`)."""
    rng = random.Random(seed)
    config = machine.config
    line = config.line_bytes
    page = config.page_bytes
    region = 1 << 20
    trail = []
    pool = []
    heap = []
    first = True
    for _ in range(events):
        nbytes = rng.choice((24, 32, 40, 48, 56, 72))
        for _ in range(rng.randrange(1, 7)):
            r = rng.random()
            if first or r < 0.25:
                # The second line opens the next page.
                addr = (rng.randrange(1, region // page) * page
                        - rng.randrange(max(1, nbytes - line), nbytes))
                first = False
            elif r < 0.6:
                addr = (rng.randrange(1, region // line) * line
                        - rng.randrange(1, nbytes))
            elif r < 0.85 and pool:
                addr = rng.choice(pool)
            else:
                addr = rng.randrange(region)
            pool.append(addr)
            machine.access(addr, nbytes)
            if rng.random() < 0.15:
                machine.access(addr, nbytes)
        del pool[:-48]
        r = rng.random()
        if r < 0.3:
            machine.instr(rng.randrange(1, 60))
        elif r < 0.55:
            machine.branch(rng.randrange(4096), rng.random() < 0.6)
        elif r < 0.7:
            heap.append(machine.malloc(rng.choice((24, 40, 56, 72))))
        elif r < 0.8 and heap:
            machine.free(heap.pop(rng.randrange(len(heap))))
        trail.append([list(machine.snapshot_tuple()), machine.tlb.accesses,
                      repr(machine.seconds)])
    trail.append(cache_state(machine))
    return trail


class WalkRoute:
    """A machine whose runs of events go to ``walk``.

    The stream drivers issue through it as through a machine.  Same-sized
    ``access`` calls, ``instr`` calls and same-PC ``branch`` calls queue
    up as walk steps, each event joining the last step when the step
    order (access, then instructions, then branch) allows.  A run ends
    at a seeded random length (1 to 40 steps), at a size or PC change,
    or before any other use of the machine, and goes to ``walk`` in one
    call, sometimes after an empty walk.  Its randomness is its own, so
    the driver's stream, and with it every pinned digest, is unchanged.
    """

    def __init__(self, machine: Machine, seed: int) -> None:
        self._machine = machine
        self._rng = random.Random(1000 + seed)
        self._steps: list[list] = []
        self._nbytes = 8
        self._pc = 0
        self._limit = 1

    def _step(self, addr, ninstr, taken) -> None:
        self._steps.append([addr, ninstr, taken])
        if len(self._steps) >= self._limit:
            self._walk()

    def access(self, addr: int, nbytes: int = 8) -> None:
        if nbytes != self._nbytes:
            self._walk()
            self._nbytes = nbytes
        self._step(addr, 0, None)

    def instr(self, count: int) -> None:
        last = self._steps[-1] if self._steps else None
        if last is not None and not last[1] and last[2] is None:
            last[1] = count
        else:
            self._step(None, count, None)

    def branch(self, pc: int, taken: bool) -> None:
        if pc != self._pc:
            self._walk()
            self._pc = pc
        last = self._steps[-1] if self._steps else None
        if last is not None and last[2] is None:
            last[2] = taken
        else:
            self._step(None, 0, taken)

    def _walk(self) -> None:
        rng = self._rng
        if rng.random() < 0.1:
            self._machine.walk([], self._nbytes, self._pc)
        if self._steps:
            self._machine.walk([tuple(step) for step in self._steps],
                               self._nbytes, self._pc)
            self._steps = []
        self._limit = rng.choice((1, 1, 2, 2, 3, 5, 8, 13, 40))

    def __getattr__(self, name: str):
        self._walk()
        return getattr(self._machine, name)


def routed(machine: Machine, route: str, seed: int = 0):
    """``machine`` itself, or wrapped so runs go to ``walk``."""
    return machine if route == "access" else WalkRoute(machine, seed)


#: Both ways of issuing a stream: one call per event, and runs of
#: events played by ``walk``.
ROUTES = ("access", "walk")

#: Digests of :func:`state_digest` over seeds 0-2 of
#: :func:`drive_random_stream`, keyed by prefetcher and config.  Any
#: change to a counter, to ``snapshot_tuple`` or to the bits of
#: ``seconds`` changes them; a deliberate cost-model change re-pins
#: them in the same commit.
STREAM_DIGESTS = {
    "nopf-core2":
        "d0cbf70e52920f2dc93142b7fe352989548033d64b92da3392c408685d6b3a5c",
    "nopf-atom":
        "482cc3eadfff8d9dea095d9b537f3731cb08fcce33edfea20a23774a06d879ed",
    "nopf-core2-full":
        "33c607b9271a6d7997d4e32cb065389d2dbf25fa04a9c69be8f77dbae645eca8",
    "nopf-atom-full":
        "a9666cef58e100c8dec403d06982869e4a79d64a8eddbc7fc0f6b8e054631a26",
    "pf-core2":
        "c7465b2817be67a5c10249c1fff6ca87f512d24bde01db571047be1b32f88e1d",
    "pf-atom":
        "ea21e88d932d0e8cb3d75127e005b7e540b4e1cd6b2175bf6b8811b227864f7a",
    "pf-core2-full":
        "30a374a9972a3989d3cf49317fe149e2fc615ff7325f58cd857a6883ab8eb509",
    "pf-atom-full":
        "09e8c52488b4676565cb7350b67757f57235e4dbd97d1514365b5c080c9378db",
}

RESET_DIGESTS = {
    "core2":
        "163c45e9fc48ee99fc53a84808187627b880664a755c23f8abb7605a41c98223",
    "core2-full":
        "da1702a14f3a708b497e34a702770599f9f4f492c8baa638b8131eec3cbb00f0",
}

#: ``(address mask, access size) -> digest`` for aligned single-line,
#: unaligned single-line and line-crossing access runs on core2-full.
LINE_DIGESTS = {
    (~7, 8):
        "ec8118e03db1de7b3d8adfc4dfd0fdfd91021372b31e422dc861a19c75d26705",
    (~0, 8):
        "c6d295d5972771e614c26db552223e3d19ac20532af3beec9bd04dffcb73b81c",
    (~0, 60):
        "dcbc9ba6daec4d4d407c68de390f82937fef5be33548b358418772bcdbd75c15",
}

#: Digests of the :func:`drive_repeat_stream` trails over seeds 0-2,
#: recorded with the line-by-line walk before repeated ranges had a
#: closed form, so they pin that form to the walk's exact output.
REPEAT_DIGESTS = {
    "nopf-core2":
        "8b4b4b94625c5e5d1f782e8f5aab21eec0c66835fd00ba8963984ce1187cac68",
    "nopf-atom":
        "494a0f74d6b333e8924407d6d32dce8dbdeb0ae4db688d05b325eab858a3e2f8",
    "nopf-core2-full":
        "ea3ad285bf264c66fbc9dc052e7bead1f167ea53129bab9966ed3023f8caa2a3",
    "pf-core2":
        "e434eb04e7c19f9e41c6b527ae656db9c33b465f16ff1d1003e88cd7879a3a44",
    "pf-atom":
        "4343d03440938a808a7494527ff2ff67a11fc173bcc20fe2b0c9f8e01c658785",
    "pf-core2-full":
        "678ce701830f32d6cf72c2f2d2e6e2aa7cdb0871409749b53b1b405139cce761",
}

#: Digests of the :func:`drive_straddle_stream` trails over seeds 0-2,
#: recorded with the line-by-line multi-line walk (one loop paying the
#: first line's integer latencies and the tail's streamed ones).
STRADDLE_DIGESTS = {
    "nopf-core2":
        "cccf7466d0b9d945168afa7020e7066cd5c882890604d76c37832c2b45b8a6e3",
    "nopf-atom":
        "4a33c1ae5c766545be5e9730032229838d4ba63790f8168fb7eb6589008fa930",
    "nopf-core2-full":
        "ca24b13f004e82ca68011edba7ce6363bc5b8395034b1dfb05c63041b0507ae4",
    "pf-core2":
        "5161f6eada74871560d38d30fe594738c752de29dfb014b295fe042b0d09b847",
    "pf-atom":
        "04cf720f3c018b9b7ea2fc55874c3a02d0ffad107797471db660b3d40d1b349f",
    "pf-core2-full":
        "8d0b3a2a27292681b927dfe59fb827db70cd50acbcb0db0f346602bda3b8928d",
}

#: SHA-256 of the canonical payload of the saved ``vector_oo`` Phase I
#: artifact (small generator config, core2, 2 records per class, at most
#: 12 seeds) with each record's ``features`` removed: the records as they
#: were before they carried features.
PHASE1_PAYLOAD_SHA256 = \
    "596f3e703b3d4bd3d0a1d6bb2cab53394576674c408d71897be5e85d637eee29"
#: SHA-256 of that result's Phase II training set (``X`` bytes, ``y``
#: bytes, seeds as JSON), pinned when Phase II still replayed every
#: record on the original kind: the oracle for the records' features.
PHASE2_SET_SHA256 = \
    "448f82f7ff08ab3ab13d4438dfe2b89d510e12a25c987f50f5686af7ad614cd2"


def stream_digest(config: MachineConfig, prefetch: bool, route: str) -> str:
    """:func:`state_digest` of seeds 0-2 of :func:`drive_random_stream`."""
    machines = []
    for seed in range(3):
        machine = Machine(config)
        if prefetch:
            machine.attach_prefetcher(NextLinePrefetcher())
        machines.append(
            drive_random_stream(routed(machine, route, seed), seed))
    return state_digest(*machines)


def repeat_digest(config: MachineConfig, prefetch: bool, route: str) -> str:
    """SHA-256 of the :func:`drive_repeat_stream` trails of seeds 0-2."""
    trails = []
    for seed in range(3):
        machine = Machine(config)
        if prefetch:
            machine.attach_prefetcher(NextLinePrefetcher())
        trails.append(drive_repeat_stream(routed(machine, route, seed), seed))
    return hashlib.sha256(json.dumps(trails).encode()).hexdigest()


def line_digest(mask: int, nbytes: int, route: str) -> str:
    """:func:`state_digest` after 4000 same-sized accesses on core2-full."""
    machine = routed(Machine(CORE2_FULL), route)
    rng = random.Random(5)
    for addr in [rng.randrange(1 << 21) & mask for _ in range(4000)]:
        machine.access(addr, nbytes)
    return state_digest(machine)


def straddle_digest(config: MachineConfig, prefetch: bool, route: str
                    ) -> str:
    """SHA-256 of the :func:`drive_straddle_stream` trails of seeds
    0-2."""
    trails = []
    for seed in range(3):
        machine = Machine(config)
        if prefetch:
            machine.attach_prefetcher(NextLinePrefetcher())
        trails.append(
            drive_straddle_stream(routed(machine, route, seed), seed))
    return hashlib.sha256(json.dumps(trails).encode()).hexdigest()


def pf_key(prefetch: bool, config: MachineConfig) -> str:
    return f"{'pf' if prefetch else 'nopf'}-{config.name}"


STREAM_CONFIGS = pytest.mark.parametrize(
    "config", (CORE2, ATOM, CORE2_FULL, ATOM_FULL), ids=lambda c: c.name)
REPEAT_CONFIGS = pytest.mark.parametrize(
    "config", (CORE2, ATOM, CORE2_FULL), ids=lambda c: c.name)
STRADDLE_CONFIGS = pytest.mark.parametrize(
    "config", (CORE2, ATOM, CORE2_FULL), ids=lambda c: c.name)
PREFETCH = pytest.mark.parametrize("prefetch", (False, True),
                                   ids=("nopf", "pf"))
LINE_RUNS = pytest.mark.parametrize(
    "mask,nbytes", list(LINE_DIGESTS),
    ids=("aligned-8", "unaligned-8", "unaligned-60"))


class TestPinnedStreams:
    @STREAM_CONFIGS
    @PREFETCH
    def test_randomized_streams(self, config, prefetch):
        assert stream_digest(config, prefetch, "access") \
            == STREAM_DIGESTS[pf_key(prefetch, config)]

    @REPEAT_CONFIGS
    @PREFETCH
    def test_repeated_ranges(self, config, prefetch):
        assert repeat_digest(config, prefetch, "access") \
            == REPEAT_DIGESTS[pf_key(prefetch, config)]

    @pytest.mark.parametrize("config", (CORE2, CORE2_FULL),
                             ids=lambda c: c.name)
    def test_resets_mid_stream(self, config):
        machine = drive_random_stream(Machine(config), 11, with_reset=True)
        assert state_digest(machine) == RESET_DIGESTS[config.name]

    @LINE_RUNS
    def test_line_crossing_and_aligned_runs(self, mask, nbytes):
        assert line_digest(mask, nbytes, "access") \
            == LINE_DIGESTS[(mask, nbytes)]


class TestPinnedStreamsWalked:
    """The same pinned streams, with runs of events played by ``walk``:
    the digests must not move."""

    @STREAM_CONFIGS
    @PREFETCH
    def test_randomized_streams(self, config, prefetch):
        assert stream_digest(config, prefetch, "walk") \
            == STREAM_DIGESTS[pf_key(prefetch, config)]

    @REPEAT_CONFIGS
    @PREFETCH
    def test_repeated_ranges(self, config, prefetch):
        assert repeat_digest(config, prefetch, "walk") \
            == REPEAT_DIGESTS[pf_key(prefetch, config)]

    @LINE_RUNS
    def test_line_crossing_and_aligned_runs(self, mask, nbytes):
        assert line_digest(mask, nbytes, "walk") \
            == LINE_DIGESTS[(mask, nbytes)]


class TestPinnedStraddles:
    """Node-sized accesses straddling line and page ends, issued access
    by access and walked, must keep the digests the line-by-line walk
    gave before the first line and the streamed tail were split."""

    @STRADDLE_CONFIGS
    @PREFETCH
    @pytest.mark.parametrize("route", ROUTES)
    def test_straddling_nodes(self, config, prefetch, route):
        assert straddle_digest(config, prefetch, route) \
            == STRADDLE_DIGESTS[pf_key(prefetch, config)]


class TestPinnedPhase1Artifact:
    @pytest.fixture(scope="class")
    def result(self):
        return run_phase1(
            MODEL_GROUPS["vector_oo"], GeneratorConfig.small(), CORE2,
            per_class_target=2, max_seeds=12,
        )

    def test_artifact_sha256(self, result, tmp_path):
        path = tmp_path / "phase1.json"
        result.save(path)
        payload = read_artifact(path, kind=PHASE1_ARTIFACT_KIND,
                                schema_version=PHASE1_SCHEMA_VERSION)
        for record in payload["records"]:
            del record["features"]
        digest = hashlib.sha256(
            canonical_json(payload).encode("utf-8")).hexdigest()
        assert digest == PHASE1_PAYLOAD_SHA256

    def test_phase2_set_sha256(self, result):
        training_set = run_phase2(result)
        digest = hashlib.sha256()
        digest.update(training_set.X.tobytes())
        digest.update(training_set.y.tobytes())
        digest.update(json.dumps(training_set.seeds).encode("utf-8"))
        assert digest.hexdigest() == PHASE2_SET_SHA256


def cache_state(machine: Machine) -> tuple:
    """Memory-side state the digests cannot see: every L1/L2 set's and
    the TLB's LRU order, the repeat span, and the prefetcher's stream
    statistics."""
    pf = machine.prefetcher
    return (
        [list(ways) for ways in machine.l1._sets],
        [list(ways) for ways in machine.l2._sets],
        list(machine.tlb._pages), machine._last_page,
        machine._rep_first, machine._rep_last,
        None if pf is None else (pf.issued, pf.useful,
                                 list(pf._recent_misses),
                                 sorted(pf._outstanding)),
    )


def hidden_state(machine: Machine) -> tuple:
    """All state the digests cannot see: :func:`cache_state` plus the
    branch predictor's counter table, history and counts."""
    pred = machine.predictor
    return cache_state(machine) + (bytes(pred._counters), pred._history,
                                   pred.branches, pred.mispredicts)


class TestWalkMatchesAccessLoop:
    """``walk`` leaves exactly the state of one call per event,
    including the state no counter exposes."""

    @pytest.mark.parametrize("config", (CORE2, ATOM), ids=lambda c: c.name)
    @pytest.mark.parametrize("prefetch", (False, True),
                             ids=("nopf", "pf"))
    def test_random_streams(self, config, prefetch):
        machines = []
        for route in ROUTES:
            machine = Machine(config)
            if prefetch:
                machine.attach_prefetcher(NextLinePrefetcher())
            drive_random_stream(routed(machine, route), 4)
            drive_repeat_stream(routed(machine, route), 4, events=100)
            machines.append(machine)
        per_access, walked = machines
        assert walked._cycles.hex() == per_access._cycles.hex()
        assert hidden_state(walked) == hidden_state(per_access)
        assert machine_state(walked) == machine_state(per_access)


def drive_instr_runs(machine: Machine, seed: int, fold: bool,
                     events: int = 1500) -> None:
    """A seeded stream of ``instr`` runs (some empty, some of one)
    between straddling node touches, whose streamed tails add to
    ``_cycles`` between the runs.  With ``fold`` each run is one
    :meth:`Machine.walk` of address-less steps and each batch of touches
    one walk of address-only steps, otherwise one ``instr`` or
    ``access`` call per event; the stream is the same.  Large counts
    make the order of a run's adds show in the last bits on core2
    (summing a run, or adding it reversed, fails)."""
    rng = random.Random(seed)
    line = machine.config.line_bytes
    for _ in range(events):
        counts = [rng.randrange(rng.choice((60, 5000)))
                  for _ in range(rng.choice((0, 1, 1, 2, 3, 10, 25)))]
        if fold:
            machine.walk([(None, count, None) for count in counts], 1)
        else:
            for count in counts:
                machine.instr(count)
        nbytes = rng.choice((24, 40, 56, 72, 136))
        addrs = [rng.randrange(1, 1 << 14) * line - rng.randrange(1, nbytes)
                 for _ in range(rng.randrange(0, 6))]
        if fold:
            machine.walk([(addr, 0, None) for addr in addrs], nbytes)
        else:
            for addr in addrs:
                machine.access(addr, nbytes)
        if rng.random() < 0.2:
            machine.branch(rng.randrange(4096), rng.random() < 0.6)


class TestInstrRunMatchesInstrCalls:
    """A run of ``instr`` calls walked as address-less steps leaves
    exactly the state of one ``instr`` call per count of the run, down
    to the bits of the float accumulator."""

    @pytest.mark.parametrize("config", (CORE2, ATOM, CORE2_FULL),
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_folded_stream(self, config, seed):
        machines = []
        for fold in (False, True):
            machine = Machine(config)
            drive_instr_runs(machine, seed, fold)
            machines.append(machine)
        calls, folded = machines
        assert folded._cycles.hex() == calls._cycles.hex()
        assert folded._cycles_int == calls._cycles_int
        assert folded.instructions == calls.instructions
        assert hidden_state(folded) == hidden_state(calls)
        assert machine_state(folded) == machine_state(calls)

    def test_empty_run_changes_nothing(self):
        machine, untouched = Machine(CORE2), Machine(CORE2)
        for m in (machine, untouched):
            m.instr(7)
        machine.walk((), 1)
        machine.walk(((None, 0, None),), 1)
        assert machine._cycles.hex() == untouched._cycles.hex()
        assert hidden_state(machine) == hidden_state(untouched)
        assert machine_state(machine) == machine_state(untouched)


class PerEventMachine(Machine):
    """A machine whose ``walk`` issues every step's events one call at
    a time, as the containers did before they handed paths over."""

    __slots__ = ()

    def walk(self, steps, nbytes: int, pc: int = 0) -> None:
        if nbytes <= 0:
            raise ValueError(f"access: size must be positive: {nbytes}")
        for addr, ninstr, taken in steps:
            if addr is not None:
                self.access(addr, nbytes)
            if ninstr:
                self.instr(ninstr)
            if taken is not None:
                self.branch(pc, taken)


def drive_container(cls, machine: Machine, seed: int, elem_size: int,
                    payload_size: int, ops: int = 700):
    """A seeded insert/erase/find/iterate stream on a fresh ``cls``
    (mostly inserts, so trees grow deep and rebalance)."""
    rng = random.Random(seed)
    container = cls(machine, elem_size, payload_size)
    for _ in range(ops):
        r = rng.random()
        if r < 0.45:
            container.insert(rng.randrange(400))
        elif r < 0.65:
            container.erase(rng.randrange(400))
        elif r < 0.9:
            container.find(rng.randrange(400))
        else:
            container.iterate(rng.randrange(80))
    return container


class TestContainerWalksMatchEvents:
    """Every container that hands paths to ``walk`` leaves exactly the
    state of the same events issued one call at a time: counters, the
    float accumulator's bits, LRU orders and the predictor's table and
    history.  Node sizes span one, two and three lines."""

    @pytest.mark.parametrize("cls", (RedBlackTree, AVLTree, HashTable,
                                     SplayTree, DoublyLinkedList),
                             ids=lambda c: c.kind)
    @pytest.mark.parametrize("config", (CORE2, ATOM), ids=lambda c: c.name)
    @PREFETCH
    @pytest.mark.parametrize("sizes", ((8, 0), (32, 16), (64, 32)),
                             ids=("small", "medium", "large"))
    def test_seeded_stream(self, cls, config, prefetch, sizes):
        machines = (Machine(config), PerEventMachine(config))
        containers = []
        for machine in machines:
            if prefetch:
                machine.attach_prefetcher(NextLinePrefetcher())
            containers.append(drive_container(cls, machine, 7, *sizes))
        walked, per_event = machines
        assert containers[0].to_list() == containers[1].to_list()
        assert walked._cycles.hex() == per_event._cycles.hex()
        assert hidden_state(walked) == hidden_state(per_event)
        assert machine_state(walked) == machine_state(per_event)


class TestAccessValidation:
    @pytest.mark.parametrize("nbytes", (0, -1, -64))
    def test_nonpositive_size_rejected(self, nbytes):
        machine = Machine(CORE2)
        machine.access(64, 8)  # healthy stream first
        with pytest.raises(ValueError,
                           match=rf"access: size must be positive: "
                                 rf"{nbytes}"):
            machine.access(128, nbytes)

    @pytest.mark.parametrize("nbytes", (0, -1, -64))
    @pytest.mark.parametrize("addrs", ([], [128, 256]),
                             ids=("empty", "two"))
    def test_walk_rejects_nonpositive_size(self, nbytes, addrs):
        rejected, clean = Machine(CORE2), Machine(CORE2)
        for machine in (rejected, clean):
            machine.access(64, 8)
        with pytest.raises(ValueError,
                           match=rf"access: size must be positive: "
                                 rf"{nbytes}"):
            rejected.walk([(addr, 0, None) for addr in addrs], nbytes)
        assert machine_state(rejected) == machine_state(clean)

    def test_rejection_leaves_state_unchanged(self):
        rejected, clean = Machine(CORE2), Machine(CORE2)
        rejected.access(64, 8)
        with pytest.raises(ValueError):
            rejected.access(128, 0)
        rejected.access(192, 8)
        clean.access(64, 8)
        clean.access(192, 8)
        assert machine_state(rejected) == machine_state(clean)


class TestResetRegression:
    """reset() must clear allocator counters and prefetcher state while
    keeping the heap mapping."""

    def test_reset_clears_allocator_counters_keeps_heap(self):
        machine = Machine(CORE2)
        first = machine.malloc(128)
        machine.malloc(64)
        assert machine.allocator.allocations == 2
        assert machine.allocator.allocated_bytes > 0
        machine.reset()
        assert machine.allocator.allocations == 0
        assert machine.allocator.frees == 0
        assert machine.allocator.allocated_bytes == 0
        assert machine.counters().allocations == 0
        # Heap mapping survives: freeing a pre-reset block still works,
        # and new allocations never overlap live ones.
        machine.free(first)
        addr = machine.malloc(32)
        assert addr != first + 16

    def test_reset_clears_prefetcher_state(self):
        machine = Machine(CORE2)
        prefetcher = NextLinePrefetcher()
        machine.attach_prefetcher(prefetcher)
        for i in range(64):
            machine.access(i * 64, 8)
        assert prefetcher.issued > 0
        machine.reset()
        assert prefetcher.issued == 0
        assert prefetcher.useful == 0

    def test_post_reset_runs_identical_to_fresh_machine(self):
        # Reset keeps the heap mapping by design, so the comparison
        # stream avoids the allocator: every other counter source
        # (caches, TLB, predictor, prefetcher, cycles) must behave as
        # if the machine were new.
        def drive(machine, seed):
            rng = random.Random(seed)
            for _ in range(3000):
                r = rng.random()
                if r < 0.6:
                    machine.access(rng.randrange(1 << 20),
                                   rng.choice((8, 16, 200)))
                elif r < 0.8:
                    machine.branch(rng.randrange(4096),
                                   rng.random() < 0.7)
                else:
                    machine.instr(rng.randrange(1, 50))

        used = Machine(CORE2)
        used.attach_prefetcher(NextLinePrefetcher())
        drive(used, 3)
        used.reset()
        fresh = Machine(CORE2)
        fresh.attach_prefetcher(NextLinePrefetcher())
        drive(used, 4)
        drive(fresh, 4)
        assert machine_state(used) == machine_state(fresh)
