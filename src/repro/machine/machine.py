"""The simulated machine: memory hierarchy + branch predictor + cycle model.

A :class:`Machine` is the single point through which containers interact
with "hardware".  They allocate simulated memory, issue loads/stores at
real (simulated) addresses, execute instructions, and resolve conditional
branches; the machine routes every event through the cache/TLB/predictor
models and accounts cycles.  ``Machine.counters()`` is the PAPI-read
analogue.
"""

from __future__ import annotations

from repro.machine.branch import BimodalPredictor, GSharePredictor
from repro.machine.cache import Cache
from repro.machine.configs import MachineConfig
from repro.machine.events import PerfCounters
from repro.machine.memory import Allocator
from repro.machine.tlb import TLB


class Machine:
    """Trace-driven microarchitecture simulator: every event updates the
    cache/TLB/predictor hierarchy as it is issued.

    Cycle accounting is split into two accumulators: ``_cycles_int``
    collects every integer-valued contribution (cache/TLB/memory
    latencies, mispredict penalties, division latency), which makes
    those contributions exact and order-independent, while ``_cycles``
    collects the inherently fractional ones (CPI multiples, streamed
    multi-line latencies) in event order.  The observable cycle count
    is their sum.

    Events come one call each (``access``, ``instr``, ``branch``, ...)
    or as a path: :meth:`walk` plays a run of access/instr/branch steps
    in one call, exactly as the per-event calls would.  Containers hand
    their descents, rebalances and in-order walks over that way, and a
    replayed tape its runs of ``instr`` events.
    """

    __slots__ = (
        "config", "allocator", "l1", "l2", "tlb", "predictor",
        "_cycles", "_cycles_int", "instructions",
        "_line_shift", "_page_shift", "_page_delta", "_cpi",
        "_l1_lat", "_l2_lat",
        "_mem_lat", "_mispredict_penalty", "_tlb_penalty", "_div_latency",
        "_l1_streamed", "_l2_streamed", "_mem_streamed",
        "_l1_sets", "_l1_mask", "_l1_assoc",
        "_l2_sets", "_l2_mask", "_l2_assoc",
        "_tlb_pages", "_tlb_entries",
        "_last_page", "_rep_first", "_rep_last", "_walk_consts",
        "prefetcher",
    )

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.allocator = Allocator()
        self.l1 = Cache(config.l1_size, config.l1_assoc, config.line_bytes)
        self.l2 = Cache(config.l2_size, config.l2_assoc, config.line_bytes)
        self.tlb = TLB(config.tlb_entries, config.page_bytes)
        if config.predictor == "gshare":
            self.predictor = GSharePredictor(config.predictor_entries)
        elif config.predictor == "bimodal":
            self.predictor = BimodalPredictor(config.predictor_entries)
        else:
            raise ValueError(f"unknown predictor kind: {config.predictor!r}")
        self._cycles = 0.0
        self._cycles_int = 0
        self.instructions = 0
        # Hot-path locals.
        self._line_shift = config.line_bytes.bit_length() - 1
        self._page_shift = config.page_bytes.bit_length() - 1
        self._cpi = config.cpi_base
        self._l1_lat = config.l1_latency
        self._l2_lat = config.l2_latency
        self._mem_lat = config.mem_latency
        self._mispredict_penalty = config.mispredict_penalty
        self._tlb_penalty = config.tlb_miss_penalty
        self._div_latency = config.div_latency
        # The latencies of the lines after an access's first, discounted
        # by the stream factor (see ``access``).
        stream = config.stream_factor
        self._l1_streamed = config.l1_latency * stream
        self._l2_streamed = config.l2_latency * stream
        self._mem_streamed = config.mem_latency * stream
        # Direct references into the cache/TLB tag stores.  ``access``
        # is called hundreds of thousands of times per simulated app;
        # resolving ``self.l1._sets`` etc. through two attribute loads
        # each time is measurable, so the (never-reassigned) structures
        # are aliased here once.  ``flush`` mutates them in place, so
        # the aliases stay valid.
        self._page_delta = self._page_shift - self._line_shift
        self._l1_sets = self.l1._sets
        self._l1_mask = self.l1.num_sets - 1
        self._l1_assoc = self.l1.assoc
        self._l2_sets = self.l2._sets
        self._l2_mask = self.l2.num_sets - 1
        self._l2_assoc = self.l2.assoc
        self._tlb_pages = self.tlb._pages
        self._tlb_entries = self.tlb.entries
        # Last translated page: a zero-cost micro-TLB fast path.
        self._last_page = -1
        # Line span of the last multi-line access, while nothing else
        # has touched L1 or the TLB since (see ``_repeat``).
        self._rep_first = self._rep_last = None
        # Optional explicit prefetcher (see repro.machine.prefetch).
        self.prefetcher = None
        # What ``walk`` reads and never writes, unpacked in one go.
        self._walk_consts = (
            self._line_shift, self._page_delta,
            self._l1_sets, self._l1_mask, self._l1_assoc,
            self._l2_sets, self._l2_mask, self._l2_assoc,
            self._tlb_pages, self._tlb_entries, self._tlb_penalty,
            self._l1_lat, self._l2_lat, self._mem_lat,
            self._l1_streamed, self._l2_streamed, self._mem_streamed,
            self._cpi, self._mispredict_penalty,
            self.predictor.table_size - 1,
            (1 << self.predictor.history_bits) - 1,
        )

    # ------------------------------------------------------------------
    # Event issue API (used by containers).
    # ------------------------------------------------------------------

    def access(self, addr: int, nbytes: int = 8) -> None:
        """Load or store ``nbytes`` starting at ``addr``.

        Every cache line spanned costs one L1 access; misses walk down to
        L2 and memory.  Reads and writes are costed identically (no
        writeback modelling).
        """
        if nbytes <= 0:
            raise ValueError(f"access: size must be positive: {nbytes}")
        shift = self._line_shift
        first = addr >> shift
        last = (addr + nbytes - 1) >> shift
        if first == last:
            self._rep_last = None
        elif (first == self._rep_first and last == self._rep_last
                and self.prefetcher is None):
            self._repeat(first, last)
            return
        else:
            self._rep_first = first
            self._rep_last = last
        # The cache/TLB lookups are inlined here (rather than calling
        # Cache.access per line) because this is by far the hottest code
        # in the whole simulator.  Each set/page store is an
        # insertion-ordered dict (last key = MRU, first key = victim),
        # so every LRU touch is O(1).  The first line of every access
        # pays the full latencies, all integers, so only the exact
        # accumulator is touched.
        cycles = self._cycles_int + self._l1_lat
        page = first >> self._page_delta
        if page != self._last_page:
            self._last_page = page
            tlb = self.tlb
            tlb.accesses += 1
            pages = self._tlb_pages
            if page in pages:
                del pages[page]
                pages[page] = None
            else:
                tlb.misses += 1
                pages[page] = None
                if len(pages) > self._tlb_entries:
                    for victim in pages:
                        break
                    del pages[victim]
                cycles += self._tlb_penalty
        l1 = self.l1
        l1.accesses += 1
        ways = self._l1_sets[first & self._l1_mask]
        prefetcher = self.prefetcher
        if first in ways:
            del ways[first]
            ways[first] = None
            if prefetcher is not None:
                prefetcher.on_hit(first)
        else:
            l1.misses += 1
            l1_assoc = self._l1_assoc
            ways[first] = None
            if len(ways) > l1_assoc:
                for victim in ways:
                    break
                del ways[victim]
            if prefetcher is not None:
                l1_sets = self._l1_sets
                l1_mask = self._l1_mask
                for target in prefetcher.on_miss(first):
                    target_ways = l1_sets[target & l1_mask]
                    if target not in target_ways:
                        target_ways[target] = None
                        if len(target_ways) > l1_assoc:
                            for victim in target_ways:
                                break
                            del target_ways[victim]
            cycles += self._l2_lat
            l2 = self.l2
            l2.accesses += 1
            ways2 = self._l2_sets[first & self._l2_mask]
            if first in ways2:
                del ways2[first]
                ways2[first] = None
            else:
                l2.misses += 1
                ways2[first] = None
                if len(ways2) > self._l2_assoc:
                    for victim in ways2:
                        break
                    del ways2[victim]
                cycles += self._mem_lat
        self._cycles_int = cycles
        if first == last:
            return
        # Lines after the first in a contiguous access stream are
        # overlapped by the pipeline/prefetcher: they pay the
        # pre-multiplied streamed (fractional) latencies into
        # ``_cycles``, in order, L1 then L2 then memory.  TLB refills
        # are never streamed.
        if last == first + 1 and prefetcher is None:
            # A node straddling two lines: the tail is one line, so it
            # is inlined rather than paying the loop's set-up.
            page = last >> self._page_delta
            if page != self._last_page:
                self._last_page = page
                tlb = self.tlb
                tlb.accesses += 1
                pages = self._tlb_pages
                if page in pages:
                    del pages[page]
                    pages[page] = None
                else:
                    tlb.misses += 1
                    pages[page] = None
                    if len(pages) > self._tlb_entries:
                        for victim in pages:
                            break
                        del pages[victim]
                    self._cycles_int += self._tlb_penalty
            cycles = self._cycles + self._l1_streamed
            l1.accesses += 1
            ways = self._l1_sets[last & self._l1_mask]
            if last in ways:
                del ways[last]
                ways[last] = None
            else:
                l1.misses += 1
                ways[last] = None
                if len(ways) > self._l1_assoc:
                    for victim in ways:
                        break
                    del ways[victim]
                cycles += self._l2_streamed
                l2 = self.l2
                l2.accesses += 1
                ways2 = self._l2_sets[last & self._l2_mask]
                if last in ways2:
                    del ways2[last]
                    ways2[last] = None
                else:
                    l2.misses += 1
                    ways2[last] = None
                    if len(ways2) > self._l2_assoc:
                        for victim in ways2:
                            break
                        del ways2[victim]
                    cycles += self._mem_streamed
            self._cycles = cycles
            return
        cycles_int = self._cycles_int
        cycles = self._cycles
        l1_sets = self._l1_sets
        l1_mask = self._l1_mask
        l1_assoc = self._l1_assoc
        l2_sets = self._l2_sets
        l2_mask = self._l2_mask
        l2_assoc = self._l2_assoc
        tlb_pages = self._tlb_pages
        tlb_entries = self._tlb_entries
        page_delta = self._page_delta
        last_page = self._last_page
        tlb_penalty = self._tlb_penalty
        l1_streamed = self._l1_streamed
        l2_streamed = self._l2_streamed
        mem_streamed = self._mem_streamed
        l1_misses = 0
        l2_misses = 0
        tlb_accesses = 0
        tlb_misses = 0
        l1.accesses += last - first
        for line in range(first + 1, last + 1):
            page = line >> page_delta
            if page != last_page:
                last_page = page
                tlb_accesses += 1
                if page in tlb_pages:
                    del tlb_pages[page]
                    tlb_pages[page] = None
                else:
                    tlb_misses += 1
                    tlb_pages[page] = None
                    if len(tlb_pages) > tlb_entries:
                        for victim in tlb_pages:
                            break
                        del tlb_pages[victim]
                    cycles_int += tlb_penalty
            cycles += l1_streamed
            ways = l1_sets[line & l1_mask]
            if line in ways:
                del ways[line]
                ways[line] = None
                if prefetcher is not None:
                    prefetcher.on_hit(line)
            else:
                l1_misses += 1
                ways[line] = None
                if len(ways) > l1_assoc:
                    for victim in ways:
                        break
                    del ways[victim]
                if prefetcher is not None:
                    for target in prefetcher.on_miss(line):
                        target_ways = l1_sets[target & l1_mask]
                        if target not in target_ways:
                            target_ways[target] = None
                            if len(target_ways) > l1_assoc:
                                for victim in target_ways:
                                    break
                                del target_ways[victim]
                cycles += l2_streamed
                ways2 = l2_sets[line & l2_mask]
                if line in ways2:
                    del ways2[line]
                    ways2[line] = None
                else:
                    l2_misses += 1
                    ways2[line] = None
                    if len(ways2) > l2_assoc:
                        for victim in ways2:
                            break
                        del ways2[victim]
                    cycles += mem_streamed
        if tlb_accesses:
            self.tlb.accesses += tlb_accesses
            self.tlb.misses += tlb_misses
        if l1_misses:
            l1.misses += l1_misses
            self.l2.accesses += l1_misses
            self.l2.misses += l2_misses
        self._last_page = last_page
        self._cycles = cycles
        self._cycles_int = cycles_int

    def walk(self, steps, nbytes: int, pc: int = 0) -> None:
        """Play a path of events in one call.

        Each step ``(addr, ninstr, taken)`` plays ``access(addr,
        nbytes)`` unless ``addr`` is None, then ``instr(ninstr)`` if
        ``ninstr``, then ``branch(pc, taken)`` unless ``taken`` is None.
        The result is exactly that of those calls, step by step: the
        same counters, L1/L2/TLB LRU orders, ``_last_page``, repeat span,
        predictor table and history, and float ``_cycles`` adds in the
        same order.  A container computes a descent, a rebalance or an
        in-order walk from its own state, which never depends on the
        machine, and hands the path over whole; loading the hot state
        into locals once per walk, not once per event, is what it saves.
        Every step plays inline; while a prefetcher is attached, every
        event goes through the per-event calls instead.
        """
        if nbytes <= 0:
            raise ValueError(f"access: size must be positive: {nbytes}")
        if self.prefetcher is not None:
            for addr, ninstr, taken in steps:
                if addr is not None:
                    self.access(addr, nbytes)
                if ninstr:
                    self.instr(ninstr)
                if taken is not None:
                    self.branch(pc, taken)
            return
        (shift, page_delta, l1_sets, l1_mask, l1_assoc, l2_sets, l2_mask,
         l2_assoc, tlb_pages, tlb_entries, tlb_penalty, l1_lat, l2_lat,
         mem_lat, l1_streamed, l2_streamed, mem_streamed, cpi,
         mispredict_penalty, pred_mask, history_mask) = self._walk_consts
        span = nbytes - 1
        cycles_int = self._cycles_int
        cycles = self._cycles
        last_page = self._last_page
        rep_first = self._rep_first
        predictor = self.predictor
        table = predictor._counters
        history = predictor._history
        instructions = branches = mispredicts = 0
        l1_accesses = l1_misses = l2_misses = tlb_accesses = tlb_misses = 0
        for addr, ninstr, taken in steps:
            if addr is not None:
                first = addr >> shift
                last = (addr + span) >> shift
                l1_accesses += 1
                page = first >> page_delta
                if page != last_page:
                    last_page = page
                    tlb_accesses += 1
                    if page in tlb_pages:
                        del tlb_pages[page]
                        tlb_pages[page] = None
                    else:
                        tlb_misses += 1
                        tlb_pages[page] = None
                        if len(tlb_pages) > tlb_entries:
                            for victim in tlb_pages:
                                break
                            del tlb_pages[victim]
                        cycles_int += tlb_penalty
                cycles_int += l1_lat
                ways = l1_sets[first & l1_mask]
                if first in ways:
                    del ways[first]
                    ways[first] = None
                else:
                    l1_misses += 1
                    ways[first] = None
                    if len(ways) > l1_assoc:
                        for victim in ways:
                            break
                        del ways[victim]
                    cycles_int += l2_lat
                    ways2 = l2_sets[first & l2_mask]
                    if first in ways2:
                        del ways2[first]
                        ways2[first] = None
                    else:
                        l2_misses += 1
                        ways2[first] = None
                        if len(ways2) > l2_assoc:
                            for victim in ways2:
                                break
                            del ways2[victim]
                        cycles_int += mem_lat
                # The lines after the first pay the streamed latencies,
                # as in ``access``.  A repeated span is played line by
                # line too: ``_repeat`` only shortcuts what this does.
                if first != last:
                    rep_first = first
                    line = first + 1
                    while True:
                        page = line >> page_delta
                        if page != last_page:
                            last_page = page
                            tlb_accesses += 1
                            if page in tlb_pages:
                                del tlb_pages[page]
                                tlb_pages[page] = None
                            else:
                                tlb_misses += 1
                                tlb_pages[page] = None
                                if len(tlb_pages) > tlb_entries:
                                    for victim in tlb_pages:
                                        break
                                    del tlb_pages[victim]
                                cycles_int += tlb_penalty
                        l1_accesses += 1
                        cycles += l1_streamed
                        ways = l1_sets[line & l1_mask]
                        if line in ways:
                            del ways[line]
                            ways[line] = None
                        else:
                            l1_misses += 1
                            ways[line] = None
                            if len(ways) > l1_assoc:
                                for victim in ways:
                                    break
                                del ways[victim]
                            cycles += l2_streamed
                            ways2 = l2_sets[line & l2_mask]
                            if line in ways2:
                                del ways2[line]
                                ways2[line] = None
                            else:
                                l2_misses += 1
                                ways2[line] = None
                                if len(ways2) > l2_assoc:
                                    for victim in ways2:
                                        break
                                    del ways2[victim]
                                cycles += mem_streamed
                        if line == last:
                            break
                        line += 1
            if ninstr:
                instructions += ninstr
                cycles += ninstr * cpi
            if taken is not None:
                # ``branch``: one instruction (counted with ``branches``),
                # then the 2-bit counter at ``pc`` xor the global history.
                cycles += cpi
                branches += 1
                index = (pc ^ history) & pred_mask
                counter = table[index]
                if taken:
                    if counter < 2:
                        mispredicts += 1
                        cycles_int += mispredict_penalty
                    if counter < 3:
                        table[index] = counter + 1
                    history = ((history << 1) | 1) & history_mask
                else:
                    if counter >= 2:
                        mispredicts += 1
                        cycles_int += mispredict_penalty
                    if counter > 0:
                        table[index] = counter - 1
                    history = (history << 1) & history_mask
        self.instructions += instructions + branches
        self._cycles = cycles
        self._cycles_int = cycles_int
        if branches:
            predictor.branches += branches
            predictor.mispredicts += mispredicts
            predictor._history = history
        if l1_accesses:
            self.tlb.accesses += tlb_accesses
            self.tlb.misses += tlb_misses
            self.l1.accesses += l1_accesses
            self.l1.misses += l1_misses
            self.l2.accesses += l1_misses
            self.l2.misses += l2_misses
            # The repeat span is the last access's, if it was
            # multi-line (``first`` and ``last`` are still its lines).
            self._last_page = last_page
            self._rep_first = rep_first
            self._rep_last = last if first != last else None

    def _repeat(self, first: int, last: int) -> None:
        """Re-access lines ``first..last`` right after the same range.

        A walk over consecutive lines leaves each L1 set with its range
        lines at the MRU end, in line order, so walking them again hits
        every line of a set holding ``c <= assoc`` of them and misses
        every line of one holding more (cyclic LRU); both leave the set
        as it was.  The TLB obeys the same argument over the range's
        pages, and a one-page range never reaches it (``_last_page``).
        So L1 and the TLB need only counters; L2 is walked in line order
        for the lines of overflowing sets.  Streamed costs are added one
        line at a time, as the walk adds them, so ``_cycles`` is exact.
        """
        n = last - first + 1
        l1_mask = self._l1_mask
        l1_assoc = self._l1_assoc
        q, r = divmod(n, l1_mask + 1)
        self.l1.accesses += n
        cycles_int = self._cycles_int + self._l1_lat
        pages = (last >> self._page_delta) - (first >> self._page_delta) + 1
        if pages > 1:
            self.tlb.accesses += pages
            if pages > self._tlb_entries:
                self.tlb.misses += pages
                cycles_int += pages * self._tlb_penalty
        cycles = self._cycles
        l1_cost_streamed = self._l1_streamed
        if q + (r > 0) <= l1_assoc:
            # No set overflows: every line hits.
            for _ in range(n - 1):
                cycles += l1_cost_streamed
        else:
            # Every set overflows, or only the r sets holding q + 1
            # lines: those of lines ``first + k`` with ``k % nsets < r``.
            all_miss = q > l1_assoc
            l2 = self.l2
            l2_sets = self._l2_sets
            l2_mask = self._l2_mask
            l2_assoc = self._l2_assoc
            l2_lat = self._l2_lat
            mem_lat = self._mem_lat
            l2_cost_streamed = self._l2_streamed
            mem_cost_streamed = self._mem_streamed
            l1_misses = l2_misses = 0
            streamed = False
            for line in range(first, last + 1):
                if streamed:
                    cycles += l1_cost_streamed
                if all_miss or (line - first) & l1_mask < r:
                    l1_misses += 1
                    ways2 = l2_sets[line & l2_mask]
                    if line in ways2:
                        del ways2[line]
                        ways2[line] = None
                        if streamed:
                            cycles += l2_cost_streamed
                        else:
                            cycles_int += l2_lat
                    else:
                        l2_misses += 1
                        ways2[line] = None
                        if len(ways2) > l2_assoc:
                            for victim in ways2:
                                break
                            del ways2[victim]
                        if streamed:
                            cycles += l2_cost_streamed
                            cycles += mem_cost_streamed
                        else:
                            cycles_int += l2_lat + mem_lat
                streamed = True
            self.l1.misses += l1_misses
            l2.accesses += l1_misses
            l2.misses += l2_misses
        self._cycles = cycles
        self._cycles_int = cycles_int

    read = access
    write = access

    def instr(self, count: int) -> None:
        """Retire ``count`` non-memory instructions."""
        self.instructions += count
        self._cycles += count * self._cpi

    def branch(self, pc: int, taken: bool) -> bool:
        """Resolve a conditional branch at (pseudo-)PC; return True if it
        was predicted correctly."""
        self.instructions += 1
        self._cycles += self._cpi
        correct = self.predictor.predict_and_update(pc, taken)
        if not correct:
            self._cycles_int += self._mispredict_penalty
        return correct

    def div(self, count: int = 1) -> None:
        """Execute ``count`` integer divisions (long-latency, unpipelined)."""
        self.instructions += count
        self._cycles_int += count * self._div_latency

    def loop_branches(self, pc: int, taken_iterations: int) -> None:
        """Account a counted loop's branches statistically.

        A scan loop's backward branch is taken ``taken_iterations`` times
        and falls through once.  In steady state every predictor predicts
        the taken iterations correctly and mispredicts only the exit, so
        rather than updating predictor tables per iteration (O(n) work for
        an O(1)-information event) we account the aggregate directly:
        ``taken_iterations + 1`` branches, one mispredict.
        """
        if taken_iterations < 0:
            raise ValueError("taken_iterations must be non-negative")
        pred = self.predictor
        n = taken_iterations + 1
        pred.branches += n
        self.instructions += n
        self._cycles += n * self._cpi
        if taken_iterations > 0:
            pred.mispredicts += 1
            self._cycles_int += self._mispredict_penalty

    def malloc(self, nbytes: int) -> int:
        """Allocate simulated heap memory (costs allocator instructions
        plus a header touch)."""
        addr = self.allocator.malloc(nbytes)
        self.instr(self.config.malloc_instructions)
        self.access(addr - 16, 16)  # write the malloc header
        return addr

    def free(self, addr: int) -> None:
        self.allocator.free(addr)
        self.instr(self.config.malloc_instructions // 2)
        self.access(addr - 16, 16)

    # ------------------------------------------------------------------
    # Measurement API (used by the profiler and harnesses).
    # ------------------------------------------------------------------

    @property
    def cycles(self) -> int:
        return int(self._cycles_int + self._cycles)

    @property
    def seconds(self) -> float:
        """Simulated wall-clock time at the configured frequency."""
        return (self._cycles_int + self._cycles) / (self.config.freq_ghz * 1e9)

    def attach_prefetcher(self, prefetcher) -> None:
        """Enable an explicit prefetcher (e.g.
        :class:`~repro.machine.prefetch.NextLinePrefetcher`)."""
        self.prefetcher = prefetcher
        self._rep_last = None

    def counters(self) -> PerfCounters:
        """Snapshot all event counters (the PAPI-read analogue)."""
        return PerfCounters(
            cycles=int(self._cycles_int + self._cycles),
            instructions=self.instructions,
            l1_accesses=self.l1.accesses,
            l1_misses=self.l1.misses,
            l2_accesses=self.l2.accesses,
            l2_misses=self.l2.misses,
            tlb_misses=self.tlb.misses,
            branches=self.predictor.branches,
            branch_mispredicts=self.predictor.mispredicts,
            allocations=self.allocator.allocations,
            allocated_bytes=self.allocator.allocated_bytes,
        )

    def snapshot_tuple(self) -> tuple[int, ...]:
        """Fast counter snapshot for hot per-call instrumentation paths.

        Field order matches :meth:`counters`.
        """
        return (
            int(self._cycles_int + self._cycles),
            self.instructions,
            self.l1.accesses,
            self.l1.misses,
            self.l2.accesses,
            self.l2.misses,
            self.tlb.misses,
            self.predictor.branches,
            self.predictor.mispredicts,
            self.allocator.allocations,
            self.allocator.allocated_bytes,
        )

    def reset(self) -> None:
        """Reset microarchitectural and counter state, keeping the heap.

        The allocator's heap mapping (live blocks, bump pointer, free
        lists) survives — containers still hold those addresses — but
        its event counters restart with everything else, and an
        attached prefetcher drops its stream history and statistics.
        """
        self.l1.flush()
        self.l2.flush()
        self.tlb.flush()
        self.l1.accesses = self.l1.misses = 0
        self.l2.accesses = self.l2.misses = 0
        self.tlb.accesses = self.tlb.misses = 0
        self._cycles = 0.0
        self._cycles_int = 0
        self.instructions = 0
        self._last_page = -1
        self._rep_last = None
        self.predictor.reset()
        alloc = self.allocator
        alloc.allocations = 0
        alloc.frees = 0
        alloc.allocated_bytes = 0
        # The footprint restarts from what is still live: blocks that
        # survive the reset keep counting toward the next run's peak.
        alloc.peak_live_bytes = alloc.live_bytes
        if self.prefetcher is not None:
            self.prefetcher.reset()
