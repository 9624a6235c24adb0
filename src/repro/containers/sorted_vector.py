"""``sorted_vector``: a flat set — sorted contiguous array (extension kind).

The classic alternative the STL never shipped: keep elements sorted in a
vector, find by binary search (log n probes over *contiguous* memory —
far friendlier to caches than pointer-chasing a tree), pay O(n) shifts on
insert/erase.  For read-mostly ordered data it beats ``set`` outright;
an extension experiment (``benchmarks/test_ext_sorted_vector.py``) shows
where the crossover sits in our machine model.
"""

from __future__ import annotations

import bisect

from repro.containers.base import Container

_PC_BSEARCH = 0x81
_PC_ITER = 0x82
_PC_SHIFT = 0x83
_PC_GROW = 0x84

_INITIAL_CAPACITY = 8


class SortedVector(Container):
    """Sorted dynamic array with binary-search lookups."""

    kind = "sorted_vector"

    def __init__(self, machine, elem_size: int = 8,
                 payload_size: int = 0) -> None:
        super().__init__(machine, elem_size, payload_size)
        self._values: list[int] = []
        self._capacity = 0
        self._base = 0

    def _grow_if_needed(self) -> None:
        machine = self.machine
        size = len(self._values)
        needs_resize = size >= self._capacity
        machine.branch(_PC_GROW, needs_resize)
        if not needs_resize:
            return
        new_capacity = max(_INITIAL_CAPACITY, self._capacity * 2)
        eb = self.element_bytes
        new_base = machine.malloc(new_capacity * eb)
        if size:
            machine.access(self._base, size * eb)
            machine.access(new_base, size * eb)
            machine.instr(size * self._move_instr)
        if self._base:
            machine.free(self._base)
        self._base = new_base
        self._capacity = new_capacity
        self.stats.resizes += 1

    def _bsearch(self, value: int) -> tuple[int, int]:
        """Leftmost insertion point via binary search.

        Returns ``(index, probes)``; each probe loads one element from a
        data-dependent position and resolves a ~50/50 branch — like a
        tree descent, but over contiguous storage.
        """
        machine = self.machine
        eb = self.element_bytes
        values = self._values
        lo, hi = 0, len(values)
        probes = 0
        while lo < hi:
            mid = (lo + hi) // 2
            machine.access(self._base + mid * eb, eb)
            machine.instr(self._cmp_instr + 2)
            probes += 1
            go_left = value <= values[mid]
            machine.branch(_PC_BSEARCH, go_left)
            if go_left:
                hi = mid
            else:
                lo = mid + 1
        return lo, probes

    def _shift(self, start: int, count: int) -> None:
        if count <= 0:
            return
        machine = self.machine
        eb = self.element_bytes
        addr = self._base + start * eb
        machine.access(addr, count * eb)
        machine.access(addr, count * eb)
        machine.instr(count * self._move_instr)
        machine.loop_branches(_PC_SHIFT, count)

    # -- Container interface ----------------------------------------------

    def insert(self, value: int, hint: int | None = None) -> int:
        """Sorted insert; the positional hint is ignored (order is the
        container's own invariant)."""
        self._dispatch()
        idx, probes = self._bsearch(value)
        self._grow_if_needed()
        moved = len(self._values) - idx
        self._shift(idx, moved)
        self._values.insert(idx, value)
        self.machine.access(self._base + idx * self.element_bytes,
                            self.element_bytes)
        self.stats.inserts += 1
        self.stats.insert_cost += probes + moved
        self.stats.note_size(len(self._values))
        return probes + moved

    def erase(self, value: int) -> int:
        self._dispatch()
        idx, probes = self._bsearch(value)
        cost = probes
        values = self._values
        if idx < len(values) and values[idx] == value:
            moved = len(values) - idx - 1
            self._shift(idx + 1, moved)
            del values[idx]
            cost += moved
        self.stats.erases += 1
        self.stats.erase_cost += cost
        return cost

    def find(self, value: int) -> bool:
        self._dispatch()
        idx, probes = self._bsearch(value)
        self.stats.finds += 1
        self.stats.find_cost += probes
        values = self._values
        return idx < len(values) and values[idx] == value

    def iterate(self, steps: int) -> int:
        self._dispatch()
        visited = max(0, min(steps, len(self._values)))
        if visited > 0:
            machine = self.machine
            machine.access(self._base, visited * self.element_bytes)
            machine.instr(visited)
            machine.loop_branches(_PC_ITER, visited)
        self.stats.iterates += 1
        self.stats.iterate_cost += visited
        return visited

    def __len__(self) -> int:
        return len(self._values)

    def to_list(self) -> list[int]:
        return list(self._values)

    def clear(self) -> None:
        self._values.clear()
        if self._base:
            self.machine.free(self._base)
            self._base = 0
        self._capacity = 0

    # -- invariant checking (test hook) -------------------------------------

    def check_invariants(self) -> None:
        values = self._values
        assert values == sorted(values), "sortedness violated"
        assert self._capacity >= len(values)
        # bisect agreement spot-check.
        for probe in (values[0], values[-1]) if values else ():
            assert self._values[bisect.bisect_left(values, probe)] == probe
