"""``vector``: a dynamic array with geometric growth.

Models libstdc++'s ``std::vector``: elements live contiguously at a heap
base address; appending past capacity triggers ``resize`` — allocate a
double-size block, copy everything, free the old block.  The resize check
is a conditional branch that is almost never taken, so each actual resize
is a near-guaranteed branch mispredict: exactly the correlation the paper
exploits as a predictive feature (Figure 6).
"""

from __future__ import annotations

from repro.containers.base import Container

_PC_GROW = 0x11
_PC_SCAN = 0x12
_PC_ITER = 0x13
_PC_SHIFT = 0x14

_INSTR_PER_COMPARE = 2
_INSTR_PER_MOVE = 1
_INITIAL_CAPACITY = 8


class DynamicArray(Container):
    """Contiguous dynamic array (``std::vector`` analogue)."""

    kind = "vector"

    def __init__(self, machine, elem_size: int = 8,
                 payload_size: int = 0) -> None:
        super().__init__(machine, elem_size, payload_size)
        self._values: list[int] = []
        self._capacity = 0
        self._base = 0

    # -- internals -------------------------------------------------------

    def _grow_if_needed(self) -> None:
        """The ``size == capacity`` check on every append, plus the
        reallocate-and-copy slow path when it fires."""
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
            live = size * eb
            machine.access(self._base, live)       # read old block
            machine.access(new_base, live)          # write new block
            machine.instr(size * self._move_instr)
        if self._base:
            machine.free(self._base)
        self._base = new_base
        self._capacity = new_capacity
        self.stats.resizes += 1

    def _scan(self, value: int) -> tuple[int, int]:
        """Linear search; returns ``(index or -1, elements touched)``."""
        values = self._values
        try:
            idx = values.index(value)
            touched = idx + 1
        except ValueError:
            idx = -1
            touched = len(values)
        if touched:
            machine = self.machine
            machine.access(self._base, touched * self.element_bytes)
            machine.instr(touched * self._cmp_instr)
            machine.loop_branches(_PC_SCAN, touched)
        return idx, touched

    def _shift(self, start: int, count: int) -> None:
        """Move ``count`` elements (memmove: read + write the range)."""
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
        self._dispatch()
        values = self._values
        size = len(values)
        idx = size if hint is None else max(0, min(hint, size))
        self._grow_if_needed()
        moved = size - idx
        self._shift(idx, moved)
        values.insert(idx, value)
        self.machine.access(self._base + idx * self.element_bytes,
                            self.element_bytes)
        self.stats.inserts += 1
        self.stats.insert_cost += moved
        self.stats.note_size(len(values))
        return moved

    def push_back(self, value: int) -> int:
        cost = self.insert(value, hint=len(self._values))
        self.stats.push_backs += 1
        return cost

    def push_front(self, value: int) -> int:
        cost = self.insert(value, hint=0)
        self.stats.push_fronts += 1
        return cost

    def erase(self, value: int) -> int:
        self._dispatch()
        idx, touched = self._scan(value)
        cost = touched
        if idx >= 0:
            moved = len(self._values) - idx - 1
            self._shift(idx + 1, moved)
            del self._values[idx]
            cost += moved
        self.stats.erases += 1
        self.stats.erase_cost += cost
        return cost

    def find(self, value: int) -> bool:
        self._dispatch()
        idx, touched = self._scan(value)
        self.stats.finds += 1
        self.stats.find_cost += touched
        return idx >= 0

    def iterate(self, steps: int) -> int:
        self._dispatch()
        visited = max(0, min(steps, len(self._values)))
        if visited > 0:
            machine = self.machine
            machine.access(self._base, visited * self.element_bytes)
            machine.instr(visited * _INSTR_PER_MOVE)
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

    @property
    def capacity(self) -> int:
        return self._capacity
