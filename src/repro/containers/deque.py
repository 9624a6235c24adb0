"""``deque``: a chunked double-ended queue.

Models libstdc++'s ``std::deque``: fixed-size element chunks plus a map
array of chunk pointers.  Both ends grow in O(1) without relocating
existing elements (no vector-style resize copies), mid-insertion shifts
only the cheaper half, and iteration is nearly as cache-friendly as a
vector because elements are contiguous within a chunk.
"""

from __future__ import annotations

from repro.containers.base import Container

_PC_SCAN = 0x31
_PC_ITER = 0x32
_PC_SHIFT = 0x33
_PC_NEWCHUNK = 0x34

_CHUNK_BYTES = 512
# Deque iterators check the chunk boundary and re-load a map pointer on
# every advance, so per-element work is pricier than vector's and moves
# cannot be a single flat memmove.
_INSTR_PER_COMPARE = 4
_INSTR_PER_MOVE = 3
_SLOT_BYTES = 8


class ChunkedDeque(Container):
    """Chunked double-ended queue (``std::deque`` analogue)."""

    kind = "deque"

    def __init__(self, machine, elem_size: int = 8,
                 payload_size: int = 0) -> None:
        super().__init__(machine, elem_size, payload_size)
        self._values: list[int] = []
        self._chunk_elems = max(1, _CHUNK_BYTES // self.element_bytes)
        # Chunk addresses, logically front-to-back.  ``_front_offset`` is
        # the index of the first live element inside the first chunk.
        self._chunks: list[int] = []
        self._front_offset = 0
        # The chunk-pointer map array (modelled at a fixed generous size).
        self._map_base = machine.malloc(128 * _SLOT_BYTES)

    # -- geometry helpers -------------------------------------------------

    def _slot_addr(self, logical_index: int) -> int:
        slot = self._front_offset + logical_index
        chunk = self._chunks[slot // self._chunk_elems]
        return chunk + (slot % self._chunk_elems) * self.element_bytes

    def _ensure_back_capacity(self) -> None:
        machine = self.machine
        used = self._front_offset + len(self._values)
        needs_chunk = used >= len(self._chunks) * self._chunk_elems
        machine.branch(_PC_NEWCHUNK, needs_chunk)
        if needs_chunk:
            self._chunks.append(machine.malloc(_CHUNK_BYTES))

    def _ensure_front_capacity(self) -> None:
        machine = self.machine
        needs_chunk = self._front_offset == 0
        machine.branch(_PC_NEWCHUNK, needs_chunk)
        if needs_chunk:
            self._chunks.insert(0, machine.malloc(_CHUNK_BYTES))
            self._front_offset = self._chunk_elems

    def _access_span(self, start: int, count: int) -> None:
        """Touch ``count`` logical elements starting at ``start``,
        chunk-contiguously."""
        if count <= 0:
            return
        machine = self.machine
        eb = self.element_bytes
        ce = self._chunk_elems
        # The map array holding chunk pointers lives on the heap too; each
        # chunk crossing re-loads its slot.
        map_base = self._map_base
        slot = self._front_offset + start
        remaining = count
        while remaining > 0:
            chunk_idx, offset = divmod(slot, ce)
            machine.access(map_base + chunk_idx * _SLOT_BYTES, _SLOT_BYTES)
            run = min(remaining, ce - offset)
            machine.access(self._chunks[chunk_idx] + offset * eb, run * eb)
            slot += run
            remaining -= run

    def _shift(self, start: int, count: int) -> None:
        """Move a span (read + write), as a mid-insert/erase does."""
        if count <= 0:
            return
        self._access_span(start, count)
        self._access_span(start, count)
        self.machine.instr(count * (self._move_instr + 2))
        self.machine.loop_branches(_PC_SHIFT, count)

    # -- Container interface ----------------------------------------------

    def insert(self, value: int, hint: int | None = None) -> int:
        self._dispatch()
        values = self._values
        size = len(values)
        idx = size if hint is None else max(0, min(hint, size))
        front_moved = idx
        back_moved = size - idx
        if back_moved <= front_moved:
            # Shift the tail one slot towards the back.
            self._ensure_back_capacity()
            self._shift(idx, back_moved)
            moved = back_moved
        else:
            # Shift the head one slot towards the front.
            self._ensure_front_capacity()
            self._shift(0, front_moved)
            self._front_offset -= 1
            moved = front_moved
        values.insert(idx, value)
        self.machine.access(self._slot_addr(idx), self.element_bytes)
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
        values = self._values
        idx, touched = self._scan(value)
        cost = touched
        if idx >= 0:
            size = len(values)
            front_moved = idx
            back_moved = size - idx - 1
            if back_moved <= front_moved:
                self._shift(idx + 1, back_moved)
                moved = back_moved
            else:
                self._shift(0, front_moved)
                self._front_offset += 1
                moved = front_moved
            del values[idx]
            cost += moved
            self._release_spare_chunks()
        self.stats.erases += 1
        self.stats.erase_cost += cost
        return cost

    def _release_spare_chunks(self) -> None:
        """Free chunks that no longer hold any live element."""
        ce = self._chunk_elems
        # Leading fully-dead chunks.
        while self._front_offset >= ce:
            self.machine.free(self._chunks.pop(0))
            self._front_offset -= ce
        # Trailing fully-dead chunks.
        used_slots = self._front_offset + len(self._values)
        needed = max(1, -(-used_slots // ce)) if self._values else 0
        while len(self._chunks) > needed:
            self.machine.free(self._chunks.pop())
        if not self._values:
            self._front_offset = 0

    def _scan(self, value: int) -> tuple[int, int]:
        values = self._values
        try:
            idx = values.index(value)
            touched = idx + 1
        except ValueError:
            idx = -1
            touched = len(values)
        if touched:
            self._access_span(0, touched)
            self.machine.instr(touched * (self._cmp_instr + 2))
            self.machine.loop_branches(_PC_SCAN, touched)
        return idx, touched

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
            self._access_span(0, visited)
            self.machine.instr(visited * _INSTR_PER_MOVE)
            self.machine.loop_branches(_PC_ITER, visited)
        self.stats.iterates += 1
        self.stats.iterate_cost += visited
        return visited

    def __len__(self) -> int:
        return len(self._values)

    def to_list(self) -> list[int]:
        return list(self._values)

    def clear(self) -> None:
        for chunk in self._chunks:
            self.machine.free(chunk)
        self._chunks.clear()
        self._values.clear()
        self._front_offset = 0
