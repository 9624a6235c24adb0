"""``list``: a doubly-linked list.

Every element lives in its own heap node (two pointers + the element), so
insertion at a known position is O(1) — the Table 1 "fast insertion"
benefit — while find and iteration chase pointers node by node, paying one
cache access per element.  After insert/erase churn the allocator's free
lists scramble node addresses relative to logical order, which is what
makes long list traversals miss in cache (the paper's L1-miss feature for
the list models).

The list keeps its values and its nodes in two parallel Python lists in
logical order, each node as the :meth:`Machine.walk` step that touches
it, ``(addr, 0, None)``.  A find or an iteration hands a slice of them
to ``walk`` in one call, which touches the nodes one by one exactly as
per-node accesses would.
"""

from __future__ import annotations

from repro.containers.base import Container

_PC_SCAN = 0x21
_PC_ITER = 0x22

_POINTER_BYTES = 16  # prev + next
_INSTR_PER_STEP = 3
_INSTR_LINK = 4


class DoublyLinkedList(Container):
    """Doubly-linked list (``std::list`` analogue).

    Positional inserts model a program that already holds an iterator at
    the insertion point (as real ``std::list`` users do), so they cost
    O(1) machine work; value-based erase and find traverse from the head.
    """

    kind = "list"

    def __init__(self, machine, elem_size: int = 8,
                 payload_size: int = 0) -> None:
        super().__init__(machine, elem_size, payload_size)
        self._node_bytes = _POINTER_BYTES + self.element_bytes
        # Node values and node touches, in logical order.
        self._values: list[int] = []
        self._nodes: list[tuple[int, int, None]] = []

    def _scan(self, value: int) -> tuple[int, int]:
        """Walk from the head comparing values; (index or -1, touched)."""
        values = self._values
        try:
            found = values.index(value)
            touched = found + 1
        except ValueError:
            found = -1
            touched = len(values)
        if touched:
            machine = self.machine
            path = self._nodes[:touched]
            path.append((None, touched * (self._cmp_instr + 1), None))
            machine.walk(path, self._node_bytes)
            machine.loop_branches(_PC_SCAN, touched)
        return found, touched

    # -- Container interface ----------------------------------------------

    def insert(self, value: int, hint: int | None = None) -> int:
        self._dispatch()
        machine = self.machine
        nodes = self._nodes
        nb = self._node_bytes
        size = len(nodes)
        idx = size if hint is None else max(0, min(hint, size))
        node = (machine.malloc(nb), 0, None)
        path = [node]  # write the new node, then relink its neighbours
        if idx > 0:
            path.append(nodes[idx - 1])
        if idx < size:
            path.append(nodes[idx])
        path.append((None, _INSTR_LINK, None))
        machine.walk(path, nb)
        self._values.insert(idx, value)
        nodes.insert(idx, node)
        self.stats.inserts += 1
        self.stats.note_size(size + 1)
        return 0

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
        if idx >= 0:
            machine = self.machine
            nodes = self._nodes
            path = []
            if idx > 0:
                path.append(nodes[idx - 1])
            if idx + 1 < len(nodes):
                path.append(nodes[idx + 1])
            path.append((None, _INSTR_LINK, None))
            machine.walk(path, self._node_bytes)
            machine.free(nodes.pop(idx)[0])
            del self._values[idx]
        self.stats.erases += 1
        self.stats.erase_cost += touched
        return touched

    def find(self, value: int) -> bool:
        self._dispatch()
        idx, touched = self._scan(value)
        self.stats.finds += 1
        self.stats.find_cost += touched
        return idx >= 0

    def iterate(self, steps: int) -> int:
        self._dispatch()
        visited = max(0, min(steps, len(self._nodes)))
        if visited:
            machine = self.machine
            path = self._nodes[:visited]
            path.append((None, visited * _INSTR_PER_STEP, None))
            machine.walk(path, self._node_bytes)
            machine.loop_branches(_PC_ITER, visited)
        self.stats.iterates += 1
        self.stats.iterate_cost += visited
        return visited

    def __len__(self) -> int:
        return len(self._values)

    def to_list(self) -> list[int]:
        return list(self._values)

    def clear(self) -> None:
        for addr, _, _ in self._nodes:
            self.machine.free(addr)
        self._values.clear()
        self._nodes.clear()
