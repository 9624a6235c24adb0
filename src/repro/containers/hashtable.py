"""``hash_set``/``hash_map`` core: a separate-chaining hash table.

Models libstdc++'s ``unordered_set``: a contiguous bucket-pointer array
plus heap-allocated chain nodes.  Exceeding the max load factor triggers a
rehash — allocate a double-size bucket array and relink every node — which,
like vector's resize, sits behind a rarely-taken branch and therefore
shows up as branch mispredictions (one of the paper's key features).

Find costs one multiplicative hash, one bucket-slot load and a short chain
walk; that constant overhead is why vector still beats hash containers on
small element counts.
"""

from __future__ import annotations

from repro.containers.base import Container

_PC_REHASH = 0x61
_PC_CHAIN = 0x62
_PC_ITER = 0x63

_INSTR_HASH = 10
_INSTR_PER_COMPARE = 3
_INSTR_LINK = 4
_INITIAL_BUCKETS = 16
_MAX_LOAD_FACTOR = 1.0
_SLOT_BYTES = 8
_NODE_OVERHEAD = 8  # next pointer

_KNUTH = 2654435761


class _HashNode:
    __slots__ = ("value", "addr")

    def __init__(self, value: int, addr: int) -> None:
        self.value = value
        self.addr = addr


class HashTable(Container):
    """Separate-chaining hash table (``std::unordered_set`` analogue)."""

    kind = "hash_set"

    def __init__(self, machine, elem_size: int = 8,
                 payload_size: int = 0) -> None:
        super().__init__(machine, elem_size, payload_size)
        self._hash_instr = 6 + self.elem_size // 4
        self._node_bytes = _NODE_OVERHEAD + self.element_bytes
        self._buckets: list[list[_HashNode]] = [
            [] for _ in range(_INITIAL_BUCKETS)
        ]
        self._array = machine.malloc(_INITIAL_BUCKETS * _SLOT_BYTES)
        self._size = 0

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def load_factor(self) -> float:
        return self._size / len(self._buckets)

    def _hash(self, value: int) -> int:
        self.machine.instr(self._hash_instr)
        self.machine.div()  # prime-modulo bucket index
        return ((value * _KNUTH) >> 7) & (len(self._buckets) - 1)

    def _touch_slot(self, index: int) -> None:
        self.machine.access(self._array + index * _SLOT_BYTES, _SLOT_BYTES)

    def _rehash_if_needed(self) -> None:
        machine = self.machine
        needs_rehash = (self._size + 1) > len(self._buckets) * _MAX_LOAD_FACTOR
        machine.branch(_PC_REHASH, needs_rehash)
        if not needs_rehash:
            return
        old_buckets = self._buckets
        new_count = len(old_buckets) * 2
        new_array = machine.malloc(new_count * _SLOT_BYTES)
        machine.free(self._array)
        self._array = new_array
        self._buckets = [[] for _ in range(new_count)]
        mask = new_count - 1
        nb = self._node_bytes
        for chain in old_buckets:
            for node in chain:
                machine.access(node.addr, nb)
                idx = ((node.value * _KNUTH) >> 7) & mask
                machine.access(new_array + idx * _SLOT_BYTES, _SLOT_BYTES)
                machine.instr(self._hash_instr)
                machine.div()
                self._buckets[idx].append(node)
        self.stats.resizes += 1

    def _chain_walk(self, chain: list[_HashNode], value: int) -> tuple[int, int]:
        """Walk a chain comparing values; (index or -1, nodes touched)."""
        path = []
        found = -1
        for idx, node in enumerate(chain):
            path.append((node.addr, 0, None))
            if node.value == value:
                found = idx
                break
        touched = len(path)
        if touched:
            machine = self.machine
            path.append((None, touched * (self._cmp_instr + 1), None))
            machine.walk(path, self._node_bytes)
            machine.loop_branches(_PC_CHAIN, touched)
        return found, touched

    # -- Container interface ----------------------------------------------

    def insert(self, value: int, hint: int | None = None) -> int:
        self._dispatch()
        machine = self.machine
        self._rehash_if_needed()
        idx = self._hash(value)
        self._touch_slot(idx)
        addr = machine.malloc(self._node_bytes)
        node = _HashNode(value, addr)
        machine.access(addr, self._node_bytes)
        machine.instr(_INSTR_LINK)
        # Head insertion, like libstdc++.
        self._buckets[idx].insert(0, node)
        self._size += 1
        self.stats.inserts += 1
        self.stats.note_size(self._size)
        return 0

    def erase(self, value: int) -> int:
        self._dispatch()
        machine = self.machine
        idx = self._hash(value)
        self._touch_slot(idx)
        chain = self._buckets[idx]
        pos, touched = self._chain_walk(chain, value)
        if pos >= 0:
            node = chain[pos]
            if pos > 0:
                machine.access(chain[pos - 1].addr, self._node_bytes)
            machine.instr(_INSTR_LINK)
            machine.free(node.addr)
            del chain[pos]
            self._size -= 1
        self.stats.erases += 1
        self.stats.erase_cost += touched
        return touched

    def find(self, value: int) -> bool:
        self._dispatch()
        idx = self._hash(value)
        self._touch_slot(idx)
        pos, touched = self._chain_walk(self._buckets[idx], value)
        self.stats.finds += 1
        self.stats.find_cost += touched
        return pos >= 0

    def iterate(self, steps: int) -> int:
        """Bucket-order walk; empty slots still cost slot loads."""
        self._dispatch()
        machine = self.machine
        nb = self._node_bytes
        visited = 0
        for idx, chain in enumerate(self._buckets):
            if visited >= steps:
                break
            self._touch_slot(idx)
            for node in chain:
                if visited >= steps:
                    break
                machine.access(node.addr, nb)
                machine.instr(_INSTR_PER_COMPARE)
                visited += 1
        if visited:
            machine.loop_branches(_PC_ITER, visited)
        self.stats.iterates += 1
        self.stats.iterate_cost += visited
        return visited

    def __len__(self) -> int:
        return self._size

    def to_list(self) -> list[int]:
        out: list[int] = []
        for chain in self._buckets:
            out.extend(node.value for node in chain)
        return out

    def clear(self) -> None:
        for chain in self._buckets:
            for node in chain:
                self.machine.free(node.addr)
            chain.clear()
        self._size = 0

    # -- invariant checking (test hook) -------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if hashing/accounting is inconsistent."""
        total = 0
        mask = len(self._buckets) - 1
        assert len(self._buckets) & mask == 0, "bucket count not a power of 2"
        for idx, chain in enumerate(self._buckets):
            for node in chain:
                assert ((node.value * _KNUTH) >> 7) & mask == idx, \
                    "node in wrong bucket"
                total += 1
        assert total == self._size, "size accounting broken"
        assert self.load_factor <= _MAX_LOAD_FACTOR + 1e-9, \
            "load factor exceeded without rehash"
