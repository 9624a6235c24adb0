"""``splay_set``/``splay_map``: a splay tree (extension kind).

The paper's introduction singles splay trees out: they "almost always
perform better than red-black trees on real-world data though they have
the same asymptotic complexity" — precisely because real access streams
are skewed, and splaying moves hot keys to the root.  Table 1 does not
include them, but §3 notes further implementations "could easily be added
to the cost model construction system"; this module is that extension,
exercised by ``benchmarks/test_ext_splay_tree.py``.

Implementation: classic bottom-up splaying via the top-down simplified
recursion-free zig/zig-zig/zig-zag steps, with duplicates descending
right like the other trees.  As in the other trees, a splay's path is
computed first and handed to :meth:`Machine.walk` whole.
"""

from __future__ import annotations

from repro.containers.base import Container

_PC_DIR = 0x71
_PC_ITER = 0x72

_INSTR_ROTATE = 8
_NODE_OVERHEAD = 24  # left/right pointers + padding


class _SplayNode:
    __slots__ = ("value", "left", "right", "addr")

    def __init__(self, value: int, addr: int) -> None:
        self.value = value
        self.left: _SplayNode | None = None
        self.right: _SplayNode | None = None
        self.addr = addr


class SplayTree(Container):
    """Self-adjusting binary search tree (Sleator & Tarjan)."""

    kind = "splay_set"

    def __init__(self, machine, elem_size: int = 8,
                 payload_size: int = 0) -> None:
        super().__init__(machine, elem_size, payload_size)
        self._root: _SplayNode | None = None
        self._size = 0
        self._node_bytes = _NODE_OVERHEAD + self.element_bytes

    # -- splaying ----------------------------------------------------------

    def _splay(self, value: int, path: list) -> int:
        """Top-down splay: after this, the root is the node closest to
        ``value``.  Appends the splay's steps to ``path``; returns nodes
        touched."""
        root = self._root
        if root is None:
            return 0
        cmp_instr = self._cmp_instr + 1
        append = path.append
        header = _SplayNode(0, 0)
        left_tail = right_tail = header
        touched = 0
        node = root
        while True:
            touched += 1
            if value == node.value:
                append((node.addr, cmp_instr, None))
                break
            go_left = value < node.value
            append((node.addr, cmp_instr, go_left))
            if go_left:
                if node.left is None:
                    break
                # Zig-zig (rotate right) when the grandchild continues left.
                if value < node.left.value:
                    child = node.left
                    append((child.addr, _INSTR_ROTATE, None))
                    touched += 1
                    node.left = child.right
                    child.right = node
                    node = child
                    if node.left is None:
                        break
                # Link right.
                right_tail.left = node
                right_tail = node
                node = node.left
            else:
                if node.right is None:
                    break
                if value > node.right.value:
                    child = node.right
                    append((child.addr, _INSTR_ROTATE, None))
                    touched += 1
                    node.right = child.left
                    child.left = node
                    node = child
                    if node.right is None:
                        break
                left_tail.right = node
                left_tail = node
                node = node.right
        # Reassemble.
        left_tail.right = node.left
        right_tail.left = node.right
        node.left = header.right
        node.right = header.left
        append((node.addr, 0, None))
        self._root = node
        return touched

    # -- Container interface ----------------------------------------------

    def insert(self, value: int, hint: int | None = None) -> int:
        self._dispatch()
        machine = self.machine
        nb = self._node_bytes
        addr = machine.malloc(nb)
        fresh = _SplayNode(value, addr)
        touched = 0
        path = []
        if self._root is None:
            self._root = fresh
        else:
            touched = self._splay(value, path)
            root = self._root
            assert root is not None
            # Duplicates descend right, like the other trees.
            if value < root.value:
                fresh.left = root.left
                fresh.right = root
                root.left = None
            else:
                fresh.right = root.right
                fresh.left = root
                root.right = None
            path.append((root.addr, 0, None))
            self._root = fresh
        path.append((addr, 0, None))
        machine.walk(path, nb, _PC_DIR)
        self._size += 1
        self.stats.inserts += 1
        self.stats.insert_cost += touched
        self.stats.note_size(self._size)
        return touched

    def erase(self, value: int) -> int:
        self._dispatch()
        self.stats.erases += 1
        if self._root is None:
            return 0
        machine = self.machine
        nb = self._node_bytes
        path = []
        touched = self._splay(value, path)
        machine.walk(path, nb, _PC_DIR)
        self.stats.erase_cost += touched
        root = self._root
        assert root is not None
        if root.value != value:
            return touched
        machine.free(root.addr)
        if root.left is None:
            self._root = root.right
        else:
            # Splay the left subtree's maximum to its root (guaranteeing
            # an empty right spine), then hang the right subtree off it.
            self._root = root.left
            path = []
            self._splay(float("inf"), path)  # type: ignore[arg-type]
            assert self._root is not None
            assert self._root.right is None
            self._root.right = root.right
            path.append((self._root.addr, 0, None))
            machine.walk(path, nb, _PC_DIR)
        self._size -= 1
        return touched

    def find(self, value: int) -> bool:
        self._dispatch()
        self.stats.finds += 1
        if self._root is None:
            return False
        path = []
        touched = self._splay(value, path)
        self.machine.walk(path, self._node_bytes, _PC_DIR)
        self.stats.find_cost += touched
        return self._root is not None and self._root.value == value

    def iterate(self, steps: int) -> int:
        self._dispatch()
        machine = self.machine
        cmp_instr = self._cmp_instr + 1
        visited = 0
        path = []
        append = path.append
        stack: list[_SplayNode] = []
        node = self._root
        while (stack or node is not None) and visited < steps:
            while node is not None:
                append((node.addr, 0, None))
                stack.append(node)
                node = node.left
            node = stack.pop()
            append((None, cmp_instr, None))
            visited += 1
            node = node.right
        machine.walk(path, self._node_bytes)
        if visited:
            machine.loop_branches(_PC_ITER, visited)
        self.stats.iterates += 1
        self.stats.iterate_cost += visited
        return visited

    def __len__(self) -> int:
        return self._size

    def to_list(self) -> list[int]:
        out: list[int] = []
        stack: list[_SplayNode] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            out.append(node.value)
            node = node.right
        return out

    def clear(self) -> None:
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
            self.machine.free(node.addr)
        self._root = None
        self._size = 0

    # -- invariant checking (test hook) -------------------------------------

    def check_invariants(self) -> None:
        """BST ordering and size accounting (splay trees have no balance
        invariant)."""

        def walk(node: _SplayNode | None, lo: float, hi: float) -> int:
            if node is None:
                return 0
            assert lo <= node.value <= hi, "BST ordering violated"
            return (1 + walk(node.left, lo, node.value)
                    + walk(node.right, node.value, hi))

        assert walk(self._root, float("-inf"), float("inf")) == self._size
