"""``set``/``map`` core: a red-black tree.

A full CLRS-style red-black tree with parent pointers, insert/delete
fixups and rotations.  Values compare as integers; duplicates are allowed
(equal keys descend right), giving multiset semantics so the logical state
matches the sequence containers under an identical operation stream.

Machine events: every level of a descent loads one node and resolves one
data-dependent direction branch (the ~50 %-mispredicting comparisons that
make tree search branchy on real hardware); rotations and fixups touch the
nodes they relink.  The path a descent, a fixup or an in-order walk takes
depends only on the tree, so each is computed first and handed to
:meth:`Machine.walk` whole, as ``(addr, ninstr, taken)`` steps; only
``malloc`` and ``free``, which issue their own events, split a path.
"""

from __future__ import annotations

from repro.containers.base import Container

_PC_DIR = 0x41
_PC_FIXUP = 0x42
_PC_ITER = 0x43

_INSTR_PER_LEVEL = 3
_INSTR_ROTATE = 8
_NODE_OVERHEAD = 32  # left/right/parent pointers + colour word

_RED = True
_BLACK = False


class _RBNode:
    __slots__ = ("value", "left", "right", "parent", "red", "addr")

    def __init__(self, value: int, addr: int, nil: "_RBNode | None") -> None:
        self.value = value
        self.left = nil
        self.right = nil
        self.parent = nil
        self.red = _RED
        self.addr = addr


class RedBlackTree(Container):
    """Red-black tree (``std::set``/``std::map`` analogue)."""

    kind = "set"

    def __init__(self, machine, elem_size: int = 8,
                 payload_size: int = 0) -> None:
        super().__init__(machine, elem_size, payload_size)
        self._nil = _RBNode(0, 0, None)
        self._nil.red = _BLACK
        self._nil.left = self._nil.right = self._nil.parent = self._nil
        self._root = self._nil
        self._size = 0
        self._node_bytes = _NODE_OVERHEAD + self.element_bytes

    def _touch(self, node: _RBNode, path: list) -> None:
        if node is not self._nil:
            path.append((node.addr, 0, None))

    # -- rotations ---------------------------------------------------------

    def _rotate_left(self, x: _RBNode, path: list) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self._nil:
            y.left.parent = x
            path.append((y.left.addr, 0, None))
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        path.append((x.addr, 0, None))
        path.append((y.addr, _INSTR_ROTATE, None))

    def _rotate_right(self, x: _RBNode, path: list) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self._nil:
            y.right.parent = x
            path.append((y.right.addr, 0, None))
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        path.append((x.addr, 0, None))
        path.append((y.addr, _INSTR_ROTATE, None))

    # -- search -------------------------------------------------------------

    def _descend(self, value: int, path: list) -> _RBNode:
        """The path from the root towards ``value``, appended to
        ``path``; returns the first equal node (like ``std::set::find``)
        or nil."""
        nil = self._nil
        node = self._root
        cmp_instr = self._cmp_instr + 1
        append = path.append
        while node is not nil:
            if value == node.value:
                append((node.addr, cmp_instr, None))
                return node
            go_left = value < node.value
            append((node.addr, cmp_instr, go_left))
            node = node.left if go_left else node.right
        return nil

    # -- insert --------------------------------------------------------------

    def insert(self, value: int, hint: int | None = None) -> int:
        self._dispatch()
        machine = self.machine
        nil = self._nil
        parent = nil
        node = self._root
        nb = self._node_bytes
        cmp_instr = self._cmp_instr + 1
        path = []
        append = path.append
        while node is not nil:
            parent = node
            go_left = value < node.value
            append((node.addr, cmp_instr, go_left))
            node = node.left if go_left else node.right
        touched = len(path)
        machine.walk(path, nb, _PC_DIR)
        addr = machine.malloc(nb)
        fresh = _RBNode(value, addr, nil)
        fresh.parent = parent
        if parent is nil:
            self._root = fresh
        elif value < parent.value:
            parent.left = fresh
        else:
            parent.right = fresh
        path = [(addr, 0, None)]  # write the new node
        self._touch(parent, path)
        self._insert_fixup(fresh, path)
        machine.walk(path, nb, _PC_FIXUP)
        self._size += 1
        self.stats.inserts += 1
        self.stats.insert_cost += touched
        self.stats.note_size(self._size)
        return touched

    def _insert_fixup(self, z: _RBNode, path: list) -> None:
        touch = self._touch
        while z.parent.red:
            path.append((None, 0, True))
            grand = z.parent.parent
            if z.parent is grand.left:
                uncle = grand.right
                touch(uncle, path)
                if uncle.red:
                    z.parent.red = _BLACK
                    uncle.red = _BLACK
                    grand.red = _RED
                    touch(z.parent, path)
                    touch(grand, path)
                    z = grand
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z, path)
                    z.parent.red = _BLACK
                    grand.red = _RED
                    self._rotate_right(grand, path)
            else:
                uncle = grand.left
                touch(uncle, path)
                if uncle.red:
                    z.parent.red = _BLACK
                    uncle.red = _BLACK
                    grand.red = _RED
                    touch(z.parent, path)
                    touch(grand, path)
                    z = grand
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z, path)
                    z.parent.red = _BLACK
                    grand.red = _RED
                    self._rotate_left(grand, path)
        path.append((None, 0, False))
        self._root.red = _BLACK

    # -- erase ---------------------------------------------------------------

    def _transplant(self, u: _RBNode, v: _RBNode) -> None:
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _minimum(self, node: _RBNode, path: list) -> _RBNode:
        nil = self._nil
        while node.left is not nil:
            path.append((node.addr, 0, None))
            node = node.left
        return node

    def erase(self, value: int) -> int:
        self._dispatch()
        machine = self.machine
        nb = self._node_bytes
        path = []
        z = self._descend(value, path)
        touched = len(path)
        self.stats.erases += 1
        self.stats.erase_cost += touched
        nil = self._nil
        if z is nil:
            machine.walk(path, nb, _PC_DIR)
            return touched
        y = z
        y_was_red = y.red
        if z.left is nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right, path)
            y_was_red = y.red
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.red = z.red
            path.append((y.addr, 0, None))
        machine.walk(path, nb, _PC_DIR)
        machine.free(z.addr)
        if not y_was_red:
            path = []
            self._erase_fixup(x, path)
            machine.walk(path, nb, _PC_FIXUP)
        self._size -= 1
        return touched

    def _erase_fixup(self, x: _RBNode, path: list) -> None:
        touch = self._touch
        while x is not self._root and not x.red:
            path.append((None, 0, True))
            if x is x.parent.left:
                w = x.parent.right
                touch(w, path)
                if w.red:
                    w.red = _BLACK
                    x.parent.red = _RED
                    self._rotate_left(x.parent, path)
                    w = x.parent.right
                    touch(w, path)
                if not w.left.red and not w.right.red:
                    w.red = _RED
                    x = x.parent
                else:
                    if not w.right.red:
                        w.left.red = _BLACK
                        w.red = _RED
                        self._rotate_right(w, path)
                        w = x.parent.right
                        touch(w, path)
                    w.red = x.parent.red
                    x.parent.red = _BLACK
                    w.right.red = _BLACK
                    self._rotate_left(x.parent, path)
                    x = self._root
            else:
                w = x.parent.left
                touch(w, path)
                if w.red:
                    w.red = _BLACK
                    x.parent.red = _RED
                    self._rotate_right(x.parent, path)
                    w = x.parent.left
                    touch(w, path)
                if not w.right.red and not w.left.red:
                    w.red = _RED
                    x = x.parent
                else:
                    if not w.left.red:
                        w.right.red = _BLACK
                        w.red = _RED
                        self._rotate_left(w, path)
                        w = x.parent.left
                        touch(w, path)
                    w.red = x.parent.red
                    x.parent.red = _BLACK
                    w.left.red = _BLACK
                    self._rotate_right(x.parent, path)
                    x = self._root
        path.append((None, 0, False))
        x.red = _BLACK

    # -- queries ---------------------------------------------------------------

    def find(self, value: int) -> bool:
        self._dispatch()
        path = []
        node = self._descend(value, path)
        self.machine.walk(path, self._node_bytes, _PC_DIR)
        self.stats.finds += 1
        self.stats.find_cost += len(path)
        return node is not self._nil

    def iterate(self, steps: int) -> int:
        """In-order walk from the minimum, chasing node pointers."""
        self._dispatch()
        nil = self._nil
        visited = 0
        if self._root is not nil and steps > 0:
            path = []
            append = path.append
            node = self._root
            while node.left is not nil:
                append((node.addr, 0, None))
                node = node.left
            cmp_instr = self._cmp_instr + 1
            while node is not nil and visited < steps:
                append((node.addr, cmp_instr, None))
                visited += 1
                node = self._successor(node, append)
            machine = self.machine
            machine.walk(path, self._node_bytes)
            machine.loop_branches(_PC_ITER, visited)
        self.stats.iterates += 1
        self.stats.iterate_cost += visited
        return visited

    def _successor(self, node: _RBNode, append) -> _RBNode:
        nil = self._nil
        if node.right is not nil:
            node = node.right
            while node.left is not nil:
                append((node.addr, 0, None))
                node = node.left
            return node
        parent = node.parent
        while parent is not nil and node is parent.right:
            append((parent.addr, 0, None))
            node = parent
            parent = parent.parent
        return parent

    def __len__(self) -> int:
        return self._size

    def to_list(self) -> list[int]:
        out: list[int] = []
        stack: list[_RBNode] = []
        node = self._root
        nil = self._nil
        while stack or node is not nil:
            while node is not nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            out.append(node.value)
            node = node.right
        return out

    def clear(self) -> None:
        stack = [self._root] if self._root is not self._nil else []
        nil = self._nil
        while stack:
            node = stack.pop()
            if node.left is not nil:
                stack.append(node.left)
            if node.right is not nil:
                stack.append(node.right)
            self.machine.free(node.addr)
        self._root = nil
        self._size = 0

    # -- invariant checking (test hook; no machine events) -----------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any red-black property is violated."""
        nil = self._nil
        assert not self._root.red, "root must be black"
        assert not nil.red, "nil must be black"

        def walk(node: _RBNode, lo: float, hi: float) -> int:
            if node is nil:
                return 1
            assert lo <= node.value <= hi, "BST ordering violated"
            if node.red:
                assert not node.left.red and not node.right.red, \
                    "red node with red child"
            left_bh = walk(node.left, lo, node.value)
            right_bh = walk(node.right, node.value, hi)
            assert left_bh == right_bh, "black heights differ"
            return left_bh + (0 if node.red else 1)

        walk(self._root, float("-inf"), float("inf"))
        assert len(self.to_list()) == self._size
