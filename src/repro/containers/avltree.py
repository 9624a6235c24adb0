"""``avl_set``/``avl_map`` core: an AVL tree.

AVL trees keep a stricter balance than red-black trees (height bounded by
~1.44 log2 n versus ~2 log2 n), so searches touch fewer nodes at the cost
of more rotations on updates.  That trade is exactly why the paper's
RelipmoC case study (find-heavy basic-block sets) wins by replacing
``set`` with ``avl_set`` (§6.4).

Duplicates descend right (multiset semantics), matching the red-black
implementation.

Machine events: every level of a descent loads one node and resolves one
direction branch; on the way back up every node on the path has its
height recomputed and stored, resolves the balance branch, and is
rotated when unbalanced.  Both paths depend only on the tree, so each is
computed first (the ascent as a loop over the recorded descent) and
handed to :meth:`Machine.walk` whole, as ``(addr, ninstr, taken)``
steps; only ``malloc`` and ``free``, which issue their own events,
split them.
"""

from __future__ import annotations

from repro.containers.base import Container

_PC_DIR = 0x51
_PC_ITER = 0x52
_PC_BALANCE = 0x53

_INSTR_PER_LEVEL = 3
_INSTR_ROTATE = 10
_NODE_OVERHEAD = 24  # left/right pointers + height word


class _AVLNode:
    __slots__ = ("value", "left", "right", "height", "addr")

    def __init__(self, value: int, addr: int) -> None:
        self.value = value
        self.left: _AVLNode | None = None
        self.right: _AVLNode | None = None
        self.height = 1
        self.addr = addr


def _height(node: _AVLNode | None) -> int:
    return node.height if node is not None else 0


def _balance(node: _AVLNode) -> int:
    return _height(node.left) - _height(node.right)


class AVLTree(Container):
    """Height-balanced binary search tree."""

    kind = "avl_set"

    def __init__(self, machine, elem_size: int = 8,
                 payload_size: int = 0) -> None:
        super().__init__(machine, elem_size, payload_size)
        self._root: _AVLNode | None = None
        self._size = 0
        self._node_bytes = _NODE_OVERHEAD + self.element_bytes

    # -- rotations ---------------------------------------------------------

    def _update_height(self, node: _AVLNode) -> None:
        node.height = 1 + max(_height(node.left), _height(node.right))

    def _rotate_right(self, y: _AVLNode, path: list) -> _AVLNode:
        x = y.left
        assert x is not None
        y.left = x.right
        x.right = y
        self._update_height(y)
        self._update_height(x)
        path.append((x.addr, 0, None))
        path.append((y.addr, _INSTR_ROTATE, None))
        return x

    def _rotate_left(self, x: _AVLNode, path: list) -> _AVLNode:
        y = x.right
        assert y is not None
        x.right = y.left
        y.left = x
        self._update_height(x)
        self._update_height(y)
        path.append((x.addr, 0, None))
        path.append((y.addr, _INSTR_ROTATE, None))
        return y

    def _rebalance(self, node: _AVLNode, path: list) -> _AVLNode:
        # Recomputing and storing the height dirties the node on the
        # way back up -- the classic AVL update overhead RB trees avoid.
        left, right = node.left, node.right
        left_height = 0 if left is None else left.height
        right_height = 0 if right is None else right.height
        node.height = 1 + (left_height if left_height > right_height
                           else right_height)
        balance = left_height - right_height
        unbalanced = balance > 1 or balance < -1
        path.append((None, 3, None))
        path.append((node.addr, 0, unbalanced))
        if not unbalanced:
            return node
        if balance > 1:
            assert node.left is not None
            if _balance(node.left) < 0:
                node.left = self._rotate_left(node.left, path)
            return self._rotate_right(node, path)
        assert node.right is not None
        if _balance(node.right) > 0:
            node.right = self._rotate_right(node.right, path)
        return self._rotate_left(node, path)

    def _descend(self, value: int, path: list, stop_at_equal: bool
                 ) -> tuple[list[_AVLNode], _AVLNode | None]:
        """The descent towards ``value``, appended to ``path``: the
        nodes passed on the way, and the equal node it stopped at (when
        ``stop_at_equal``) or None."""
        passed = []
        cmp_instr = self._cmp_instr + 1
        append = path.append
        node = self._root
        while node is not None:
            if stop_at_equal and value == node.value:
                append((node.addr, cmp_instr, None))
                return passed, node
            go_left = value < node.value
            append((node.addr, cmp_instr, go_left))
            passed.append(node)
            node = node.left if go_left else node.right
        return passed, None

    def _ascend(self, value: int, passed: list[_AVLNode],
                child: _AVLNode | None, path: list) -> None:
        """Relink ``child`` under the last node of the descent towards
        ``value`` and rebalance every node passed, bottom up."""
        for node in reversed(passed):
            if value < node.value:
                node.left = child
            else:
                node.right = child
            child = self._rebalance(node, path)
        self._root = child

    # -- insert --------------------------------------------------------------

    def insert(self, value: int, hint: int | None = None) -> int:
        self._dispatch()
        machine = self.machine
        nb = self._node_bytes
        path = []
        passed, _ = self._descend(value, path, stop_at_equal=False)
        machine.walk(path, nb, _PC_DIR)
        addr = machine.malloc(nb)
        path = [(addr, 0, None)]
        self._ascend(value, passed, _AVLNode(value, addr), path)
        machine.walk(path, nb, _PC_BALANCE)
        touched = len(passed)
        self._size += 1
        self.stats.inserts += 1
        self.stats.insert_cost += touched
        self.stats.note_size(self._size)
        return touched

    # -- erase ---------------------------------------------------------------

    def erase(self, value: int) -> int:
        self._dispatch()
        machine = self.machine
        nb = self._node_bytes
        path = []
        passed, node = self._descend(value, path, stop_at_equal=True)
        machine.walk(path, nb, _PC_DIR)
        touched = len(path)
        path = []
        child = None
        if node is not None:
            machine.free(node.addr)
            if node.left is None:
                child = node.right
            elif node.right is None:
                child = node.left
            else:
                # Pop the right subtree's minimum, rebalancing its left
                # spine bottom up, and put it in the erased node's place.
                spine = []
                successor = node.right
                path.append((successor.addr, 0, None))
                while successor.left is not None:
                    spine.append(successor)
                    successor = successor.left
                    path.append((successor.addr, 0, None))
                rest = successor.right
                for parent in reversed(spine):
                    parent.left = rest
                    rest = self._rebalance(parent, path)
                successor.left = node.left
                successor.right = rest
                path.append((successor.addr, 0, None))
                child = self._rebalance(successor, path)
            self._size -= 1
        self._ascend(value, passed, child, path)
        machine.walk(path, nb, _PC_BALANCE)
        self.stats.erases += 1
        self.stats.erase_cost += touched
        return touched

    # -- queries ---------------------------------------------------------------

    def find(self, value: int) -> bool:
        self._dispatch()
        path = []
        _, node = self._descend(value, path, stop_at_equal=True)
        self.machine.walk(path, self._node_bytes, _PC_DIR)
        self.stats.finds += 1
        self.stats.find_cost += len(path)
        return node is not None

    def iterate(self, steps: int) -> int:
        self._dispatch()
        machine = self.machine
        cmp_instr = self._cmp_instr + 1
        visited = 0
        path = []
        append = path.append
        stack: list[_AVLNode] = []
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
        stack: list[_AVLNode] = []
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
        """Raise AssertionError on any AVL property violation."""

        def walk(node: _AVLNode | None, lo: float, hi: float) -> int:
            if node is None:
                return 0
            assert lo <= node.value <= hi, "BST ordering violated"
            left_h = walk(node.left, lo, node.value)
            right_h = walk(node.right, node.value, hi)
            assert abs(left_h - right_h) <= 1, "AVL balance violated"
            assert node.height == 1 + max(left_h, right_h), "stale height"
            return node.height

        walk(self._root, float("-inf"), float("inf"))
        assert len(self.to_list()) == self._size
