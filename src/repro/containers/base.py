"""Abstract container interface shared by every implementation.

The interface is an *abstract data type* in the paper's sense (§4.2): a
multiset of integer values (or a key/payload mapping for the map kinds)
whose operations can be replayed identically against any candidate
implementation.  Sequence containers additionally honour a positional
``hint`` on insert, which ordered/hashed containers ignore — this keeps
the random stream a generated application draws identical across
implementations, a prerequisite for Phase I's candidate race.

Every mutating/observing operation returns its *software cost*, the number
of data elements touched to carry it out (the paper's ``find_cost``,
``insert_cost``, ``erase_cost``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.machine.machine import Machine

#: Instructions charged for an interface call's entry/exit boilerplate.
DISPATCH_INSTRUCTIONS = 6


@dataclass
class OpCost:
    """Aggregate software-feature counters for one container instance."""

    inserts: int = 0
    insert_cost: int = 0
    erases: int = 0
    erase_cost: int = 0
    finds: int = 0
    find_cost: int = 0
    iterates: int = 0
    iterate_cost: int = 0
    push_backs: int = 0
    push_fronts: int = 0
    resizes: int = 0
    max_size: int = 0
    total_calls: int = 0
    #: Sum of the container's size observed at each interface call, so
    #: hand-constructed models (Perflint) can use the average N.
    size_sum: int = 0

    def note_size(self, size: int) -> None:
        if size > self.max_size:
            self.max_size = size

    @property
    def avg_size(self) -> float:
        if self.total_calls == 0:
            return 0.0
        return self.size_sum / self.total_calls

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class Container(ABC):
    """Base class for all simulated containers.

    Parameters
    ----------
    machine:
        The simulated machine all memory/branch events are issued to.
    elem_size:
        Bytes per stored value (the paper's ``DataElemSize``).
    payload_size:
        Extra bytes of mapped payload per element (0 for set-like kinds).
    """

    #: Subclasses set this to their :class:`~repro.containers.registry.DSKind`.
    kind: str = ""

    def __init__(self, machine: Machine, elem_size: int = 8,
                 payload_size: int = 0) -> None:
        if elem_size <= 0:
            raise ValueError(f"elem_size must be positive: {elem_size}")
        if payload_size < 0:
            raise ValueError(f"payload_size must be >= 0: {payload_size}")
        self.machine = machine
        self.elem_size = elem_size
        self.payload_size = payload_size
        self.stats = OpCost()
        # Per-element work: comparisons and hashing operate on the key
        # (elem_size) only -- maps compare keys, not payloads -- while
        # copying an element moves key + payload.
        self._cmp_instr = 2 + elem_size // 32
        self._move_instr = max(1, (elem_size + payload_size) // 16)

    # -- core ADT operations -------------------------------------------

    @abstractmethod
    def insert(self, value: int, hint: int | None = None) -> int:
        """Insert ``value``; sequences place it at index ``hint``.

        Returns the software cost (elements moved or touched).
        """

    @abstractmethod
    def erase(self, value: int) -> int:
        """Erase the first occurrence of ``value`` (no-op if absent).

        Returns the software cost.
        """

    @abstractmethod
    def find(self, value: int) -> bool:
        """Return whether ``value`` is present."""

    @abstractmethod
    def iterate(self, steps: int) -> int:
        """Advance an iterator from ``begin()`` by up to ``steps`` elements,
        touching each.  Returns the number of elements actually visited."""

    @abstractmethod
    def __len__(self) -> int:
        ...

    @abstractmethod
    def to_list(self) -> list[int]:
        """Logical contents in iteration order (model-checking hook; does
        not issue machine events)."""

    @abstractmethod
    def clear(self) -> None:
        """Remove all elements, releasing simulated memory."""

    # -- sequence conveniences ------------------------------------------

    def push_back(self, value: int) -> int:
        """Append. Ordered/hashed kinds treat this as a plain insert."""
        return self.insert(value, hint=len(self))

    def push_front(self, value: int) -> int:
        """Prepend. Ordered/hashed kinds treat this as a plain insert."""
        return self.insert(value, hint=0)

    # -- shared helpers --------------------------------------------------

    @property
    def element_bytes(self) -> int:
        return self.elem_size + self.payload_size

    def _dispatch(self) -> None:
        """Charge the fixed per-interface-call overhead."""
        self.machine.instr(DISPATCH_INSTRUCTIONS)
        self.stats.total_calls += 1
        self.stats.size_sum += len(self)

    def __contains__(self, value: int) -> bool:
        return value in self.to_list()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(size={len(self)})"
