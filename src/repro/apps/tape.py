"""Interface-call tapes: evaluate a container assignment without the app.

A case-study app's own work (ray/sphere geometry, Chord routing, the
decompiler's passes) does not depend on which container implementation
sits at each site — only the containers' simulated costs do.  So
:meth:`Tape.record` runs the app once and keeps, in program order,
every container interface call (site, method, arguments, return value)
interleaved with the app's own machine events (``instr``, ``branch``,
``div``, ``loop_branches``, ``malloc``, ``free``, ``access``).  Each run
of consecutive ``instr`` events is kept as one event, a
:meth:`~repro.machine.machine.Machine.walk` path of address-less steps,
one per call, in order.
:meth:`Tape.replay` then evaluates any other assignment by building
fresh containers on a fresh machine — through the same
:func:`~repro.apps.base.build_containers` that
:func:`~repro.apps.base.run_case_study` uses — and issuing the taped
events, skipping the app's Python entirely.  Every event is still
simulated, so the result equals a real run's exactly.

That holds under the app contract (``CaseStudyApp.execute``): control
flow may depend on ``find`` / ``iterate`` / ``len`` / ``to_list``
results and on the app's own data, never on the cost a mutator returns
or on machine addresses and state.  The replay checks every return
value the app could have branched on against the tape; on the first
mismatch (an iteration order that differs by kind, say) it abandons the
replay, counts it in ``darwin.tape_fallbacks``, and returns ``None`` so
the caller runs the app for real.

App-owned memory is taped symbolically, as (app ``malloc`` block,
offset), because block addresses shift with the containers' own
allocations.  An app that touches memory outside its own live blocks,
or reads anything else off the machine or a container, gets no tape.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from itertools import groupby

import repro.obs as obs
from repro.apps.base import (
    AppResult,
    CaseStudyApp,
    build_containers,
    finish_run,
    profile_containers,
)
from repro.containers.registry import DSKind
from repro.machine.configs import MachineConfig

# Tape opcodes; an event is ``(opcode, *operands)``.  ``_INSTR`` is
# ``(count)`` while recording and ``(steps)``, a walk path, on a tape.
_CALL, _INSTR, _ACCESS, _MALLOC, _FREE, _BRANCH, _DIV, _LOOP = range(8)

#: Interface calls whose return value is a software cost (or nothing):
#: it legitimately differs by kind and apps must not use it, so the
#: replay does not check it.  Every other return is checked.
_COST_CALLS = frozenset({"insert", "erase", "push_back", "push_front",
                         "put", "remove", "clear"})


def _fold_instr_runs(events: list[tuple]) -> tuple[tuple, ...]:
    """``events`` with each run of consecutive ``instr`` events folded
    into one ``(_INSTR, steps)``: a :meth:`Machine.walk
    <repro.machine.machine.Machine.walk>` step ``(None, count, None)``
    per call, in order.  A run of one folds too, so a tape holds one
    form of ``instr`` event.  Equal counts share one step tuple, so the
    tape stays smaller than unfolded."""
    folded: list[tuple] = []
    steps: dict[int, tuple] = {}
    for is_instr, run in groupby(events, lambda event: event[0] == _INSTR):
        if is_instr:
            folded.append((_INSTR, tuple(
                steps.setdefault(event[1], (None, event[1], None))
                for event in run)))
        else:
            folded.extend(run)
    return tuple(folded)


class _Recorder:
    """What one recording run tapes, and whether a tape can replay it."""

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.tapeable = True


class _RecordingMachine:
    """The machine as the app sees it while a tape is recorded.

    Forwards every event to the real machine and tapes it; app blocks
    are numbered in ``malloc`` order.
    """

    def __init__(self, machine, recorder: _Recorder) -> None:
        self._machine = machine
        self._recorder = recorder
        self._tape = recorder.events.append
        #: Live app block address -> (block number, requested bytes).
        self._live: dict[int, tuple[int, int]] = {}
        self._blocks = 0

    def __getattr__(self, name: str):
        # Anything but an event (counters, cycles, the allocator) is
        # machine state the replay cannot reproduce.
        self._recorder.tapeable = False
        return getattr(self._machine, name)

    def instr(self, count: int) -> None:
        self._machine.instr(count)
        self._tape((_INSTR, count))

    def branch(self, pc: int, taken: bool) -> bool:
        self._tape((_BRANCH, pc, taken))
        return self._machine.branch(pc, taken)

    def div(self, count: int = 1) -> None:
        self._machine.div(count)
        self._tape((_DIV, count))

    def loop_branches(self, pc: int, taken_iterations: int) -> None:
        self._machine.loop_branches(pc, taken_iterations)
        self._tape((_LOOP, pc, taken_iterations))

    def malloc(self, nbytes: int) -> int:
        addr = self._machine.malloc(nbytes)
        self._live[addr] = (self._blocks, nbytes)
        self._blocks += 1
        self._tape((_MALLOC, nbytes))
        return addr

    def free(self, addr: int) -> None:
        self._machine.free(addr)
        block = self._live.pop(addr, None)
        if block is None:
            self._recorder.tapeable = False
        else:
            self._tape((_FREE, block[0]))

    def access(self, addr: int, nbytes: int = 8) -> None:
        self._machine.access(addr, nbytes)
        block = self._live.get(addr)
        base = addr
        if block is None:
            for base, block in self._live.items():
                if base <= addr < base + block[1]:
                    break
            else:
                block = None
        if block is None or addr + nbytes > base + block[1]:
            self._recorder.tapeable = False
        else:
            self._tape((_ACCESS, block[0], addr - base, nbytes))

    read = access
    write = access


class _RecordingContainer:
    """One site's container as the app sees it while a tape is recorded."""

    def __init__(self, container, site: int, recorder: _Recorder) -> None:
        self._container = container
        self._site = site
        self._recorder = recorder
        self._len = self._taped("__len__")
        self._contains = self._taped("__contains__")

    def _taped(self, name: str):
        """``name`` on the container, taping each call."""
        method = getattr(self._container, name)
        tape = self._recorder.events.append
        site = self._site
        if name in _COST_CALLS:
            def call(*args, **kwargs):
                tape((_CALL, site, name, args, kwargs, False, None))
                return method(*args, **kwargs)
        else:
            def call(*args, **kwargs):
                result = method(*args, **kwargs)
                taped = list(result) if isinstance(result, list) else result
                tape((_CALL, site, name, args, kwargs, True, taped))
                return result
        return call

    def __getattr__(self, name: str):
        if not callable(getattr(self._container, name)):
            # Container state (its kind, stats, machine) differs by kind.
            self._recorder.tapeable = False
            return getattr(self._container, name)
        call = self._taped(name)
        setattr(self, name, call)  # later lookups skip __getattr__
        return call

    def __len__(self) -> int:
        return self._len()

    def __contains__(self, value: int) -> bool:
        return self._contains(value)


@dataclass(frozen=True)
class Tape:
    """One recorded run of ``app`` on ``machine_config``."""

    app: CaseStudyApp
    machine_config: MachineConfig
    events: tuple[tuple, ...]
    #: The recorded run's output, pickled: each replay gets its own copy.
    output: bytes

    @classmethod
    def record(cls, app: CaseStudyApp, machine_config: MachineConfig,
               kinds: dict[str, DSKind] | None = None, *,
               instrument: bool = False
               ) -> tuple["Tape | None", AppResult]:
        """Run ``app`` for real once, taping it.

        Returns ``(tape, result)``: ``result`` is exactly
        :func:`~repro.apps.base.run_case_study`'s for ``kinds`` and
        ``instrument`` (neither the recording nor the profiling adds a
        machine event), and ``tape`` is ``None`` when the app steps
        outside what a tape can replay (or returns an output that
        cannot be pickled).  The tape records the app's calls, so it
        replays on plain containers either way.
        """
        machine, containers, chosen = build_containers(
            app, machine_config, kinds)
        profiled = profile_containers(app, containers) if instrument else {}
        recorder = _Recorder()
        handles = {name: _RecordingContainer(profiled.get(name, container),
                                             site, recorder)
                   for site, (name, container)
                   in enumerate(containers.items())}
        output = app.execute(_RecordingMachine(machine, recorder), handles)
        result = finish_run(app, machine, containers, chosen, output,
                            profiled)
        if not recorder.tapeable:
            return None, result
        try:
            pickled = pickle.dumps(output, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            return None, result
        events = _fold_instr_runs(recorder.events)
        return cls(app, machine_config, events, pickled), result

    def replay(self, kinds: dict[str, DSKind] | None = None
               ) -> AppResult | None:
        """The app's run under ``kinds``, or ``None`` when a checked
        return differs from the tape (the caller then runs it for real).
        """
        machine, containers, chosen = build_containers(
            self.app, self.machine_config, kinds)
        sites = tuple(containers.values())
        addrs: list[int] = []
        walk = machine.walk
        access = machine.access
        for event in self.events:
            op = event[0]
            if op == _CALL:
                _, site, name, args, kwargs, checked, taped = event
                result = getattr(sites[site], name)(*args, **kwargs)
                if checked and result != taped:
                    obs.counter("darwin.tape_fallbacks")
                    return None
            elif op == _INSTR:
                walk(event[1], 1)  # the size of no access
            elif op == _ACCESS:
                access(addrs[event[1]] + event[2], event[3])
            elif op == _MALLOC:
                addrs.append(machine.malloc(event[1]))
            elif op == _FREE:
                machine.free(addrs[event[1]])
            elif op == _BRANCH:
                machine.branch(event[1], event[2])
            elif op == _DIV:
                machine.div(event[1])
            else:
                machine.loop_branches(event[1], event[2])
        return finish_run(self.app, machine, containers, chosen,
                          pickle.loads(self.output))
