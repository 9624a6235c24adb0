"""Phase-I measurement helpers over synthetic applications: the
candidate race and the original-kind feature vector."""

from __future__ import annotations

import heapq
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

import repro.obs as obs
from repro.appgen.generator import AppRun, SyntheticApp
from repro.containers.registry import DSKind
from repro.machine.configs import CORE2, MachineConfig

#: Phase I's margin: a data structure is recorded as best only when it is
#: at least this much faster than every alternative (the paper uses 5 %).
DEFAULT_MARGIN = 0.05


def measure_candidates(app: SyntheticApp,
                       machine_config: MachineConfig = CORE2,
                       ) -> dict[DSKind, int]:
    """Run the app once per legal candidate; return cycles per kind."""
    return {
        kind: app.run(kind, machine_config).cycles
        for kind in app.group.classes
    }


class Race(NamedTuple):
    """What :func:`race_sets` found for one app."""

    #: Per candidate set, the cycles of the candidates that completed
    #: that set's own race, in completion order.
    runtimes: list[dict[DSKind, int]]
    #: Every run that completed, by kind.
    runs: dict[DSKind, AppRun]
    #: Every run the race dropped, by kind: each is paused, and passing
    #: it to :meth:`SyntheticApp.run` as ``resume=`` finishes it.
    stopped: dict[DSKind, AppRun]

    def release(self) -> None:
        """Record the runs still stopped in telemetry.

        A run counts in ``sim.*`` once, when it is over: a completed run
        when it completes, a stopped one when its owner gives it up.
        Call this once no stopped run will be resumed any more.
        """
        for run in self.stopped.values():
            if run.abandoned:
                obs.record_sim_run(run.machine)


def race_candidates(app: SyntheticApp,
                    machine_config: MachineConfig = CORE2,
                    margin: float = DEFAULT_MARGIN,
                    ) -> dict[DSKind, int]:
    """Phase I's sweep, abandoning runs that can no longer matter.

    The candidates advance in cycle order: the race always resumes the
    run with the fewest cycles so far (ties go to the kind declared
    first in :class:`DSKind`) and pauses it once it passes the
    next-cheapest run.  A run that completes therefore has the smallest
    total of every run not yet dropped.  With ``b1`` and ``b2`` the
    best and second-best completed totals, a run is dropped once its
    cycles pass ``b2`` (two candidates already beat it) or once
    ``cycles / b1 >= 1 + margin`` (it can neither win nor be the rival
    that keeps the winner inside the margin).  Cycles only grow, so a
    dropped candidate changes nothing :func:`best_candidate` decides:
    ``best_candidate(race_candidates(app, m, margin), margin)`` equals
    ``best_candidate(measure_candidates(app, m), margin)``.

    The result depends on the candidate *set* only, not on the order of
    ``group.classes``.  Returns cycles for the candidates that ran to
    completion, in completion order.
    """
    race = race_sets(app, machine_config, [app.group.classes], margin)
    race.release()
    return race.runtimes[0]


def race_sets(app: SyntheticApp,
              machine_config: MachineConfig,
              sets: Sequence[Iterable[DSKind]],
              margin: float = DEFAULT_MARGIN) -> Race:
    """:func:`race_candidates` for several candidate sets at once.

    One cycle-ordered race runs over the union of the sets, and each
    set keeps its own bound: a run stops counting for a set once it
    passes that set's bound, and is dropped once no set it belongs to
    still counts it.  A run is paused whenever it passes the cheapest
    other run, so runs complete in the order of their totals whichever
    other sets share the race, and each set's runtimes equal
    ``race_candidates`` on that set alone, entries and order.  No run
    goes further than the furthest it would go in one set's own race.

    The dropped runs come back paused in ``Race.stopped``, so the
    caller may finish some of them; it owns them, and
    :meth:`Race.release` records the rest in telemetry.
    """
    rank = {kind: i for i, kind in enumerate(DSKind)}
    sets = [frozenset(kinds) for kinds in sets]
    runtimes: list[dict[DSKind, int]] = [{} for _ in sets]
    bounds: list[int | None] = [None] * len(sets)
    # For each kind, the sets that still count its run.
    counting = {kind: [i for i, kinds in enumerate(sets) if kind in kinds]
                for kind in sorted(frozenset().union(*sets), key=rank.get)}
    runs: dict[DSKind, AppRun | None] = dict.fromkeys(counting)
    # (cycles so far, declaration rank, kind): the head is the run to
    # resume next.
    queue = [(0, rank[kind], kind) for kind in counting]
    heapq.heapify(queue)
    completed: dict[DSKind, AppRun] = {}
    stopped: dict[DSKind, AppRun] = {}

    def prune(kind: DSKind, cycles: int) -> bool:
        """Stop counting the run for every set it has passed the bound
        of; True when no set counts it any more."""
        counting[kind] = [i for i in counting[kind]
                          if bounds[i] is None or cycles <= bounds[i]]
        if counting[kind]:
            return False
        obs.counter("phase1.abandoned", kind=kind.value)
        stopped[kind] = runs[kind]
        return True

    while queue:
        spent, _, kind = heapq.heappop(queue)
        if prune(kind, spent):
            continue
        reach = [bounds[i] for i in counting[kind]]
        limit = queue[0][0] if queue else None
        if None not in reach and (limit is None or max(reach) < limit):
            limit = max(reach)
        run = app.run(kind, machine_config, limit=limit, resume=runs[kind])
        runs[kind] = run
        if not run.abandoned:
            completed[kind] = run
            for i in counting[kind]:
                if bounds[i] is None or run.cycles <= bounds[i]:
                    runtimes[i][kind] = run.cycles
                    bounds[i] = _race_limit(sorted(runtimes[i].values()),
                                            margin)
        elif not prune(kind, run.cycles):
            heapq.heappush(queue, (run.cycles, rank[kind], kind))
    return Race(runtimes, completed, stopped)


def _race_limit(completed: list[int], margin: float) -> int | None:
    """The largest total a run may reach and still matter, or None.

    ``completed`` is sorted.  The ratio bound is one below the smallest
    integer ``c`` with ``c / b1 >= 1.0 + margin``, found with the very
    float expression :func:`best_candidate` evaluates.  It applies only
    when ``b1 > 0`` and ``margin >= 0``: below zero every winner clears
    the margin, and the ratio could then drop a run that beats ``b1``.
    """
    limit = completed[1] if len(completed) > 1 else None
    if completed and completed[0] > 0 and margin >= 0:
        b1 = completed[0]
        target = 1.0 + margin
        first_loser = math.ceil(b1 * target)
        while first_loser > 0 and (first_loser - 1) / b1 >= target:
            first_loser -= 1
        while first_loser / b1 < target:
            first_loser += 1
        limit = (first_loser - 1 if limit is None
                 else min(limit, first_loser - 1))
    return limit


def best_candidate(runtimes: dict[DSKind, int],
                   margin: float = DEFAULT_MARGIN) -> DSKind | None:
    """The winning kind, or None when no kind clears the margin.

    The paper records the best data structure only if it is ``margin``
    faster than *any* other candidate, preventing a barely-best structure
    from polluting the training set.

    A single-candidate group has no competitor to out-run, so its one
    kind wins unconditionally; only an empty mapping is an error.
    """
    if not runtimes:
        raise ValueError("need at least one candidate")
    if len(runtimes) == 1:
        return next(iter(runtimes))
    ordered = sorted(runtimes.items(), key=lambda item: item[1])
    (best_kind, best_cycles), (_, second_cycles) = ordered[0], ordered[1]
    if best_cycles <= 0:
        return best_kind
    if second_cycles / best_cycles >= 1.0 + margin:
        return best_kind
    return None


def collect_features(app: SyntheticApp,
                     machine_config: MachineConfig = CORE2) -> np.ndarray:
    """The feature vector of the app's run on its *original* kind.

    Brainy models how the original data structure behaves (§7), so the
    feature vector always comes from the original-kind run; Phase I
    records carry the same vector for their seeds.
    """
    return app.run(app.group.original, machine_config).features()
