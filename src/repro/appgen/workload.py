"""Phase-I/II measurement helpers over synthetic applications."""

from __future__ import annotations

import heapq
import math

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
    rank = {kind: i for i, kind in enumerate(DSKind)}
    runs: dict[DSKind, AppRun | None] = dict.fromkeys(app.group.classes)
    # (cycles so far, declaration rank, kind): the head is the run to
    # resume next.
    queue = [(0, rank[kind], kind) for kind in runs]
    heapq.heapify(queue)
    runtimes: dict[DSKind, int] = {}
    bound = None

    def drop(run: AppRun) -> None:
        obs.counter("phase1.abandoned", kind=run.kind.value)
        obs.record_sim_run(run.machine)

    while queue:
        spent, _, kind = heapq.heappop(queue)
        run = runs[kind]
        if bound is not None and spent > bound:
            drop(run)
            continue
        limit = queue[0][0] if queue else None
        if bound is not None and (limit is None or bound < limit):
            limit = bound
        run = app.run(kind, machine_config, limit=limit, resume=run)
        if not run.abandoned:
            runtimes[kind] = run.cycles
            bound = _race_limit(sorted(runtimes.values()), margin)
        elif bound is not None and run.cycles > bound:
            drop(run)
        else:
            runs[kind] = run
            heapq.heappush(queue, (run.cycles, rank[kind], kind))
    return runtimes


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
    """Phase II: replay the app on its *original* kind, instrumented.

    Brainy models how the original data structure behaves (§7), so the
    feature vector always comes from the original-kind run.
    """
    run = app.run(app.group.original, machine_config, instrument=True)
    return run.features()
