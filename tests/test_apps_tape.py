"""Interface-call tapes (repro.apps.tape): exhaustive replay oracle.

Every assignment of every shipped case study, replayed off one recorded
run, must equal a real :func:`run_case_study` run in cycles, footprint,
every machine counter and the app's output — exactly, not within a
tolerance.  A replay that meets a return value differing from the tape
(xalan's ``avail.to_list()[0]`` under an unordered kind) falls back to
a real run, which must be just as exact.
"""

import itertools

import pytest

import repro.obs as obs
from repro.apps import (
    ChordSimulator,
    Raytracer,
    Relipmoc,
    XalanStringCache,
    run_case_study,
)
from repro.apps.base import CaseStudyApp, Site
from repro.apps.tape import _INSTR, Tape
from repro.containers.registry import DSKind
from repro.core.darwin import run_assignment, site_candidates
from repro.machine.configs import ATOM, CORE2


def signature(result):
    """What a replay must reproduce, down to the float accumulator's
    bits: a reordered float add shows here even when it leaves the
    integer cycle count alone."""
    machine = result.machine
    return (result.cycles, result.footprint_bytes,
            machine.snapshot_tuple(), result.output,
            machine._cycles_int, machine._cycles.hex())


def oracle(app, arch) -> int:
    """Check every assignment of ``app``; return the fallback count."""
    collector = obs.Collector()
    with obs.use_collector(collector):
        tape, recorded = Tape.record(app, arch)
        assert tape is not None
        assert signature(recorded) == signature(run_case_study(app, arch))
        names, candidates = site_candidates(app)
        for combo in itertools.product(*candidates):
            kinds = dict(zip(names, combo))
            got = run_assignment(app, arch, kinds, tape)
            assert signature(got) == signature(
                run_case_study(app, arch, kinds=kinds)), kinds
    return collector.snapshot()["metrics"]["counters"].get(
        "darwin.tape_fallbacks", 0)


@pytest.mark.parametrize("arch", [CORE2, ATOM], ids=lambda a: a.name)
@pytest.mark.parametrize("app", [
    Raytracer("small"),        # 81 assignments
    ChordSimulator("small"),   # 6
    Relipmoc("small"),         # 2
], ids=lambda a: a.name)
def test_every_assignment_replays_exactly(app, arch):
    assert oracle(app, arch) == 0


def test_raytrace_tape_folds_its_instruction_runs():
    # Raytrace issues runs of about ten ``instr`` calls between its
    # container calls; the tape keeps each run as one event.
    tape, _ = Tape.record(Raytracer("small"), CORE2)
    ops = [event[0] for event in tape.events]
    assert _INSTR in ops
    assert not any(a == b == _INSTR for a, b in zip(ops, ops[1:]))


def test_xalan_falls_back_exactly_where_order_differs():
    # 36 assignments; the unordered kinds at m_availableList return a
    # different to_list() order than the recorded vector.
    assert oracle(XalanStringCache("test"), CORE2) > 0


class _Overrun(CaseStudyApp):
    """Touches memory past the end of its own block."""

    name = "overrun"

    def sites(self):
        return (Site(name="items", default_kind=DSKind.VECTOR,
                     order_oblivious=True),)

    def execute(self, machine, containers):
        items = containers["items"]
        block = machine.malloc(32)
        for value in range(40):
            items.push_back(value)
            machine.access(block, 64)
        found = sum(items.find(v) for v in range(0, 80, 3))
        machine.free(block)
        return {"found": found}


class _ReadsCycles(_Overrun):
    """Branches on the machine's cycle counter."""

    name = "reads_cycles"

    def execute(self, machine, containers):
        items = containers["items"]
        for value in range(40):
            items.push_back(value)
            if machine.cycles % 2:
                machine.instr(3)
        return {"size": len(items)}


@pytest.mark.parametrize("app", [_Overrun(), _ReadsCycles()],
                         ids=lambda a: a.name)
def test_untapeable_app_gets_no_tape_and_still_matches(app):
    tape, recorded = Tape.record(app, CORE2)
    assert tape is None
    assert signature(recorded) == signature(run_case_study(app, CORE2))
    names, candidates = site_candidates(app)
    for kind in candidates[0]:
        kinds = {names[0]: kind}
        assert signature(run_assignment(app, CORE2, kinds, None)) \
            == signature(run_case_study(app, CORE2, kinds=kinds))
