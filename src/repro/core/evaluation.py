"""Evaluation utilities: sweep candidates, apply advice, measure gains.

The §6 experiments all follow the same loop — run the baseline, run every
candidate, ask a scheme (Oracle / Brainy / Perflint) what to pick, apply
it, measure.  These helpers implement that loop over any
:class:`~repro.apps.base.CaseStudyApp`, including user-defined ones.
"""

from __future__ import annotations

from repro.apps.base import CaseStudyApp, run_case_study
from repro.apps.tape import Tape
from repro.containers.registry import DSKind
from repro.core.advisor import BrainyAdvisor
from repro.core.darwin import run_assignment
from repro.machine.configs import MachineConfig
from repro.models.brainy import BrainySuite


def sweep_site(app: CaseStudyApp, arch: MachineConfig,
               site_name: str | None = None,
               candidates: tuple[DSKind, ...] | None = None,
               ) -> dict[DSKind, int]:
    """Cycles per candidate kind at one site (default: primary site and
    its Table 1-legal candidates).

    The first candidate's run is recorded as a tape
    (:mod:`repro.apps.tape`) and the others replay it, as darwin does.
    """
    site = (app.primary_site() if site_name is None
            else next(s for s in app.sites() if s.name == site_name))
    kinds = candidates if candidates is not None \
        else site.legal_candidates()
    if not kinds:
        return {}
    first, *rest = kinds
    tape, result = Tape.record(app, arch, {site.name: first})
    cycles = {first: result.cycles}
    for kind in rest:
        cycles[kind] = run_assignment(app, arch, {site.name: kind},
                                      tape).cycles
    return cycles


def brainy_selection(app: CaseStudyApp, arch: MachineConfig,
                     suite: BrainySuite) -> dict[str, DSKind]:
    """Site -> kind the advisor picks (original kept when no change)."""
    report = BrainyAdvisor(suite).advise_app(app, arch)
    return {
        suggestion.context.split(":", 1)[1]: suggestion.suggested
        for suggestion in report
    }


def measure_with_selection(app: CaseStudyApp, arch: MachineConfig,
                           selection: dict[str, DSKind]) -> int:
    """Cycles with the given per-site choices applied."""
    defaults = {site.name: site.default_kind for site in app.sites()}
    overrides = {name: kind for name, kind in selection.items()
                 if defaults.get(name) != kind}
    return run_case_study(app, arch, kinds=overrides).cycles


def improvement(baseline_cycles: int, new_cycles: int) -> float:
    """Fractional speedup (0.25 = 25 % faster than baseline)."""
    if baseline_cycles <= 0:
        return 0.0
    return 1.0 - new_cycles / baseline_cycles


def evaluate_advice(app: CaseStudyApp, arch: MachineConfig,
                    suite: BrainySuite) -> dict:
    """The full §6 loop for one app: baseline → advice → speedup."""
    baseline = run_case_study(app, arch).cycles
    selection = brainy_selection(app, arch, suite)
    advised = measure_with_selection(app, arch, selection)
    return {
        "baseline_cycles": baseline,
        "advised_cycles": advised,
        "improvement": improvement(baseline, advised),
        "selection": selection,
    }
