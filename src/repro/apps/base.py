"""Case-study application framework.

A :class:`CaseStudyApp` declares its container *sites* (the static
program variables a developer could retype) and implements ``execute``
against whatever container implementations the harness supplies.  The
:func:`run_case_study` driver builds the machine, instantiates containers
(optionally wrapped with profiling instrumentation), runs the app, and
returns cycles plus the context-sorted trace — everything the Baseline /
Perflint / Brainy / Oracle comparison needs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import repro.obs as obs
from repro.containers.base import Container
from repro.containers.registry import (
    DSKind,
    as_map_kind,
    candidates_for,
    make_container,
)
from repro.instrumentation.profiler import ProfiledContainer
from repro.instrumentation.trace import TraceSet
from repro.machine.configs import MachineConfig
from repro.machine.machine import Machine


@dataclass(frozen=True)
class Site:
    """One container declaration site within an application."""

    name: str
    default_kind: DSKind
    elem_size: int = 8
    payload_size: int = 0
    order_oblivious: bool = True
    #: Keyed usage (searched by an ID field, like ``std::find_if``): the
    #: set-family replacement candidates become their map flavours.
    keyed: bool = False
    #: Candidates the experiment sweeps; defaults to the Table 1 legal set.
    candidates: tuple[DSKind, ...] = ()

    def legal_candidates(self) -> tuple[DSKind, ...]:
        if self.candidates:
            return self.candidates
        legal = candidates_for(self.default_kind, self.order_oblivious)
        if self.keyed:
            legal = tuple(as_map_kind(kind) for kind in legal)
        return legal


@dataclass
class AppResult:
    """Outcome of one case-study run."""

    cycles: int
    seconds: float
    machine: Machine
    kinds: dict[str, DSKind]
    containers: dict[str, Container]
    profiled: dict[str, ProfiledContainer] = field(default_factory=dict)
    output: object = None

    @property
    def footprint_bytes(self) -> int:
        """Peak live heap bytes — the run's allocator footprint.

        The memory objective of the Darwinian search (the time objective
        is :attr:`cycles`), read from the machine's
        :class:`~repro.machine.memory.Allocator`.
        """
        return self.machine.allocator.peak_live_bytes

    def trace(self) -> TraceSet:
        if not self.profiled:
            raise ValueError("run was not instrumented")
        return TraceSet.from_profiled(
            {
                prof.context: (prof, self.kinds[name],
                               self._site_meta[name][0],
                               self._site_meta[name][1])
                for name, prof in self.profiled.items()
            },
            program_cycles=self.cycles,
        )

    # Filled in by run_case_study: site name -> (oblivious, keyed).
    _site_meta: dict[str, tuple[bool, bool]] = field(default_factory=dict)


class CaseStudyApp(ABC):
    """Base class for the four evaluation applications."""

    #: Human-readable application name.
    name: str = ""

    @abstractmethod
    def sites(self) -> tuple[Site, ...]:
        """The container sites this application declares."""

    @abstractmethod
    def execute(self, machine: Machine,
                containers: dict[str, Container | ProfiledContainer]
                ) -> object:
        """Run the application's real work against the given containers.

        Returns an application-specific output (checked by tests to prove
        the app computes the same result regardless of container choice).

        The contract that lets darwin and the Oracle sweep replay one
        recorded run for every assignment (:mod:`repro.apps.tape`):
        control flow may depend on ``find`` / ``len`` / ``iterate`` /
        ``to_list`` results and on the app's own data, but never on the
        cost an ``insert`` / ``erase`` returns, on container or
        ``malloc`` addresses, or on the machine's counters.  The app
        issues machine events only through ``machine`` and touches only
        memory it allocated there.
        """

    def primary_site(self) -> Site:
        """The site the paper's experiment replaces (first by convention)."""
        return self.sites()[0]


def run_case_study(app: CaseStudyApp,
                   machine_config: MachineConfig,
                   kinds: dict[str, DSKind] | None = None,
                   instrument: bool = False) -> AppResult:
    """Execute ``app`` on a fresh machine with per-site container choices.

    ``kinds`` overrides individual sites' container kinds (unspecified
    sites keep their declared default).  Overrides must be legal per the
    site's Table 1 candidate set.
    """
    machine, containers, chosen = build_containers(app, machine_config,
                                                   kinds)
    profiled = profile_containers(app, containers) if instrument else {}
    output = app.execute(machine, {**containers, **profiled})
    return finish_run(app, machine, containers, chosen, output, profiled)


def profile_containers(app: CaseStudyApp,
                       containers: dict[str, Container]
                       ) -> dict[str, ProfiledContainer]:
    """Each site's container wrapped for profiling, in site order."""
    return {name: ProfiledContainer(container, context=f"{app.name}:{name}")
            for name, container in containers.items()}


def build_containers(app: CaseStudyApp,
                     machine_config: MachineConfig,
                     kinds: dict[str, DSKind] | None = None,
                     ) -> tuple[Machine, dict[str, Container],
                                dict[str, DSKind]]:
    """A fresh machine and one container per site, in site order.

    Returns ``(machine, containers, chosen kinds)``; ``kinds`` is
    validated as :func:`run_case_study` documents.
    """
    kinds = dict(kinds or {})
    machine = Machine(machine_config)
    containers: dict[str, Container] = {}
    chosen: dict[str, DSKind] = {}
    for site in app.sites():
        kind = kinds.pop(site.name, site.default_kind)
        if kind != site.default_kind and kind not in site.legal_candidates():
            raise ValueError(
                f"{kind} is not a legal replacement at site "
                f"{site.name!r} (legal: {site.legal_candidates()})"
            )
        containers[site.name] = make_container(
            kind, machine, site.elem_size,
            site.payload_size if site.payload_size else None,
        )
        chosen[site.name] = kind
    if kinds:
        raise ValueError(f"unknown site overrides: {sorted(kinds)}")
    return machine, containers, chosen


def finish_run(app: CaseStudyApp, machine: Machine,
               containers: dict[str, Container],
               chosen: dict[str, DSKind], output: object,
               profiled: dict[str, ProfiledContainer] | None = None
               ) -> AppResult:
    """Record a completed run's simulator totals and wrap it up."""
    obs.record_sim_run(machine)
    result = AppResult(
        cycles=machine.cycles,
        seconds=machine.seconds,
        machine=machine,
        kinds=chosen,
        containers=containers,
        profiled=profiled or {},
        output=output,
    )
    result._site_meta = {site.name: (site.order_oblivious, site.keyed)
                         for site in app.sites()}
    return result
