"""Seeded synthetic applications (§4.2).

A :class:`SyntheticApp` is fully determined by ``(seed, model group,
generator config)``.  Its behaviour profile is sampled once from the seed;
its dispatch loop then draws every decision — which interface to invoke,
with what value, at what position — from the same seeded stream.  Because
all container kinds maintain identical logical state under the interface,
replaying the app against a different kind consumes an identical random
stream, so "the only difference is the data structure implementation".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

import repro.obs as obs
from repro.appgen.config import BehaviorProfile, GeneratorConfig
from repro.containers.base import Container
from repro.containers.registry import DSKind, ModelGroup, make_container
from repro.instrumentation.features import feature_vector
from repro.machine.configs import CORE2, MachineConfig
from repro.machine.events import PerfCounters
from repro.machine.machine import Machine

#: Interfaces exercised per model family.  Sequence targets get the full
#: set; tree/hash targets have no positional push variants.
_SEQUENCE_OPS = ("insert", "erase", "find", "iterate",
                 "push_back", "push_front")
_ORDERED_OPS = ("insert", "erase", "find", "iterate")

_POSITION_POLICIES = ("front", "back", "middle", "uniform")


def app_family(kind: DSKind) -> str:
    """The family of apps a group with original ``kind`` generates.

    Profile sampling reads the original kind only through its family,
    so two groups of one family generate identical apps for every seed.
    """
    if kind in (DSKind.VECTOR, DSKind.LIST):
        return "sequence"
    if kind == DSKind.MAP:
        return "map"
    return "ordered"


def _sample_profile(seed: int, group: ModelGroup,
                    config: GeneratorConfig) -> BehaviorProfile:
    """Draw one application's behaviour from its seed."""
    rng = random.Random(seed ^ 0x5EED)
    family = app_family(group.original)
    ops = _SEQUENCE_OPS if family == "sequence" else _ORDERED_OPS

    # Interface mix: gamma draws (Dirichlet) with random interface drops.
    weights = []
    for op in ops:
        if (op != "insert"
                and rng.random() < config.drop_interface_probability):
            weights.append(0.0)
        else:
            weights.append(rng.gammavariate(config.mix_concentration, 1.0))
    total = sum(weights)
    if total <= 0.0:  # pragma: no cover - insert is never dropped
        weights = [1.0] + [0.0] * (len(ops) - 1)
        total = 1.0
    weights = [w / total for w in weights]

    # Value ranges: powers of two inside the configured ceilings, so some
    # apps are duplicate-heavy and others sparse; the search range is
    # scaled relative to the insert range to vary hit rates.
    insert_bits = rng.randint(4, max(4, config.max_insert_val.bit_length() - 1))
    max_insert = min(config.max_insert_val, 1 << insert_bits)
    search_scale = rng.choice((0.25, 0.5, 1.0, 1.0, 2.0, 8.0))
    max_search = max(4, min(config.max_search_val,
                            int(max_insert * search_scale)))
    remove_scale = rng.choice((0.5, 1.0, 1.0, 2.0))
    max_remove = max(4, min(config.max_remove_val,
                            int(max_insert * remove_scale)))

    payload = 0
    if family == "map":
        payload = rng.choice(config.payload_sizes)

    # Skewed search pattern (extension experiments only): drawn last so
    # the default sampling stream is unchanged when the feature is off.
    search_skew = 0.0
    if (config.skewed_search_probability > 0
            and rng.random() < config.skewed_search_probability):
        search_skew = rng.uniform(0.5, 0.95)

    return BehaviorProfile(
        ops=ops,
        op_weights=tuple(weights),
        elem_size=rng.choice(config.data_elem_sizes),
        payload_size=payload,
        max_insert_val=max_insert,
        max_remove_val=max_remove,
        max_search_val=max_search,
        max_iter_count=rng.randint(1, config.max_iter_count),
        insert_position=rng.choice(_POSITION_POLICIES),
        prefill=rng.randint(0, config.max_prefill),
        total_calls=config.total_interface_calls,
        search_skew=search_skew,
        hot_set_size=config.hot_set_size,
    )


@dataclass(eq=False)
class AppRun:
    """One execution of a synthetic app against one container kind.

    A run stopped at its ``limit`` is *paused*: passing it back to
    :meth:`SyntheticApp.run` as ``resume=`` continues it in place.
    """

    kind: DSKind
    machine: Machine
    container: Container
    #: The machine's counters right after the container was built.
    start: tuple[int, ...]
    #: True when the run stopped early because its cycles passed the
    #: caller's ``limit``; ``cycles`` is then a lower bound, and passing
    #: the run back as ``resume=`` continues it.
    abandoned: bool = False
    _steps: Iterator[None] | None = field(default=None, repr=False)

    @property
    def cycles(self) -> int:
        return self.machine.cycles

    @property
    def seconds(self) -> float:
        return self.machine.seconds

    def hardware_counters(self) -> PerfCounters:
        """Machine events since the container was built.

        A synthetic app raises machine events only inside interface
        calls, so this equals what a
        :class:`~repro.instrumentation.profiler.ProfiledContainer`
        attributes to the container call by call.
        """
        end = self.machine.snapshot_tuple()
        return PerfCounters(*(a - b for a, b in zip(end, self.start)))

    def features(self) -> np.ndarray:
        """The canonical feature vector of a completed run."""
        if self._steps is not None:
            raise ValueError("features need a completed run; this one "
                             "stopped at its limit")
        return feature_vector(self.container.stats,
                              self.hardware_counters(),
                              self.container.element_bytes,
                              self.machine.config.line_bytes)


class SyntheticApp:
    """One generated application: a seeded dispatch loop over an ADT."""

    def __init__(self, seed: int, group: ModelGroup,
                 config: GeneratorConfig) -> None:
        self.seed = seed
        self.group = group
        self.config = config
        self.profile = _sample_profile(seed, group, config)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SyntheticApp(seed={self.seed}, group={self.group.name!r}, "
                f"calls={self.profile.total_calls})")

    def run(self, kind: DSKind,
            machine_config: MachineConfig = CORE2, *,
            limit: int | None = None,
            resume: AppRun | None = None) -> AppRun:
        """Execute the app on a fresh machine with the given container.

        With ``limit`` set, the cycle count is read after every interface
        call (prefill included) and the run stops as soon as it exceeds
        ``limit``, returning an :class:`AppRun` marked ``abandoned``.
        Passing that run as ``resume`` continues it in place, on the
        same machine, under the new ``limit``: a run paused and resumed
        any number of times ends exactly as one run.
        """
        if kind not in self.group.classes:
            raise ValueError(
                f"{kind} is not a legal candidate for group {self.group.name}"
            )
        if resume is None:
            machine = Machine(machine_config)
            profile = self.profile
            container: Container = make_container(
                kind, machine, profile.elem_size,
                profile.payload_size if profile.payload_size else None,
            )
            run = AppRun(kind, machine, container, machine.snapshot_tuple(),
                         _steps=self._drive(container,
                                            random.Random(self.seed)))
        else:
            if resume.kind != kind or resume._steps is None:
                raise ValueError(f"resume= needs a stopped run of {kind}")
            run = resume
            machine = run.machine

        for _ in run._steps:
            if limit is not None and machine.cycles > limit:
                run.abandoned = True
                return run
        run.abandoned = False
        run._steps = None
        obs.record_sim_run(machine)
        return run

    def _drive(self, target, rng: random.Random) -> Iterator[None]:
        """The function-dispatch loop, yielding after every interface
        call (prefill included) so the caller can read the machine and
        stop or continue.

        Every random draw happens unconditionally for a given op sequence,
        so the stream is identical regardless of container kind.
        """
        profile = self.profile
        ops = profile.ops
        weights = profile.op_weights
        position = profile.insert_position
        size = 0
        hot_keys: list[int] = []
        if profile.search_skew > 0:
            hot_keys = [rng.randrange(profile.max_insert_val)
                        for _ in range(profile.hot_set_size)]

        for _ in range(profile.prefill):
            value = rng.randrange(profile.max_insert_val)
            target.insert(value, size)
            size += 1
            yield

        choices = rng.choices(ops, weights=weights, k=profile.total_calls)
        for op in choices:
            if op == "insert":
                value = rng.randrange(profile.max_insert_val)
                if position == "front":
                    hint = 0
                elif position == "back":
                    hint = size
                elif position == "middle":
                    hint = size // 2
                else:
                    hint = rng.randint(0, size)
                target.insert(value, hint)
                size += 1
            elif op == "erase":
                target.erase(rng.randrange(profile.max_remove_val))
                size = len(target)
            elif op == "find":
                if hot_keys and rng.random() < profile.search_skew:
                    value = hot_keys[rng.randrange(len(hot_keys))]
                else:
                    value = rng.randrange(profile.max_search_val)
                target.find(value)
            elif op == "iterate":
                target.iterate(rng.randint(1, profile.max_iter_count))
            elif op == "push_back":
                target.push_back(rng.randrange(profile.max_insert_val))
                size += 1
            elif op == "push_front":
                target.push_front(rng.randrange(profile.max_insert_val))
                size += 1
            else:  # pragma: no cover - exhaustive
                raise AssertionError(f"unknown op {op}")
            yield
        if size != len(target):  # pragma: no cover
            raise AssertionError("logical size diverged from replay model")


def generate_app(seed: int, group: ModelGroup,
                 config: GeneratorConfig) -> SyntheticApp:
    """Factory mirroring the paper's ``AppGen(seed, DS)``."""
    return SyntheticApp(seed, group, config)
