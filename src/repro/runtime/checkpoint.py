"""Checkpoint/resume state for the training phases and darwin search.

Checkpoints are ordinary artifacts (atomic, versioned, checksummed).
Phase I processes seed offsets strictly in order and each offset's
outcome is a pure function of the seed, so a checkpoint taken after the
last fully-applied seed makes resume deterministic: an interrupted run,
resumed, produces a byte-identical dataset to an uninterrupted one.
:class:`DarwinCheckpoint` extends the same contract to the Darwinian
whole-program search (``repro darwin``): generation-granular state on
the same envelope, byte-identical resume for any ``--jobs``.

A completed run writes its final checkpoint with ``complete=True`` so a
suite-level resume can skip finished phases instantly instead of
replaying them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.artifacts import read_artifact, write_artifact
from repro.runtime.faults import QuarantineRecord

PHASE1_CHECKPOINT_KIND = "phase1-checkpoint"
PHASE2_CHECKPOINT_KIND = "phase2-checkpoint"
DARWIN_CHECKPOINT_KIND = "darwin-checkpoint"
CHECKPOINT_SCHEMA_VERSION = 1
#: Phase I records list only the candidates that completed the race.
PHASE1_CHECKPOINT_SCHEMA_VERSION = 2


class TrainingInterrupted(RuntimeError):
    """Raised after a SIGINT/KeyboardInterrupt was converted into a
    flushed checkpoint; carries where to resume from."""

    def __init__(self, message: str,
                 checkpoint_path: Path | None = None) -> None:
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass
class Phase1Checkpoint:
    """Full Phase-I loop state after the last fully-applied seed."""

    group_name: str
    machine_name: str
    seed_base: int
    next_offset: int
    seeds_tried: int
    no_winner: int
    counts: dict[str, int]
    records: list[dict] = field(default_factory=list)
    quarantined: list[QuarantineRecord] = field(default_factory=list)
    complete: bool = False

    def save(self, path: str | Path) -> None:
        payload = {
            "group_name": self.group_name,
            "machine_name": self.machine_name,
            "seed_base": self.seed_base,
            "next_offset": self.next_offset,
            "seeds_tried": self.seeds_tried,
            "no_winner": self.no_winner,
            "counts": dict(sorted(self.counts.items())),
            "records": self.records,
            "quarantined": [q.to_payload() for q in self.quarantined],
            "complete": self.complete,
        }
        write_artifact(path, payload, kind=PHASE1_CHECKPOINT_KIND,
                       schema_version=PHASE1_CHECKPOINT_SCHEMA_VERSION)

    @classmethod
    def load(cls, path: str | Path) -> "Phase1Checkpoint":
        payload = read_artifact(
            Path(path), kind=PHASE1_CHECKPOINT_KIND,
            schema_version=PHASE1_CHECKPOINT_SCHEMA_VERSION)
        return cls(
            group_name=payload["group_name"],
            machine_name=payload["machine_name"],
            seed_base=payload["seed_base"],
            next_offset=payload["next_offset"],
            seeds_tried=payload["seeds_tried"],
            no_winner=payload["no_winner"],
            counts=dict(payload["counts"]),
            records=list(payload["records"]),
            quarantined=[QuarantineRecord.from_payload(q)
                         for q in payload["quarantined"]],
            complete=payload["complete"],
        )


@dataclass
class Phase2Checkpoint:
    """Phase-II replay state: rows emitted for records ``< next_index``."""

    group_name: str
    machine_name: str
    next_index: int
    total_records: int
    X: list[list[float]] = field(default_factory=list)
    y: list[int] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    complete: bool = False

    def save(self, path: str | Path) -> None:
        payload = {
            "group_name": self.group_name,
            "machine_name": self.machine_name,
            "next_index": self.next_index,
            "total_records": self.total_records,
            "X": self.X,
            "y": self.y,
            "seeds": self.seeds,
            "complete": self.complete,
        }
        write_artifact(path, payload, kind=PHASE2_CHECKPOINT_KIND,
                       schema_version=CHECKPOINT_SCHEMA_VERSION)

    @classmethod
    def load(cls, path: str | Path) -> "Phase2Checkpoint":
        payload = read_artifact(Path(path), kind=PHASE2_CHECKPOINT_KIND,
                                schema_version=CHECKPOINT_SCHEMA_VERSION)
        return cls(
            group_name=payload["group_name"],
            machine_name=payload["machine_name"],
            next_index=payload["next_index"],
            total_records=payload["total_records"],
            X=list(payload["X"]),
            y=list(payload["y"]),
            seeds=list(payload["seeds"]),
            complete=payload["complete"],
        )


@dataclass
class DarwinCheckpoint:
    """Darwin search state at the last completed generation boundary.

    ``state`` is a :class:`repro.ml.search.ParetoState` payload — the
    full loop envelope (population, objective rows, parent RNG state,
    evaluation archive and quarantine memo in insertion order) — so a
    resumed search is byte-identical to an uninterrupted one.  The
    identity fields (app/input/machine/objectives/seed/budgets) guard
    against resuming someone else's checkpoint.  A finished run stores
    ``complete=True`` plus the final ``DarwinResult`` payload so a
    redundant ``--resume`` returns instantly.
    """

    app_name: str
    input_name: str
    machine_name: str
    objectives: tuple[str, ...]
    seed: int
    generations: int
    population: int
    state: dict | None = None
    elapsed_seconds: float = 0.0
    complete: bool = False
    result: dict | None = None

    def save(self, path: str | Path) -> None:
        payload = {
            "app_name": self.app_name,
            "input_name": self.input_name,
            "machine_name": self.machine_name,
            "objectives": list(self.objectives),
            "seed": self.seed,
            "generations": self.generations,
            "population": self.population,
            "state": self.state,
            "elapsed_seconds": self.elapsed_seconds,
            "complete": self.complete,
            "result": self.result,
        }
        write_artifact(path, payload, kind=DARWIN_CHECKPOINT_KIND,
                       schema_version=CHECKPOINT_SCHEMA_VERSION)

    @classmethod
    def load(cls, path: str | Path) -> "DarwinCheckpoint":
        payload = read_artifact(Path(path), kind=DARWIN_CHECKPOINT_KIND,
                                schema_version=CHECKPOINT_SCHEMA_VERSION)
        return cls(
            app_name=payload["app_name"],
            input_name=payload["input_name"],
            machine_name=payload["machine_name"],
            objectives=tuple(payload["objectives"]),
            seed=payload["seed"],
            generations=payload["generations"],
            population=payload["population"],
            state=payload["state"],
            elapsed_seconds=float(payload["elapsed_seconds"]),
            complete=payload["complete"],
            result=payload["result"],
        )

    def fingerprint(self) -> dict:
        """Identity fields a resume must match exactly."""
        return {
            "app_name": self.app_name,
            "input_name": self.input_name,
            "machine_name": self.machine_name,
            "objectives": list(self.objectives),
            "seed": self.seed,
            "generations": self.generations,
            "population": self.population,
        }
