"""Crash-safe resumable Darwinian evolution (docs/robustness.md).

The robustness contract for ``repro darwin``, proven as properties:

* **Resume identity** — a search interrupted at *any* generation
  boundary or mid-generation evaluation and resumed from its
  :class:`~repro.runtime.checkpoint.DarwinCheckpoint` produces a
  byte-identical result vs the uninterrupted run, for any ``jobs``
  value, with and without injected worker faults.
* **Fault isolation** — a transiently-failing chromosome retries in the
  parent and leaves no trace in the result; a deterministically-failing
  one is quarantined with stage/trace and the search continues.
* **Budget** — ``budget_seconds`` stops cleanly at a generation
  boundary, flags ``truncated="budget"``, and leaves a resumable
  checkpoint.
* **Pinned front** — a fixed search evolves a front whose payload
  matches a pinned SHA-256.

Interrupts are injected two ways: :class:`DarwinFaultInjector` raises
``KeyboardInterrupt`` at scripted fitness-call indices (a mid-generation
kill), and a ``GeneticSearch`` subclass raises from the
``on_generation`` hook (SIGINT landing exactly at a boundary).
"""

import hashlib
import itertools
import json
from dataclasses import replace

import pytest

import repro.api as api
from repro.apps.chord import ChordSimulator
from repro.apps.xalan import XalanStringCache
from repro.core.advisor import BrainyAdvisor
from repro.core.darwin import run_darwin
from repro.machine.configs import CORE2
from repro.ml.search import GeneticSearch, ParetoState
from repro.ml.strategies import (
    GeneChoiceMutation,
    SeededChoiceInit,
    TournamentAncestry,
    UniformCrossover,
)
from repro.models import BrainySuite
from repro.runtime.checkpoint import DarwinCheckpoint, TrainingInterrupted
from repro.runtime.faults import NO_WAIT
from repro.runtime.inject import DarwinFaultInjector, DarwinFaultPlan
from repro.runtime.options import RunOptions
from repro.runtime.parallel import SerialExecutor


def degraded_advisor() -> BrainyAdvisor:
    return BrainyAdvisor(BrainySuite("core2"))


# -- synthetic GA problem (fast, picklable, genuine trade-off) -------------

CHOICES = (4, 4, 3)
OBJ = ("a", "b")


def grid_fitness(chromosome) -> tuple[float, float]:
    g = [int(x) for x in chromosome]
    return (float(g[0] * 4 + g[1]), float((3 - g[0]) * 4 + g[2]))


def make_search(seed: int = 0, generations: int = 5,
                seeds: tuple = ((0, 0, 0),)) -> GeneticSearch:
    return GeneticSearch(
        len(CHOICES), population=6, generations=generations,
        ancestry=TournamentAncestry(3), crossover=UniformCrossover(0.7),
        mutation=GeneChoiceMutation(CHOICES, rate=0.3),
        init=SeededChoiceInit(CHOICES, seeds=seeds),
        elitism=0, seed=seed)


def pareto_bytes(result) -> str:
    """A :class:`ParetoResult` as canonical JSON, for byte comparison."""
    return json.dumps({
        "front": [[list(p.genome), list(p.objectives)]
                  for p in result.front],
        "history": result.history,
        "evaluations": result.evaluations,
        "archive": [[list(genome), list(values)]
                    for genome, values in result.archive.items()],
        "quarantined": [q.to_payload() for q in result.quarantined],
        "truncated": result.truncated,
    }, sort_keys=True)


def roundtrip(state: ParetoState) -> ParetoState:
    """Force the state through its JSON wire form, like a checkpoint."""
    return ParetoState.from_payload(json.loads(json.dumps(
        state.to_payload())))


class TestParetoResume:
    """Boundary-granular resume identity of ``GeneticSearch.pareto``."""

    def test_resume_from_every_boundary_byte_identical(self):
        baseline = pareto_bytes(make_search().pareto(grid_fitness, OBJ))
        states: list[ParetoState] = []
        make_search().pareto(grid_fitness, OBJ,
                             on_generation=states.append)
        assert [s.generation for s in states] == list(range(6))
        for state in states:
            resumed = make_search().pareto(
                grid_fitness, OBJ, resume_state=roundtrip(state))
            assert pareto_bytes(resumed) == baseline

    def test_cross_jobs_resume_identity(self):
        """Interrupted serial, resumed on a 2-worker pool — identical."""
        baseline = pareto_bytes(make_search().pareto(
            grid_fitness, OBJ, jobs=1))
        states: list[ParetoState] = []
        make_search().pareto(grid_fitness, OBJ, jobs=1,
                             on_generation=states.append)
        resumed = make_search().pareto(
            grid_fitness, OBJ, jobs=2, resume_state=roundtrip(states[2]))
        assert pareto_bytes(resumed) == baseline

    def test_interrupt_at_any_evaluation_resumes_identically(self):
        clean = make_search().pareto(grid_fitness, OBJ,
                                     executor=SerialExecutor())
        baseline = pareto_bytes(clean)
        total = clean.evaluations
        assert total > 6
        for cut in (0, total // 3, total // 2, total - 1):
            states: list[ParetoState] = []
            injector = DarwinFaultInjector(DarwinFaultPlan(
                interrupt_at_evaluations=frozenset({cut})))
            with pytest.raises(KeyboardInterrupt):
                make_search().pareto(
                    injector.wrap_fitness(grid_fitness), OBJ,
                    executor=SerialExecutor(),
                    on_generation=states.append)
            resume = roundtrip(states[-1]) if states else None
            resumed = make_search().pareto(
                grid_fitness, OBJ, executor=SerialExecutor(),
                resume_state=resume)
            assert pareto_bytes(resumed) == baseline, f"cut={cut}"

    FAULT_PLAN = DarwinFaultPlan(
        rng_seed=7, p_transient=0.25, transient_failures=1,
        deterministic_genomes=frozenset({(1, 1, 1)}))
    FAULT_SEEDS = ((0, 0, 0), (1, 1, 1))

    def _faulty(self, plan: DarwinFaultPlan,
                resume_state: ParetoState | None = None,
                states: list | None = None):
        injector = DarwinFaultInjector(plan)
        return injector, make_search(seeds=self.FAULT_SEEDS).pareto(
            injector.wrap_fitness(grid_fitness), OBJ,
            executor=SerialExecutor(), retry_policy=NO_WAIT,
            resume_state=resume_state,
            on_generation=states.append if states is not None else None)

    def test_interrupt_resume_identity_under_faults(self):
        injector, clean = self._faulty(self.FAULT_PLAN)
        baseline = pareto_bytes(clean)
        assert clean.quarantined, "the scripted genome must quarantine"
        for cut in (2, injector.calls // 2, injector.calls - 1):
            states: list[ParetoState] = []
            wounded = DarwinFaultInjector(replace(
                self.FAULT_PLAN,
                interrupt_at_evaluations=frozenset({cut})))
            with pytest.raises(KeyboardInterrupt):
                make_search(seeds=self.FAULT_SEEDS).pareto(
                    wounded.wrap_fitness(grid_fitness), OBJ,
                    executor=SerialExecutor(), retry_policy=NO_WAIT,
                    on_generation=states.append)
            resume = roundtrip(states[-1]) if states else None
            _, resumed = self._faulty(self.FAULT_PLAN,
                                      resume_state=resume)
            assert pareto_bytes(resumed) == baseline, f"cut={cut}"

    def test_deterministic_fault_quarantines_without_abort(self):
        _, result = self._faulty(self.FAULT_PLAN)
        genomes = [q.genome for q in result.quarantined]
        assert (1, 1, 1) in genomes
        record = result.quarantined[genomes.index((1, 1, 1))].record
        assert record.category == "deterministic"
        assert "injected deterministic fault" in record.error
        # The search ran its full budget and kept real measurements.
        assert len(result.history) == 6
        assert result.front
        assert (1, 1, 1) not in result.archive
        assert all(q.genome not in result.archive
                   for q in result.quarantined)

    def test_transient_faults_are_invisible_in_the_result(self):
        baseline = pareto_bytes(make_search().pareto(
            grid_fitness, OBJ, executor=SerialExecutor()))
        injector = DarwinFaultInjector(DarwinFaultPlan(
            rng_seed=3, p_transient=0.4, transient_failures=1))
        faulted = make_search().pareto(
            injector.wrap_fitness(grid_fitness), OBJ,
            executor=SerialExecutor(), retry_policy=NO_WAIT)
        assert not faulted.quarantined
        assert pareto_bytes(faulted) == baseline
        # Retries actually happened: more calls than distinct genomes.
        assert injector.calls > faulted.evaluations

    def test_stop_hook_truncates_at_a_boundary(self):
        result = make_search().pareto(
            grid_fitness, OBJ,
            stop=lambda gen: "budget" if gen >= 2 else None)
        assert result.truncated == "budget"
        assert len(result.history) == 2  # generation zero and one


class TestDarwinCheckpoint:
    def test_roundtrip_and_fingerprint(self, tmp_path):
        ckpt = DarwinCheckpoint(
            app_name="xalan", input_name="test", machine_name="core2",
            objectives=("cycles", "memory"), seed=3, generations=4,
            population=6, state={"generation": 2}, elapsed_seconds=1.5)
        path = tmp_path / "darwin.json"
        ckpt.save(path)
        loaded = DarwinCheckpoint.load(path)
        assert loaded.fingerprint() == ckpt.fingerprint()
        assert loaded.state == {"generation": 2}
        assert loaded.elapsed_seconds == 1.5
        assert not loaded.complete and loaded.result is None


#: The search every chord run below uses, unless a test adds knobs.
CHORD = RunOptions(darwin_generations=3, darwin_population=6)


def chord_run(options: RunOptions = CHORD, **kwargs):
    return run_darwin(ChordSimulator("small"), CORE2, degraded_advisor(),
                      options=options, seed=0, input_name="small",
                      **kwargs)


@pytest.fixture(scope="module")
def chord_baseline() -> str:
    return json.dumps(chord_run().to_payload(), sort_keys=True)


class _InterruptAfter(GeneticSearch):
    """Raise ``KeyboardInterrupt`` right after one generation's
    boundary hook — SIGINT landing between generations."""

    interrupt_after = 1

    def pareto(self, *args, **kwargs):
        inner = kwargs.get("on_generation")

        def hook(state):
            if inner is not None:
                inner(state)
            if state.generation == type(self).interrupt_after:
                raise KeyboardInterrupt

        kwargs["on_generation"] = hook
        return super().pareto(*args, **kwargs)


class TestRunDarwinResume:
    @pytest.mark.parametrize("interrupt_after,jobs",
                             [(0, 1), (1, 1), (3, 1), (1, 2)])
    def test_interrupt_flushes_checkpoint_resume_is_byte_identical(
            self, tmp_path, monkeypatch, chord_baseline,
            interrupt_after, jobs):
        path = tmp_path / "darwin.json"
        monkeypatch.setattr(_InterruptAfter, "interrupt_after",
                            interrupt_after)
        monkeypatch.setattr("repro.core.darwin.GeneticSearch",
                            _InterruptAfter)
        with pytest.raises(TrainingInterrupted) as exc:
            chord_run(CHORD.with_overrides(jobs=jobs), checkpoint=path)
        assert exc.value.checkpoint_path == path
        assert f"generation {interrupt_after}" in str(exc.value)
        saved = DarwinCheckpoint.load(path)
        assert not saved.complete
        assert saved.state["generation"] == interrupt_after
        monkeypatch.undo()

        resumed = chord_run(CHORD.with_overrides(jobs=jobs),
                            checkpoint=path, resume=True)
        assert json.dumps(resumed.to_payload(),
                          sort_keys=True) == chord_baseline
        assert DarwinCheckpoint.load(path).complete

    def test_resume_with_missing_checkpoint_starts_fresh(
            self, tmp_path, chord_baseline):
        path = tmp_path / "fresh.json"
        result = chord_run(checkpoint=path, resume=True)
        assert json.dumps(result.to_payload(),
                          sort_keys=True) == chord_baseline
        assert DarwinCheckpoint.load(path).complete

    def test_complete_checkpoint_short_circuits(
            self, tmp_path, monkeypatch, chord_baseline):
        path = tmp_path / "done.json"
        chord_run(checkpoint=path)

        def boom(*args, **kwargs):
            raise AssertionError("resume of a complete checkpoint must "
                                 "not simulate anything")

        # Every simulation, real run or tape replay, builds a Machine.
        monkeypatch.setattr("repro.machine.machine.Machine.__init__", boom)
        resumed = chord_run(checkpoint=path, resume=True)
        assert json.dumps(resumed.to_payload(),
                          sort_keys=True) == chord_baseline

    def test_foreign_checkpoint_is_refused(self, tmp_path):
        path = tmp_path / "darwin.json"
        chord_run(checkpoint=path)
        with pytest.raises(ValueError, match="seed"):
            run_darwin(ChordSimulator("small"), CORE2,
                       degraded_advisor(), options=CHORD,
                       seed=1, input_name="small",
                       checkpoint=path, resume=True)

    def test_budget_truncates_then_resume_completes(
            self, tmp_path, chord_baseline):
        path = tmp_path / "budget.json"
        ticks = itertools.count(0.0, 10.0)
        truncated = chord_run(
            CHORD.with_overrides(darwin_budget_seconds=15.0),
            checkpoint=path, clock=lambda: next(ticks))
        assert truncated.truncated == "budget"
        assert len(truncated.history) == 2  # stopped before generation 2
        assert truncated.report.pareto_truncated == "budget"
        assert "truncated (budget)" in truncated.format()
        assert "truncated (budget)" in truncated.report.format()
        saved = DarwinCheckpoint.load(path)
        assert not saved.complete
        assert saved.state["generation"] == 1
        assert saved.elapsed_seconds > 0

        resumed = chord_run(checkpoint=path, resume=True)
        assert resumed.truncated is None
        assert json.dumps(resumed.to_payload(),
                          sort_keys=True) == chord_baseline

    def test_budget_counts_time_before_the_interrupt(self, tmp_path):
        path = tmp_path / "budget.json"
        ticks = itertools.count(0.0, 10.0)
        chord_run(CHORD.with_overrides(darwin_budget_seconds=15.0),
                  checkpoint=path, clock=lambda: next(ticks))
        # 30s already on the clock: a 20s budget is spent on arrival.
        again = chord_run(CHORD.with_overrides(darwin_budget_seconds=20.0),
                          checkpoint=path, resume=True)
        assert again.truncated == "budget"
        assert len(again.history) == 2

    def test_checkpoint_every_flushes_on_cadence(
            self, tmp_path, monkeypatch):
        saves: list[tuple[bool, int | None]] = []
        original = DarwinCheckpoint.save

        def spy(self, path):
            saves.append((self.complete,
                          self.state["generation"]
                          if self.state is not None else None))
            return original(self, path)

        monkeypatch.setattr(DarwinCheckpoint, "save", spy)
        chord_run(CHORD.with_overrides(darwin_checkpoint_every=2),
                  checkpoint=tmp_path / "cadence.json")
        assert saves == [(False, 0), (False, 2), (True, 3)]

    def test_checkpoint_knobs_require_a_path(self):
        with pytest.raises(ValueError, match="checkpoint path"):
            chord_run(CHORD.with_overrides(darwin_checkpoint_every=1))
        with pytest.raises(ValueError, match="checkpoint path"):
            chord_run(resume=True)


#: SHA-256 of the sorted-key JSON payload of the xalan/test search below.
XALAN_FRONT_SHA256 = \
    "5a0e456cd4b8c16a49042ba1ada286563077f5acab3f8ffeb0e31e8e1ae8e893"


class TestPinnedFront:
    def test_xalan_front_sha256(self):
        result = run_darwin(
            XalanStringCache("test"), CORE2, degraded_advisor(),
            options=CHORD, seed=0, input_name="test")
        payload = json.dumps(result.to_payload(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() \
            == XALAN_FRONT_SHA256


class TestApiDarwinValidation:
    """Malformed robustness knobs are refused up front (UsageError,
    CLI exit 2) — before any training or search work starts."""

    @pytest.mark.parametrize("kwargs,match", [
        ({"seed": -1}, "seed"),
        ({"checkpoint_every": 0}, "darwin_checkpoint_every"),
        ({"budget_seconds": 0.0}, "darwin_budget_seconds"),
        ({"budget_seconds": -5.0}, "darwin_budget_seconds"),
    ])
    def test_malformed_knobs_are_usage_errors(self, kwargs, match):
        with pytest.raises(api.UsageError, match=match):
            api.darwin("xalan", "test", scale="tiny", **kwargs)
