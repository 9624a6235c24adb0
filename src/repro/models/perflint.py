"""Perflint: the hand-constructed asymptotic baseline (§6.2, [17]).

Perflint instruments the original container's interface calls, assigns
each invocation a traditional asymptotic cost *for both the original and
the alternate implementation*, multiplies by coefficients fitted with
linear regression against execution time, and compares the accumulated
totals at the end of the run.

Its structural weaknesses — which the paper demonstrates and this
implementation deliberately retains — are:

* the alternate's cost must be guessed from the *original's* dynamic
  statistics (e.g. a ``find`` over a vector of N elements is costed
  ``3/4 N`` for vector and ``log2 N`` for set, regardless of actual
  search patterns);
* hardware events cannot be used at all (no causal relation between the
  original's and alternate's counters);
* only some replacement pairs are supported: vector→set (read as
  vector→map when the usage is keyed) and list→vector.  ``set`` has no
  supported replacement at all, so RelipmoC-style set→avl_set wins are
  out of reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.containers.base import OpCost
from repro.containers.registry import DSKind

#: Replacements Perflint can reason about (original -> alternates).
SUPPORTED: dict[DSKind, tuple[DSKind, ...]] = {
    DSKind.VECTOR: (DSKind.SET,),
    DSKind.LIST: (DSKind.VECTOR,),
    DSKind.MAP: (),
    DSKind.SET: (),
}

#: Term names in the per-kind design row.
_TERMS = ("find", "insert", "erase", "iterate", "push", "const")


def _log2(n: float) -> float:
    return math.log2(n) if n >= 2.0 else 1.0


def asymptotic_row(kind: DSKind, stats: OpCost) -> np.ndarray:
    """Estimated work units per operation class for ``kind``, from the
    *original* run's dynamic statistics (op counts and average size N)."""
    n = max(1.0, stats.avg_size)
    finds = stats.finds
    inserts = stats.inserts
    erases = stats.erases
    iter_steps = stats.iterate_cost
    pushes = stats.push_backs + stats.push_fronts
    calls = max(1, stats.total_calls)

    if kind in (DSKind.VECTOR, DSKind.DEQUE):
        # Average-case linear search (3/4 N), shift on insert/erase (N/2).
        row = (finds * 0.75 * n,
               inserts * 0.5 * n,
               erases * (0.75 * n + 0.5 * n),
               iter_steps * 1.0,
               pushes * 1.0,
               calls)
    elif kind == DSKind.LIST:
        row = (finds * 0.75 * n,
               inserts * 1.0,
               erases * 0.75 * n,
               iter_steps * 1.0,
               pushes * 1.0,
               calls)
    elif kind in (DSKind.SET, DSKind.MAP, DSKind.AVL_SET, DSKind.AVL_MAP):
        # Binary search: average and worst case coincide (paper footnote).
        log_n = _log2(n)
        row = (finds * log_n,
               inserts * log_n,
               erases * log_n,
               iter_steps * 1.0,
               pushes * log_n,
               calls)
    elif kind in (DSKind.HASH_SET, DSKind.HASH_MAP):
        row = (finds * 1.0,
               inserts * 1.0,
               erases * 1.0,
               iter_steps * 1.0,
               pushes * 1.0,
               calls)
    else:  # pragma: no cover - exhaustive over DSKind
        raise ValueError(f"no asymptotic model for {kind}")
    return np.asarray(row, dtype=np.float64)


@dataclass
class PerflintModel:
    """Regression-calibrated asymptotic cost comparator."""

    coefficients: dict[DSKind, np.ndarray]

    @classmethod
    def fit(cls, samples: list[tuple[OpCost, dict[DSKind, int]]]
            ) -> "PerflintModel":
        """Fit per-kind coefficients by least squares.

        ``samples``: for each training application, the original run's
        :class:`OpCost` plus measured runtimes (cycles) per candidate kind
        — exactly what a Phase-I sweep plus one instrumented replay gives.
        """
        if not samples:
            raise ValueError("need at least one sample to fit Perflint")
        rows_by_kind: dict[DSKind, list[np.ndarray]] = {}
        times_by_kind: dict[DSKind, list[float]] = {}
        for stats, runtimes in samples:
            for kind, cycles in runtimes.items():
                rows_by_kind.setdefault(kind, []).append(
                    asymptotic_row(kind, stats)
                )
                times_by_kind.setdefault(kind, []).append(float(cycles))
        coefficients = {}
        for kind, rows in rows_by_kind.items():
            design = np.vstack(rows)
            target = np.asarray(times_by_kind[kind])
            coef, *_ = np.linalg.lstsq(design, target, rcond=None)
            # Negative coefficients are meaningless for a cost model.
            coefficients[kind] = np.clip(coef, 0.0, None)
        return cls(coefficients=coefficients)

    def estimate(self, kind: DSKind, stats: OpCost) -> float:
        """Predicted cost of running the observed stream on ``kind``."""
        if kind not in self.coefficients:
            raise ValueError(f"Perflint has no coefficients for {kind}")
        return float(asymptotic_row(kind, stats) @ self.coefficients[kind])

    def suggest(self, original: DSKind, stats: OpCost,
                keyed: bool = False) -> DSKind:
        """Perflint's report: the original or one supported alternate.

        ``keyed=True`` renders a vector→set suggestion as map (the paper's
        Chord reading of Perflint's output).
        """
        if original not in SUPPORTED:
            raise ValueError(
                f"Perflint does not support replacements for {original}"
            )
        best_kind = original
        best_cost = self.estimate(original, stats)
        for alternate in SUPPORTED[original]:
            cost = self.estimate(alternate, stats)
            if cost < best_cost:
                best_kind, best_cost = alternate, cost
        if keyed and best_kind == DSKind.SET:
            return DSKind.MAP
        return best_kind

    def supports(self, original: DSKind) -> bool:
        return original in SUPPORTED and bool(SUPPORTED[original])

    @classmethod
    def fit_synthetic(cls, machine_config=None, config=None,
                      n_apps: int = 60, seed_base: int = 900_000
                      ) -> "PerflintModel":
        """Calibrate coefficients on generated applications.

        Runs ``n_apps`` synthetic vector/list applications, measuring
        every candidate's cycles and the original run's dynamic
        statistics — the linear-regression calibration the Perflint paper
        describes.
        """
        # Imported here to avoid a models <-> appgen import cycle.
        from repro.appgen.config import GeneratorConfig
        from repro.appgen.generator import generate_app
        from repro.containers.registry import MODEL_GROUPS
        from repro.machine.configs import CORE2

        machine_config = machine_config or CORE2
        config = config or GeneratorConfig()
        samples: list[tuple[OpCost, dict[DSKind, int]]] = []
        groups = (MODEL_GROUPS["vector_oo"], MODEL_GROUPS["list"],
                  MODEL_GROUPS["map"])
        for i in range(n_apps):
            group = groups[i % len(groups)]
            app = generate_app(seed_base + i, group, config)
            runs = {kind: app.run(kind, machine_config)
                    for kind in group.classes}
            samples.append((runs[group.original].container.stats,
                            {kind: run.cycles for kind, run in runs.items()}))
        return cls.fit(samples)
