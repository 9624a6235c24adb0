"""The Brainy advisor: the tool a developer actually runs.

Pipeline (Figure 3): run the application once with the profiling library,
sort container instances by attributed execution time, feed each
instance's feature vector to its per-original-DS model, and report which
instances should become which alternative implementations — restricted to
the Table 1 legal candidates for that usage (order-aware usages only see
order-preserving alternates; keyed usages get map-flavoured suggestions).

Graceful degradation: when the suite has no usable model for an
instance's group (missing or corrupt on disk, loaded leniently), the
advisor does not raise — it falls back to a Perflint-style asymptotic
baseline for that instance and flags the downgrade (with an explicit
reason) in the report.  The serving runtime (:mod:`repro.serve`) reuses
the same fallback through two seams: an injectable per-group inference
hook (``infer=``) that may raise
:class:`repro.runtime.faults.InferenceUnavailable` to force a flagged
baseline answer (circuit breaker open, model crashed), and
:meth:`BrainyAdvisor.baseline_report`, the whole-trace fallback used
when a request's deadline expires.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

import repro.obs as obs
from repro.apps.base import AppResult, CaseStudyApp, run_case_study
from repro.containers.base import OpCost
from repro.containers.registry import (
    DSKind,
    as_map_kind,
    candidates_for,
    model_group_for,
)
from repro.core.report import Report, Suggestion
from repro.instrumentation.features import FEATURE_NAMES
from repro.instrumentation.trace import TraceSet
from repro.machine.configs import MachineConfig
from repro.models.brainy import BrainyModel, BrainySuite
from repro.runtime.faults import (
    DEGRADED_MODEL_UNAVAILABLE,
    InferenceUnavailable,
)

#: Kinds the models can advise on (Table 1 targets).
_ADVISABLE = frozenset(
    {DSKind.VECTOR, DSKind.LIST, DSKind.SET, DSKind.MAP}
)

#: Nominal call count used when reconstructing Perflint-style dynamic
#: statistics from a (scale-invariant) feature vector.
_NOMINAL_CALLS = 1000

_IDX = {name: i for i, name in enumerate(FEATURE_NAMES)}


def _stats_from_features(features: np.ndarray) -> OpCost:
    """Approximate the original run's :class:`OpCost` from its feature
    vector, for the asymptotic fallback model.

    The features are normalised (fractions, per-call averages, log
    sizes), so the reconstruction fixes a nominal call count; the
    asymptotic comparison only depends on the mix and the size, both of
    which survive the round trip.
    """
    f = np.asarray(features, dtype=np.float64)
    calls = _NOMINAL_CALLS
    inserts = int(round(f[_IDX["insert_frac"]] * calls))
    erases = int(round(f[_IDX["erase_frac"]] * calls))
    finds = int(round(f[_IDX["find_frac"]] * calls))
    iterates = int(round(f[_IDX["iterate_frac"]] * calls))
    push_backs = int(round(f[_IDX["push_back_frac"]] * calls))
    push_fronts = int(round(f[_IDX["push_front_frac"]] * calls))
    max_size = int(round(math.expm1(f[_IDX["max_size_log"]])))
    iterate_cost = int(round(
        math.expm1(f[_IDX["iterate_cost_avg"]]) * max(1, iterates)
    ))
    return OpCost(
        inserts=inserts,
        erases=erases,
        finds=finds,
        iterates=iterates,
        iterate_cost=iterate_cost,
        push_backs=push_backs,
        push_fronts=push_fronts,
        max_size=max_size,
        total_calls=calls,
        # avg_size = size_sum / total_calls; assume half the peak.
        size_sum=(max_size // 2) * calls,
    )


#: Per-group inference hook: ``(group_name, model, rows, legal_masks)``
#: -> predicted kinds.  May raise
#: :class:`~repro.runtime.faults.InferenceUnavailable` to route the
#: group's records to the Perflint baseline (flagged, never silent).
InferFn = Callable[[str, BrainyModel, np.ndarray, np.ndarray],
                   "list[DSKind]"]


def _count_advice(traces: list[TraceSet], reports: list[Report]) -> None:
    obs.counter("advise.records", sum(len(trace) for trace in traces))
    obs.counter("advise.suggestions",
                sum(len(report.suggestions) for report in reports))
    obs.counter("advise.degraded",
                sum(len(report.degraded_groups) for report in reports))


class BrainyAdvisor:
    """Suggest container replacements using a trained model suite."""

    def __init__(self, suite: BrainySuite, fallback=None, *,
                 infer: InferFn | None = None) -> None:
        self.suite = suite
        #: Perflint-style baseline used when a group's model is absent;
        #: built lazily with unit coefficients unless injected.
        self._fallback = fallback
        #: Optional per-group inference hook (the serving runtime wraps
        #: the model call with breaker accounting here).
        self._infer = infer
        #: Legality depends only on (group, kind, order-obliviousness),
        #: so each distinct usage shape pays for one mask per advisor,
        #: not one per record or per batch.
        self._masks: dict[tuple[str, DSKind, bool], np.ndarray] = {}

    def _fallback_model(self):
        if self._fallback is None:
            from repro.models.perflint import _TERMS, PerflintModel

            self._fallback = PerflintModel(coefficients={
                kind: np.ones(len(_TERMS)) for kind in DSKind
            })
        return self._fallback

    def _baseline_suggest(self, kind: DSKind, features: np.ndarray,
                          legal: tuple[DSKind, ...]) -> DSKind:
        """Perflint-baseline suggestion, constrained to ``legal``;
        identity when Perflint has nothing to say about ``kind``."""
        from repro.models.perflint import SUPPORTED

        if not SUPPORTED.get(kind):
            return kind
        stats = _stats_from_features(features)
        suggested = self._fallback_model().suggest(kind, stats)
        if suggested not in legal:
            return kind
        return suggested

    def _infer_rows(self, group_name: str, model: BrainyModel,
                    rows: np.ndarray, masks: np.ndarray) -> list[DSKind]:
        """Group inference through the serving seam (default: direct)."""
        if self._infer is None:
            return model.predict_kinds(rows, legal_masks=masks)
        return self._infer(group_name, model, rows, masks)

    def _infer_record(self, group_name: str, model: BrainyModel,
                      features: np.ndarray,
                      legal: tuple[DSKind, ...]) -> DSKind:
        """One record's inference through the same seam as the batch."""
        if self._infer is None:
            return model.predict_kind(features, legal=legal)
        rows = np.asarray(features, dtype=np.float64).reshape(1, -1)
        masks = model.legal_mask(legal).reshape(1, -1)
        return self._infer(group_name, model, rows, masks)[0]

    def baseline_report(self, trace: TraceSet,
                        keyed_contexts: frozenset[str] = frozenset(),
                        *, reason: str) -> Report:
        """Answer the whole trace from the Perflint baseline.

        The serving runtime uses this when a request cannot be given
        model inference at all (deadline expired, service still warming
        up): every advisable record gets the asymptotic-baseline
        suggestion, and every touched group carries ``reason`` in
        :attr:`Report.degraded_reasons` — the caller always sees *why*
        the answer is a baseline.
        """
        report = Report(program_cycles=trace.program_cycles)
        for record in trace:
            if record.kind not in _ADVISABLE:
                continue
            keyed = record.context in keyed_contexts or getattr(
                record, "keyed", False
            )
            group = model_group_for(record.kind, record.order_oblivious)
            legal = candidates_for(record.kind, record.order_oblivious)
            suggested = self._baseline_suggest(
                record.kind, record.features, legal
            )
            report.mark_degraded(group.name, reason)
            if keyed:
                suggested = as_map_kind(suggested)
            report.suggestions.append(
                self._suggestion(record, suggested, keyed,
                                 trace.program_cycles, True)
            )
        return report

    def advise_trace(self, trace: TraceSet,
                     keyed_contexts: frozenset[str] = frozenset(),
                     *, batched: bool = True) -> Report:
        """Turn a profiled run's trace into a prioritised report.

        The default ``batched`` path is the single-trace view of
        :meth:`advise_traces`: one vectorized forward pass per model
        group (with legality masks precomputed per distinct usage
        shape).  Its Report is identical to the record-at-a-time
        reference path, which ``batched=False`` keeps for comparison
        and debugging.
        """
        if batched:
            return self.advise_traces([(trace, keyed_contexts)])[0]
        with obs.span("advise", traces=1, batched=False):
            report = self._advise_sequential(trace, keyed_contexts)
            _count_advice([trace], [report])
            return report

    def _advise_sequential(self, trace: TraceSet,
                           keyed_contexts: frozenset[str]) -> Report:
        """Record-at-a-time inference: the batched path's reference."""
        report = Report(program_cycles=trace.program_cycles)
        for record in trace:
            keyed = record.context in keyed_contexts or getattr(
                record, "keyed", False
            )
            if record.kind not in _ADVISABLE:
                continue
            group = model_group_for(record.kind, record.order_oblivious)
            legal = candidates_for(record.kind, record.order_oblivious)
            degraded = (group.name not in self.suite.models
                        or group.name in self.suite.degraded)
            if degraded:
                suggested = self._baseline_suggest(
                    record.kind, record.features, legal
                )
                report.mark_degraded(group.name,
                                     DEGRADED_MODEL_UNAVAILABLE)
            else:
                model = self.suite[group.name]
                try:
                    suggested = self._infer_record(
                        group.name, model, record.features, legal
                    )
                except InferenceUnavailable as exc:
                    suggested = self._baseline_suggest(
                        record.kind, record.features, legal
                    )
                    report.mark_degraded(group.name, exc.reason)
                    degraded = True
            if keyed:
                suggested = as_map_kind(suggested)
            report.suggestions.append(
                self._suggestion(record, suggested, keyed,
                                 trace.program_cycles, degraded)
            )
        return report

    def advise_traces(self, batch: "list[tuple[TraceSet, frozenset[str]]]"
                      ) -> list[Report]:
        """Many traces, one vectorized forward pass per model group.

        The multi-trace generalization of the batched advise path — the
        serving runtime's dispatcher feeds every request queued for one
        advisor through here at once, so they share the scaler and
        network passes.  Records from every trace are stacked per model
        group, inferred together, and fanned back out into per-trace
        Reports.  The ``advise`` span and the ``advise.records`` /
        ``advise.suggestions`` / ``advise.degraded`` counters cover the
        whole batch.

        The contract the serving layer leans on: each returned Report is
        **byte-identical** to calling :meth:`advise_trace` on that trace
        alone — including degraded answers.  A group whose inference is
        refused (:class:`InferenceUnavailable` — open breaker, crashed
        model) degrades *only that group*, and only in the reports of
        traces that actually touch it.
        """
        with obs.span("advise", traces=len(batch), batched=True):
            reports = self._advise_traces(batch)
            _count_advice([trace for trace, _ in batch], reports)
            return reports

    def _advise_traces(self, batch: "list[tuple[TraceSet, frozenset[str]]]"
                       ) -> list[Report]:
        reports = [Report(program_cycles=trace.program_cycles)
                   for trace, _ in batch]
        # (trace_index, record, group_name, legal, keyed) across all
        # traces, trace order preserved within each; the per-slot
        # degraded flag kept separately (group-inference fallback flips
        # it after the fact).
        pending = []
        degraded_flags: list[bool] = []
        for trace_index, (trace, keyed_contexts) in enumerate(batch):
            report = reports[trace_index]
            for record in trace:
                if record.kind not in _ADVISABLE:
                    continue
                keyed = record.context in keyed_contexts or getattr(
                    record, "keyed", False
                )
                group = model_group_for(record.kind,
                                        record.order_oblivious)
                legal = candidates_for(record.kind,
                                       record.order_oblivious)
                degraded = (group.name not in self.suite.models
                            or group.name in self.suite.degraded)
                if degraded:
                    report.mark_degraded(group.name,
                                         DEGRADED_MODEL_UNAVAILABLE)
                pending.append((trace_index, record, group.name, legal,
                                keyed))
                degraded_flags.append(degraded)

        suggested: list[DSKind | None] = [None] * len(pending)
        by_group: dict[str, list[int]] = {}
        for slot, (_, record, group_name, legal, _) in enumerate(pending):
            if degraded_flags[slot]:
                suggested[slot] = self._baseline_suggest(
                    record.kind, record.features, legal
                )
            else:
                by_group.setdefault(group_name, []).append(slot)

        for group_name, slots in by_group.items():
            model = self.suite[group_name]
            obs.observe("advise.batch_size", len(slots),
                        group=group_name)
            masks = np.empty((len(slots), len(model.classes)),
                             dtype=bool)
            rows = np.empty((len(slots), len(FEATURE_NAMES)))
            for row, slot in enumerate(slots):
                _, record, _, legal, _ = pending[slot]
                usage = (group_name, record.kind, record.order_oblivious)
                mask = self._masks.get(usage)
                if mask is None:
                    mask = self._masks[usage] = model.legal_mask(legal)
                masks[row] = mask
                rows[row] = np.asarray(record.features,
                                       dtype=np.float64).reshape(-1)
            try:
                kinds = self._infer_rows(group_name, model, rows, masks)
            except InferenceUnavailable as exc:
                # The whole group falls back together (breaker open or
                # the model call crashed) — flagged, never silent, and
                # only in the traces that touch this group.
                for slot in slots:
                    trace_index, record, _, legal, _ = pending[slot]
                    reports[trace_index].mark_degraded(group_name,
                                                       exc.reason)
                    suggested[slot] = self._baseline_suggest(
                        record.kind, record.features, legal
                    )
                    degraded_flags[slot] = True
                continue
            for slot, kind in zip(slots, kinds):
                suggested[slot] = kind

        for slot, (trace_index, record, _, _, keyed) in enumerate(pending):
            kind = suggested[slot]
            if keyed:
                kind = as_map_kind(kind)
            reports[trace_index].suggestions.append(
                self._suggestion(record, kind, keyed,
                                 batch[trace_index][0].program_cycles,
                                 degraded_flags[slot])
            )
        return reports

    @staticmethod
    def _suggestion(record, suggested: DSKind, keyed: bool,
                    program_cycles: int, degraded: bool) -> Suggestion:
        return Suggestion(
            context=record.context,
            original=record.kind,
            suggested=suggested,
            relative_time=record.relative_time(program_cycles),
            order_oblivious=record.order_oblivious,
            keyed=keyed,
            allocated_bytes=record.allocated_bytes,
            degraded=degraded,
        )

    def advise_app(self, app: CaseStudyApp,
                   machine_config: MachineConfig) -> Report:
        """Profile a case-study app with its baseline containers and
        report replacements."""
        result = run_case_study(app, machine_config, instrument=True)
        return self.advise_result(app, result)

    def advise_result(self, app: CaseStudyApp,
                      result: AppResult) -> Report:
        keyed = frozenset(
            f"{app.name}:{site.name}" for site in app.sites() if site.keyed
        )
        return self.advise_trace(result.trace(), keyed_contexts=keyed)
