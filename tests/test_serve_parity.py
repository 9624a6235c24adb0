"""Property tests: the degraded serving path *is* Perflint, provably.

Satellite contract for the serving runtime: any answer produced by the
breaker/deadline fallback path must be byte-identical to what
:mod:`repro.models.perflint` computes when called directly, and a
:class:`~repro.core.report.Report` must always carry an explicit
``degraded`` reason for every baseline answer — a response is never
*silently* a baseline.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.containers.registry import (
    DSKind,
    as_map_kind,
    candidates_for,
    model_group_for,
)
from repro.core.advisor import BrainyAdvisor, _stats_from_features
from repro.instrumentation.features import num_features
from repro.instrumentation.trace import TraceRecord, TraceSet
from repro.models.perflint import SUPPORTED, PerflintModel, _TERMS
from repro.runtime.faults import (
    DEGRADED_BREAKER,
    DEGRADED_DEADLINE,
    InferenceUnavailable,
)
from repro.runtime.inject import ServeFaultInjector, ServeFaultPlan
from repro.runtime.options import RunOptions
from repro.serve import AdviseRequest, AdvisorService
from repro.serve.testing import advise_payload, tiny_suite

_ADVISABLE_KINDS = (DSKind.VECTOR, DSKind.LIST, DSKind.SET, DSKind.MAP)

#: The advisor's lazily-built fallback uses unit coefficients; this is
#: the same model constructed *directly* from perflint's public pieces.
_DIRECT_PERFLINT = PerflintModel(coefficients={
    kind: np.ones(len(_TERMS)) for kind in DSKind
})

#: One trained suite for the whole module (hypothesis re-runs the test
#: body many times; the suite is immutable under these paths).
_SUITE = tiny_suite()


def direct_perflint_suggestion(record, keyed: bool) -> DSKind:
    """What ``models/perflint.py`` says, called directly (the spec the
    serving fallback must match byte for byte)."""
    legal = candidates_for(record.kind, record.order_oblivious)
    if SUPPORTED.get(record.kind):
        stats = _stats_from_features(record.features)
        suggested = _DIRECT_PERFLINT.suggest(record.kind, stats)
        if suggested not in legal:
            suggested = record.kind
    else:
        suggested = record.kind
    return as_map_kind(suggested) if keyed else suggested


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        kind = draw(st.sampled_from(_ADVISABLE_KINDS))
        records.append(TraceRecord(
            context=f"app:site{i}",
            kind=kind,
            order_oblivious=draw(st.booleans()),
            features=rng.normal(size=num_features()),
            cycles=draw(st.integers(min_value=1, max_value=10_000)),
            total_calls=10,
            keyed=draw(st.booleans()),
        ))
    trace = TraceSet(program_cycles=100_000, records=records)
    trace.sort()
    return trace


class TestBaselinePathMatchesPerflintDirectly:
    @settings(max_examples=30, deadline=None)
    @given(trace=traces())
    def test_deadline_baseline_report_is_perflint_byte_identical(
            self, trace):
        """The whole-trace fallback (what a deadline miss answers with)
        equals direct Perflint on every suggestion."""
        suite = _SUITE
        advisor = BrainyAdvisor(suite)
        report = advisor.baseline_report(trace, reason=DEGRADED_DEADLINE)
        assert len(report.suggestions) == len(trace.records)
        for record, suggestion in zip(trace, report):
            assert suggestion.suggested == direct_perflint_suggestion(
                record, record.keyed
            )
            assert suggestion.degraded
        # The fallback is a pure function of the trace: two independent
        # computations serialize byte-identically.
        again = advisor.baseline_report(trace, reason=DEGRADED_DEADLINE)
        assert (json.dumps(report.to_payload(), sort_keys=True)
                == json.dumps(again.to_payload(), sort_keys=True))

    @settings(max_examples=30, deadline=None)
    @given(trace=traces())
    def test_breaker_path_answers_are_perflint_byte_identical(
            self, trace):
        """With every inference refused (as an open breaker does), the
        advisor's per-group fallback matches direct Perflint, and every
        degraded group carries an explicit reason."""

        def refuse(group_name, model, rows, masks):
            raise InferenceUnavailable(DEGRADED_BREAKER)

        advisor = BrainyAdvisor(_SUITE, infer=refuse)
        report = advisor.advise_trace(trace)
        for record, suggestion in zip(trace, report):
            assert suggestion.suggested == direct_perflint_suggestion(
                record, record.keyed
            )
            assert suggestion.degraded
        # Never silently baseline: every degraded group names a reason.
        for record in trace:
            group = model_group_for(record.kind, record.order_oblivious)
            assert report.degraded_reasons[group.name] == DEGRADED_BREAKER
        assert set(report.degraded_groups) == set(
            report.degraded_reasons
        )

    @settings(max_examples=20, deadline=None)
    @given(trace=traces())
    def test_batched_and_sequential_degraded_paths_agree(self, trace):
        def refuse(group_name, model, rows, masks):
            raise InferenceUnavailable(DEGRADED_BREAKER)

        advisor = BrainyAdvisor(_SUITE, infer=refuse)
        batched = advisor.advise_trace(trace, batched=True)
        sequential = advisor.advise_trace(trace, batched=False)
        assert (json.dumps(batched.to_payload(), sort_keys=True)
                == json.dumps(sequential.to_payload(), sort_keys=True))


@pytest.mark.usefixtures("drained_services")
class TestServiceLevelParity:
    def test_deadline_response_report_equals_direct_perflint(self):
        """End to end through ``AdvisorService.submit``: the wire-level
        deadline answer is the direct-Perflint answer, serialized."""
        from repro.serve.testing import make_trace

        trace = make_trace(n_records=5)
        injector = ServeFaultInjector(
            ServeFaultPlan(slow_groups=frozenset({"vector_oo"}))
        )
        service = AdvisorService(
            suite=_SUITE, workers=1,
            options=RunOptions(deadline_seconds=0.1),
            inference=injector.wrap_inference(),
        )
        try:
            response = service.submit(AdviseRequest.from_payload(
                advise_payload(trace)
            ))
        finally:
            injector.release.set()
        assert response.degraded == DEGRADED_DEADLINE
        for record, suggestion in zip(trace, response.report):
            assert suggestion.suggested == direct_perflint_suggestion(
                record, record.keyed
            )

    def test_report_payload_round_trips(self):
        from repro.serve.testing import make_trace

        advisor = BrainyAdvisor(_SUITE)
        report = advisor.baseline_report(make_trace(),
                                         reason=DEGRADED_DEADLINE)
        from repro.core.report import Report

        again = Report.from_payload(report.to_payload())
        assert (json.dumps(again.to_payload(), sort_keys=True)
                == json.dumps(report.to_payload(), sort_keys=True))
        assert again.degraded_reasons == report.degraded_reasons
