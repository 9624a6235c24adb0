"""Tests for trace files, memory-bloat reporting, and RelipmoC optimise."""

import numpy as np
import pytest

from repro.apps.base import run_case_study
from repro.apps.relipmoc import Relipmoc
from repro.apps.xalan import XalanStringCache
from repro.containers.registry import DSKind
from repro.instrumentation.features import num_features
from repro.instrumentation.trace import TraceRecord, TraceSet
from repro.machine.configs import CORE2


class TestTraceFiles:
    def _trace(self):
        result = run_case_study(XalanStringCache("test"), CORE2,
                                instrument=True)
        return result.trace()

    def test_save_load_roundtrip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "traces" / "xalan.json"
        trace.save(path)
        loaded = TraceSet.load(path)
        assert loaded.program_cycles == trace.program_cycles
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.context == b.context
            assert a.kind == b.kind
            assert a.cycles == b.cycles
            assert a.keyed == b.keyed
            assert a.allocated_bytes == b.allocated_bytes
            assert np.allclose(a.features, b.features)

    def test_load_rejects_schema_mismatch(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.json"
        trace.save(path)
        import json
        payload = json.loads(path.read_text())
        payload["feature_names"] = ["bogus"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            TraceSet.load(path)

    @pytest.mark.parametrize("features", (
        [0.0, 1.0],
        [[0.0] * num_features()],
        [0.0] * (num_features() + 1),
        ["0.5"] * num_features(),
        [True] * num_features(),
        {"a": 1.0},
    ), ids=("short", "nested", "long", "strings", "bools", "dict"))
    def test_from_payload_rejects_malformed_features(self, features):
        payload = TraceSet(program_cycles=10, records=[TraceRecord(
            context="app:site", kind=DSKind.VECTOR, order_oblivious=True,
            features=np.zeros(num_features()), cycles=10, total_calls=1,
        )]).to_payload()
        assert TraceSet.from_payload(payload).records[0].features.shape \
            == (num_features(),)
        payload["records"][0]["features"] = features
        with pytest.raises(ValueError, match="features must be a list"):
            TraceSet.from_payload(payload)

    @pytest.mark.parametrize("field", (
        "cycles", "total_calls", "allocated_bytes", "program_cycles"))
    @pytest.mark.parametrize("value", ("x", "12", True, None, [1]),
                             ids=("string", "digits", "bool", "null",
                                  "list"))
    def test_from_payload_rejects_non_numeric_counts(self, field, value):
        payload = TraceSet(program_cycles=10, records=[TraceRecord(
            context="app:site", kind=DSKind.VECTOR, order_oblivious=True,
            features=np.zeros(num_features()), cycles=10, total_calls=1,
        )]).to_payload()
        target = payload if field == "program_cycles" \
            else payload["records"][0]
        target[field] = 2.5
        assert TraceSet.from_payload(payload) is not None
        target[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            TraceSet.from_payload(payload)

    def test_loaded_trace_drives_the_advisor(self, tmp_path):
        from tests.test_core_advisor import synthetic_suite
        from repro.core.advisor import BrainyAdvisor

        trace = self._trace()
        path = tmp_path / "trace.json"
        trace.save(path)
        report = BrainyAdvisor(synthetic_suite()).advise_trace(
            TraceSet.load(path)
        )
        assert len(report) == 2  # busy + available lists


class TestMemoryBloatSignal:
    def test_allocated_bytes_recorded(self):
        result = run_case_study(XalanStringCache("test"), CORE2,
                                instrument=True)
        for record in result.trace():
            assert record.allocated_bytes > 0

    def test_hash_allocates_more_than_vector(self):
        """The bloat dimension: per-node structures carry overhead."""
        def allocated(kind):
            result = run_case_study(
                XalanStringCache("test"), CORE2,
                kinds={"m_busyList": kind}, instrument=True,
            )
            trace = {r.context: r for r in result.trace()}
            return trace["xalancbmk:m_busyList"].allocated_bytes

        assert allocated(DSKind.HASH_SET) > allocated(DSKind.VECTOR)

    def test_report_format_shows_memory(self):
        from repro.core.report import Report, Suggestion
        report = Report(program_cycles=10, suggestions=[
            Suggestion("ctx", DSKind.VECTOR, DSKind.SET, 0.5, True,
                       allocated_bytes=4096),
        ])
        assert "4K" in report.format()


class TestRelipmocOptimize:
    def test_large_input_optimises(self):
        result = run_case_study(Relipmoc("large"), CORE2)
        stats = result.output["optimized"]
        assert stats is not None
        assert stats["folded"] + stats["copies"] + stats["dead"] > 0

    def test_default_input_does_not(self):
        result = run_case_study(Relipmoc("default"), CORE2)
        assert result.output["optimized"] is None

    def test_optimised_output_invariant_across_trees(self):
        app = Relipmoc("large")
        outputs = []
        for kind in (DSKind.SET, DSKind.AVL_SET):
            result = run_case_study(app, CORE2,
                                    kinds={"basic_blocks": kind})
            outputs.append(result.output)
        assert outputs[0] == outputs[1]

    def test_optimisation_shrinks_emitted_code(self):
        import dataclasses
        from repro.apps.relipmoc import RELIPMOC_INPUTS
        app_plain = Relipmoc("large")
        app_plain.input = dataclasses.replace(RELIPMOC_INPUTS["large"],
                                              optimize=False)
        app_opt = Relipmoc("large")
        plain = run_case_study(app_plain, CORE2).output
        optimised = run_case_study(app_opt, CORE2).output
        assert optimised["c_lines"] <= plain["c_lines"]
