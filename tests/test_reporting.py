"""Unit tests for the text reporting helpers."""

import pytest

from repro.reporting import (
    bar_chart,
    format_table,
    normalised_series,
)


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "value"],
                           [["a", 1], ["longer", 22]],
                           align_right=[1])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert lines[2].endswith(" 1")
        assert lines[3].endswith("22")

    def test_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out

    def test_column_widths_fit_headers(self):
        out = format_table(["a-very-long-header"], [["x"]])
        first, divider, row = out.splitlines()
        assert len(divider) == len(first)


class TestBarChart:
    def test_proportional_bars(self):
        out = bar_chart({"a": 10.0, "b": 5.0}, width=10)
        a_line, b_line = out.splitlines()
        assert a_line.count("█") == 10
        assert b_line.count("█") == 5

    def test_labels_and_values_present(self):
        out = bar_chart({"vector": 3.0}, unit=" refs")
        assert "vector" in out
        assert "3 refs" in out

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_all_zero_does_not_crash(self):
        out = bar_chart({"a": 0.0})
        assert "a" in out


class TestNormalisedSeries:
    def test_baseline_is_one(self):
        out = normalised_series("t", {"vector": 200, "set": 100},
                                baseline_key="vector")
        assert "1.000" in out
        assert "0.500" in out

    def test_missing_baseline(self):
        with pytest.raises(ValueError):
            normalised_series("t", {"set": 1}, baseline_key="vector")

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            normalised_series("t", {"vector": 0}, baseline_key="vector")
