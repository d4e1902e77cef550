"""Tests for table rendering (repro.analysis.tables)."""

from __future__ import annotations


import pytest

from repro.analysis.tables import (
    format_float,
    format_markdown_table,
    format_table,
)


class TestFormatFloat:
    def test_none_is_dash(self):
        assert format_float(None) == "-"

    def test_integers_render_without_decimals(self):
        assert format_float(42) == "42"

    def test_floats_use_precision(self):
        assert format_float(3.14159) == "3.14"
        assert format_float(3.14159, precision=4) == "3.1416"

    def test_large_and_tiny_values_use_compact_form(self):
        assert format_float(123456.0) == "1.23e+05"
        assert format_float(0.000123) == "0.000123"

    def test_special_values(self):
        assert format_float(float("nan")) == "nan"
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"
        assert format_float(True) == "yes"
        assert format_float(False) == "no"
        assert format_float("text") == "text"


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(["a", "b"], [[1, 2], [3, 4]], title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "3" in text and "4" in text

    def test_alignment_produces_equal_length_data_lines(self):
        text = format_table(["col", "x"], [[1, 2.5], [100, 3]])
        lines = text.splitlines()
        assert len(lines[1]) == len(lines[2]) == len(lines[3])

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestFormatMarkdownTable:
    def test_structure(self):
        text = format_markdown_table(["n", "T"], [[10, 1.5], [20, 2.5]])
        lines = text.splitlines()
        assert lines[0] == "| n | T |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 10 | 1.50 |"
        assert len(lines) == 4

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_markdown_table(["a"], [[1, 2]])

