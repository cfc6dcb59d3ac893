"""Tests for the table/figure formatting helpers."""

from repro.analysis import format_breakdown, format_table


class TestFormatTable:
    def test_basic_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 10000.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "10,000" in text

    def test_column_alignment(self):
        text = format_table(["col"], [["short"], ["much longer cell"]])
        lines = text.splitlines()
        assert len(lines[1]) == len("much longer cell")


class TestFormatBreakdown:
    def test_sorted_by_share(self):
        text = format_breakdown({"A": 0.2, "B": 0.8}, title="bd")
        lines = text.splitlines()
        assert lines[0] == "bd"
        assert lines[1].strip().startswith("B")
        assert "80.0%" in lines[1]
