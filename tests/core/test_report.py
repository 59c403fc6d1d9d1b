"""Unit tests for the ASCII reporting helpers."""

import pytest

from repro.report import ascii_bar_chart, ascii_table


class TestTable:
    def test_renders_headers_rule_and_rows(self):
        out = ascii_table(["name", "slices"], [("XC5VLX155", 24_320)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "slices" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "XC5VLX155" in lines[3]

    def test_numbers_right_aligned(self):
        out = ascii_table(["n", "v"], [("a", 1), ("bb", 22)])
        rows = out.splitlines()[2:]
        assert rows[0].endswith(" 1")
        assert rows[1].endswith("22")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            ascii_table(["a", "b"], [(1,)])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            ascii_table([], [])

    def test_floats_formatted(self):
        out = ascii_table(["v"], [(1.23456,)])
        assert "1.235" in out


class TestBarChart:
    def test_bars_scale_to_peak(self):
        out = ascii_bar_chart(["a", "b"], [100.0, 50.0], width=20)
        lines = out.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10

    def test_zero_value_has_no_bar(self):
        out = ascii_bar_chart(["a", "b"], [10.0, 0.0])
        assert out.splitlines()[1].count("#") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            ascii_bar_chart([], [])
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [-1.0])
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0], width=0)

    def test_unit_appended(self):
        assert "%" in ascii_bar_chart(["a"], [42.0], unit="%")
