"""Tests for formatting helpers and the ASCII table renderer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.tables import ascii_table
from repro.utils.units import GB, fmt_bytes, fmt_count, fmt_flops, fmt_time


class TestFmtCount:
    def test_billions(self):
        assert fmt_count(52e9) == "52.00B"

    def test_trillions(self):
        assert fmt_count(1.2e12) == "1.20T"

    def test_millions(self):
        assert fmt_count(6.6e6) == "6.60M"

    def test_small(self):
        assert fmt_count(42) == "42"


class TestFmtBytes:
    def test_gb(self):
        assert fmt_bytes(32 * GB) == "32.00 GB"

    def test_plain(self):
        assert fmt_bytes(12) == "12 B"

    def test_tb(self):
        assert fmt_bytes(2**41) == "2.00 TB"


class TestFmtFlops:
    def test_tflops(self):
        assert fmt_flops(125e12) == "125.00 Tflop/s"

    def test_pflops(self):
        assert fmt_flops(2e15) == "2.00 Pflop/s"


class TestFmtTime:
    def test_days(self):
        assert fmt_time(2 * 86400) == "2.00 d"

    def test_ms(self):
        assert fmt_time(0.0123) == "12.300 ms"

    def test_us(self):
        assert fmt_time(5e-6) == "5.0 us"

    def test_negative(self):
        assert fmt_time(-60.0) == "-1.00 min"

    @given(st.floats(min_value=1e-9, max_value=1e9))
    def test_never_raises(self, seconds):
        assert isinstance(fmt_time(seconds), str)


def test_properties_run_without_a_deadline():
    # The root conftest's profile: a per-example deadline is a wall-clock
    # assertion, which a loaded host can fail with no fault in the code.
    assert settings.default.deadline is None


class TestAsciiTable:
    def test_basic_alignment(self):
        table = ascii_table(["a", "bb"], [["x", 1], ["yy", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_title(self):
        assert ascii_table(["h"], [["v"]], title="T").startswith("T\n")

    def test_float_formatting(self):
        assert "3.14" in ascii_table(["x"], [[3.14159]])

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            ascii_table(["a", "b"], [["only one"]])

    def test_empty_rows(self):
        table = ascii_table(["col"], [])
        assert "col" in table
