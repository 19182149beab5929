"""Tests for repro.util: numeric helpers, tables, timing."""

import time

import pytest

from repro.util import (
    Table,
    close,
    format_bytes,
    format_seconds,
    mixed_radix_index,
    mixed_radix_unindex,
    quantize,
    timed,
)
from repro.util.numeric import strides


class TestQuantize:
    def test_zero(self):
        assert quantize(0.0) == 0.0

    def test_idempotent(self):
        for value in (1.234567890123, -9.87e-5, 3.0e12):
            assert quantize(quantize(value)) == quantize(value)

    def test_absorbs_accumulation_noise(self):
        a = sum([0.1] * 10)
        assert quantize(a) == quantize(1.0)

    def test_distinguishes_real_differences(self):
        assert quantize(1.0) != quantize(1.001)

    def test_negative_values(self):
        assert quantize(-2.5) == -2.5


class TestClose:
    def test_equal(self):
        assert close(1.0, 1.0)

    def test_relative(self):
        assert close(1e9, 1e9 * (1 + 1e-12))
        assert not close(1.0, 1.1)

    def test_absolute_near_zero(self):
        assert close(0.0, 1e-13)


class TestMixedRadix:
    def test_roundtrip(self):
        radices = (2, 3, 4)
        for index in range(24):
            digits = mixed_radix_unindex(index, radices)
            assert mixed_radix_index(digits, radices) == index

    def test_top_level_most_significant(self):
        assert mixed_radix_index((1, 0, 0), (2, 3, 4)) == 12

    def test_out_of_range_digit(self):
        with pytest.raises(ValueError):
            mixed_radix_index((2, 0), (2, 3))

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            mixed_radix_unindex(24, (2, 3, 4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mixed_radix_index((1,), (2, 3))

    def test_strides(self):
        assert strides((2, 3, 4)) == (12, 4, 1)
        assert strides((5,)) == (1,)


class TestTable:
    def test_render_alignment(self):
        t = Table(["a", "bb"], title="T")
        t.add_row([100, 2])
        out = t.render()
        assert out.splitlines()[0] == "T"
        assert "100 | 2" in out

    def test_wrong_cell_count(self):
        t = Table(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_format_bytes(self):
        assert format_bytes(10) == "10 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 * 1024 * 1024) == "3.0 MB"

    def test_format_seconds(self):
        assert format_seconds(0.805) in ("0.80 s", "0.81 s")


class TestTiming:
    def test_timed_measures(self):
        with timed() as t:
            time.sleep(0.01)
        assert t.seconds >= 0.009
