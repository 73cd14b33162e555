"""Unit and property tests for repro.model.timeutil."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DataModelError
from repro.model.timeutil import (SECONDS_PER_DAY, Window, format_duration,
                                  format_timestamp, parse_duration,
                                  parse_timestamp, sliding_windows)


class TestParseDuration:
    @pytest.mark.parametrize("text,expected", [
        ("1 min", 60.0),
        ("10 sec", 10.0),
        ("2 hours", 7200.0),
        ("1 day", 86400.0),
        ("500 ms", 0.5),
        ("1.5 min", 90.0),
        ("3m", 180.0),
        ("2H", 7200.0),
    ])
    def test_accepts_common_forms(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text", ["", "min", "10 lightyears", "-5 sec"])
    def test_rejects_garbage(self, text):
        with pytest.raises(DataModelError):
            parse_duration(text)


class TestFormatDuration:
    @pytest.mark.parametrize("seconds,expected", [
        (60.0, "1 min"),
        (10.0, "10 sec"),
        (3600.0, "1 hour"),
        (86400.0, "1 day"),
        (90.0, "90 sec"),
    ])
    def test_natural_unit(self, seconds, expected):
        assert format_duration(seconds) == expected

    def test_negative_rejected(self):
        with pytest.raises(DataModelError):
            format_duration(-1)

    @given(st.integers(min_value=0, max_value=10 ** 7))
    def test_roundtrips_through_parse(self, seconds):
        assert parse_duration(format_duration(float(seconds))) == seconds


class TestParseTimestamp:
    def test_paper_date_format(self):
        ts = parse_timestamp("06/10/2026")
        assert format_timestamp(ts) == "2026-06-10 00:00:00"

    def test_iso_format(self):
        assert (parse_timestamp("2026-06-10")
                == parse_timestamp("06/10/2026"))

    def test_with_time_of_day(self):
        ts = parse_timestamp("06/10/2026 10:30:00")
        assert ts == parse_timestamp("06/10/2026") + 10.5 * 3600

    def test_garbage_rejected(self):
        with pytest.raises(DataModelError):
            parse_timestamp("last tuesday")


class TestWindow:
    def test_for_day_is_one_day(self):
        window = Window.for_day("06/10/2026")
        assert window.duration == SECONDS_PER_DAY

    def test_contains_is_half_open(self):
        window = Window(10.0, 20.0)
        assert window.contains(10.0)
        assert window.contains(19.999)
        assert not window.contains(20.0)
        assert not window.contains(9.999)

    def test_end_before_start_rejected(self):
        with pytest.raises(DataModelError):
            Window(20.0, 10.0)

    def test_intersect(self):
        assert Window(0, 10).intersect(Window(5, 20)) == Window(5, 10)
        assert Window(0, 10).intersect(Window(10, 20)) is None

    def test_overlaps(self):
        assert Window(0, 10).overlaps(Window(9, 12))
        assert not Window(0, 10).overlaps(Window(10, 12))


class TestSlidingWindows:
    def test_count_and_spacing(self):
        windows = sliding_windows(Window(0, 60), width=60, step=10)
        assert len(windows) == 6
        assert [w.start for w in windows] == [0, 10, 20, 30, 40, 50]
        assert all(w.duration == 60 for w in windows)

    def test_rejects_nonpositive(self):
        with pytest.raises(DataModelError):
            sliding_windows(Window(0, 10), width=0, step=1)
        with pytest.raises(DataModelError):
            sliding_windows(Window(0, 10), width=1, step=0)

    @given(st.floats(min_value=1, max_value=500),
           st.floats(min_value=0.5, max_value=100))
    def test_every_point_covered_when_step_below_width(self, width, factor):
        # Overlapping windows (step <= width) tile the span with no gaps;
        # step > width is legal but samples, so coverage only holds here.
        step = min(width, factor)
        span = Window(0, 300)
        windows = sliding_windows(span, width, step)
        probe = 150.0
        assert any(w.contains(probe) for w in windows)
