import logging
import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpwatch.errors import CoverageError, NonFiniteValueError, NoOverlapError, ParseError, RangeError
from warpwatch.trends import (
    WeeklySeries,
    load_segments,
    load_weekly,
    msv_merge,
    rescale_daily,
    segment_array,
)

MAR16 = date(2020, 3, 16)


def day(offset):
    return MAR16 + timedelta(days=offset)


def segment(start_offset, values, keyword="cough"):
    return keyword, day(start_offset).toordinal(), [float(v) for v in values]


def segments_of(*parts):
    """One segment array of the ``segment`` tuples, in the order given."""
    keywords, starts, values = zip(*parts)
    return segment_array(keywords, starts, values)


def weekly(values, keyword="cough", start_offset=0):
    return WeeklySeries(keyword, day(start_offset), tuple(float(v) for v in values))


class TestTypes:
    def test_segment_must_have_30_values(self):
        with pytest.raises(ValueError):
            segments_of(segment(0, [1.0] * 29))

    @pytest.mark.parametrize(
        "bad, error, message",
        [(101.0, RangeError, "segment value 101.0 outside"), (float("nan"), NonFiniteValueError, "non-finite value nan")],
    )
    @pytest.mark.parametrize("reconstruct", [lambda s: rescale_daily(s, weekly([50.0] * 5)), msv_merge], ids=["rescale", "msv"])
    def test_segment_range_check(self, reconstruct, bad, error, message):
        segments = segments_of(segment(0, [1.0] * 30), segment(3, [1.0] * 29 + [bad], keyword="flu"))
        with pytest.raises(error, match=message) as caught:
            reconstruct(segments)
        assert str(caught.value).endswith(" in segment 'flu' starting 2020-03-19")

    def test_weekly_range_check_names_the_value(self):
        with pytest.raises(RangeError, match="weekly value -1.0 outside"):
            weekly([10, -1, 20])

    @pytest.mark.parametrize("build", [lambda v: segments_of(segment(0, v))["values"][0], lambda v: weekly(v).values])
    def test_values_are_read_only_copies(self, build):
        source = [float(i) for i in range(30)]
        values = build(source)
        assert values.dtype == float and not values.flags.writeable
        source[0] = 99.0
        assert values[0] == 0.0
        with pytest.raises(ValueError):
            values[0] = 1.0


class TestLoadSegments:
    def write(self, tmp_path, lines):
        path = tmp_path / "segments.csv"
        path.write_text("\n".join(["keyword,segment_start,date,value"] + lines) + "\n")
        return str(path)

    def rows(self, keyword, start_offset, values):
        return [
            f"{keyword},{day(start_offset).isoformat()},{day(start_offset + i).isoformat()},{v}"
            for i, v in enumerate(values)
        ]

    def test_two_segments(self, tmp_path):
        lines = self.rows("cough", 0, [10.0] * 30) + self.rows("fever", 0, [20.0] * 30)
        segments = load_segments(self.write(tmp_path, lines))
        assert len(segments) == 2
        assert set(segments["keyword"].tolist()) == {"cough", "fever"}
        assert segments[0]["values"].tolist() == [10.0] * 30

    def test_29_row_segment_rejected(self, tmp_path):
        lines = self.rows("cough", 0, [10.0] * 29)
        with pytest.raises(ParseError):
            load_segments(self.write(tmp_path, lines))

    def test_value_out_of_range(self, tmp_path):
        lines = self.rows("cough", 0, [10.0] * 29 + [101.0])
        with pytest.raises(RangeError) as exc:
            load_segments(self.write(tmp_path, lines))
        assert exc.value.line == 31

    def test_date_outside_segment_window(self, tmp_path):
        lines = self.rows("cough", 0, [10.0] * 30)
        lines[5] = f"cough,{day(0).isoformat()},{day(35).isoformat()},10.0"
        with pytest.raises(ParseError):
            load_segments(self.write(tmp_path, lines))

    def test_duplicate_date_reports_line(self, tmp_path):
        lines = self.rows("cough", 0, [10.0] * 30)
        lines[7] = f"cough,{day(0).isoformat()},{day(2).isoformat()},10.0"
        with pytest.raises(ParseError, match="duplicate date 2020-03-18 within segment") as exc:
            load_segments(self.write(tmp_path, lines))
        assert exc.value.line == 9

    def test_bad_date_reports_line(self, tmp_path):
        lines = self.rows("cough", 0, [10.0] * 30)
        lines[3] = "cough,2020-03-16,16-03-2020,10.0"
        with pytest.raises(ParseError) as exc:
            load_segments(self.write(tmp_path, lines))
        assert exc.value.line == 5

    def test_errors_after_a_two_line_field_name_the_physical_line(self, tmp_path):
        lines = ['"co\nugh",2020-03-01,2020-03-01,5', "cough,2020-03-01,2020-03-02,abc"]
        with pytest.raises(ParseError, match="bad value 'abc'") as exc:
            load_segments(self.write(tmp_path, lines))
        assert exc.value.line == 4


class TestLoadWeekly:
    def test_grouped_by_keyword(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(
            "keyword,week_start,value\n"
            "cough,2020-03-16,50\n"
            "cough,2020-03-23,60\n"
            "fever,2020-03-16,10\n"
        )
        out = load_weekly(str(path))
        assert set(out) == {"cough", "fever"}
        assert out["cough"].values.tolist() == [50.0, 60.0]

    def test_range_violation(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text("keyword,week_start,value\ncough,2020-03-16,150\n")
        with pytest.raises(RangeError):
            load_weekly(str(path))

    def test_week_spacing_is_a_parse_error(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text("keyword,week_start,value\ncough,2020-03-16,50\ncough,2020-03-24,60\n")
        with pytest.raises(ParseError, match="'cough': week starts must be 7 days apart"):
            load_weekly(str(path))


class TestRescaleDaily:
    def test_constant_segment_constant_weekly(self):
        # factor = 50 / 10 = 5 in every week bucket
        out = rescale_daily(segments_of(segment(0, [10.0] * 30)), weekly([50.0] * 5))
        assert tuple(out.values) == tuple([50.0] * 30)
        assert out.start_date == MAR16

    def test_no_segments(self):
        with pytest.raises(CoverageError, match="no segments supplied"):
            rescale_daily(segments_of(segment(0, [10.0] * 30))[:0], weekly([50.0] * 5))

    def test_zero_weekly_value_zeroes_the_week(self):
        out = rescale_daily(segments_of(segment(0, [10.0] * 30)), weekly([50, 0, 50, 50, 50]))
        assert tuple(out.values[7:14]) == tuple([0.0] * 7)
        assert tuple(out.values[0:7]) == tuple([50.0] * 7)

    def test_zero_segment_mean_yields_zero(self):
        out = rescale_daily(segments_of(segment(0, [0.0] * 30)), weekly([50.0] * 5))
        assert set(out.values) == {0.0}

    def test_overlap_days_average(self):
        # seg1 calibrates day 8 to 40; seg2's first week has mean 10 with
        # 15 on day 8, so it calibrates the same day to 60; mean is 50
        seg1 = segment(0, [10.0] * 30)
        seg2_week = [55.0 / 6.0, 15.0] + [55.0 / 6.0] * 5
        seg2 = segment(7, seg2_week + [10.0] * 23)
        out = rescale_daily(segments_of(seg1, seg2), weekly([40.0] * 6))
        assert out.start_date == day(0)
        assert out.values[8] == pytest.approx(50.0, abs=1e-9)
        assert out.values[0] == pytest.approx(40.0)

    def test_partial_edge_week_uses_days_present(self):
        # segment starts 3 days into a week: the 4 present days average alone
        seg = segment(0, [10.0] * 30)
        w = weekly([80.0] * 6, start_offset=-3)
        out = rescale_daily(segments_of(seg), w)
        assert tuple(out.values) == tuple([80.0] * 30)

    def test_week_missing_from_reference(self):
        with pytest.raises(CoverageError):
            rescale_daily(segments_of(segment(0, [10.0] * 30)), weekly([50.0] * 3))

    def test_segment_before_reference_start(self):
        with pytest.raises(CoverageError, match="day 2020-03-15 has no week"):
            rescale_daily(segments_of(segment(-1, [10.0] * 30)), weekly([50.0] * 5))

    def test_uncovered_day_between_segments(self):
        with pytest.raises(CoverageError):
            rescale_daily(
                segments_of(segment(0, [10.0] * 30), segment(31, [10.0] * 30)),
                weekly([50.0] * 9),
            )

    def test_invariant_to_segment_order(self):
        rng = random.Random(11)
        segments = segments_of(
            segment(0, [rng.uniform(1, 100) for _ in range(30)]),
            segment(10, [rng.uniform(1, 100) for _ in range(30)]),
            segment(20, [rng.uniform(1, 100) for _ in range(30)]),
        )
        ref = weekly([rng.uniform(10, 100) for _ in range(8)])
        forward = rescale_daily(segments, ref)
        shuffled = rescale_daily(segments[::-1], ref)
        assert forward.values.tolist() == shuffled.values.tolist()

    def test_tied_start_dates_invariant_to_order(self):
        # three calibrated values per day: their sum rounds differently by order
        rng = random.Random(3)
        segments = segments_of(*[segment(0, [rng.uniform(1, 100) for _ in range(30)]) for _ in range(3)])
        ref = weekly([rng.uniform(10, 100) for _ in range(5)])
        forward = rescale_daily(segments, ref)
        assert forward.values.tolist() == rescale_daily(segments[::-1], ref).values.tolist()

    def test_output_contiguous_over_covered_range(self):
        segments = segments_of(segment(0, [10.0] * 30), segment(15, [20.0] * 30))
        out = rescale_daily(segments, weekly([50.0] * 7))
        assert out.start_date == MAR16
        assert len(out) == 45


class TestMsvMerge:
    def test_constant_ratio_scales_tail(self):
        # overlap: merged (..,10,20) vs segment head (5,10) -> factor 2
        seg1 = segment(0, [5.0] * 28 + [10.0, 20.0])
        seg2 = segment(28, [5.0, 10.0] + [30.0] * 28)
        out = msv_merge(segments_of(seg1, seg2))
        # ratios are invariant to the final max-to-100 rescale
        assert out.values[30] / out.values[29] == pytest.approx((30.0 * 2) / 20.0)

    def test_no_segments(self):
        with pytest.raises(NoOverlapError, match="no segments supplied"):
            msv_merge(segments_of(segment(0, [10.0] * 30))[:0])

    def test_zero_denominator_days_excluded(self):
        # overlap pair (0, 10) vs (0, 5): only the second day contributes
        seg1 = segment(0, [5.0] * 28 + [0.0, 10.0])
        seg2 = segment(28, [0.0, 5.0] + [20.0] * 28)
        out = msv_merge(segments_of(seg1, seg2))
        assert out.values[30] / out.values[29] == pytest.approx((20.0 * 2) / 10.0)

    def test_no_positive_overlap_day_defaults_factor_one(self):
        seg1 = segment(0, [10.0] * 28 + [0.0, 0.0])
        seg2 = segment(28, [0.0, 0.0] + [20.0] * 28)
        out = msv_merge(segments_of(seg1, seg2))
        assert out.values[30] / max(out.values) == pytest.approx(20.0 / max(10.0, 20.0))

    def test_factor_one_fallback_is_logged(self, caplog):
        seg1 = segment(0, [10.0] * 28 + [0.0, 0.0])
        seg2 = segment(28, [0.0, 0.0] + [20.0] * 28)
        with caplog.at_level(logging.WARNING, logger="warpwatch.trends"):
            out = msv_merge(segments_of(seg1, seg2))
        assert [r.getMessage() for r in caplog.records] == [
            "keyword 'cough': segment starting 2020-04-13 has no positive overlap day; correction factor 1 used"
        ]
        assert out.values.tolist() == [50.0] * 28 + [0.0, 0.0] + [100.0] * 28

    def test_tied_start_dates_invariant_to_order(self):
        # the anchor is one of the tied segments; the wrong one gives other values
        segments = segments_of(segment(0, [10.0] * 15 + [40.0] * 15), segment(0, [20.0] * 30), segment(20, [5.0] * 30))
        forward = msv_merge(segments)
        assert forward.values.tolist() == msv_merge(segments[::-1]).values.tolist()

    def test_zero_factor_raises_instead_of_zeroing_the_tail(self):
        # the second segment's head (5) meets an all-zero merged overlap, so
        # its factor is 0; merging on would give 0.0 for days 20-69
        segments = segments_of(
            segment(0, [50.0] * 20 + [0.0] * 10),
            segment(20, [5.0] * 10 + [80.0] * 20),
            segment(40, [80.0] * 30),
        )
        with pytest.raises(CoverageError, match="'cough': segment starting 2020-04-05"):
            msv_merge(segments)

    def test_max_is_exactly_100(self):
        rng = random.Random(5)
        segments = segments_of(
            segment(0, [rng.uniform(1, 60) for _ in range(30)]),
            segment(20, [rng.uniform(1, 60) for _ in range(30)]),
            segment(40, [rng.uniform(1, 60) for _ in range(30)]),
        )
        out = msv_merge(segments)
        assert max(out.values) == 100.0

    def test_all_zero_input_stays_zero(self):
        out = msv_merge(segments_of(segment(0, [0.0] * 30)))
        assert set(out.values) == {0.0}

    def test_non_overlapping_pair_rejected(self):
        with pytest.raises(NoOverlapError):
            msv_merge(segments_of(segment(0, [10.0] * 30), segment(31, [10.0] * 30)))

    def test_output_contiguous(self):
        segments = segments_of(segment(0, [10.0] * 30), segment(25, [10.0] * 30))
        out = msv_merge(segments)
        assert out.start_date == MAR16
        assert len(out) == 55

    @given(st.integers(1, 29), st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_deterministic_and_bounded(self, step, seed):
        rng = random.Random(seed)
        segments = segments_of(
            segment(0, [rng.uniform(0.5, 90) for _ in range(30)]),
            segment(step, [rng.uniform(0.5, 90) for _ in range(30)]),
        )
        first = msv_merge(segments)
        second = msv_merge(segments)
        assert first.values.tolist() == second.values.tolist()
        assert max(first.values) == 100.0
        assert len(first) == 30 + step
