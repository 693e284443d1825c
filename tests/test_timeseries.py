from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from warpwatch.errors import (
    DegenerateRangeError,
    DuplicateDateError,
    EmptySeriesError,
    GapError,
    NoOverlapError,
    NonFiniteValueError,
    ParseError,
)
from warpwatch.timeseries import (
    DateIndexedSeries,
    align_ranges,
    minmax_normalize,
    read_series_csv,
    sequential_sum,
    validate_contiguous,
    write_series_csv,
)

MAR16 = date(2020, 3, 16)


def days(offset):
    return MAR16 + timedelta(days=offset)


def series(values, start=MAR16):
    return DateIndexedSeries(start, tuple(float(v) for v in values))


finite_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40
)


class TestDateIndexedSeries:
    def test_length_matches_date_span(self):
        s = series([1, 2, 3, 4])
        assert len(s) == (s.end_date - s.start_date).days + 1

    def test_rejects_empty(self):
        with pytest.raises(EmptySeriesError):
            DateIndexedSeries(MAR16, ())

    @pytest.mark.parametrize(
        "values, first_bad",
        [
            pytest.param([1.0, float("nan")], "nan", id="nan"),
            pytest.param([1.0, float("inf")], "inf", id="inf"),
            pytest.param([1.0, float("-inf")], "-inf", id="-inf"),
            pytest.param(np.array([1.0, np.inf, np.nan]), "inf", id="ndarray"),
        ],
    )
    def test_rejects_non_finite(self, values, first_bad):
        with pytest.raises(NonFiniteValueError, match=f"non-finite value {first_bad} "):
            DateIndexedSeries(MAR16, values)

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            DateIndexedSeries(MAR16, [[1.0, 2.0], [3.0, 4.0]])

    def test_values_are_read_only(self):
        s = series([1, 2, 3])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    @pytest.mark.parametrize("source", [[1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0])])
    def test_copies_its_input(self, source):
        s = DateIndexedSeries(MAR16, source)
        source[0] = 9.0
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_equality_by_start_date_and_values(self):
        assert series([1, 2]) == series([1.0, 2.0])
        assert series([1, 2]) != series([1, 2], start=days(1))
        assert series([1, 2]) != series([1, 3])
        assert series([1, 2]) != series([1, 2, 3])
        assert series([1, 2]) != (1.0, 2.0)


class TestValidateContiguous:
    def test_identity_on_contiguous_rows(self):
        s = validate_contiguous([(days(0), 1.0), (days(1), 2.0), (days(2), 3.0)])
        assert s.start_date == MAR16
        assert tuple(s.values) == (1.0, 2.0, 3.0)

    def test_accepts_unsorted_rows(self):
        s = validate_contiguous([(days(2), 3.0), (days(0), 1.0), (days(1), 2.0)])
        assert tuple(s.values) == (1.0, 2.0, 3.0)

    def test_single_missing_day(self):
        with pytest.raises(GapError) as exc:
            validate_contiguous([(days(0), 1.0), (days(2), 3.0)])
        assert exc.value.missing_dates == [days(1)]

    def test_lists_every_missing_date(self):
        with pytest.raises(GapError) as exc:
            validate_contiguous([(days(0), 1.0), (days(4), 3.0), (days(7), 9.0)])
        assert exc.value.missing_dates == [days(1), days(2), days(3), days(5), days(6)]

    def test_duplicate_date(self):
        with pytest.raises(DuplicateDateError):
            validate_contiguous([(days(0), 1.0), (days(0), 2.0)])

    def test_empty_input(self):
        with pytest.raises(EmptySeriesError):
            validate_contiguous([])


class TestMinmaxNormalize:
    def test_affine_map(self):
        assert tuple(minmax_normalize(series([2, 4, 6])).values) == (0.0, 0.5, 1.0)

    def test_identity_on_unit_endpoints(self):
        assert tuple(minmax_normalize(series([0, 1])).values) == (0.0, 1.0)

    def test_constant_series(self):
        with pytest.raises(DegenerateRangeError):
            minmax_normalize(series([5, 5, 5]))

    def test_dates_unchanged(self):
        s = series([3, 9, 6])
        out = minmax_normalize(s)
        assert out.start_date == s.start_date and len(out) == len(s)

    @given(finite_values)
    def test_idempotent(self, values):
        if max(values) == min(values):
            return
        once = minmax_normalize(series(values))
        twice = minmax_normalize(once)
        assert twice.values.tolist() == once.values.tolist()
        assert all(0.0 <= v <= 1.0 for v in once.values)

    @given(finite_values)
    def test_order_preserving(self, values):
        if max(values) == min(values):
            return
        out = minmax_normalize(series(values)).values
        for i in range(len(values)):
            for j in range(len(values)):
                if values[i] < values[j]:
                    assert out[i] <= out[j]


class TestAlignRanges:
    def test_interval_intersection(self):
        a = series([1, 2, 3, 4, 5], start=days(0))  # Mar16-Mar20
        b = series([7, 8, 9, 10, 11, 12, 13, 14], start=days(2))  # Mar18-Mar25
        a2, b2 = align_ranges(a, b)
        assert a2.start_date == b2.start_date == days(2)
        assert tuple(a2.values) == (3.0, 4.0, 5.0)
        assert tuple(b2.values) == (7.0, 8.0, 9.0)

    def test_identity_on_identical_ranges(self):
        a = series([1, 2, 3])
        b = series([4, 5, 6])
        a2, b2 = align_ranges(a, b)
        assert a2 == a and b2 == b

    def test_disjoint(self):
        a = series([1, 2, 3], start=days(0))
        b = series([1, 2, 3], start=days(20))
        with pytest.raises(NoOverlapError):
            align_ranges(a, b)

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=15),
    )
    def test_commutative_and_idempotent(self, off_a, len_a, off_b, len_b):
        a = series(range(len_a), start=days(off_a))
        b = series(range(len_b), start=days(off_b))
        try:
            a2, b2 = align_ranges(a, b)
        except NoOverlapError:
            with pytest.raises(NoOverlapError):
                align_ranges(b, a)  # must agree on disjointness
            return
        b4, a4 = align_ranges(b, a)
        assert (a2, b2) == (a4, b4)
        assert align_ranges(a2, b2) == (a2, b2)


class TestSequentialSum:
    def test_does_not_compensate(self):
        # CPython 3.12's builtin sum gives 1.0 here
        assert sequential_sum([0.1] * 10) == 0.9999999999999999

    @given(finite_values)
    def test_equals_a_left_to_right_loop(self, values):
        total = 0.0
        for v in values:
            total += v
        assert sequential_sum(values) == total
        assert sequential_sum(np.array(values)) == total


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        s = series([1.5, 2.25, 3.125])
        path = tmp_path / "s.csv"
        write_series_csv(s, str(path))
        assert read_series_csv(str(path)) == s

    def test_comment_line_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# manifest: {}\ndate,value\n2020-03-16,1\n2020-03-17,2\n")
        assert tuple(read_series_csv(str(path)).values) == (1.0, 2.0)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"date,value\r\n2020-03-16,1\r\n2020-03-17,2\r\n")
        assert tuple(read_series_csv(str(path)).values) == (1.0, 2.0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("day,count\n2020-03-16,1\n")
        with pytest.raises(ParseError):
            read_series_csv(str(path))

    def test_bad_date_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2020-03-16,1\n16/03/2020,2\n")
        with pytest.raises(ParseError) as exc:
            read_series_csv(str(path))
        assert exc.value.line == 3

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2020-03-16,abc\n")
        with pytest.raises(ParseError) as exc:
            read_series_csv(str(path))
        assert exc.value.line == 2

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n")
        with pytest.raises(EmptySeriesError, match="holds a header but no rows"):
            read_series_csv(str(path))

    def test_gap_detected_on_read(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2020-03-16,1\n2020-03-18,2\n")
        with pytest.raises(GapError):
            read_series_csv(str(path))
