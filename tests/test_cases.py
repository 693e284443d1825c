import logging
from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpwatch.cases import active_cases, daily_confirmed, daily_removed, load_linelist
from warpwatch.errors import MissingColumnError, ParseError, RangeMismatchError
from warpwatch.timeseries import DateIndexedSeries

MAR16 = date(2020, 3, 16)
# day ordinals from ten days before MAR16 to thirty after, and the no-removal sentinel
ORDINALS = st.one_of(st.just(0), st.integers(MAR16.toordinal() - 10, MAR16.toordinal() + 30))


def day(offset):
    return MAR16 + timedelta(days=offset)


def record(conf_offset, rem_offset=None):
    """One line-list row as day ordinals; 0 stands for no removal."""
    return day(conf_offset).toordinal(), 0 if rem_offset is None else day(rem_offset).toordinal()


def records(*rows):
    """The ``(n, 2)`` int64 array ``load_linelist`` returns."""
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def case_series(values, start=MAR16):
    return DateIndexedSeries(start, tuple(float(v) for v in values))


class TestLoadLinelist:
    def write(self, tmp_path, text):
        path = tmp_path / "linelist.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_filters_on_region_and_province(self, tmp_path):
        path = self.write(
            tmp_path,
            "RegionRes,ProvinceRes,DateRepConf,DateRepRem\n"
            "NCR,NCR,2020-03-17,\n"
            "NCR,NCR,2020-03-17,2020-03-20\n"
            "Region IV-A,Cavite,2020-03-18,\n"
            "NCR,NCR,2020-03-19,\n",
        )
        rows = load_linelist(path, "NCR", "NCR")
        assert len(rows) == 3
        assert rows[1, 1] == date(2020, 3, 20).toordinal()

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, "RegionRes,ProvinceRes,DateRepRem\nNCR,NCR,\n")
        with pytest.raises(MissingColumnError):
            load_linelist(path, "NCR", "NCR")

    def test_empty_file_with_header(self, tmp_path):
        path = self.write(tmp_path, "RegionRes,ProvinceRes,DateRepConf,DateRepRem\n")
        assert load_linelist(path, "NCR", "NCR").shape == (0, 2)

    def test_extra_columns_ignored(self, tmp_path):
        path = self.write(
            tmp_path,
            "CaseCode,RegionRes,ProvinceRes,Age,DateRepConf,DateRepRem\n"
            "C1,NCR,NCR,41,2020-03-17,\n",
        )
        rows = load_linelist(path, "NCR", "NCR")
        assert rows.dtype == np.int64
        assert rows.tolist() == [[date(2020, 3, 17).toordinal(), 0]]

    def test_blank_region_never_matches(self, tmp_path):
        path = self.write(
            tmp_path,
            "RegionRes,ProvinceRes,DateRepConf,DateRepRem\n,,2020-03-17,\n",
        )
        assert load_linelist(path, "", "").shape == (0, 2)

    def test_malformed_date_reports_row(self, tmp_path):
        path = self.write(
            tmp_path,
            "RegionRes,ProvinceRes,DateRepConf,DateRepRem\n"
            "NCR,NCR,2020-03-17,\n"
            "NCR,NCR,17/03/2020,\n",
        )
        with pytest.raises(ParseError) as exc:
            load_linelist(path, "NCR", "NCR")
        assert exc.value.line == 3

    def test_errors_after_a_two_line_field_name_the_physical_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "RegionRes,ProvinceRes,DateRepConf,DateRepRem\n"
            '"NC\nR",NCR,2020-03-17,\n'
            "NCR,NCR,17/03/2020,\n",
        )
        with pytest.raises(ParseError, match="bad date '17/03/2020'") as exc:
            load_linelist(path, "NCR", "NCR")
        assert exc.value.line == 4

    def test_off_region_rows_may_be_dirty(self, tmp_path):
        path = self.write(
            tmp_path,
            "RegionRes,ProvinceRes,DateRepConf,DateRepRem\n"
            "Region X,Misamis,not-a-date,\n"
            "NCR,NCR,2020-03-17,\n",
        )
        assert len(load_linelist(path, "NCR", "NCR")) == 1


class TestDailyCounts:
    def test_counts_by_confirmation_date(self):
        out = daily_confirmed(records(record(1), record(1), record(1), record(3)), MAR16, day(4))
        assert tuple(out.values) == (0.0, 3.0, 0.0, 1.0, 0.0)
        assert out.start_date == MAR16

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="invalid range: 2020-03-18 after 2020-03-16"):
            daily_confirmed(records(record(1)), day(2), MAR16)

    def test_no_records_gives_zero_series(self):
        out = daily_confirmed(records(), MAR16, day(2))
        assert tuple(out.values) == (0.0, 0.0, 0.0)

    def test_out_of_range_record_excluded(self):
        out = daily_confirmed(records(record(30)), MAR16, day(2))
        assert sum(out.values) == 0.0

    def test_removed_counts(self):
        out = daily_removed(records(record(0, 4), record(1, 4), record(2)), MAR16, day(5))
        assert tuple(out.values) == (0.0, 0.0, 0.0, 0.0, 2.0, 0.0)

    def test_removal_free_record_contributes_nothing(self):
        out = daily_removed(records(record(0)), MAR16, day(2))
        assert sum(out.values) == 0.0

    def test_order_invariance(self):
        rows = records(record(0, 2), record(2, 3), record(1))
        forward = daily_confirmed(rows, MAR16, day(3)).values
        backward = daily_confirmed(rows[::-1], MAR16, day(3)).values
        assert forward.tolist() == backward.tolist()

    @given(
        st.lists(st.tuples(ORDINALS, ORDINALS), max_size=60),
        st.integers(0, 20),
        st.integers(0, 15),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_match_a_counter_oracle(self, rows, first, span):
        # the draws reach days before start and after end, and the 0 sentinel
        start = day(first)
        linelist = records(*rows)
        for column, count in ((0, daily_confirmed), (1, daily_removed)):
            tally = Counter(row[column] for row in rows)
            out = count(linelist, start, start + timedelta(days=span))
            assert out.start_date == start
            assert out.values.tolist() == [tally[start.toordinal() + i] for i in range(span + 1)]


class TestActiveCases:
    def test_direct_recurrence(self):
        confirmed = case_series([1, 2, 0])
        removed = case_series([0, 1, 1])
        out = active_cases(confirmed, removed)
        assert tuple(out.values) == (1.0, 2.0, 1.0)

    def test_same_day_removal(self):
        out = active_cases(case_series([5]), case_series([5]))
        assert tuple(out.values) == (0.0,)

    def test_negative_drift_clamped_and_logged(self, caplog):
        confirmed = case_series([0, 0])
        removed = case_series([1, 0])
        with caplog.at_level(logging.WARNING, logger="warpwatch.cases"):
            out = active_cases(confirmed, removed)
        assert tuple(out.values) == (0.0, 0.0)
        assert any("2020-03-16" in message for message in caplog.messages)

    def test_range_mismatch(self):
        confirmed = case_series([1, 1])
        removed = case_series([0, 0], start=day(1))
        with pytest.raises(RangeMismatchError):
            active_cases(confirmed, removed)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_everywhere(self, pairs):
        confirmed = case_series([c for c, _ in pairs])
        removed = case_series([r for _, r in pairs])
        out = active_cases(confirmed, removed)
        assert all(v >= 0 for v in out.values)

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=60), st.integers(0, 2 ** 32))
    @settings(max_examples=200, deadline=None)
    def test_conservation_without_clamps(self, confirmed_counts, seed):
        # draw removals that never exceed what is currently active
        import random

        rng = random.Random(seed)
        active = 0
        removed_counts = []
        for c in confirmed_counts:
            r = rng.randint(0, active + c)
            removed_counts.append(r)
            active = active + c - r
        confirmed = case_series(confirmed_counts)
        removed = case_series(removed_counts)
        out = active_cases(confirmed, removed)
        running_c, running_r = 0, 0
        for a, c, r in zip(out.values, confirmed_counts, removed_counts):
            running_c += c
            running_r += r
            assert a == running_c - running_r

    def test_rejects_negative_or_fractional_counts(self):
        with pytest.raises(ValueError, match="nonnegative integers, got 1.5"):
            active_cases(case_series([1.5]), case_series([0]))
        with pytest.raises(ValueError, match="nonnegative integers, got -1.0"):
            active_cases(case_series([1]), case_series([-1]))
