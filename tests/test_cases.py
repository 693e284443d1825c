import logging
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpwatch.cases import (
    CaseKind,
    CaseSeries,
    LineListRecord,
    active_cases,
    daily_confirmed,
    daily_removed,
    load_linelist,
)
from warpwatch.errors import MissingColumnError, ParseError, RangeMismatchError
from warpwatch.timeseries import DateIndexedSeries

MAR16 = date(2020, 3, 16)


def day(offset):
    return MAR16 + timedelta(days=offset)


def record(conf_offset, rem_offset=None, region="NCR", province="NCR"):
    rem = None if rem_offset is None else day(rem_offset)
    return LineListRecord(region, province, day(conf_offset), rem)


def case_series(kind, values, start=MAR16):
    return CaseSeries(kind, DateIndexedSeries(start, tuple(float(v) for v in values)))


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
        records = load_linelist(path, "NCR", "NCR")
        assert len(records) == 3
        assert records[1].date_rep_rem == date(2020, 3, 20)

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, "RegionRes,ProvinceRes,DateRepRem\nNCR,NCR,\n")
        with pytest.raises(MissingColumnError):
            load_linelist(path, "NCR", "NCR")

    def test_empty_file_with_header(self, tmp_path):
        path = self.write(tmp_path, "RegionRes,ProvinceRes,DateRepConf,DateRepRem\n")
        assert load_linelist(path, "NCR", "NCR") == []

    def test_extra_columns_ignored(self, tmp_path):
        path = self.write(
            tmp_path,
            "CaseCode,RegionRes,ProvinceRes,Age,DateRepConf,DateRepRem\n"
            "C1,NCR,NCR,41,2020-03-17,\n",
        )
        records = load_linelist(path, "NCR", "NCR")
        assert records == [LineListRecord("NCR", "NCR", date(2020, 3, 17), None)]

    def test_blank_region_never_matches(self, tmp_path):
        path = self.write(
            tmp_path,
            "RegionRes,ProvinceRes,DateRepConf,DateRepRem\n,,2020-03-17,\n",
        )
        assert load_linelist(path, "", "") == []

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
        records = [record(1), record(1), record(1), record(3)]
        out = daily_confirmed(records, MAR16, day(4))
        assert tuple(out.series.values) == (0.0, 3.0, 0.0, 1.0, 0.0)
        assert out.kind is CaseKind.CONFIRMED

    def test_no_records_gives_zero_series(self):
        out = daily_confirmed([], MAR16, day(2))
        assert tuple(out.series.values) == (0.0, 0.0, 0.0)

    def test_out_of_range_record_excluded(self):
        out = daily_confirmed([record(30)], MAR16, day(2))
        assert sum(out.series.values) == 0.0

    def test_removed_counts(self):
        records = [record(0, 4), record(1, 4), record(2)]
        out = daily_removed(records, MAR16, day(5))
        assert tuple(out.series.values) == (0.0, 0.0, 0.0, 0.0, 2.0, 0.0)

    def test_removal_free_record_contributes_nothing(self):
        out = daily_removed([record(0)], MAR16, day(2))
        assert sum(out.series.values) == 0.0

    def test_order_invariance(self):
        records = [record(0, 2), record(2, 3), record(1)]
        forward = daily_confirmed(records, MAR16, day(3)).series.values
        backward = daily_confirmed(list(reversed(records)), MAR16, day(3)).series.values
        assert forward.tolist() == backward.tolist()


class TestActiveCases:
    def test_direct_recurrence(self):
        confirmed = case_series(CaseKind.CONFIRMED, [1, 2, 0])
        removed = case_series(CaseKind.REMOVED, [0, 1, 1])
        out = active_cases(confirmed, removed)
        assert tuple(out.series.values) == (1.0, 2.0, 1.0)

    def test_same_day_removal(self):
        out = active_cases(case_series(CaseKind.CONFIRMED, [5]), case_series(CaseKind.REMOVED, [5]))
        assert tuple(out.series.values) == (0.0,)

    def test_negative_drift_clamped_and_logged(self, caplog):
        confirmed = case_series(CaseKind.CONFIRMED, [0, 0])
        removed = case_series(CaseKind.REMOVED, [1, 0])
        with caplog.at_level(logging.WARNING, logger="warpwatch.cases"):
            out = active_cases(confirmed, removed)
        assert tuple(out.series.values) == (0.0, 0.0)
        assert any("2020-03-16" in message for message in caplog.messages)

    def test_range_mismatch(self):
        confirmed = case_series(CaseKind.CONFIRMED, [1, 1])
        removed = case_series(CaseKind.REMOVED, [0, 0], start=day(1))
        with pytest.raises(RangeMismatchError):
            active_cases(confirmed, removed)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_everywhere(self, pairs):
        confirmed = case_series(CaseKind.CONFIRMED, [c for c, _ in pairs])
        removed = case_series(CaseKind.REMOVED, [r for _, r in pairs])
        out = active_cases(confirmed, removed)
        assert all(v >= 0 for v in out.series.values)

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
        confirmed = case_series(CaseKind.CONFIRMED, confirmed_counts)
        removed = case_series(CaseKind.REMOVED, removed_counts)
        out = active_cases(confirmed, removed)
        running_c, running_r = 0, 0
        for a, c, r in zip(out.series.values, confirmed_counts, removed_counts):
            running_c += c
            running_r += r
            assert a == running_c - running_r

    def test_rejects_negative_or_fractional_counts(self):
        with pytest.raises(ValueError):
            case_series(CaseKind.CONFIRMED, [1.5])
        with pytest.raises(ValueError):
            case_series(CaseKind.CONFIRMED, [-1])
