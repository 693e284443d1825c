"""Reconstruction of one continuous daily search-volume series per keyword.

Raw exports arrive as overlapping 30-day daily segments whose scores are
only comparable within a segment. Two reconstructions are supported:

* weekly rescaling: every segment-week is calibrated against a
  full-period weekly reference, and days covered by several segments
  average their calibrated values;
* merged search volume: segments are chained forward from the earliest
  one with a correction factor estimated on each overlap, then the whole
  series is rescaled so its maximum is exactly 100.

Both are deterministic and keep the covered range contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterable, Sequence

from .errors import CoverageError, NoOverlapError, ParseError, RangeError
from .timeseries import DateIndexedSeries, parse_iso_date, read_csv_rows

SEGMENT_DAYS = 30

SEGMENT_HEADER = ("keyword", "segment_start", "date", "value")
WEEKLY_HEADER = ("keyword", "week_start", "value")


@dataclass(frozen=True)
class DailySegment:
    """Exactly 30 consecutive daily scores in [0, 100] for one keyword."""

    keyword: str
    start_date: date
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != SEGMENT_DAYS:
            raise ValueError(f"segment must hold exactly {SEGMENT_DAYS} values, got {len(self.values)}")
        for v in self.values:
            if not 0.0 <= v <= 100.0:
                raise RangeError(f"segment value {v} outside [0, 100]")

    @property
    def end_date(self) -> date:
        return self.start_date + timedelta(days=SEGMENT_DAYS - 1)

    def items(self) -> Iterable[tuple[date, float]]:
        for i, v in enumerate(self.values):
            yield self.start_date + timedelta(days=i), v


@dataclass(frozen=True)
class WeeklySeries:
    """Weekly scores in [0, 100]; week starts are 7 days apart and define
    the calibration buckets (the reference, not ISO weeks, owns the bucketing)."""

    keyword: str
    week_start_dates: tuple[date, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.week_start_dates) != len(self.values):
            raise ValueError("one value per week start required")
        if not self.week_start_dates:
            raise ValueError("weekly series must not be empty")
        for a, b in zip(self.week_start_dates, self.week_start_dates[1:]):
            if (b - a).days != 7:
                raise ValueError(f"week starts must be 7 days apart, got {a} then {b}")
        for v in self.values:
            if not 0.0 <= v <= 100.0:
                raise RangeError(f"weekly value {v} outside [0, 100]")

    def week_index_of(self, day: date) -> int | None:
        """Index of the week bucket containing ``day``, or None if uncovered."""
        offset = (day - self.week_start_dates[0]).days
        if offset < 0:
            return None
        idx = offset // 7
        if idx >= len(self.values):
            return None
        return idx


def load_segments(path: str) -> list[DailySegment]:
    """Parse a segment CSV (``keyword,segment_start,date,value``) into segments.

    Rows are grouped by (keyword, segment_start); each group must supply
    exactly the 30 consecutive days starting at segment_start. Values
    outside [0, 100] raise RangeError; structural violations raise
    ParseError with the offending line number.
    """
    groups: dict[tuple[str, date], dict[date, float]] = {}
    first_line: dict[tuple[str, date], int] = {}
    for lineno, (keyword, raw_start, raw_day, raw_value) in read_csv_rows(path, SEGMENT_HEADER):
        try:
            seg_start = parse_iso_date(raw_start)
            day = parse_iso_date(raw_day)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ParseError(f"bad value {raw_value!r}", lineno) from exc
        if not 0.0 <= value <= 100.0:
            raise RangeError(f"value {value} outside [0, 100]", lineno)
        offset = (day - seg_start).days
        if offset < 0 or offset >= SEGMENT_DAYS:
            raise ParseError(
                f"date {day.isoformat()} outside the 30-day segment starting {seg_start.isoformat()}",
                lineno,
            )
        key = (keyword, seg_start)
        bucket = groups.setdefault(key, {})
        first_line.setdefault(key, lineno)
        if day in bucket:
            raise ParseError(f"duplicate date {day.isoformat()} within segment", lineno)
        bucket[day] = value

    segments: list[DailySegment] = []
    for (keyword, seg_start), bucket in groups.items():
        if len(bucket) != SEGMENT_DAYS:
            raise ParseError(
                f"segment {keyword!r} starting {seg_start.isoformat()} has {len(bucket)} rows,"
                f" expected {SEGMENT_DAYS}",
                first_line[(keyword, seg_start)],
            )
        ordered = tuple(bucket[seg_start + timedelta(days=i)] for i in range(SEGMENT_DAYS))
        segments.append(DailySegment(keyword, seg_start, ordered))
    segments.sort(key=lambda s: (s.keyword, s.start_date))
    return segments


def load_weekly(path: str) -> dict[str, WeeklySeries]:
    """Parse a weekly CSV (``keyword,week_start,value``) grouped by keyword.

    A keyword whose week starts are not 7 days apart raises ParseError.
    """
    rows: dict[str, list[tuple[date, float]]] = {}
    for lineno, (keyword, raw_start, raw_value) in read_csv_rows(path, WEEKLY_HEADER):
        try:
            week_start = parse_iso_date(raw_start)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ParseError(f"bad value {raw_value!r}", lineno) from exc
        if not 0.0 <= value <= 100.0:
            raise RangeError(f"value {value} outside [0, 100]", lineno)
        rows.setdefault(keyword, []).append((week_start, value))
    out: dict[str, WeeklySeries] = {}
    for keyword, pairs in rows.items():
        pairs.sort(key=lambda p: p[0])
        try:
            out[keyword] = WeeklySeries(
                keyword,
                tuple(d for d, _ in pairs),
                tuple(v for _, v in pairs),
            )
        except ValueError as exc:  # the week starts' 7-day spacing
            raise ParseError(f"keyword {keyword!r}: {exc}") from exc
    return out


def rescale_daily(segments: Sequence[DailySegment], weekly: WeeklySeries) -> DateIndexedSeries:
    """Calibrate daily segments against the weekly reference.

    Within each segment, every week bucket gets the factor
    weekly_value / mean(segment values inside that week), 0 when the
    mean is 0; partial weeks at segment edges use just the days present.
    Days supplied by several segments take the arithmetic mean of their
    calibrated values. Raises CoverageError when a day in the covered
    span has no segment or its week is missing from the reference.
    """
    if not segments:
        raise CoverageError("no segments supplied")
    ordered = sorted(segments, key=lambda s: (s.start_date, s.values))
    d0 = min(s.start_date for s in ordered)
    d1 = max(s.end_date for s in ordered)
    n_days = (d1 - d0).days + 1
    sums = [0.0] * n_days
    counts = [0] * n_days

    for seg in ordered:
        by_week: dict[int, list[tuple[int, float]]] = {}
        for day, value in seg.items():
            idx = weekly.week_index_of(day)
            if idx is None:
                raise CoverageError(
                    f"day {day.isoformat()} has no week in the weekly reference"
                )
            by_week.setdefault(idx, []).append(((day - d0).days, value))
        for idx, entries in sorted(by_week.items()):
            mean = sum(v for _, v in entries) / len(entries)
            factor = weekly.values[idx] / mean if mean > 0.0 else 0.0
            for offset, value in entries:
                sums[offset] += value * factor
                counts[offset] += 1

    missing = [d0 + timedelta(days=i) for i, c in enumerate(counts) if c == 0]
    if missing:
        shown = ", ".join(d.isoformat() for d in missing[:5])
        raise CoverageError(f"days covered by no segment: {shown}")
    return DateIndexedSeries(d0, [s / c for s, c in zip(sums, counts)])


def msv_merge(segments: Sequence[DailySegment]) -> DateIndexedSeries:
    """Chain segments forward from the earliest, estimating a correction
    factor on every overlap, then rescale so the maximum is exactly 100.

    The factor for a segment is the mean over overlap days of
    merged / segment, restricted to days where the segment value is
    positive (a factor of 1 when no such day exists). Overlap days keep
    the already-merged value; only the new tail is appended, scaled.
    Raises CoverageError when the merged overlap is zero on every such
    day: a factor of 0 would zero every later day of the series.
    """
    if not segments:
        raise NoOverlapError("no segments supplied")
    ordered = sorted(segments, key=lambda s: (s.start_date, s.values))

    anchor = ordered[0]
    d0 = anchor.start_date
    merged: list[float] = list(anchor.values)

    for seg in ordered[1:]:
        cur_end = d0 + timedelta(days=len(merged) - 1)
        if seg.start_date > cur_end:
            raise NoOverlapError(
                f"segment starting {seg.start_date.isoformat()} does not overlap"
                f" the merged range ending {cur_end.isoformat()}"
            )
        ratios: list[float] = []
        for day, value in seg.items():
            offset = (day - d0).days
            if offset < len(merged) and value > 0.0:
                ratios.append(merged[offset] / value)
        factor = sum(ratios) / len(ratios) if ratios else 1.0
        if factor == 0.0:
            raise CoverageError(
                f"keyword {seg.keyword!r}: segment starting {seg.start_date.isoformat()} is positive"
                " where the merged overlap is all zero, so its correction factor would be 0"
            )
        for day, value in seg.items():
            offset = (day - d0).days
            if offset >= len(merged):
                merged.append(value * factor)

    peak = max(merged)
    if peak > 0.0:
        merged = [(v / peak) * 100.0 for v in merged]
    return DateIndexedSeries(d0, merged)
