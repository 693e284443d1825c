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

import logging
import os
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .errors import CoverageError, NoOverlapError, ParseError, RangeError
from .timeseries import (
    COLUMNAR_MIN_BYTES,
    DateIndexedSeries,
    iso_date_ordinals,
    parse_iso_date,
    read_csv_rows,
    read_only_array,
    read_plain_columns,
    sequential_sum,
)

SEGMENT_DAYS = 30

SEGMENT_HEADER = ("keyword", "segment_start", "date", "value")
WEEKLY_HEADER = ("keyword", "week_start", "value")

logger = logging.getLogger(__name__)


def _scores(values, what: str, ndim: int = 1) -> np.ndarray:
    """Read-only float64 copy of ``values``; RangeError names the first outside [0, 100]."""
    array = read_only_array(values, ndim)
    outside = (array < 0.0) | (array > 100.0)
    if outside.any():
        raise RangeError(f"{what} value {float(array[outside][0])} outside [0, 100]")
    return array


@dataclass(frozen=True, eq=False)
class DailySegment:
    """Exactly 30 consecutive daily scores in [0, 100] for one keyword."""

    keyword: str
    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _scores(self.values, "segment"))
        if len(self.values) != SEGMENT_DAYS:
            raise ValueError(f"segment must hold exactly {SEGMENT_DAYS} values, got {len(self.values)}")

    @classmethod
    def from_rows(cls, keywords: Sequence[str], starts: Sequence[date], rows) -> list[DailySegment]:
        """One segment per row of the (segments, 30) array ``rows``.

        The constructor's checks run once on the whole array, and each
        segment's values are a read-only row of one copy of it.
        """
        block = _scores(rows, "segment", ndim=2)
        if block.shape[1] != SEGMENT_DAYS:
            raise ValueError(f"segment must hold exactly {SEGMENT_DAYS} values, got {block.shape[1]}")
        segments = []
        for keyword, start_date, values in zip(keywords, starts, block):
            segment = object.__new__(cls)
            segment.__dict__.update(keyword=keyword, start_date=start_date, values=values)
            segments.append(segment)
        return segments

    @property
    def end_date(self) -> date:
        return self.start_date + timedelta(days=SEGMENT_DAYS - 1)


@dataclass(frozen=True, eq=False)
class WeeklySeries:
    """Weekly scores in [0, 100]; week k is the 7 days starting
    ``start_date + 7k`` and defines a calibration bucket (the reference,
    not ISO weeks, owns the bucketing)."""

    keyword: str
    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _scores(self.values, "weekly"))


def _parse_score(raw: str, lineno: int) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(f"bad value {raw!r}", lineno) from exc
    if not 0.0 <= value <= 100.0:
        raise RangeError(f"value {value} outside [0, 100]", lineno)
    return value


def load_segments(path: str) -> list[DailySegment]:
    """Parse a segment CSV (``keyword,segment_start,date,value``) into segments.

    Rows are grouped by (keyword, segment_start); each group must supply
    exactly the 30 consecutive days starting at segment_start. Values
    outside [0, 100] raise RangeError; structural violations raise
    ParseError with the offending line number. Segments come back sorted
    by keyword, then start date.

    A plain file (see ``read_plain_columns``) of at least
    ``COLUMNAR_MIN_BYTES`` whose rows are all valid is read column-wise;
    any other file, and every error, goes through the row parser, which
    alone words the messages.
    """
    segments = None
    if os.path.getsize(path) >= COLUMNAR_MIN_BYTES:
        segments = _segments_from_columns(path)
    return _segments_from_rows(path) if segments is None else segments


def _segments_from_columns(path: str) -> list[DailySegment] | None:
    """``load_segments`` of a plain, valid file with array operations; None otherwise."""
    columns = read_plain_columns(path, SEGMENT_HEADER, floats=("value",), exact=True)
    if columns is None:
        return None
    starts = iso_date_ordinals(columns["segment_start"])
    offsets = iso_date_ordinals(columns["date"])
    values = np.ascontiguousarray(columns["value"])
    if starts is None or offsets is None or not ((values >= 0.0) & (values <= 100.0)).all():
        return None
    offsets -= starts
    if ((offsets < 0) | (offsets >= SEGMENT_DAYS)).any():
        return None
    # keyword codes in sorted-keyword order, decoded once per run of equal raw fields
    raw = columns.pop("keyword")
    heads = np.flatnonzero(np.concatenate(([True], raw[1:] != raw[:-1])))
    names = [k.decode("ascii").strip() for k in raw[heads].tolist()]
    keywords = sorted(set(names))
    code_of = {name: code for code, name in enumerate(keywords)}
    codes = np.repeat([code_of[name] for name in names], np.diff(heads, append=len(raw)))
    del columns, raw  # frees the loaded table before the sort

    # one cell per (keyword, start, offset); sorted, each group must hold offsets 0..29 once
    first = int(starts.min())
    span = int(starts.max()) - first + 1
    cells = (codes.astype(np.int64) * span + (starts - first)) * SEGMENT_DAYS + offsets
    if len(cells) % SEGMENT_DAYS:
        return None
    order = np.argsort(cells, kind="stable")
    grid = cells[order].reshape(-1, SEGMENT_DAYS)
    if (grid[:, 0] % SEGMENT_DAYS).any() or (grid != grid[:, :1] + np.arange(SEGMENT_DAYS)).any():
        return None
    codes, starts = np.divmod(grid[:, 0] // SEGMENT_DAYS, span)
    return DailySegment.from_rows(
        [keywords[c] for c in codes.tolist()],
        [date.fromordinal(first + s) for s in starts.tolist()],
        values[order].reshape(-1, SEGMENT_DAYS),
    )


def _segments_from_rows(path: str) -> list[DailySegment]:
    """``load_segments`` one CSV row at a time, with line-numbered errors."""
    slots: dict[tuple[str, date], list[float | None]] = {}
    first_line: dict[tuple[str, date], int] = {}
    for lineno, (keyword, raw_start, raw_day, raw_value) in read_csv_rows(path, SEGMENT_HEADER):
        try:
            seg_start = parse_iso_date(raw_start)
            day = parse_iso_date(raw_day)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        value = _parse_score(raw_value, lineno)
        offset = (day - seg_start).days
        if offset < 0 or offset >= SEGMENT_DAYS:
            raise ParseError(
                f"date {day.isoformat()} outside the 30-day segment starting {seg_start.isoformat()}",
                lineno,
            )
        key = (keyword, seg_start)
        row = slots.get(key)
        if row is None:
            row = slots[key] = [None] * SEGMENT_DAYS
            first_line[key] = lineno
        if row[offset] is not None:
            raise ParseError(f"duplicate date {day.isoformat()} within segment", lineno)
        row[offset] = value
    if not slots:
        raise ParseError("no segment rows after the header")

    segments: list[DailySegment] = []
    for (keyword, seg_start), row in slots.items():
        if None in row:
            raise ParseError(
                f"segment {keyword!r} starting {seg_start.isoformat()} has"
                f" {SEGMENT_DAYS - row.count(None)} rows, expected {SEGMENT_DAYS}",
                first_line[(keyword, seg_start)],
            )
        segments.append(DailySegment(keyword, seg_start, row))
    segments.sort(key=lambda s: (s.keyword, s.start_date))
    return segments


def load_weekly(path: str) -> dict[str, WeeklySeries]:
    """Parse a weekly CSV (``keyword,week_start,value``) grouped by keyword.

    Week starts of a keyword not 7 days apart raise ParseError at the later week's line.
    """
    rows: dict[str, list[tuple[date, float, int]]] = {}
    for lineno, (keyword, raw_start, raw_value) in read_csv_rows(path, WEEKLY_HEADER):
        try:
            week_start = parse_iso_date(raw_start)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        rows.setdefault(keyword, []).append((week_start, _parse_score(raw_value, lineno), lineno))
    out: dict[str, WeeklySeries] = {}
    for keyword, weeks in rows.items():
        weeks.sort(key=lambda w: w[0])
        for (a, _, _), (b, _, lineno) in zip(weeks, weeks[1:]):
            if (b - a).days != 7:
                raise ParseError(f"keyword {keyword!r}: week starts must be 7 days apart, got {a} then {b}", lineno)
        out[keyword] = WeeklySeries(keyword, weeks[0][0], [v for _, v, _ in weeks])
    return out


def _in_start_order(segments: Sequence[DailySegment]) -> list[DailySegment]:
    """Segments by start date, ties broken by their values, so input order never matters."""
    return sorted(segments, key=lambda s: (s.start_date, s.values.tolist()))


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
    ordered = _in_start_order(segments)
    d0 = ordered[0].start_date
    values = np.stack([s.values for s in ordered])
    # day offset from d0 and week bucket of every (segment, day) cell
    offsets = np.array([(s.start_date - d0).days for s in ordered])[:, None] + np.arange(SEGMENT_DAYS)
    weeks = (offsets + (d0 - weekly.start_date).days) // 7
    uncovered = ((weeks < 0) | (weeks >= len(weekly.values))).ravel()
    if uncovered.any():
        first = d0 + timedelta(days=int(offsets.ravel()[uncovered.argmax()]))
        raise CoverageError(f"day {first.isoformat()} has no week in the weekly reference")

    # one bucket per (segment, week); bincount adds in row order, as a loop would
    local = weeks - weeks[:, :1]
    buckets = (np.arange(len(ordered))[:, None] * (int(local.max()) + 1) + local).ravel()
    sums = np.bincount(buckets, weights=values.ravel())
    counts = np.bincount(buckets)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)[buckets]
    factors = np.divide(weekly.values[weeks.ravel()], means, out=np.zeros_like(means), where=means > 0.0)

    days = offsets.ravel()
    day_sums = np.bincount(days, weights=values.ravel() * factors)
    day_counts = np.bincount(days)
    missing = np.flatnonzero(day_counts == 0)
    if missing.size:
        shown = ", ".join((d0 + timedelta(days=int(i))).isoformat() for i in missing[:5])
        raise CoverageError(f"days covered by no segment: {shown}")
    return DateIndexedSeries(d0, day_sums / day_counts)


def msv_merge(segments: Sequence[DailySegment]) -> DateIndexedSeries:
    """Chain segments forward from the earliest, estimating a correction
    factor on every overlap, then rescale so the maximum is exactly 100.

    The factor for a segment is the mean over overlap days of
    merged / segment, restricted to days where the segment value is
    positive (a factor of 1, logged as a warning, when no such day
    exists). Overlap days keep the already-merged value; only the new
    tail is appended, scaled. Raises CoverageError when the merged
    overlap is zero on every such day: a factor of 0 would zero every
    later day of the series.
    """
    if not segments:
        raise NoOverlapError("no segments supplied")
    ordered = _in_start_order(segments)
    d0 = ordered[0].start_date
    merged = np.empty((ordered[-1].end_date - d0).days + 1)
    merged[:SEGMENT_DAYS] = ordered[0].values
    filled = SEGMENT_DAYS

    for seg in ordered[1:]:
        start = (seg.start_date - d0).days
        if start >= filled:
            raise NoOverlapError(
                f"segment starting {seg.start_date.isoformat()} does not overlap"
                f" the merged range ending {(d0 + timedelta(days=filled - 1)).isoformat()}"
            )
        head = seg.values[: filled - start]
        positive = head > 0.0
        ratios = merged[start:filled][positive] / head[positive]
        factor = sequential_sum(ratios) / ratios.size if ratios.size else 1.0
        if not ratios.size:
            logger.warning(
                "keyword %r: segment starting %s has no positive overlap day; correction factor 1 used",
                seg.keyword, seg.start_date.isoformat(),
            )
        if factor == 0.0:
            raise CoverageError(
                f"keyword {seg.keyword!r}: segment starting {seg.start_date.isoformat()} is positive"
                " where the merged overlap is all zero, so its correction factor would be 0"
            )
        tail = seg.values[filled - start :] * factor
        merged[filled : filled + tail.size] = tail
        filled += tail.size

    peak = merged.max()
    if peak > 0.0:
        merged = (merged / peak) * 100.0
    return DateIndexedSeries(d0, merged)
