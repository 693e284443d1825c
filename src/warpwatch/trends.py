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

from .errors import CoverageError, NonFiniteValueError, NoOverlapError, ParseError, RangeError
from .timeseries import (
    COLUMNAR_MIN_BYTES,
    DateIndexedSeries,
    iso_date_ordinals,
    parse_iso_date,
    read_csv_rows,
    read_only_array,
    read_plain_blocks,
    sequential_sum,
)

SEGMENT_DAYS = 30
_START_BITS = 22  # every day ordinal, up to date.max's, is below 2**22
_MOVE_ROWS = 1024  # records moved at a time when ``_segments_from_columns`` widens them

SEGMENT_HEADER = ("keyword", "segment_start", "date", "value")
WEEKLY_HEADER = ("keyword", "week_start", "value")

logger = logging.getLogger(__name__)


def segment_array(keywords: Sequence[str], starts, values) -> np.ndarray:
    """Read-only structured array with one element per segment, in the order given.

    Fields: ``keyword`` (str), ``start`` (the int64 day ordinal of the
    first day) and ``values`` (its 30 float64 scores). Scores are checked
    where they are used, by ``rescale_daily`` and ``msv_merge``.
    """
    keywords = np.asarray(keywords, dtype=str)
    values = np.asarray(values, dtype=float)
    if values.shape[1:] != (SEGMENT_DAYS,) or len(values) != len(keywords):
        raise ValueError(f"segments must hold exactly {SEGMENT_DAYS} values each, got shape {values.shape}")
    segments = np.empty(len(keywords), dtype=_segment_dtype(keywords.dtype))
    segments["keyword"], segments["start"], segments["values"] = keywords, starts, values
    segments.flags.writeable = False
    return segments


def _segment_dtype(keyword: np.dtype) -> np.dtype:
    return np.dtype([("keyword", keyword), ("start", np.int64), ("values", float, SEGMENT_DAYS)])


@dataclass(frozen=True, eq=False)
class WeeklySeries:
    """Weekly scores in [0, 100]; week k is the 7 days starting
    ``start_date + 7k`` and defines a calibration bucket (the reference,
    not ISO weeks, owns the bucketing)."""

    keyword: str
    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        values = read_only_array(self.values, 1)
        outside = (values < 0.0) | (values > 100.0)
        if outside.any():
            raise RangeError(f"weekly value {float(values[outside][0])} outside [0, 100]")
        object.__setattr__(self, "values", values)


def _parse_score(raw: str, lineno: int) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(f"bad value {raw!r}", lineno) from exc
    if not 0.0 <= value <= 100.0:
        raise RangeError(f"value {value} outside [0, 100]", lineno)
    return value


def load_segments(path: str) -> np.ndarray:
    """Parse a segment CSV (``keyword,segment_start,date,value``) into a ``segment_array``.

    Rows are grouped by (keyword, segment_start); each group must supply
    exactly the 30 consecutive days starting at segment_start. Values
    outside [0, 100] raise RangeError; structural violations raise
    ParseError with the offending line number. Segments come back sorted
    by keyword, then start.

    A plain file (see ``read_plain_blocks``) of at least
    ``COLUMNAR_MIN_BYTES`` whose rows are all valid is read column-wise;
    any other file, and every error, goes through the row parser, which
    alone words the messages.
    """
    segments = None
    if os.path.getsize(path) >= COLUMNAR_MIN_BYTES:
        segments = _segments_from_columns(path)
    return _segments_from_rows(path) if segments is None else segments


def _segments_from_columns(path: str) -> np.ndarray | None:
    """``load_segments`` of a plain, valid file with array operations, one
    block of lines at a time; None otherwise. The result is built in the
    buffer the scores are scattered into, with no second copy of them."""
    # one (start, scores) record per segment, as many as the file could hold at 25 bytes a row, widened in
    # place into the result at the end; pages never written stay out of memory
    records = np.empty(os.path.getsize(path) // (25 * SEGMENT_DAYS), dtype=[("start", np.int64), ("values", float, SEGMENT_DAYS)])
    grid = records["values"]
    names: dict[str, int] = {}  # keyword codes
    ids: dict[int, int] = {}  # segment's record by its code << _START_BITS | start
    rows = 0
    for columns in read_plain_blocks(path, SEGMENT_HEADER, floats=("value",), exact=True):
        if columns is None:
            return None
        # a run of rows with equal raw keyword and start fields is one segment's: its start date is
        # parsed, its keyword decoded (once per run of equal keywords) and its id looked up once
        raw, start_fields, values = columns["keyword"], columns["segment_start"], columns["value"]
        changed = np.concatenate(([True], raw[1:] != raw[:-1]))
        heads = np.flatnonzero(changed | np.concatenate(([True], start_fields[1:] != start_fields[:-1])))
        lengths = np.diff(heads, append=len(raw))
        days = iso_date_ordinals(np.concatenate((start_fields[heads], columns["date"])))
        if days is None or not ((values >= 0.0) & (values <= 100.0)).all():
            return None
        starts = days[: len(heads)]
        offsets = days[len(heads) :] - np.repeat(starts, lengths)
        if ((offsets < 0) | (offsets >= SEGMENT_DAYS)).any():
            return None
        fresh = np.flatnonzero(changed)
        codes = [names.setdefault(field.decode("ascii").strip(), len(names)) for field in raw[fresh].tolist()]
        keys = np.repeat(np.array(codes, dtype=np.int64) << _START_BITS, np.diff(fresh, append=len(raw)))[heads] | starts
        filled = len(ids)
        runs = [ids.setdefault(key, len(ids)) for key in keys.tolist()]
        if len(ids) > len(grid):
            return None
        grid[filled : len(ids)] = np.nan  # not yet supplied: a valid score is never NaN
        grid[np.repeat(runs, lengths), offsets] = values
        rows += len(raw)
    # each segment must hold offsets 0..29 exactly once
    if rows != len(ids) * SEGMENT_DAYS or np.isnan(grid[: len(ids)]).any():
        return None
    codes, records["start"][: len(ids)] = np.divmod(np.fromiter(ids, dtype=np.int64, count=len(ids)), 1 << _START_BITS)
    del ids  # its tables go before the records widen: 0.2-0.4 MB off the peak
    labels = np.array(list(names))
    dtype, n = _segment_dtype(labels.dtype), len(codes)
    # widened in place unless the records outgrow the buffer (one long keyword among many short ones); moved from
    # the last chunk back, each chunk copied out first, so no record is overwritten before it moves
    fits = n * dtype.itemsize <= records.nbytes
    segments = records.view(np.uint8)[: n * dtype.itemsize].view(dtype) if fits else np.empty(n, dtype)
    for i in range((n - 1) // _MOVE_ROWS * _MOVE_ROWS, -1, -_MOVE_ROWS):
        chunk, part = records[i : min(i + _MOVE_ROWS, n)].copy(), segments[i : i + _MOVE_ROWS]
        part["start"], part["values"], part["keyword"] = chunk["start"], chunk["values"], labels[codes[i : i + _MOVE_ROWS]]
    segments.sort(order=["keyword", "start"])  # keys are unique, so any sort gives the row parser's order; the default allocates no buffer
    segments.flags.writeable = False
    return segments


def _segments_from_rows(path: str) -> np.ndarray:
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

    for (keyword, seg_start), row in slots.items():
        if None in row:
            raise ParseError(
                f"segment {keyword!r} starting {seg_start.isoformat()} has"
                f" {SEGMENT_DAYS - row.count(None)} rows, expected {SEGMENT_DAYS}",
                first_line[(keyword, seg_start)],
            )
    keys = sorted(slots)
    return segment_array([k for k, _ in keys], [s.toordinal() for _, s in keys], [slots[key] for key in keys])


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


def _in_start_order(segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and checked scores of ``segments`` by start, ties broken by
    their scores, so input order never matters. The first NaN or
    infinity, else the first score outside [0, 100], raises an error
    that names its segment's keyword and start."""
    values = segments["values"]
    for error, bad, what in (
        (NonFiniteValueError, ~np.isfinite(values), "non-finite value {!r}"),
        (RangeError, (values < 0.0) | (values > 100.0), "segment value {} outside [0, 100]"),
    ):
        if bad.any():
            row, day = divmod(int(bad.argmax()), SEGMENT_DAYS)
            start = date.fromordinal(int(segments["start"][row]))
            raise error(f"{what.format(float(values[row, day]))} in segment {str(segments['keyword'][row])!r} starting {start}")
    order = np.lexsort((*values.T[::-1], segments["start"]))
    return segments["start"][order], values[order]


def rescale_daily(segments: np.ndarray, weekly: WeeklySeries) -> DateIndexedSeries:
    """Calibrate daily segments against the weekly reference.

    Within each segment, every week bucket gets the factor
    weekly_value / mean(segment values inside that week), 0 when the
    mean is 0; partial weeks at segment edges use just the days present.
    Days supplied by several segments take the arithmetic mean of their
    calibrated values. Raises CoverageError when a day in the covered
    span has no segment or its week is missing from the reference.
    """
    if not len(segments):
        raise CoverageError("no segments supplied")
    starts, values = _in_start_order(segments)
    d0 = date.fromordinal(int(starts[0]))
    # day offset from d0 and week bucket of every (segment, day) cell
    offsets = (starts - starts[0])[:, None] + np.arange(SEGMENT_DAYS)
    weeks = (offsets + (d0 - weekly.start_date).days) // 7
    uncovered = ((weeks < 0) | (weeks >= len(weekly.values))).ravel()
    if uncovered.any():
        first = d0 + timedelta(days=int(offsets.ravel()[uncovered.argmax()]))
        raise CoverageError(f"day {first.isoformat()} has no week in the weekly reference")

    # one bucket per (segment, week); bincount adds in row order, as a loop would
    local = weeks - weeks[:, :1]
    buckets = (np.arange(len(values))[:, None] * (int(local.max()) + 1) + local).ravel()
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


def msv_merge(segments: np.ndarray) -> DateIndexedSeries:
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
    if not len(segments):
        raise NoOverlapError("no segments supplied")
    starts, values = _in_start_order(segments)
    keyword, d0 = str(segments["keyword"][0]), date.fromordinal(int(starts[0]))
    offsets = (starts - starts[0]).tolist()
    merged = np.empty(offsets[-1] + SEGMENT_DAYS)
    merged[:SEGMENT_DAYS] = values[0]
    filled = SEGMENT_DAYS

    for start, seg in zip(offsets[1:], values[1:]):
        if start >= filled:
            raise NoOverlapError(
                f"segment starting {(d0 + timedelta(days=start)).isoformat()} does not overlap"
                f" the merged range ending {(d0 + timedelta(days=filled - 1)).isoformat()}"
            )
        head = seg[: filled - start]
        positive = head > 0.0
        ratios = merged[start:filled][positive] / head[positive]
        factor = sequential_sum(ratios) / ratios.size if ratios.size else 1.0
        if not ratios.size:
            logger.warning(
                "keyword %r: segment starting %s has no positive overlap day; correction factor 1 used",
                keyword, (d0 + timedelta(days=start)).isoformat(),
            )
        if factor == 0.0:
            raise CoverageError(
                f"keyword {keyword!r}: segment starting {(d0 + timedelta(days=start)).isoformat()} is positive"
                " where the merged overlap is all zero, so its correction factor would be 0"
            )
        tail = seg[filled - start :] * factor
        merged[filled : filled + tail.size] = tail
        filled += tail.size

    peak = merged.max()
    if peak > 0.0:
        merged = (merged / peak) * 100.0
    return DateIndexedSeries(d0, merged)
