"""Line-list ingestion and daily confirmed / removed / active case series.

The line-list CSV carries one row per patient with a confirmation date
and an optional removal date (recovery or death). Active cases follow
the recurrence A_t = A_{t-1} + C_t - R_t initialized at zero over the
study range; removals recorded before the range can pull the raw value
negative, in which case it is clamped to 0 and the day is reported on
the data-quality log.
"""

from __future__ import annotations

import csv
import logging
import os
from datetime import date, timedelta
from enum import Enum

import numpy as np

from .errors import MissingColumnError, ParseError, RangeMismatchError
from .timeseries import (
    COLUMNAR_MIN_BYTES,
    DateIndexedSeries,
    iso_date_ordinals,
    parse_date_field,
    read_plain_blocks,
)

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("RegionRes", "ProvinceRes", "DateRepConf", "DateRepRem")


class CaseKind(str, Enum):
    CONFIRMED = "confirmed"
    ACTIVE = "active"


def load_linelist(path: str, region: str, province: str) -> np.ndarray:
    """Parse a line-list CSV keeping only rows matching region and province.

    Returns an ``(n, 2)`` int64 array with one row per kept line, in file
    order: column 0 holds the confirmation day's ordinal, column 1 the
    removal day's ordinal, or 0 where there is none. Removal before
    confirmation is tolerated: real line lists are dirty and the
    active-case clamp absorbs it.

    Extra columns are ignored; the four required ones must be present.
    Blank region or province fields never match the filter. Dates are
    validated only on retained rows (off-region rows may be arbitrarily
    dirty), and a malformed date raises ParseError with its line number.
    A UTF-8 byte-order mark is skipped.

    A plain file (see ``read_plain_blocks``) of at least
    ``COLUMNAR_MIN_BYTES`` whose retained rows are all valid is read
    column-wise: the filter runs on whole columns, then only the retained
    rows' dates are decoded. Any other file, and every error,
    goes through the row parser, which alone words the messages.
    """
    rows = None
    if os.path.getsize(path) >= COLUMNAR_MIN_BYTES:
        rows = _linelist_from_columns(path, region, province)
    return _linelist_from_rows(path, region, province) if rows is None else rows


def _linelist_from_columns(path: str, region: str, province: str) -> np.ndarray | None:
    """``load_linelist`` of a plain file whose retained rows are valid, one
    block of lines at a time; None otherwise."""
    kept = np.empty((0, 2), dtype=np.int64)
    n = 0
    for columns in read_plain_blocks(path, REQUIRED_COLUMNS, keep=("RegionRes", region.encode())):
        if columns is None:
            return None
        keep = np.char.strip(columns["ProvinceRes"]) == province.encode()
        keep &= bool(region and province)
        removals = np.char.strip(columns["DateRepRem"][keep])
        has_removal = removals != b""
        # one decode for the block's confirmation dates, then its removal dates
        ordinals = iso_date_ordinals(np.concatenate((columns["DateRepConf"][keep], removals[has_removal])))
        if ordinals is None:
            return None
        k = len(removals)
        if n + k > len(kept):
            # in place and zero-filled, so no block's rows are held apart from the result and a row without
            # a removal keeps its 0; no view of ``kept`` outlives a statement, hence no reference check
            kept.resize((max(2 * len(kept), n + k), 2), refcheck=False)
        kept[n : n + k, 0] = ordinals[:k]
        kept[n + np.flatnonzero(has_removal), 1] = ordinals[k:]
        n += k
    kept.resize((n, 2), refcheck=False)
    return kept


def _linelist_from_rows(path: str, region: str, province: str) -> np.ndarray:
    """``load_linelist`` one CSV row at a time, with line-numbered errors."""
    rows: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header", 1) from None
        header = [h.strip() for h in header]
        col: dict[str, int] = {}
        for name in REQUIRED_COLUMNS:
            if name not in header:
                raise MissingColumnError(f"required column {name!r} absent from header")
            col[name] = header.index(name)
        for row in reader:
            if not row:
                continue
            if len(row) < len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", reader.line_num)
            reg = row[col["RegionRes"]].strip()
            prov = row[col["ProvinceRes"]].strip()
            if not reg or not prov or reg != region or prov != province:
                continue
            conf = parse_date_field(row[col["DateRepConf"]].strip(), reader.line_num)
            raw_rem = row[col["DateRepRem"]].strip()
            rem = 0
            if raw_rem:
                rem = parse_date_field(raw_rem, reader.line_num).toordinal()
            rows.append((conf.toordinal(), rem))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _zero_filled_counts(ordinals: np.ndarray, start: date, end: date) -> DateIndexedSeries:
    length = (end - start).days + 1
    if length < 1:
        raise ValueError(f"invalid range: {start} after {end}")
    # the no-removal sentinel 0 lies before every date, so it never counts
    offsets = ordinals - start.toordinal()
    return DateIndexedSeries(start, np.bincount(offsets[(offsets >= 0) & (offsets < length)], minlength=length))


def daily_confirmed(linelist: np.ndarray, start: date, end: date) -> DateIndexedSeries:
    """Count of rows confirmed on each day of [start, end], zero-filled."""
    return _zero_filled_counts(linelist[:, 0], start, end)


def daily_removed(linelist: np.ndarray, start: date, end: date) -> DateIndexedSeries:
    """Count of removals per day; rows without a removal date contribute nothing."""
    return _zero_filled_counts(linelist[:, 1], start, end)


def active_cases(confirmed: DateIndexedSeries, removed: DateIndexedSeries) -> DateIndexedSeries:
    """Run A_t = A_{t-1} + C_t - R_t from zero, clamping negatives to 0.

    Both series must hold nonnegative integer counts (ValueError) over the
    same days (RangeMismatchError). Each clamped day is logged at WARNING
    level with the raw value, so truncation artifacts stay visible without
    breaking the pipeline.
    """
    for series in (confirmed, removed):
        values = series.values
        bad = (values < 0) | (values != np.trunc(values))
        if bad.any():
            raise ValueError(f"case counts must be nonnegative integers, got {float(values[bad][0])}")
    if confirmed.start_date != removed.start_date or len(confirmed) != len(removed):
        raise RangeMismatchError(
            f"confirmed covers [{confirmed.start_date}, {confirmed.end_date}]"
            f" but removed covers [{removed.start_date}, {removed.end_date}]"
        )
    active: list[int] = []
    prev = 0
    for offset, (c, r) in enumerate(zip(confirmed.values.tolist(), removed.values.tolist())):
        raw = prev + int(c) - int(r)
        if raw < 0:
            day = confirmed.start_date + timedelta(days=offset)
            logger.warning("active-case clamp on %s: raw value %d set to 0", day.isoformat(), raw)
            raw = 0
        active.append(raw)
        prev = raw
    return DateIndexedSeries(confirmed.start_date, active)
