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
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import MissingColumnError, ParseError, RangeMismatchError
from .timeseries import (
    COLUMNAR_MIN_BYTES,
    DateIndexedSeries,
    iso_date_ordinals,
    parse_iso_date,
    read_plain_columns,
)

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("RegionRes", "ProvinceRes", "DateRepConf", "DateRepRem")


class CaseKind(str, Enum):
    CONFIRMED = "confirmed"
    REMOVED = "removed"
    ACTIVE = "active"


@dataclass(frozen=True)
class LineListRecord:
    """One patient row. Removal-before-confirmation is tolerated: real
    line lists are dirty and the active-case clamp absorbs it."""

    region_res: str
    province_res: str
    date_rep_conf: date
    date_rep_rem: date | None


@dataclass(frozen=True)
class CaseSeries:
    """Daily nonnegative integer counts of one kind."""

    kind: CaseKind
    series: DateIndexedSeries

    def __post_init__(self) -> None:
        values = self.series.values
        bad = (values < 0) | (values != np.trunc(values))
        if bad.any():
            raise ValueError(f"case counts must be nonnegative integers, got {float(values[bad][0])}")


def load_linelist(path: str, region: str, province: str) -> list[LineListRecord]:
    """Parse a line-list CSV keeping only rows matching region and province.

    Extra columns are ignored; the four required ones must be present.
    Blank region or province fields never match the filter. Dates are
    validated only on retained rows (off-region rows may be arbitrarily
    dirty), and a malformed date raises ParseError with its row number.
    A UTF-8 byte-order mark is skipped.

    A plain file (see ``read_plain_columns``) of at least
    ``COLUMNAR_MIN_BYTES`` whose retained rows are all valid is read
    column-wise: the filter runs on whole columns, then only the retained
    rows' distinct dates are parsed. Any other file, and every error,
    goes through the row parser, which alone words the messages.
    """
    records = None
    if os.path.getsize(path) >= COLUMNAR_MIN_BYTES:
        records = _linelist_from_columns(path, region, province)
    return _linelist_from_rows(path, region, province) if records is None else records


def _linelist_from_columns(path: str, region: str, province: str) -> list[LineListRecord] | None:
    """``load_linelist`` of a plain file whose retained rows are valid; None otherwise."""
    columns = read_plain_columns(path, REQUIRED_COLUMNS)
    if columns is None:
        return None
    keep = (np.char.strip(columns["RegionRes"]) == region.encode()) & (
        np.char.strip(columns["ProvinceRes"]) == province.encode()
    )
    keep &= bool(region and province)
    confirmed = iso_date_ordinals(columns["DateRepConf"][keep])
    raw_removed = np.char.strip(columns["DateRepRem"][keep])
    del columns  # frees the loaded table before the records are built
    has_removal = raw_removed != b""
    removed = iso_date_ordinals(raw_removed[has_removal])
    if confirmed is None or removed is None:
        return None
    # key each row by its two day ordinals (0: no removal); rows with the
    # same key share one record, as records are immutable
    span = date.max.toordinal() + 1
    keys = confirmed.astype(np.int64) * span
    keys[has_removal] += removed
    keys, inverse = np.unique(keys, return_inverse=True)
    distinct = []
    for key in keys.tolist():
        conf, rem = divmod(key, span)
        distinct.append(LineListRecord(region, province, date.fromordinal(conf), date.fromordinal(rem) if rem else None))
    return [distinct[i] for i in inverse.ravel().tolist()]


def _linelist_from_rows(path: str, region: str, province: str) -> list[LineListRecord]:
    """``load_linelist`` one CSV row at a time, with line-numbered errors."""
    records: list[LineListRecord] = []
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
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", lineno)
            reg = row[col["RegionRes"]].strip()
            prov = row[col["ProvinceRes"]].strip()
            if not reg or not prov or reg != region or prov != province:
                continue
            raw_conf = row[col["DateRepConf"]].strip()
            try:
                conf = parse_iso_date(raw_conf)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            raw_rem = row[col["DateRepRem"]].strip()
            rem: date | None = None
            if raw_rem:
                try:
                    rem = parse_iso_date(raw_rem)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from exc
            records.append(LineListRecord(reg, prov, conf, rem))
    return records


def _zero_filled_counts(
    days: Sequence[date], start: date, end: date, kind: CaseKind
) -> CaseSeries:
    length = (end - start).days + 1
    if length < 1:
        raise ValueError(f"invalid range: {start} after {end}")
    counts = [0] * length
    for d in days:
        offset = (d - start).days
        if 0 <= offset < length:
            counts[offset] += 1
    return CaseSeries(kind, DateIndexedSeries(start, counts))


def daily_confirmed(records: Sequence[LineListRecord], start: date, end: date) -> CaseSeries:
    """Count of records confirmed on each day of [start, end], zero-filled."""
    return _zero_filled_counts([r.date_rep_conf for r in records], start, end, CaseKind.CONFIRMED)


def daily_removed(records: Sequence[LineListRecord], start: date, end: date) -> CaseSeries:
    """Count of removals per day; records without a removal date contribute nothing."""
    days = [r.date_rep_rem for r in records if r.date_rep_rem is not None]
    return _zero_filled_counts(days, start, end, CaseKind.REMOVED)


def active_cases(confirmed: CaseSeries, removed: CaseSeries) -> CaseSeries:
    """Run A_t = A_{t-1} + C_t - R_t from zero, clamping negatives to 0.

    Each clamped day is logged at WARNING level with the raw value, so
    truncation artifacts stay visible without breaking the pipeline.
    """
    cs = confirmed.series
    rs = removed.series
    if cs.start_date != rs.start_date or len(cs) != len(rs):
        raise RangeMismatchError(
            f"confirmed covers [{cs.start_date}, {cs.end_date}]"
            f" but removed covers [{rs.start_date}, {rs.end_date}]"
        )
    active: list[int] = []
    prev = 0
    for offset, (c, r) in enumerate(zip(cs.values.tolist(), rs.values.tolist())):
        raw = prev + int(c) - int(r)
        if raw < 0:
            day = cs.start_date + timedelta(days=offset)
            logger.warning("active-case clamp on %s: raw value %d set to 0", day.isoformat(), raw)
            raw = 0
        active.append(raw)
        prev = raw
    return CaseSeries(CaseKind.ACTIVE, DateIndexedSeries(cs.start_date, active))
