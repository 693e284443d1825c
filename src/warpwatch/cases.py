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
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import MissingColumnError, ParseError, RangeMismatchError
from .timeseries import DateIndexedSeries, parse_iso_date

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
    """
    records: list[LineListRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
