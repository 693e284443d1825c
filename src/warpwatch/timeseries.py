"""Canonical daily time series: contiguous calendar dates with finite values.

All pipeline stages exchange data through DateIndexedSeries, so validation
happens once at construction: no gaps, no duplicates, no NaN or infinity.
Dates are plain ``datetime.date`` values (ordinal day arithmetic only, no
time zones) and render as ISO-8601 at the I/O boundary.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DegenerateRangeError,
    DuplicateDateError,
    EmptySeriesError,
    GapError,
    NoOverlapError,
    NonFiniteValueError,
    ParseError,
)

CSV_HEADER = ("date", "value")


def read_only_array(values, ndim: int) -> np.ndarray:
    """Copy ``values`` into a read-only float64 array of ``ndim`` dimensions.

    Raises EmptySeriesError on empty input and NonFiniteValueError naming
    the first NaN or infinity.
    """
    array = np.array(values, dtype=float)
    if array.ndim != ndim:
        raise ValueError(f"expected {ndim}-dimensional values, got shape {array.shape}")
    if array.size == 0:
        raise EmptySeriesError("a series must hold at least one value")
    bad = ~np.isfinite(array)
    if bad.any():
        raise NonFiniteValueError(
            f"non-finite value {float(array[bad][0])!r} rejected at construction"
        )
    array.flags.writeable = False
    return array


def sequential_sum(values) -> float:
    """Left-to-right float sum, the same on every Python version.

    The builtin ``sum`` of floats became compensated in CPython 3.12, and
    ``np.sum`` adds pairwise; either would move artifact bits.
    """
    return float(np.add.accumulate(np.asarray(values, dtype=float))[-1])


@dataclass(frozen=True, eq=False)
class DateIndexedSeries:
    """Daily real-valued series; day ``i`` is exactly ``start_date + i`` days.

    Immutable after construction: values are copied once into a read-only
    1-D float64 array whose elements are all finite. Two series are equal
    when they share a start date and their values are equal.
    """

    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", read_only_array(self.values, 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DateIndexedSeries):
            return NotImplemented
        return self.start_date == other.start_date and np.array_equal(self.values, other.values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_date(self) -> date:
        return self.start_date + timedelta(days=len(self.values) - 1)

    def dates(self) -> Iterator[date]:
        for i in range(len(self.values)):
            yield self.start_date + timedelta(days=i)

    def items(self) -> Iterator[tuple[date, float]]:
        return zip(self.dates(), self.values.tolist())

    def value_on(self, day: date) -> float:
        idx = (day - self.start_date).days
        if idx < 0 or idx >= len(self.values):
            raise KeyError(f"{day.isoformat()} outside [{self.start_date}, {self.end_date}]")
        return float(self.values[idx])

    def covers(self, day: date) -> bool:
        return self.start_date <= day <= self.end_date


def validate_contiguous(raw_rows: Iterable[tuple[date, float]]) -> DateIndexedSeries:
    """Build a series from (date, value) rows, requiring one unbroken daily run.

    Rows may arrive in any order. Raises GapError listing every missing
    date, DuplicateDateError on a repeated date, and NonFiniteValueError
    (via the constructor) on NaN or infinity.
    """
    rows = sorted(raw_rows, key=lambda r: r[0])
    if not rows:
        raise EmptySeriesError("no rows supplied")
    seen: set[date] = set()
    missing: list[date] = []
    prev: date | None = None
    for d, _ in rows:
        if d in seen:
            raise DuplicateDateError(d)
        seen.add(d)
        if prev is not None and d > prev + timedelta(days=1):
            step = prev + timedelta(days=1)
            while step < d:
                missing.append(step)
                step += timedelta(days=1)
        prev = d
    if missing:
        raise GapError(missing)
    return DateIndexedSeries(rows[0][0], [v for _, v in rows])


def minmax_normalize(s: DateIndexedSeries) -> DateIndexedSeries:
    """Affinely map a series onto [0, 1]; min becomes 0 and max becomes 1.

    Raises DegenerateRangeError when all values are equal.
    """
    lo = s.values.min()
    hi = s.values.max()
    if hi == lo:
        raise DegenerateRangeError(f"constant series (all values {lo}) cannot be normalized")
    span = hi - lo
    return DateIndexedSeries(s.start_date, (s.values - lo) / span)


def align_ranges(
    a: DateIndexedSeries, b: DateIndexedSeries
) -> tuple[DateIndexedSeries, DateIndexedSeries]:
    """Trim both series to the intersection of their date ranges.

    Values inside the intersection are untouched. Raises NoOverlapError
    when the ranges are disjoint.
    """
    start = max(a.start_date, b.start_date)
    end = min(a.end_date, b.end_date)
    if start > end:
        raise NoOverlapError(
            f"no common days between [{a.start_date}, {a.end_date}]"
            f" and [{b.start_date}, {b.end_date}]"
        )

    def cut(s: DateIndexedSeries) -> DateIndexedSeries:
        i = (start - s.start_date).days
        j = (end - s.start_date).days + 1
        return DateIndexedSeries(start, s.values[i:j])

    return cut(a), cut(b)


def parse_iso_date(text: str) -> date:
    """Strict YYYY-MM-DD parser; anything else is a format violation."""
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise ValueError(f"bad date {text!r}: expected YYYY-MM-DD") from exc


def read_csv_rows(path: str, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based line number, stripped fields) for each data row.

    Accepts LF or CRLF and UTF-8. Blank lines and lines that begin with
    ``#`` (the provenance comment the CLI emits) are skipped; the first
    other line must be ``header`` and every later row must have as many
    fields. Violations raise ParseError with the line number.
    """
    expected = ",".join(header)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lineno = 0
        header_seen = False
        for row in csv.reader(fh):
            lineno += 1
            if not row or row[0].startswith("#"):
                continue
            if not header_seen:
                if tuple(c.strip() for c in row) != header:
                    raise ParseError(f"expected header {expected!r}, got {','.join(row)!r}", lineno)
                header_seen = True
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", lineno)
            yield lineno, [c.strip() for c in row]
        if not header_seen:
            raise ParseError(f"empty file: missing {expected!r} header", max(lineno, 1))


def read_series_csv(path: str) -> DateIndexedSeries:
    """Read a ``date,value`` CSV into a validated contiguous series."""
    rows: list[tuple[date, float]] = []
    for lineno, (raw_day, raw_value) in read_csv_rows(path, CSV_HEADER):
        try:
            d = parse_iso_date(raw_day)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        try:
            v = float(raw_value)
        except ValueError as exc:
            raise ParseError(f"bad value {raw_value!r}", lineno) from exc
        rows.append((d, v))
    if not rows:
        raise EmptySeriesError(f"{path} holds a header but no rows")
    return validate_contiguous(rows)


def format_value(v: float) -> str:
    """Render a number with 9 significant digits (stable across platforms)."""
    return format(float(v), ".9g")


def write_series_csv(series: DateIndexedSeries, path: str, preamble: str | None = None) -> None:
    """Write a series as ``date,value`` rows; optional ``#`` comment line first."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if preamble is not None:
            fh.write(f"# {preamble}\n")
        fh.write("date,value\n")
        for d, v in series.items():
            fh.write(f"{d.isoformat()},{format_value(v)}\n")
