"""Canonical daily time series: contiguous calendar dates with finite values.

All pipeline stages exchange data through DateIndexedSeries, so validation
happens once at construction: no gaps, no duplicates, no NaN or infinity.
Dates are plain ``datetime.date`` values (ordinal day arithmetic only, no
time zones) and render as ISO-8601 at the I/O boundary.
"""

from __future__ import annotations

import codecs
import csv
import os
import re
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterable, Iterator, Sequence

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

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_DATE_DIGITS = (0, 1, 2, 3, 5, 6, 8, 9)  # where YYYY-MM-DD keeps its digits
# bytes a plain CSV may hold: printable ASCII but the quote character, and line ends
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).translate(None, b'"') + b"\r\n"
# bytes per read of the block reader: on a 315k-row segment file, 256 KiB
# raised the loading process's peak RSS by 1.2 MB (0.9 MB on a 300k-row line
# list) at about the same speed; 64 KiB saved 0.6 MB more for 0.04 s a load
_SCAN_BYTES = 1 << 17
# The loaders send smaller files straight to their row parsers: those are
# about as fast there, and the block reader's fixed cost (the numpy code it
# pages in, and its per-block arrays) would raise a sweep's peak RSS: by
# 0.63-0.65 MB on sweep-wide and 0.55 MB on sweep-long, 3 runs each with
# the threshold at 0 on the benchmark's seed-0 sweep inputs.
COLUMNAR_MIN_BYTES = 1 << 20


def read_only_array(values, ndim: int) -> np.ndarray:
    """Copy ``values`` into a read-only float64 array of ``ndim`` dimensions.

    Raises EmptySeriesError on empty input and NonFiniteValueError naming
    the first NaN or infinity, and its 0-based row when ``ndim`` is 2.
    """
    array = np.array(values, dtype=float)
    if array.ndim != ndim:
        raise ValueError(f"expected {ndim}-dimensional values, got shape {array.shape}")
    if array.size == 0:
        raise EmptySeriesError("a series must hold at least one value")
    if not np.isfinite(array).all():
        where = tuple(np.argwhere(~np.isfinite(array))[0])
        row = f" in row {where[0]}" if ndim == 2 else ""
        raise NonFiniteValueError(f"non-finite value {float(array[where])!r} rejected at construction{row}")
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
    """Strict YYYY-MM-DD parser; anything else is a format violation.

    The shape is checked first: ``date.fromisoformat`` alone also takes
    ``20200301`` and ``2020-W10-1`` on Python 3.11 and later.
    """
    message = f"bad date {text!r}: expected YYYY-MM-DD"
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(message)
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise ValueError(message) from exc


def iso_date_ordinals(column: np.ndarray) -> np.ndarray | None:
    """Int64 day ordinals of a byte-string column of dates, or None unless
    every entry, stripped of ASCII whitespace, is a date ``parse_iso_date`` accepts.

    The YYYY-MM-DD shape is checked with array operations, then numpy's
    ISO parser judges the calendar: on digit strings of that shape both
    accept the same dates, except year 0000, which numpy takes and
    ``date`` does not.
    """
    if column.dtype.itemsize != 10:
        column = np.char.strip(column)
        if (np.char.str_len(column) != 10).any():
            return None
    column = np.ascontiguousarray(column, dtype="S10")
    chars = column.view(np.uint8).reshape(-1, 10) - np.uint8(48)
    if (chars[:, [4, 7]] != 253).any() or (chars[:, _DATE_DIGITS] > 9).any():  # "-" is 45, 253 after the shift
        return None
    try:
        ordinals = column.astype("datetime64[D]").view(np.int64)
    except ValueError:
        return None
    ordinals += date(1970, 1, 1).toordinal()  # in place: a chained copy raised the loaders' peak RSS
    return None if (ordinals < 1).any() else ordinals


def read_csv_rows(path: str, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based line number, stripped fields) for each data row; a
    row that spans lines is numbered by the line it ends on.

    Accepts LF or CRLF and UTF-8, with or without a byte-order mark.
    Blank lines and lines that begin with ``#`` (the provenance comment
    the CLI emits) are skipped; the first other line must be ``header``
    and every later row must have as many fields. Violations raise
    ParseError with the line number. This row parser is the one place
    format errors are worded; the loaders' columnar reads
    (``read_plain_blocks``) hand any file they cannot vouch for back to it.
    """
    expected = ",".join(header)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header_seen = False
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if not header_seen:
                if tuple(c.strip() for c in row) != header:
                    raise ParseError(f"expected header {expected!r}, got {','.join(row)!r}", reader.line_num)
                header_seen = True
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", reader.line_num)
            yield reader.line_num, [c.strip() for c in row]
        if not header_seen:
            raise ParseError(f"empty file: missing {expected!r} header", max(reader.line_num, 1))


def read_plain_blocks(
    path: str, names: Sequence[str], floats: Sequence[str] = (), exact: bool = False,
    keep: tuple[str, bytes] | None = None,
) -> Iterator[dict[str, np.ndarray] | None]:
    """Columns ``names`` of a plain CSV, one dict per block of whole lines
    read in one pass, each block's fields cut at the offsets of its
    commas and line ends; a last None when the file is not plain.

    A plain file, after an optional UTF-8 byte-order mark, is printable
    ASCII with LF or CRLF line ends, holds no ``"`` and no line that
    starts with ``#``, and has a header line plus at least one row, every
    line with as many comma-separated fields as the header. The header's
    stripped fields must equal ``names`` when ``exact`` and contain them
    otherwise (the first match counts). Columns in ``floats`` come back
    as float64, each field read as Python's ``float`` reads it, the rest
    unstripped as byte strings as wide as the block's longest field, so
    nothing is truncated; in a CRLF file the last field keeps its ``\r``. With
    ``keep``, one of ``names`` and a value, only the rows whose stripped
    field there equals the value are cut and yielded; the others are only checked. A
    caller that meets None drops what the earlier blocks gave it: None
    says nothing about validity, the caller's row parser decides and
    words any error.
    """
    columns = None
    with open(path, "rb") as fh:
        first = fh.readline().removeprefix(codecs.BOM_UTF8)
        fields = first.count(b",") + 1
        if first.endswith(b"\n") and _plain_separators(first, fields) is not None:
            header = [field.strip() for field in first.decode("ascii").rstrip("\r\n").split(",")]
            if (not exact or tuple(header) == tuple(names)) and set(names) <= set(header):
                usecols = [header.index(name) for name in names]
                keep_at = None if keep is None else (header.index(keep[0]), keep[1])
                for lines in _line_blocks(fh):
                    columns = _plain_block(lines, fields, names, usecols, floats, keep_at)
                    yield columns
                    if columns is None:
                        return
    if columns is None:
        yield None


def _plain_block(
    lines: bytes, fields: int, names: Sequence[str], usecols: list[int], floats: Sequence[str],
    keep: tuple[int, bytes] | None,
) -> dict[str, np.ndarray] | None:
    """One ``read_plain_blocks`` block of LF-terminated ``lines``, or None."""
    seps = _plain_separators(lines, fields)
    if seps is None:
        return None
    widths = np.diff(seps.ravel(), prepend=-1).reshape(seps.shape) - 1
    if keep is not None:
        # the other rows are dropped before any column is cut
        column, value = keep
        kept = np.char.strip(_fields(lines, seps[:, column], widths[:, column])) == value
        seps, widths = seps[kept], widths[kept]
    columns = {name: _fields(lines, seps[:, c], widths[:, c]) for name, c in zip(names, usecols)}
    try:
        return {name: column.astype(float) if name in floats else column for name, column in columns.items()}
    except ValueError:
        return None


def _fields(lines: bytes, ends: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The fields of ``lines`` that end at offsets ``ends``, ``widths``
    bytes wide, as byte strings as wide as the widest."""
    width = max(1, int(widths.max(initial=0)))
    chars = np.frombuffer(lines, dtype=np.uint8).take((ends - widths)[:, None] + np.arange(width), mode="clip")
    chars[np.arange(width) >= widths[:, None]] = 0
    return chars.view(f"S{width}").ravel()


def _line_blocks(fh) -> Iterator[bytes]:
    """The rest of binary file ``fh`` as blocks of whole LF-terminated lines,
    about ``_SCAN_BYTES`` each; a last line without LF gets one."""
    while block := fh.read(_SCAN_BYTES):
        block += fh.readline()
        yield block if block.endswith(b"\n") else block + b"\n"


def _plain_separators(lines: bytes, fields: int) -> np.ndarray | None:
    """Offsets of the comma or LF that ends each field, one row per line,
    of LF-terminated ``lines``; None unless they are plain (see
    ``read_plain_blocks``) and every line has exactly ``fields`` fields."""
    if lines.translate(None, _PLAIN_BYTES) or lines.startswith(b"#"):
        return None
    buf = np.frombuffer(lines, dtype=np.uint8)
    if b"\r" in lines and (buf[np.flatnonzero(buf == 13) + 1] != 10).any():
        return None
    seps = np.flatnonzero((buf == 44) | (buf == 10))
    if seps.size % fields:
        return None
    seps = seps.reshape(-1, fields)
    ends = seps[:, -1]
    if (buf[seps[:, :-1]] != 44).any() or (buf[ends] != 10).any() or (buf[ends[:-1] + 1] == 35).any():
        return None
    return seps


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


def write_csv(
    path: str | os.PathLike,
    header: Sequence[str],
    rows: Iterable[Sequence],
    preamble: str | None = None,
) -> None:
    """Write ``header`` then ``rows`` as LF-terminated CSV; optional ``#`` comment line first."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if preamble is not None:
            fh.write(f"# {preamble}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_series_csv(series: DateIndexedSeries, path: str, preamble: str | None = None) -> None:
    """Write a series as ``date,value`` rows; optional ``#`` comment line first."""
    write_csv(
        path, CSV_HEADER, ((d.isoformat(), format_value(v)) for d, v in series.items()), preamble
    )
