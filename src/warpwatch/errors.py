"""Exception hierarchy shared across the pipeline.

Every domain error raised by this package derives from WarpwatchError so
callers (notably the CLI) can map failures onto exit codes in one place.
"""

from __future__ import annotations

import datetime


class WarpwatchError(Exception):
    """Base class for all errors raised by warpwatch."""


class EmptySeriesError(WarpwatchError):
    """A series or row set that must be non-empty was empty."""


class GapError(WarpwatchError):
    """Daily rows do not form one unbroken run of calendar days."""

    def __init__(self, missing_dates: list[datetime.date]):
        self.missing_dates = list(missing_dates)
        shown = ", ".join(d.isoformat() for d in self.missing_dates[:10])
        more = "" if len(self.missing_dates) <= 10 else f" (+{len(self.missing_dates) - 10} more)"
        super().__init__(f"missing dates: {shown}{more}")


class DuplicateDateError(WarpwatchError):
    """The same calendar date appeared more than once."""

    def __init__(self, duplicate: datetime.date):
        self.duplicate = duplicate
        super().__init__(f"duplicate date: {duplicate.isoformat()}")


class NonFiniteValueError(WarpwatchError):
    """A NaN or infinite value was offered, or arose by overflow, where only finite values are defined."""


class DegenerateRangeError(WarpwatchError):
    """Min-max normalization is undefined for a constant series."""


class NoOverlapError(WarpwatchError):
    """Two date ranges (or consecutive segments) share no days."""


class BandInfeasibleError(WarpwatchError):
    """The Sakoe-Chiba band excludes the terminal cell (length gap > radius)."""


class UsageError(WarpwatchError):
    """A command-line flag holds a value outside its documented domain."""


class ParseError(WarpwatchError):
    """A file violated its documented format. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = "" if line is None else f" (line {line})"
        super().__init__(f"{message}{where}")


class RangeError(WarpwatchError):
    """A relative-search-volume value fell outside [0, 100]."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = "" if line is None else f" (line {line})"
        super().__init__(f"{message}{where}")


class CoverageError(WarpwatchError):
    """A day was covered by no segment, or its week is absent from the weekly reference."""


class LengthMismatchError(WarpwatchError):
    """Two vectors that must be the same length were not."""


class WindowTooShortError(WarpwatchError):
    """A correlation window shorter than 2 observations carries no signal."""


class InsufficientHistoryError(WarpwatchError):
    """The panel does not reach back far enough for the requested window."""


class TooFewNodesError(WarpwatchError):
    """Network density is undefined on fewer than 2 nodes."""


class MissingColumnError(WarpwatchError):
    """A required CSV column is absent from the header."""


class RangeMismatchError(WarpwatchError):
    """Two case series that must share a date range did not."""


class DegenerateGroupsError(WarpwatchError):
    """Kruskal-Wallis needs at least two non-empty groups and three values."""
