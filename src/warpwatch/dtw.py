"""Banded dynamic time warping with an absolute-difference local cost.

The accumulated-cost recursion admits steps from (i-1,j), (i,j-1) and
(i-1,j-1). A Sakoe-Chiba band of radius r restricts the path to cells
with |i - j| <= r. Only the cells the band admits are stored, one row
per i, so memory grows with the band, not with N x M. All floating
comparisons are exact: sums of absolute differences at this scale do
not need an epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BandInfeasibleError, NonFiniteValueError
from .timeseries import read_only_array


@dataclass(frozen=True)
class BandSpec:
    """Global path constraint: unconstrained, or Sakoe-Chiba of radius ``radius``.

    ``radius is None`` means no constraint. A Sakoe-Chiba band admits cell
    (i, j) iff |i - j| <= radius; the test is index-base agnostic because
    both indices shift together.
    """

    radius: int | None = None

    def __post_init__(self) -> None:
        if self.radius is not None:
            if not isinstance(self.radius, int) or self.radius < 0:
                raise ValueError(f"radius must be a nonnegative integer, got {self.radius!r}")

    @classmethod
    def unconstrained(cls) -> "BandSpec":
        return cls(None)

    @classmethod
    def sakoe_chiba(cls, radius: int) -> "BandSpec":
        return cls(radius)

    def admits(self, i: int, j: int) -> bool:
        return self.radius is None or abs(i - j) <= self.radius

    def check_feasible(self, n: int, m: int) -> None:
        """The terminal cell (N, M) must sit inside the band."""
        if self.radius is not None and abs(n - m) > self.radius:
            raise BandInfeasibleError(
                f"|N-M| = {abs(n - m)} exceeds radius {self.radius}: cell (N,M) unreachable"
            )

    def column_span(self, i: int, m: int) -> tuple[int, int]:
        """Inclusive 0-based column range admitted in row ``i`` of an N x m matrix."""
        if self.radius is None:
            return 0, m - 1
        return max(0, i - self.radius), min(m - 1, i + self.radius)


@dataclass(frozen=True)
class DtwResult:
    """Optimal distance and its warping path.

    ``path`` holds 1-based (i, j) pairs from (1, 1) to (N, M); each step
    is one of (1,0), (0,1), (1,1).
    """

    distance: float
    path: tuple[tuple[int, int], ...]


def dtw(
    x: Sequence[float],
    y: Sequence[float],
    band: BandSpec | None = None,
) -> DtwResult:
    """Optimal banded alignment of ``x`` onto ``y``, both costed as given.

    Raises EmptySeriesError or NonFiniteValueError on empty or non-finite
    input, BandInfeasibleError when the length gap exceeds the band radius.
    """
    if band is None:
        band = BandSpec.unconstrained()
    xs = read_only_array(x, 1).tolist()
    ys = read_only_array(y, 1).tolist()
    n, m = len(xs), len(ys)
    band.check_feasible(n, m)
    inf = float("inf")
    # rows[i + 1][k] is the accumulated cost of cell (i, starts[i + 1] + k).
    # Row i spans columns column_span(i) plus one +inf pad at each end; the
    # virtual row -1 holds 0 at column -1, so (0, 0) needs no special case.
    starts = [-1]
    rows = [[0.0] + [inf] * m]
    for i, xi in enumerate(xs):
        lo, hi = band.column_span(i, m)
        up = rows[-1]
        off = lo - 1 - starts[-1]  # up[k + off] is column lo - 1 + k of row i - 1
        row = [inf] * (hi - lo + 3)
        left = inf
        for k, yj in enumerate(ys[lo : hi + 1], 1):
            best = up[k + off - 1]
            if up[k + off] < best:
                best = up[k + off]
            if left < best:
                best = left
            left = row[k] = abs(xi - yj) + best
        starts.append(lo - 1)
        rows.append(row)
    distance = rows[-1][-2]
    if distance == inf:
        raise NonFiniteValueError("DTW distance overflows float64")

    # Tie-break when several predecessors attain the minimum: diagonal
    # (i-1, j-1) first, then (i-1, j), then (i, j-1). The pads, and the
    # virtual row past column -1, hold +inf and therefore never win.
    i, j = n - 1, m - 1
    pairs = [(n, m)]
    while i > 0 or j > 0:
        up, row = rows[i], rows[i + 1]
        u, k = j - starts[i], j - starts[i + 1]
        step, best = (i - 1, j - 1), up[u - 1]
        if up[u] < best:
            step, best = (i - 1, j), up[u]
        if row[k - 1] < best:
            step = (i, j - 1)
        i, j = step
        pairs.append((i + 1, j + 1))
    pairs.reverse()
    return DtwResult(distance=distance, path=tuple(pairs))
