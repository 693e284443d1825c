"""Banded dynamic time warping with an absolute-difference local cost.

The accumulated-cost recursion admits steps from (i-1,j), (i,j-1) and
(i-1,j-1). A Sakoe-Chiba band of radius r restricts the path to cells
with |i - j| <= r. The band is filled one anti-diagonal i + j at a time,
one numpy update per diagonal for one pair or a stack of pairs of any
lengths; only three diagonals are kept, with the pair axis last, plus
one int8 step code per band cell for a single pair's backtrack. All
floating comparisons are exact: sums of absolute differences at this
scale do not need an epsilon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BandInfeasibleError, LengthMismatchError, NonFiniteValueError
from .timeseries import read_only_array

# step code -> (di, dj) back to the predecessor, in tie-break order:
# diagonal (i-1, j-1) first, then (i-1, j), then (i, j-1)
_MOVES = ((1, 1), (1, 0), (0, 1))


@dataclass(frozen=True)
class BandSpec:
    """Global path constraint: unconstrained, or Sakoe-Chiba of radius ``radius``.

    ``radius is None`` means no constraint. A Sakoe-Chiba band admits cell
    (i, j) iff |i - j| <= radius; the test is index-base agnostic because
    both indices shift together.
    """

    radius: int | None = None

    def __post_init__(self) -> None:
        if self.radius is not None and (not isinstance(self.radius, int) or self.radius < 0):
            raise ValueError(f"radius must be a nonnegative integer, got {self.radius!r}")


@dataclass(frozen=True)
class DtwResult:
    """Optimal distance and its warping path.

    ``path`` holds 1-based (i, j) pairs from (1, 1) to (N, M); each step
    is one of (1,0), (0,1), (1,1).
    """

    distance: float
    path: tuple[tuple[int, int], ...]


def _stack_rows(values) -> list[np.ndarray]:
    """A stack's rows as read-only float64 series; rows may differ in length."""
    if len({np.size(row) for row in values}) < 2:
        return list(read_only_array(values, 2))
    rows = []
    for p, row in enumerate(values):
        try:
            rows.append(read_only_array(row, 1))
        except NonFiniteValueError as exc:
            raise NonFiniteValueError(f"{exc} in row {p}") from None
    return rows


def dtw(x: np.typing.ArrayLike, y: np.typing.ArrayLike, band: BandSpec | None = None) -> DtwResult | np.ndarray:
    """Optimal banded alignment of ``x`` onto ``y``, both costed as given.

    Two series give a DtwResult. Two stacks of k series, (k, N) arrays or
    sequences of series whose lengths differ by row, give the k row pairs'
    distances as a float64 array, through the same update but with no
    path; a pair whose distance overflows reads +inf there.

    Raises EmptySeriesError or NonFiniteValueError on empty or non-finite
    input, and on a single pair's overflowing distance; LengthMismatchError
    on stacks of unequal height; BandInfeasibleError when any pair has
    |N - M| > radius.
    """
    band = band or BandSpec()
    stacked = any(np.ndim(row) for row in x) if isinstance(x, (list, tuple)) else np.ndim(x) == 2
    xs, ys = (_stack_rows(x), _stack_rows(y)) if stacked else ([read_only_array(x, 1)], [read_only_array(y, 1)])
    if len(xs) != len(ys):
        raise LengthMismatchError(f"{len(xs)} x series against {len(ys)} y series")
    gap = max(abs(len(u) - len(v)) for u, v in zip(xs, ys))
    if band.radius is not None and gap > band.radius:
        raise BandInfeasibleError(f"|N-M| = {gap} exceeds radius {band.radius}: cell (N,M) unreachable")
    # pairs share the grid of the longest x and y, which holds each pair's band; pair p's cell
    # (i, j) reads x_p[i] and y_p[j], and no cell of p's own grid reads a padded one
    k, n, m = len(xs), max(map(len, xs)), max(map(len, ys))
    x_columns, y_reversed = np.zeros((n, k)), np.zeros((m, k))  # row m - 1 - j of y_reversed holds y[j]
    ends: dict[int, list[int]] = {}  # diagonal -> the pairs whose last cell lies on it
    for p, (u, v) in enumerate(zip(xs, ys)):
        x_columns[: len(u), p], y_reversed[m - len(v) :, p] = u, v[::-1]
        ends.setdefault(len(u) + len(v) - 2, []).append(p)
    radius = max(n, m) if band.radius is None else band.radius
    # anti-diagonal d = i + j holds the band cells of rows lo[d]..hi[d]; for a
    # single pair, steps[starts[d] + i - lo[d]] is the step code of cell (i, j)
    diagonals = range(n + m - 1)
    lo = [max(0, d - m + 1, (d - radius + 1) // 2) for d in diagonals]
    hi = [min(n - 1, d, (d + radius) // 2) for d in diagonals]
    starts = list(itertools.accumulate((h - l + 1 for l, h in zip(lo, hi)), initial=0))
    steps = None if stacked else np.empty(starts[-1], np.int8)
    # acc[d % 3][i + 1, p] is the accumulated cost of pair p's cell (i, d - i); every
    # entry outside the band holds +inf and never wins. Diagonal -2 holds 0 in row -1,
    # the virtual predecessor of (0, 0).
    acc = np.full((3, n + 1, k), np.inf)
    acc[1, 0] = 0.0
    planes, best_rows, distances = list(acc), np.empty((min(n, radius + 1), k)), np.empty(k)
    with np.errstate(over="ignore"):
        for d in diagonals:
            a, b, c = lo[d], hi[d] + 1, m - 1 - d
            before, prev, row = planes[(d + 1) % 3], planes[(d + 2) % 3], planes[d % 3]
            # the cheapest of the (diagonal, up, left) predecessors of rows a..b-1
            diag, up, left = before[a:b], prev[a:b], prev[a + 1 : b + 1]
            best = np.minimum(diag, up, out=best_rows[: b - a])
            np.minimum(best, left, out=best)
            # rows of diagonal d - 3 below this diagonal's band revert to +inf
            row[lo[d - 3] + 1 if d >= 3 else 0 : a + 1] = np.inf
            cost = np.subtract(x_columns[a:b], y_reversed[c + a : c + b], out=row[a + 1 : b + 1])
            np.add(np.abs(cost, out=cost), best, out=cost)
            for p in ends.get(d, ()):
                distances[p] = row[len(xs[p]), p]
            if steps is not None:
                # the first predecessor equal to best (costs are never NaN) wins
                # ties; summed in int8, since bool + bool would be a logical or
                s = (diag[:, 0] != best[:, 0]).view(np.int8)
                steps[starts[d] : starts[d + 1]] = s + (s & (up[:, 0] != best[:, 0]))
    if stacked:
        return distances
    distance = float(distances[0])
    if distance == np.inf:
        raise NonFiniteValueError("DTW distance overflows float64")

    i, j, pairs = n - 1, m - 1, [(n, m)]
    while i > 0 or j > 0:
        di, dj = _MOVES[steps[starts[i + j] + i - lo[i + j]]]
        i, j = i - di, j - dj
        pairs.append((i + 1, j + 1))
    pairs.reverse()
    return DtwResult(distance=distance, path=tuple(pairs))
