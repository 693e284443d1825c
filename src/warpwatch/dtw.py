"""Banded dynamic time warping with an absolute-difference local cost.

The accumulated-cost recursion admits steps from (i-1,j), (i,j-1) and
(i-1,j-1). A Sakoe-Chiba band of radius r restricts the path to cells
with |i - j| <= r; cells outside the band hold a +inf sentinel in the
full N x M matrix and are never selected as predecessors. All floating
comparisons are exact: sums of absolute differences at this scale do
not need an epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BandInfeasibleError, EmptySeriesError


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
class WarpingPath:
    """Monotone, continuous alignment as 1-based (i, j) pairs.

    A valid path starts at (1, 1), ends at (N, M), and each step is one
    of (1,0), (0,1), (1,1).
    """

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class DtwResult:
    distance: float
    path: WarpingPath
    band: BandSpec


def local_cost_matrix(x: Sequence[float], y: Sequence[float]) -> np.ndarray:
    """N x M matrix of absolute differences: entry (i, j) = |x_i - y_j|."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    for name, values in (("x", xs), ("y", ys)):
        if values.size == 0:
            raise EmptySeriesError(f"{name} is empty")
    return np.abs(xs[:, None] - ys[None, :])


def accumulated_cost_matrix(cost: np.ndarray, band: BandSpec) -> np.ndarray:
    """Populate the DP matrix over ``cost`` under ``band``.

    Out-of-band cells hold +inf. In-band cells are always reachable when
    the band admits the terminal cell, so no reachability bookkeeping is
    needed beyond the sentinel.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    inf = float("inf")
    cost_rows = cost.tolist()
    acc: list[list[float]] = [[inf] * m for _ in range(n)]
    acc[0][0] = cost_rows[0][0]
    for i in range(n):
        jlo, jhi = band.column_span(i, m)
        row = acc[i]
        crow = cost_rows[i]
        up = acc[i - 1] if i > 0 else None
        for j in range(jlo, jhi + 1):
            if i == 0 and j == 0:
                continue
            best = inf
            if up is not None:
                if j > 0 and up[j - 1] < best:
                    best = up[j - 1]
                if up[j] < best:
                    best = up[j]
            if j > 0 and row[j - 1] < best:
                best = row[j - 1]
            row[j] = crow[j] + best
    return np.asarray(acc, dtype=float)


def backtrack(accumulated: np.ndarray, band: BandSpec) -> WarpingPath:
    """Recover the optimal path from (N, M) back to (1, 1).

    Tie-break when several predecessors attain the minimum: diagonal
    (i-1, j-1) first, then (i-1, j), then (i, j-1). Out-of-band
    predecessors hold +inf and therefore never win.
    """
    acc = np.asarray(accumulated, dtype=float)
    n, m = acc.shape
    rows = acc.tolist()
    i, j = n - 1, m - 1
    if not band.admits(i, j) or not np.isfinite(rows[i][j]):
        raise ValueError("malformed accumulated matrix: terminal cell unreachable")
    pairs: list[tuple[int, int]] = [(n, m)]
    while i > 0 or j > 0:
        best = float("inf")
        step = None
        if i > 0 and j > 0 and rows[i - 1][j - 1] < best:
            best = rows[i - 1][j - 1]
            step = (i - 1, j - 1)
        if i > 0 and rows[i - 1][j] < best:
            best = rows[i - 1][j]
            step = (i - 1, j)
        if j > 0 and rows[i][j - 1] < best:
            best = rows[i][j - 1]
            step = (i, j - 1)
        if step is None:
            raise ValueError(f"malformed accumulated matrix: no finite predecessor at ({i}, {j})")
        i, j = step
        pairs.append((i + 1, j + 1))
    pairs.reverse()
    return WarpingPath(tuple(pairs))


def dtw(
    x: Sequence[float],
    y: Sequence[float],
    band: BandSpec | None = None,
) -> DtwResult:
    """Optimal banded alignment of ``x`` onto ``y``, both costed as given.

    Raises BandInfeasibleError when the length gap exceeds the band radius.
    """
    if band is None:
        band = BandSpec.unconstrained()
    cost = local_cost_matrix(x, y)
    band.check_feasible(*cost.shape)
    acc = accumulated_cost_matrix(cost, band)
    path = backtrack(acc, band)
    return DtwResult(distance=float(acc[-1, -1]), path=path, band=band)
