"""Independent oracles the tests check the DTW and graph-metric code against.

They deliberately take the slow road (full path enumeration, vertex-triple
counting) so they share no code path with the implementations they check.
"""

from __future__ import annotations

import math

from warpwatch.dtw import BandSpec
from warpwatch.errors import BandInfeasibleError, EmptySeriesError, TooFewNodesError, TooLargeError

_ORACLE_MAX_LEN = 8
_ORACLE_MAX_NODES = 8


def admits(band: BandSpec, i: int, j: int) -> bool:
    """Whether ``band`` lets a warping path through cell (i, j)."""
    return band.radius is None or abs(i - j) <= band.radius


def brute_force_dtw(x, y, band: BandSpec | None = None) -> float:
    """Minimum path cost by enumerating every valid warping path.

    Exponential on purpose; inputs are capped at length 8. Raises
    BandInfeasibleError when the band admits no complete path.
    """
    band = band or BandSpec()
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if not xs or not ys:
        raise EmptySeriesError("oracle inputs must be non-empty")
    if len(xs) > _ORACLE_MAX_LEN or len(ys) > _ORACLE_MAX_LEN:
        raise TooLargeError(f"oracle capped at length {_ORACLE_MAX_LEN}")
    n, m = len(xs), len(ys)
    best = [math.inf]

    def walk(i: int, j: int, cost: float) -> None:
        if not admits(band, i, j):
            return
        cost += abs(xs[i] - ys[j])
        if i == n - 1 and j == m - 1:
            if cost < best[0]:
                best[0] = cost
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost)
        if i + 1 < n:
            walk(i + 1, j, cost)
        if j + 1 < m:
            walk(i, j + 1, cost)

    walk(0, 0, 0.0)
    if math.isinf(best[0]):
        raise BandInfeasibleError("no warping path fits inside the band")
    return best[0]


def graph_metric_oracle(n: int, edges) -> tuple[float, float]:
    """(density, transitivity) of the undirected graph on ``n`` nodes whose
    edges are (i, j) pairs with i < j, by direct counting over all vertex triples."""
    edges = frozenset(edges)
    if n > _ORACLE_MAX_NODES:
        raise TooLargeError(f"oracle capped at {_ORACLE_MAX_NODES} nodes")
    if n < 2:
        raise TooFewNodesError(f"density undefined on {n} node(s)")
    for i, j in edges:
        if not 0 <= i < j < n:
            raise ValueError(f"edge ({i}, {j}) invalid for {n} nodes")
    possible = n * (n - 1) // 2
    density = len(edges) / possible

    triangles = 0
    triplets = 0
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                present = sum(
                    1 for e in ((a, b), (a, c), (b, c)) if e in edges
                )
                if present == 3:
                    triangles += 1
                    triplets += 3
                elif present == 2:
                    triplets += 1
    transitivity = 3.0 * triangles / triplets if triplets else 0.0
    return density, transitivity
