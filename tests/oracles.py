"""Independent oracles the tests check the DTW, distance-correlation and
graph-metric code against.

They deliberately take the slow road (full path enumeration, explicit
double loops with exactly rounded sums, vertex-triple counting) so they
share no code path with the implementations they check.
"""

from __future__ import annotations

import itertools
import math

from warpwatch.dtw import BandSpec
from warpwatch.errors import BandInfeasibleError, EmptySeriesError, TooFewNodesError

_ORACLE_MAX_LEN = 8
_ORACLE_MAX_NODES = 8


class TooLargeError(Exception):
    """An exhaustive oracle was asked to enumerate beyond its size bound."""


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


def _double_centred(xs: list[float]) -> list[list[float]]:
    """|x_i - x_j| less row mean i and column mean j, plus the grand mean, each mean an exactly rounded sum."""
    n = len(xs)
    d = [[abs(xs[i] - xs[j]) for j in range(n)] for i in range(n)]
    row = [math.fsum(d[i]) / n for i in range(n)]
    col = [math.fsum(d[i][j] for i in range(n)) / n for j in range(n)]
    grand = math.fsum(d[i][j] for i in range(n) for j in range(n)) / (n * n)
    return [[d[i][j] - row[i] - col[j] + grand for j in range(n)] for i in range(n)]


def distance_correlation_oracle(x, y) -> float:
    """Sample distance correlation of two equal-length windows by its definition
    (Szekely, Rizzo & Bakirov 2007): dCov^2 is the mean of the elementwise product
    of the double-centred distance matrices. 0 when either window is constant."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("oracle needs two windows of one length, at least 2")
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        return 0.0
    a, b = _double_centred(xs), _double_centred(ys)
    n = len(xs)

    def mean_product(p, q):
        return math.fsum(p[i][j] * q[i][j] for i in range(n) for j in range(n)) / (n * n)

    dcov2, dvarx2, dvary2 = mean_product(a, b), mean_product(a, a), mean_product(b, b)
    return min(1.0, math.sqrt(max(dcov2, 0.0) / math.sqrt(dvarx2 * dvary2)))



def kruskal_wallis_h_oracle(groups) -> float:
    """Tie-corrected Kruskal-Wallis H by loops (0 when every value is equal).

    Ranks come from a stable ``sorted`` and runs of equal values from
    ``itertools.groupby``; each group's rank sum and H's terms are added
    left to right, so the float operations are those ``stats.kruskal_wallis``
    does, in the same order.
    """
    pooled = [float(v) for g in groups for v in g]
    n = len(pooled)
    order = sorted(range(n), key=pooled.__getitem__)
    ranks = [0.0] * n
    tie_sum = start = 0
    for _, run in itertools.groupby(order, key=pooled.__getitem__):
        run = list(run)
        t = len(run)
        for k in run:
            ranks[k] = (2 * start + t + 1) / 2.0
        tie_sum += t ** 3 - t
        start += t
    h, start = 0.0, 0
    for g in groups:
        r_sum = 0.0
        for r in ranks[start : start + len(g)]:
            r_sum += r
        h += r_sum * r_sum / len(g)
        start += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - tie_sum / (n ** 3 - n)
    return 0.0 if correction == 0.0 else max(h / correction, 0.0)
