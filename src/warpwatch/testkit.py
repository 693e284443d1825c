"""Independent oracles and synthetic data for tests and acceptance checks.

Nothing here is part of the analysis pipeline. The oracles deliberately
take the slow road (full path enumeration, vertex-triple counting) so
they share no code path with the implementations they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

from .dtw import BandSpec
from .errors import BandInfeasibleError, EmptySeriesError, TooFewNodesError, TooLargeError
from .timeseries import DateIndexedSeries

_ORACLE_MAX_LEN = 8
_ORACLE_MAX_NODES = 8

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator, bit-reproducible anywhere.

    state' = state * 6364136223846793005 + 1442695040888963407 (mod 2^64);
    each draw returns the top 53 bits scaled into [0, 1).
    """

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def next_float(self) -> float:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        return (self.state >> 11) * 2.0 ** -53


@dataclass(frozen=True)
class SyntheticScenario:
    """Knobs for one synthetic case/metric pair; deterministic per seed."""

    length: int
    lag: int = 0
    noise_amplitude: float = 0.0
    seed: int = 0
    start_date: date = date(2020, 1, 1)

    def __post_init__(self) -> None:
        if self.length < 2:
            raise ValueError(f"length must be at least 2, got {self.length}")
        if not 0 <= self.lag < self.length:
            raise ValueError(f"lag must satisfy 0 <= lag < length, got {self.lag}")
        if not 0 <= self.noise_amplitude < math.inf:
            raise ValueError(f"noise amplitude must be finite and nonnegative, got {self.noise_amplitude}")


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


def synth_pair(sc: SyntheticScenario) -> tuple[DateIndexedSeries, DateIndexedSeries]:
    """Build a (case_like, metric_like) pair with a known lag.

    case_like is a smooth unimodal bump min-max scaled into [0, 1];
    metric_like is the same bump shifted ``lag`` days later, min-max
    scaled, plus seeded uniform noise in [-amplitude, +amplitude],
    clipped to [0, 1]. Every value is pre-rounded to 9 significant
    digits so the pair survives CSV round trips bit-exactly.
    """
    center = (sc.length - 1) / 2.0
    width = sc.length / 6.0

    def bump(u: float) -> float:
        z = (u - center) / width
        return math.exp(-0.5 * z * z)

    def scaled(shift: int) -> list[float]:
        raw = [bump(t - shift) for t in range(sc.length)]
        lo, hi = min(raw), max(raw)
        span = hi - lo
        return [(v - lo) / span for v in raw]

    case_values = scaled(0)
    metric_values = scaled(sc.lag)
    rng = Lcg(sc.seed)
    noisy = []
    for v in metric_values:
        v += sc.noise_amplitude * (2.0 * rng.next_float() - 1.0)
        noisy.append(min(1.0, max(0.0, v)))

    def round9(v: float) -> float:
        return float(format(v, ".9g"))

    case = DateIndexedSeries(sc.start_date, [round9(v) for v in case_values])
    metric = DateIndexedSeries(sc.start_date, [round9(v) for v in noisy])
    return case, metric
