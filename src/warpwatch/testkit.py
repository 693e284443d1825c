"""Reproducible synthetic data for the ``synth`` subcommand, the example
scripts and the tests.

Nothing here is part of the analysis pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

from .timeseries import DateIndexedSeries, format_value

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

    case = DateIndexedSeries(sc.start_date, [float(format_value(v)) for v in case_values])
    metric = DateIndexedSeries(sc.start_date, [float(format_value(v)) for v in noisy])
    return case, metric
