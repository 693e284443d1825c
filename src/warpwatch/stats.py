"""Rank statistics for the parameter sweep: Kruskal-Wallis H and its p-value.

One stable sort gives both the average ranks and the tie sum. The
chi-square survival function is the exact closed form for an
integer number of degrees of freedom, dependency-free: dof // 2 terms
exp(-s) s^k / Gamma(k + 1), plus erfc for odd dof.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DegenerateGroupsError, NonFiniteValueError
from .timeseries import sequential_sum


def _ranks_and_ties(values: Sequence[float]) -> tuple[np.ndarray, int]:
    """Average ranks (ties share theirs) and the tie sum over runs of t equal values, sum(t^3 - t)."""
    values = np.asarray(values, dtype=float)
    if not values.size:
        raise DegenerateGroupsError("cannot rank an empty sequence")
    if not np.isfinite(values).all():
        raise NonFiniteValueError(f"cannot rank non-finite value {float(values[~np.isfinite(values)][0])!r}")
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # a run of t equal values starting at 0-based position s shares the average of ranks s+1..s+t
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((2 * starts + counts + 1) / 2.0, counts)
    runs = counts.astype(object)  # Python ints: t^3 leaves int64 from t = 2^21
    return ranks, (runs ** 3 - runs).sum()


def rank_with_ties(values: Sequence[float]) -> list[float]:
    """Ascending ranks with ties sharing their average rank.

    Ranks always sum to n (n + 1) / 2. Raises DegenerateGroupsError on
    empty input and NonFiniteValueError on a NaN or infinite value.
    """
    return _ranks_and_ties(values)[0].tolist()


def chi_square_sf(x: float, dof: int) -> float:
    """Survival function of the chi-square distribution with integer ``dof``.

    With s = x / 2, it is exp(-s) sum_{i < dof/2} s^i / i! for even dof,
    and erfc(sqrt(s)) + exp(-s) sum_{i=1}^{(dof-1)/2} s^(i-1/2) / Gamma(i+1/2)
    for odd dof. Each term is taken in log space, so none overflows and
    exp(-s) underflowing on its own does not zero a large dof's sum; a
    sum that rounds above 1 reads 1.
    """
    if not float(dof).is_integer() or dof < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {dof}")
    if not x >= 0.0:
        raise ValueError(f"statistic must be nonnegative, got {x}")
    if x == math.inf:
        return 0.0
    s = x / 2.0
    if s == 0.0:
        return 1.0
    total = math.erfc(math.sqrt(s)) if dof % 2 else 0.0
    for i in range(int(dof) // 2):
        k = i + (dof % 2) / 2.0  # s's exponent: i, or (i + 1) - 1/2 in the odd sum's indexing
        total += math.exp(k * math.log(s) - s - math.lgamma(k + 1.0))
    return min(total, 1.0)


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Kruskal-Wallis H with tie correction and chi-square p-value.

    When every pooled value is identical the tie correction vanishes;
    H is defined as 0 and p as 1 rather than erroring. Structural
    violations (fewer than two groups, an empty group, fewer than three
    values overall) raise DegenerateGroupsError, and a NaN or infinite
    value raises NonFiniteValueError.
    """
    if len(groups) < 2:
        raise DegenerateGroupsError(f"need at least 2 groups, got {len(groups)}")
    sizes = [len(g) for g in groups]
    if any(s == 0 for s in sizes):
        raise DegenerateGroupsError("every group must be non-empty")
    n = sum(sizes)
    if n < 3:
        raise DegenerateGroupsError(f"need at least 3 values overall, got {n}")

    ranks, tie_sum = _ranks_and_ties(np.concatenate(groups, dtype=float))
    # ranks are half-integers, so each group's rank sum is exact in any order
    r_sums = np.add.reduceat(ranks, np.cumsum(sizes) - sizes)
    h = 12.0 / (n * (n + 1)) * sequential_sum(r_sums * r_sums / sizes) - 3.0 * (n + 1)

    correction = 1.0 - tie_sum / (n ** 3 - n)
    if correction == 0.0:
        return 0.0, 1.0
    h = max(h / correction, 0.0)
    p = chi_square_sf(h, len(groups) - 1)
    return h, p
