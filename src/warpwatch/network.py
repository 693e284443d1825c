"""Rolling distance-correlation networks over a keyword panel.

For each day t, pairwise distance correlations are computed over the
retrospective window [t - window + 1, t], thresholded into an undirected
graph, and summarized as network density or the global clustering
coefficient (transitivity). Both metrics live in [0, 1], which is why
the downstream alignment never normalizes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CoverageError,
    InsufficientHistoryError,
    LengthMismatchError,
    TooFewNodesError,
    WindowTooShortError,
)
from .timeseries import DateIndexedSeries, read_only_array


class MetricKind(str, Enum):
    DENSITY = "density"
    CLUSTERING = "clustering"


@dataclass(frozen=True, eq=False)
class KeywordPanel:
    """Aligned daily interest: row ``k`` of the read-only ``(keywords, days)``
    float64 ``values`` array is keyword ``k``'s series from ``start_date`` on."""

    keywords: tuple[str, ...]
    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.keywords)) != len(self.keywords):
            raise ValueError("keywords must be unique")
        values = read_only_array(self.values, 2)
        if values.shape[0] != len(self.keywords):
            raise ValueError("one row of values per keyword required")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_mapping(cls, by_keyword: Mapping[str, DateIndexedSeries]) -> "KeywordPanel":
        """Stack one series per keyword, in keyword order.

        Raises CoverageError naming the first keyword whose date range
        differs from the first keyword's.
        """
        keys = tuple(sorted(by_keyword))
        if not keys:
            raise ValueError("panel must hold at least one keyword")
        first = by_keyword[keys[0]]
        for key in keys[1:]:
            s = by_keyword[key]
            if s.start_date != first.start_date or len(s) != len(first):
                raise CoverageError(
                    f"keyword {key!r} covers [{s.start_date}, {s.end_date}]"
                    f" but {keys[0]!r} covers [{first.start_date}, {first.end_date}]"
                )
        return cls(keys, first.start_date, np.stack([by_keyword[k].values for k in keys]))

    def __len__(self) -> int:
        return self.values.shape[1]

    @property
    def end_date(self) -> date:
        return self.start_date + timedelta(days=len(self) - 1)

    @property
    def n_keywords(self) -> int:
        return len(self.keywords)


@dataclass(frozen=True)
class NetworkMetricSeries:
    metric_kind: MetricKind
    series: DateIndexedSeries

    def __post_init__(self) -> None:
        values = self.series.values
        outside = (values < 0.0) | (values > 1.0)
        if outside.any():
            raise ValueError(f"metric value {float(values[outside][0])} outside [0, 1]")


def distance_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Distance correlation of two equal-length windows, in [0, 1].

    Pairwise absolute-difference matrices are double-centered (row mean
    and column mean subtracted, grand mean added back); the squared
    distance covariance is the mean of their elementwise product and the
    distance variances follow the same recipe against themselves. A
    window with zero distance variance on either side yields 0 by
    convention: constant interest carries no association signal. The
    final ratio is clamped to [0, 1] to absorb rounding dust.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValueError("inputs must be 1-dimensional")
    if len(xs) != len(ys):
        raise LengthMismatchError(f"window lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise WindowTooShortError(f"need at least 2 observations, got {len(xs)}")

    def centered(values: np.ndarray) -> np.ndarray:
        d = np.abs(values[:, None] - values[None, :])
        return d - d.mean(axis=0)[None, :] - d.mean(axis=1)[:, None] + d.mean()

    a = centered(xs)
    b = centered(ys)
    dcov2 = float((a * b).mean())
    dvarx2 = float((a * a).mean())
    dvary2 = float((b * b).mean())
    if dvarx2 <= 0.0 or dvary2 <= 0.0:
        return 0.0
    r = np.sqrt(max(dcov2, 0.0)) / np.sqrt(np.sqrt(dvarx2) * np.sqrt(dvary2))
    return float(min(1.0, max(0.0, r)))


def threshold_graph(matrices: np.ndarray, theta: float) -> np.ndarray:
    """Boolean adjacency of a ``(..., N, N)`` stack of correlation matrices.

    Edge {i, j} is present iff matrix(i, j) >= theta for i < j; the
    comparison is inclusive. Only the upper triangle is read, then
    mirrored, so the diagonal is always False.
    """
    upper = np.triu(np.asarray(matrices, dtype=float) >= theta, k=1)
    return upper | np.swapaxes(upper, -1, -2)


def network_density(adjacency: np.ndarray) -> np.ndarray:
    """Realized fraction of possible edges, 2E / (n (n - 1)), one value per
    leading index of a ``(..., n, n)`` adjacency stack. The mirrored
    adjacency holds each edge twice, so its sum is 2E exactly."""
    n = adjacency.shape[-1]
    if n < 2:
        raise TooFewNodesError(f"density undefined on {n} node(s)")
    return adjacency.sum(axis=(-2, -1)) / (n * (n - 1))


def clustering_coefficient(adjacency: np.ndarray) -> np.ndarray:
    """Global transitivity: 3 * triangles / connected triplets, 0 when no
    triplets; one value per leading index of a ``(..., n, n)`` adjacency stack.

    trace(A^3) counts each triangle six times (three start vertices, two
    directions), so closed triplets are trace(A^3) / 2; open-plus-closed
    triplets are the sum over vertices of C(deg, 2). Both counts are exact
    integers, so the ratio is correctly rounded. A graph without triplets
    has no triangle either, which makes that case 0 / 1.
    """
    a = adjacency.astype(np.int64)
    closed = np.trace(a @ a @ a, axis1=-2, axis2=-1) // 2
    degree = a.sum(axis=-1)
    triplets = (degree * (degree - 1) // 2).sum(axis=-1)
    return closed / np.maximum(triplets, 1)


def correlation_matrix_sequence(panel: KeywordPanel, window: int) -> np.ndarray:
    """Read-only ``(days, N, N)`` stack of per-day correlation matrices from
    day (window - 1) onward; day t's matrix covers [t - window + 1, t],
    day t included, and is symmetric with ones on the diagonal.

    This is the expensive intermediate; the sweep reuses one sequence
    across every threshold and metric choice.
    """
    if len(panel) < window:
        raise InsufficientHistoryError(
            f"panel of {len(panel)} days cannot support a {window}-day window"
        )
    n = panel.n_keywords
    # matrix d covers panel offsets [d, d + window); diagonal entries are 1
    matrices = np.tile(np.eye(n), (len(panel) - window + 1, 1, 1))
    for day, matrix in enumerate(matrices):
        windows = panel.values[:, day : day + window]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = matrix[j, i] = distance_correlation(windows[i], windows[j])
    matrices.flags.writeable = False
    return matrices


def metric_series_from_matrices(
    matrices: np.ndarray,
    first_date: date,
    metric_kind: MetricKind,
    theta: float,
) -> NetworkMetricSeries:
    """Threshold the ``(days, N, N)`` stack and evaluate one metric per day."""
    metric = network_density if metric_kind is MetricKind.DENSITY else clustering_coefficient
    values = metric(threshold_graph(matrices, theta))
    return NetworkMetricSeries(metric_kind, DateIndexedSeries(first_date, values))


def metric_series(
    panel: KeywordPanel, metric_kind: MetricKind, theta: float, window: int
) -> NetworkMetricSeries:
    """One metric value per day from (panel start + window - 1) onward."""
    matrices = correlation_matrix_sequence(panel, window)
    first = panel.start_date + timedelta(days=window - 1)
    return metric_series_from_matrices(matrices, first, metric_kind, theta)
