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
    NonFiniteValueError,
    TooFewNodesError,
    WindowTooShortError,
)
from .timeseries import DateIndexedSeries, read_only_array

# centred float64 elements per chunk of days in correlation_matrix_sequence: 256 KiB, about 1 MB working memory
_CHUNK_ELEMENTS = 2**15


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


def _centered(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Double-centred distance matrices of a ``(..., w)`` stack of windows, each
    flattened to ``w * w``, and their distance variances, which must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.abs(windows[..., :, None] - windows[..., None, :])
        col_mean, row_mean = d.mean(axis=-2)[..., None, :], d.mean(axis=-1)[..., :, None]
        grand_mean = d.mean(axis=(-2, -1))[..., None, None]
        # in place, so a chunk needs no second buffer; this order fixes the rounding
        d -= col_mean
        d -= row_mean
        d += grand_mean
        a = d.reshape(*windows.shape[:-1], -1)
        dvar = (a * a).mean(axis=-1)
    if not np.isfinite(dvar).all():
        raise NonFiniteValueError("a window holds a NaN or infinite value, or differences beyond float64")
    return a, dvar


@np.errstate(divide="ignore", invalid="ignore")
def _dcor_ratio(dcov2: np.ndarray, dvarx2: np.ndarray, dvary2: np.ndarray) -> np.ndarray:
    """The dCor ratio clamped to [0, 1], elementwise; 0 where either distance variance is 0."""
    r = np.sqrt(np.maximum(dcov2, 0.0)) / np.sqrt(np.sqrt(dvarx2) * np.sqrt(dvary2))
    return np.where((dvarx2 > 0.0) & (dvary2 > 0.0), np.clip(r, 0.0, 1.0), 0.0)


def distance_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Distance correlation of two equal-length windows, in [0, 1].

    Pairwise absolute-difference matrices are double-centered (row mean
    and column mean subtracted, grand mean added back); the squared
    distance covariance is the mean of their elementwise product and the
    distance variances follow the same recipe against themselves. A
    window with zero distance variance on either side yields 0 by
    convention: constant interest carries no association signal. The
    final ratio is clamped to [0, 1] to absorb rounding dust. The centring
    and ratio helpers are those of ``correlation_matrix_sequence``, so
    non-finite input or differences raise NonFiniteValueError.
    """
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValueError("inputs must be 1-dimensional")
    if len(xs) != len(ys):
        raise LengthMismatchError(f"window lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise WindowTooShortError(f"need at least 2 observations, got {len(xs)}")
    a, dvar = _centered(np.stack([xs, ys]))
    return float(_dcor_ratio((a[0] * a[1]).mean(), dvar[0], dvar[1]))


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

    Days go in chunks of ``_CHUNK_ELEMENTS`` centred float64 elements, each
    keyword-day window centred once; keyword i's entries are one mean over
    the last axis against keywords i+1.., so each equals ``distance_correlation``
    bit for bit. A non-finite distance variance raises NonFiniteValueError.
    """
    if window < 2:
        raise WindowTooShortError(f"a {window}-day window is too short; need at least 2 days")
    if len(panel) < window:
        raise InsufficientHistoryError(
            f"panel of {len(panel)} days cannot support a {window}-day window"
        )
    n = panel.n_keywords
    windows = np.lib.stride_tricks.sliding_window_view(panel.values, window, axis=1).swapaxes(0, 1)
    matrices = np.ones((len(windows), n, n))
    step = max(1, _CHUNK_ELEMENTS // (n * window * window))
    for start in range(0, len(windows), step):
        a, dvar = _centered(windows[start : start + step])
        chunk = matrices[start : start + step]
        for i in range(n - 1):
            dcov2 = (a[:, i : i + 1] * a[:, i + 1 :]).mean(axis=-1)
            chunk[:, i, i + 1 :] = chunk[:, i + 1 :, i] = _dcor_ratio(dcov2, dvar[:, i : i + 1], dvar[:, i + 1 :])
    matrices.flags.writeable = False
    return matrices


def metric_series_from_matrices(
    matrices: np.ndarray,
    first_date: date,
    metric_kind: MetricKind,
    theta: float,
) -> DateIndexedSeries:
    """Threshold the ``(days, N, N)`` stack and evaluate one metric per day."""
    metric = network_density if metric_kind is MetricKind.DENSITY else clustering_coefficient
    return DateIndexedSeries(first_date, metric(threshold_graph(matrices, theta)))

