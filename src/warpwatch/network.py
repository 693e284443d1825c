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

# centred float64 elements per chunk of days in correlation_matrix_sequence: 512 KiB, its one large buffer
_CHUNK_ELEMENTS = 2**16
# a window whose distance standard deviation is at most this share of its largest absolute value is flat
_FLAT_TOLERANCE = 1e-12


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


def _centered(windows: np.ndarray) -> np.ndarray:
    """The ``(..., N, N)`` Gram block of a ``(..., N, w)`` stack of windows: each pair's dCov^2 of
    double-centred distance matrices, with the distance variances, which must be finite, on the
    diagonal; a flat window's variance (see ``_FLAT_TOLERANCE``), which only rounding moves, reads 0."""
    n, w = windows.shape[-2:]
    with np.errstate(over="ignore", invalid="ignore"):
        d = windows[..., :, None] - windows[..., None, :]
        np.abs(d, out=d)
        # d is symmetric, so its row means are its column means; in place, so a chunk needs no second buffer
        mean = d.mean(axis=-1)
        d -= mean[..., None, :]
        d -= mean[..., :, None]
        d += mean.mean(axis=-1)[..., None, None]
        a = d.reshape(*windows.shape[:-1], w * w)
        gram = np.matmul(a, a.swapaxes(-1, -2)) / (w * w)
    dvar = gram.reshape(*gram.shape[:-2], n * n)[..., :: n + 1]  # a view of the diagonal
    if not np.isfinite(dvar).all():
        raise NonFiniteValueError("a window holds a NaN or infinite value, or differences beyond float64")
    dvar[np.sqrt(dvar) <= _FLAT_TOLERANCE * np.abs(windows).max(axis=-1)] = 0.0
    return gram


@np.errstate(divide="ignore", invalid="ignore")
def _dcor_ratio(gram: np.ndarray) -> np.ndarray:
    """Distance correlations of a Gram block, clamped to [0, 1]; 0 where either distance variance is 0."""
    sd = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))
    x, y = sd[..., :, None], sd[..., None, :]
    r = np.sqrt(np.maximum(gram, 0.0)) / np.sqrt(x * y)
    return np.where((x > 0.0) & (y > 0.0), np.clip(r, 0.0, 1.0), 0.0)


def distance_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Distance correlation of two equal-length windows, in [0, 1].

    Pairwise absolute-difference matrices are double-centered (row and
    column means subtracted, grand mean added back); dCov^2 is the mean of
    their elementwise product, and each distance variance that of a matrix
    with itself. A flat window on either side (constant, or varying only by
    rounding) yields 0: constant interest carries no association signal.
    The ratio is clamped to [0, 1] against rounding dust. This is the
    two-window case of ``correlation_matrix_sequence``'s kernel, so
    non-finite input or differences raise NonFiniteValueError.
    """
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValueError("inputs must be 1-dimensional")
    if len(xs) != len(ys):
        raise LengthMismatchError(f"window lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise WindowTooShortError(f"need at least 2 observations, got {len(xs)}")
    return float(_dcor_ratio(_centered(np.stack([xs, ys])))[0, 1])


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
    triplets are the sum over vertices of C(deg, 2). Both counts are float64
    integers below n^3 (A^3 through BLAS), exact far below 2^53, so the ratio
    is correctly rounded. A graph without triplets has no triangle either,
    which makes that case 0 / 1.
    """
    a = adjacency.astype(np.float64)
    closed = np.trace(a @ a @ a, axis1=-2, axis2=-1) / 2
    degree = a.sum(axis=-1)
    triplets = (degree * (degree - 1) / 2).sum(axis=-1)
    return closed / np.maximum(triplets, 1)


def correlation_matrix_sequence(panel: KeywordPanel, window: int) -> np.ndarray:
    """Read-only ``(days, N, N)`` stack of per-day correlation matrices from
    day (window - 1) onward; day t's matrix covers [t - window + 1, t],
    day t included, and is symmetric with ones on the diagonal.

    Days go in chunks of ``_CHUNK_ELEMENTS`` centred float64 elements, each
    keyword-day window centred once and every keyword pair's dCov^2 taken in
    one batched Gram product, so entries agree with ``distance_correlation``
    to rounding. A non-finite distance variance raises NonFiniteValueError.
    """
    if window < 2:
        raise WindowTooShortError(f"a {window}-day window is too short; need at least 2 days")
    if len(panel) < window:
        raise InsufficientHistoryError(
            f"panel of {len(panel)} days cannot support a {window}-day window"
        )
    n = panel.n_keywords
    windows = np.lib.stride_tricks.sliding_window_view(panel.values, window, axis=1).swapaxes(0, 1)
    matrices = np.empty((len(windows), n, n))
    step = max(1, _CHUNK_ELEMENTS // (n * window * window))
    for start in range(0, len(windows), step):
        matrices[start : start + step] = _dcor_ratio(_centered(windows[start : start + step]))
    matrices.reshape(len(windows), n * n)[:, :: n + 1] = 1.0
    matrices.flags.writeable = False
    return matrices


def metric_series_from_matrices(
    matrices: np.ndarray,
    panel: KeywordPanel,
    metric_kind: MetricKind,
    theta: float,
) -> DateIndexedSeries:
    """Threshold ``panel``'s ``(days, N, N)`` stack and evaluate one metric per day, the last on the panel's last day."""
    metric = network_density if metric_kind is MetricKind.DENSITY else clustering_coefficient
    first_date = panel.end_date - timedelta(days=len(matrices) - 1)
    return DateIndexedSeries(first_date, metric(threshold_graph(matrices, theta)))

