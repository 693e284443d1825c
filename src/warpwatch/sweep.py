"""Parameter lattice evaluation: one banded DTW score per configuration.

The full lattice crosses two network metrics, two preprocessing methods,
four thresholds, two correlation windows, two case comparisons and five
band radii: 320 configurations. Per-configuration failures (disjoint
date ranges, a constant case series) become status entries instead of
aborting the sweep, and are excluded from the statistics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .cases import CaseKind
from .dtw import BandSpec, dtw
from .errors import DegenerateGroupsError, WarpwatchError
from .network import (
    KeywordPanel,
    MetricKind,
    correlation_matrix_sequence,
    metric_series_from_matrices,
)
from .stats import kruskal_wallis
from .timeseries import DateIndexedSeries, align_ranges, minmax_normalize, sequential_sum


class Preprocess(str, Enum):
    RESCALE = "rescale"
    MSV = "msv"


METRICS = (MetricKind.DENSITY, MetricKind.CLUSTERING)
PREPROCESSES = (Preprocess.RESCALE, Preprocess.MSV)
THRESHOLDS = (0.4, 0.5, 0.6, 0.8)
WINDOWS = (15, 30)
CASE_TYPES = (CaseKind.CONFIRMED, CaseKind.ACTIVE)
RADII = (7, 15, 20, 30, 50)

# parameter -> levels, in lattice order; every other view of the lattice derives from this
DOMAINS: dict[str, tuple] = {
    "metric": METRICS,
    "preprocess": PREPROCESSES,
    "threshold": THRESHOLDS,
    "window": WINDOWS,
    "case_type": CASE_TYPES,
    "radius": RADII,
}
PARAMETER_NAMES = tuple(DOMAINS)


def level_label(value: Enum | float | int) -> str | float | int:
    """How a level is named in configs and manifests: an enum's value, else the number."""
    return value.value if isinstance(value, Enum) else value


@dataclass(frozen=True)
class ParameterReport:
    """Marginal effect of one parameter: per-level means plus the rank test."""

    parameter: str
    level_means: dict[str, float]
    h_statistic: float
    p_value: float
    significant: bool


def lattice_shape(domains: Mapping[str, Sequence] = DOMAINS) -> tuple[int, ...]:
    """One axis per parameter, in declared order: ``results.score.reshape(lattice_shape(domains))``."""
    return tuple(len(domains[name]) for name in PARAMETER_NAMES)


def run_sweep(
    panels: Mapping[Preprocess, KeywordPanel],
    case_series: Mapping[CaseKind, DateIndexedSeries],
    domains: Mapping[str, Sequence] = DOMAINS,
) -> np.recarray:
    """Score every configuration of ``domains`` (parameter -> levels) by
    banded DTW between its min-max normalized case series (the warped
    axis) and its metric series, over their common date range.

    The result holds one record per configuration, in ``itertools.product``
    order over the parameters as declared: ``score`` (NaN where not
    scored), ``status`` ("ok" or the reason) and ``ok``. It is flat, so
    ``len`` counts configurations and iteration yields records;
    ``results.score.reshape(lattice_shape(domains))`` is the lattice.

    One pass: each case series is normalized once; then, per (preprocess,
    window), the correlation stack is built, every (metric, threshold)
    series is derived from it and aligned with each normalized case
    series, and the stack is dropped before the next one is built. One
    ``dtw`` call per radius scores every aligned (case, metric) pair as one
    stack whose rows may differ in length.

    A ``WarpwatchError`` from a stage or from alignment becomes the status
    of every configuration that stage feeds. A failed case series is
    never aligned, so its error wins over the panel's and the metric's;
    when none normalizes, no stack is built.
    """
    metrics, preprocesses, thresholds, windows, case_types, radii = (domains[name] for name in PARAMETER_NAMES)
    status = np.full(lattice_shape(domains)[:-1], "ok", dtype=object)  # one entry per pair: every level but radius
    cases = {}  # case-type index -> normalized series
    for c, case_type in enumerate(case_types):
        if case_type not in case_series:
            status[..., c] = f"missing case series: {case_type.value}"
            continue
        try:
            cases[c] = minmax_normalize(case_series[case_type])
        except WarpwatchError as exc:
            status[..., c] = f"{type(exc).__name__}: {exc}"
    aligned = []  # (raveled pair index, case values, metric values)
    for (p, preprocess), (w, window) in itertools.product(enumerate(preprocesses), enumerate(windows)):
        if not cases:
            break
        if preprocess not in panels:
            status[:, p, :, w, list(cases)] = f"missing panel: {preprocess.value}"
            continue
        try:
            stack = correlation_matrix_sequence(panels[preprocess], window)
        except WarpwatchError as exc:
            status[:, p, :, w, list(cases)] = f"{type(exc).__name__}: {exc}"
            continue
        for (m, metric), (t, threshold) in itertools.product(enumerate(metrics), enumerate(thresholds)):
            try:
                series = metric_series_from_matrices(stack, panels[preprocess], metric, threshold)
            except WarpwatchError as exc:
                status[m, p, t, w, list(cases)] = f"{type(exc).__name__}: {exc}"
                continue
            for c, case in cases.items():
                try:
                    x, y = align_ranges(case, series)
                except WarpwatchError as exc:
                    status[m, p, t, w, c] = f"{type(exc).__name__}: {exc}"
                    continue
                aligned.append((np.ravel_multi_index((m, p, t, w, c), status.shape), x.values, y.values))
        del stack
    scores = np.full((status.size, len(radii)), np.nan)
    if aligned:
        indices, xs, ys = zip(*aligned)
        for column, radius in enumerate(radii):
            # a pair's aligned series share one length, so every band is feasible, and case series are
            # normalized and metric values lie in [0, 1], so no distance overflows: dtw cannot fail
            scores[list(indices), column] = dtw(xs, ys, BandSpec(radius))
    # radius is the last parameter, so the raveled (pair, radius) grid is in lattice order
    status = np.repeat(status.ravel().tolist(), len(radii))
    return np.rec.fromarrays([scores.ravel(), status, status == "ok"], names="score,status,ok")


def optimal_configs(results: np.recarray, domains: Mapping[str, Sequence] = DOMAINS) -> list[tuple[dict, float]]:
    """Best (lowest-score) configuration per (metric, case_type) pair, as
    (parameter -> level, score).

    Ties break toward the earliest configuration in lattice order; rows
    come back in the declared (metric, case_type) order. Pairs with no
    scored configuration are omitted.
    """
    # metric and case_type first, the other four axes in lattice order, so a C-order argmin breaks ties
    blocks = np.moveaxis(results.score.reshape(lattice_shape(domains)), 4, 1)
    rows = []
    for m, c in np.ndindex(blocks.shape[:2]):
        if np.isnan(blocks[m, c]).all():
            continue
        p, t, w, r = np.unravel_index(np.nanargmin(blocks[m, c]), blocks.shape[2:])
        levels = {name: domains[name][i] for name, i in zip(PARAMETER_NAMES, (m, p, t, w, c, r))}
        rows.append((levels, float(blocks[m, c, p, t, w, r])))
    return rows


def summarize_parameter(
    results: np.recarray, parameter: str, domains: Mapping[str, Sequence] = DOMAINS
) -> ParameterReport:
    """Per-level mean scores for one parameter plus a Kruskal-Wallis test.

    Unscored configurations are excluded; levels are ordered as in
    ``domains``, restricted to the levels with a score.
    """
    if parameter not in PARAMETER_NAMES:
        raise ValueError(f"unknown parameter {parameter!r}")
    scores = results.score.reshape(lattice_shape(domains))
    groups: dict[str, np.ndarray] = {}
    for i, value in enumerate(domains[parameter]):
        member = scores.take(i, PARAMETER_NAMES.index(parameter))
        if (scored := member[~np.isnan(member)]).size:
            groups[str(level_label(value))] = scored
    if not groups:
        raise ValueError(f"no successful results to summarize for {parameter!r}")
    level_means = {label: sequential_sum(vals) / len(vals) for label, vals in groups.items()}
    if len(groups) < 2:
        # a single-level parameter carries no between-group variation
        h, p = 0.0, 1.0
    else:
        try:
            h, p = kruskal_wallis(list(groups.values()))
        except DegenerateGroupsError as exc:
            raise DegenerateGroupsError(f"{parameter}: {exc}") from exc
    return ParameterReport(
        parameter=parameter,
        level_means=level_means,
        h_statistic=h,
        p_value=p,
        significant=p < 0.05,
    )


def parameter_reports(results: np.recarray, domains: Mapping[str, Sequence] = DOMAINS) -> list[ParameterReport]:
    """One report per lattice parameter, in declared order."""
    return [summarize_parameter(results, name, domains) for name in PARAMETER_NAMES]
