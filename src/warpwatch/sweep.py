"""Parameter lattice evaluation: one banded DTW score per configuration.

The full lattice crosses two network metrics, two preprocessing methods,
four thresholds, two correlation windows, two case comparisons and five
band radii: 320 configurations. Per-configuration failures (an
infeasible band, a constant case series) become status entries instead
of aborting the sweep, and are excluded from the statistics.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from datetime import timedelta
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
class SweepConfig:
    """One point of the parameter lattice."""

    metric: MetricKind
    preprocess: Preprocess
    threshold: float
    window: int
    case_type: CaseKind
    radius: int

    def sort_key(self) -> tuple[int, ...]:
        """Position within the declared domain ordering (the lattice order)."""
        return tuple(DOMAINS[name].index(getattr(self, name)) for name in PARAMETER_NAMES)

    def level(self, parameter: str) -> str:
        return str(level_label(getattr(self, parameter)))


@dataclass(frozen=True)
class SweepResult:
    """Score for one configuration, or the reason it could not be scored."""

    config: SweepConfig
    dtw_score: float | None
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class ParameterReport:
    """Marginal effect of one parameter: per-level means plus the rank test."""

    parameter: str
    level_means: dict[str, float]
    h_statistic: float
    p_value: float
    significant: bool


def enumerate_configs(domains: Mapping[str, Sequence] = DOMAINS) -> list[SweepConfig]:
    """Cartesian product, in lattice order, of ``domains`` (parameter -> levels)."""
    return [
        SweepConfig(*combo)
        for combo in itertools.product(*(domains[name] for name in PARAMETER_NAMES))
    ]


class _MissingInput(WarpwatchError):
    """A case series or panel the sweep was not given; the message alone is the status."""


def run_sweep(
    panels: Mapping[Preprocess, KeywordPanel],
    case_series: Mapping[CaseKind, DateIndexedSeries],
    configs: Sequence[SweepConfig] | None = None,
) -> list[SweepResult]:
    """Score every configuration: build the metric series, min-max
    normalize the case series, align date ranges, then run banded DTW
    with the case series as the warped axis.

    Three memoised stages feed the configurations, each computed on
    first use and shared by every configuration that needs it: the
    normalized case series per case type, the correlation-matrix stack
    per (preprocess, window), and the metric series per (metric,
    preprocess, threshold, window). A ``WarpwatchError`` from any stage,
    or from alignment and DTW, becomes that configuration's status; the
    case stage runs first, so its error wins over the metric's. A failed
    stage is not memoised: it is retried, and fails again before any
    heavy work, for each configuration that needs it.

    Configurations are scored one after another, in the order of
    ``configs``: the DTW fill is pure Python, so threads would only
    contend for the interpreter lock.
    """
    cfgs = list(configs) if configs is not None else enumerate_configs()

    @functools.cache
    def normalized_case(case_type: CaseKind) -> DateIndexedSeries:
        if case_type not in case_series:
            raise _MissingInput(f"missing case series: {case_type.value}")
        return minmax_normalize(case_series[case_type])

    @functools.cache
    def correlations(preprocess: Preprocess, window: int) -> np.ndarray:
        if preprocess not in panels:
            raise _MissingInput(f"missing panel: {preprocess.value}")
        return correlation_matrix_sequence(panels[preprocess], window)

    @functools.cache
    def metric_values(
        metric: MetricKind, preprocess: Preprocess, threshold: float, window: int
    ) -> DateIndexedSeries:
        matrices = correlations(preprocess, window)
        first = panels[preprocess].start_date + timedelta(days=window - 1)
        return metric_series_from_matrices(matrices, first, metric, threshold).series

    def evaluate(cfg: SweepConfig) -> SweepResult:
        try:
            case = normalized_case(cfg.case_type)
            metric = metric_values(cfg.metric, cfg.preprocess, cfg.threshold, cfg.window)
            case, metric = align_ranges(case, metric)
            result = dtw(case.values, metric.values, BandSpec.sakoe_chiba(cfg.radius))
        except WarpwatchError as exc:
            status = str(exc) if isinstance(exc, _MissingInput) else f"{type(exc).__name__}: {exc}"
            return SweepResult(cfg, None, status)
        return SweepResult(cfg, result.distance, "ok")

    return [evaluate(cfg) for cfg in cfgs]


def optimal_configs(results: Sequence[SweepResult]) -> list[SweepResult]:
    """Best (lowest-score) result per (metric, case_type) pair.

    Ties break toward the lexicographically earliest configuration; rows
    come back in the declared (metric, case_type) order. Groups with no
    successful result are omitted.
    """
    if not results:
        raise ValueError("no results supplied")
    rows: list[SweepResult] = []
    for metric in METRICS:
        for case_type in CASE_TYPES:
            candidates = [
                r
                for r in results
                if r.ok and r.config.metric is metric and r.config.case_type is case_type
            ]
            if not candidates:
                continue
            rows.append(min(candidates, key=lambda r: (r.dtw_score, r.config.sort_key())))
    return rows


def summarize_parameter(results: Sequence[SweepResult], parameter: str) -> ParameterReport:
    """Per-level mean scores for one parameter plus a Kruskal-Wallis test.

    Error entries are excluded; levels are ordered as declared in the
    lattice, restricted to the levels actually present.
    """
    if parameter not in PARAMETER_NAMES:
        raise ValueError(f"unknown parameter {parameter!r}")
    scored = [r for r in results if r.ok]
    groups: dict[str, list[float]] = {}
    for value in DOMAINS[parameter]:
        label = str(level_label(value))
        member = [r.dtw_score for r in scored if r.config.level(parameter) == label]
        if member:
            groups[label] = member
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


def parameter_reports(results: Sequence[SweepResult]) -> list[ParameterReport]:
    """One report per lattice parameter, in declared order."""
    return [summarize_parameter(results, name) for name in PARAMETER_NAMES]
