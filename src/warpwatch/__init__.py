"""Search-interest network metrics aligned to epidemic case curves.

The pipeline: rebuild continuous daily search-volume series from
overlapping 30-day segments, turn a keyword panel into rolling
distance-correlation network metrics, derive confirmed/active case
series from a line list, and measure temporal alignment with banded
dynamic time warping, including a full parameter sweep with
Kruskal-Wallis significance tests.
"""

__version__ = "0.1.0"

from .cases import CaseKind, active_cases, daily_confirmed, daily_removed, load_linelist
from .dtw import BandSpec, DtwResult, dtw
from .errors import WarpwatchError
from .network import (
    KeywordPanel,
    MetricKind,
    clustering_coefficient,
    distance_correlation,
    network_density,
    threshold_graph,
)
from .stats import chi_square_sf, kruskal_wallis, rank_with_ties
from .sweep import (
    ParameterReport,
    Preprocess,
    SweepConfig,
    SweepResult,
    enumerate_configs,
    optimal_configs,
    run_sweep,
    summarize_parameter,
)
from .timeseries import DateIndexedSeries, align_ranges, minmax_normalize, read_series_csv, validate_contiguous, write_series_csv
from .trends import WeeklySeries, load_segments, load_weekly, msv_merge, rescale_daily, segment_array

__all__ = [
    "__version__",
    "WarpwatchError",
    "DateIndexedSeries",
    "validate_contiguous",
    "minmax_normalize",
    "align_ranges",
    "read_series_csv",
    "write_series_csv",
    "BandSpec",
    "DtwResult",
    "dtw",
    "segment_array",
    "WeeklySeries",
    "load_segments",
    "load_weekly",
    "rescale_daily",
    "msv_merge",
    "KeywordPanel",
    "MetricKind",
    "distance_correlation",
    "threshold_graph",
    "network_density",
    "clustering_coefficient",
    "CaseKind",
    "load_linelist",
    "daily_confirmed",
    "daily_removed",
    "active_cases",
    "rank_with_ties",
    "kruskal_wallis",
    "chi_square_sf",
    "SweepConfig",
    "SweepResult",
    "ParameterReport",
    "Preprocess",
    "enumerate_configs",
    "run_sweep",
    "optimal_configs",
    "summarize_parameter",
]
