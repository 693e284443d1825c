"""Search-interest network metrics aligned to epidemic case curves.

The pipeline: rebuild continuous daily search-volume series from
overlapping 30-day segments, turn a keyword panel into rolling
distance-correlation network metrics, derive confirmed/active case
series from a line list, and measure temporal alignment with banded
dynamic time warping, including a full parameter sweep with
Kruskal-Wallis significance tests.
"""

__version__ = "0.1.0"

from .errors import WarpwatchError
from .timeseries import DateIndexedSeries, validate_contiguous, minmax_normalize, align_ranges, read_series_csv, write_series_csv
from .dtw import BandSpec, DtwResult, dtw
from .trends import segment_array, WeeklySeries, load_segments, load_weekly, rescale_daily, msv_merge
from .network import (
    KeywordPanel,
    MetricKind,
    distance_correlation,
    threshold_graph,
    network_density,
    clustering_coefficient,
)
from .cases import CaseKind, load_linelist, daily_confirmed, daily_removed, active_cases
from .stats import rank_with_ties, kruskal_wallis, chi_square_sf
from .sweep import (
    ParameterReport,
    Preprocess,
    lattice_shape,
    run_sweep,
    optimal_configs,
    summarize_parameter,
)

# the functions, classes and enums imported above; the submodules the imports also bind are not callable, so they drop out
__all__ = ["__version__", *(name for name, obj in globals().items() if callable(obj))]
