import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpwatch.errors import (
    CoverageError,
    InsufficientHistoryError,
    LengthMismatchError,
    TooFewNodesError,
    WindowTooShortError,
)
from warpwatch.network import (
    KeywordPanel,
    MetricKind,
    clustering_coefficient,
    correlation_matrix_sequence,
    distance_correlation,
    metric_series,
    metric_series_from_matrices,
    network_density,
    threshold_graph,
)
from warpwatch.testkit import graph_metric_oracle
from warpwatch.timeseries import DateIndexedSeries

START = date(2020, 3, 16)

# pinned before implementation from the exact double-centering computation
# on the two 3x3 matrices: sqrt(28/40)
DCOR_123_132 = 0.8366600265340756

vectors = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=5, max_size=30
)


def panel_of(series_values, start=START):
    return KeywordPanel.from_mapping(
        {
            f"kw{idx}": DateIndexedSeries(start, tuple(float(v) for v in vals))
            for idx, vals in enumerate(series_values)
        }
    )


def adjacency(n, edges):
    a = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        a[i, j] = a[j, i] = True
    return a


def complete_graph(n):
    return ~np.eye(n, dtype=bool)


class TestDistanceCorrelation:
    def test_affine_dependence_is_one(self):
        x = (1.0, 2.0, 3.0, 4.0)
        y = tuple(2.0 * v + 1.0 for v in x)
        assert distance_correlation(x, y) == 1.0

    def test_constant_side_is_zero(self):
        assert distance_correlation((1.0, 2.0, 3.0), (5.0, 5.0, 5.0)) == 0.0
        assert distance_correlation((5.0, 5.0, 5.0), (1.0, 2.0, 3.0)) == 0.0

    def test_pinned_double_centering_value(self):
        assert distance_correlation((1, 2, 3), (1, 3, 2)) == pytest.approx(
            DCOR_123_132, abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            distance_correlation((1, 2, 3), (1, 2))

    def test_window_too_short(self):
        with pytest.raises(WindowTooShortError):
            distance_correlation((1,), (2,))

    @given(vectors, vectors)
    @settings(max_examples=150, deadline=None)
    def test_symmetric_and_bounded(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        r = distance_correlation(x, y)
        assert r == distance_correlation(y, x)
        assert 0.0 <= r <= 1.0

    # half-integer grid keeps the affine map faithful in float64: a value at
    # denormal scale would be absorbed outright by b and break the property
    # for numerical (not mathematical) reasons
    @given(
        st.lists(st.integers(min_value=-100, max_value=100).map(lambda n: n / 2.0),
                 min_size=5, max_size=30),
        st.sampled_from([-2.0, 0.5, 3.0]),
        st.sampled_from([-1.0, 0.0, 4.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_affine_invariance(self, x, a, b):
        y = [math.sin(1.7 * v) + 0.3 * v for v in x]
        mapped = [a * v + b for v in x]
        assert distance_correlation(mapped, y) == pytest.approx(
            distance_correlation(x, y), abs=1e-9
        )


class TestCorrelationMatrixAt:
    """One day's matrix, read from the per-day stack."""

    def test_first_computable_day(self):
        p = panel_of([range(20), [v * 2 for v in range(20)]])
        m = correlation_matrix_sequence(p, window=15)[0]
        assert m.shape == (2, 2)
        assert m[0, 0] == m[1, 1] == 1.0

    def test_insufficient_history(self):
        p = panel_of([range(20), range(20, 40)])
        with pytest.raises(InsufficientHistoryError):
            correlation_matrix_sequence(p, window=21)

    def test_identical_keywords_fully_correlated(self):
        p = panel_of([range(15), range(15)])
        m = correlation_matrix_sequence(p, window=15)[0]
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        p = panel_of([[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8]])
        m = correlation_matrix_sequence(p, window=8)[0]
        np.testing.assert_array_equal(m, m.T)


class TestThresholdGraph:
    def test_threshold_is_inclusive(self):
        m = np.array([[1.0, 0.8], [0.8, 1.0]])
        g = threshold_graph(m, 0.8)
        np.testing.assert_array_equal(g, adjacency(2, {(0, 1)}))

    def test_all_below_threshold(self):
        m = np.full((4, 4), 0.3)
        np.fill_diagonal(m, 1.0)
        assert not threshold_graph(m, 0.4).any()

    def test_all_ones_gives_complete_graph(self):
        m = np.ones((5, 5))
        g = threshold_graph(m, 1.0)
        np.testing.assert_array_equal(g, complete_graph(5))
        assert np.triu(g).sum() == 10

    def test_diagonal_ignored(self):
        m = np.eye(3)
        assert not threshold_graph(m, 0.5).any()

    def test_non_symmetric_matrix_reads_the_upper_triangle(self):
        m = np.array([[1.0, 0.9, 0.1], [0.1, 1.0, 0.2], [0.9, 0.9, 1.0]])
        np.testing.assert_array_equal(threshold_graph(m, 0.5), adjacency(3, {(0, 1)}))

    def test_stack_thresholds_each_matrix(self):
        rng = np.random.default_rng(5)
        stack = rng.uniform(0.0, 1.0, size=(7, 4, 4))
        g = threshold_graph(stack, 0.5)
        assert g.shape == (7, 4, 4) and g.dtype == bool
        for day in range(7):
            np.testing.assert_array_equal(g[day], threshold_graph(stack[day], 0.5))

    @given(st.integers(min_value=2, max_value=6), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_edges_match_elementwise_comparison(self, n, theta):
        rng = np.random.default_rng(n * 31 + int(theta * 100))
        m = rng.uniform(0.0, 1.0, size=(n, n))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 1.0)
        g = threshold_graph(m, theta)
        for i in range(n):
            for j in range(i + 1, n):
                assert g[i, j] == g[j, i] == (m[i, j] >= theta)


class TestGraphMetrics:
    def test_complete_density(self):
        assert network_density(complete_graph(15)) == 1.0

    def test_empty_density(self):
        assert network_density(adjacency(15, ())) == 0.0

    def test_partial_density(self):
        edges = frozenset((0, j) for j in range(1, 15)) | frozenset((1, j) for j in range(2, 9))
        assert len(edges) == 21
        assert network_density(adjacency(15, edges)) == 0.2

    def test_density_needs_two_nodes(self):
        with pytest.raises(TooFewNodesError):
            network_density(adjacency(1, ()))

    def test_triangle_clustering(self):
        assert clustering_coefficient(complete_graph(3)) == 1.0

    def test_star_clustering(self):
        star = adjacency(4, {(0, 1), (0, 2), (0, 3)})
        assert clustering_coefficient(star) == 0.0

    def test_triangle_plus_pendant(self):
        # 5 connected triplets, 1 triangle: 3/5 (enumerated by hand)
        g = adjacency(4, {(0, 1), (0, 2), (1, 2), (0, 3)})
        assert clustering_coefficient(g) == 0.6

    def test_edgeless_clustering_is_zero(self):
        assert clustering_coefficient(adjacency(5, ())) == 0.0

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2 ** 15 - 1))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_triple_enumeration_oracle(self, n, mask):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = frozenset(p for bit, p in enumerate(all_pairs) if mask >> bit & 1)
        g = adjacency(n, edges)
        density, transitivity = graph_metric_oracle(n, edges)
        assert network_density(g) == density
        assert clustering_coefficient(g) == transitivity

    @given(st.integers(min_value=0, max_value=2 ** 10 - 1))
    @settings(max_examples=100, deadline=None)
    def test_density_monotone_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.0, 1.0, size=(6, 6))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 1.0)
        densities = [
            network_density(threshold_graph(m, theta)) for theta in (0.4, 0.5, 0.6, 0.8)
        ]
        assert densities == sorted(densities, reverse=True)


class TestMetricSeries:
    def test_window_boundary_arithmetic(self):
        values = [math.sin(t / 9.0) * 40 + 50 for t in range(366)]
        shifted = [math.cos(t / 11.0) * 40 + 50 for t in range(366)]
        p = panel_of([values, shifted])
        out = metric_series(p, MetricKind.DENSITY, theta=0.5, window=15)
        assert len(out.series) == 352
        assert out.series.start_date == START + timedelta(days=14)

    def test_window_equal_to_panel_length(self):
        p = panel_of([range(30), [v * 3 + 1 for v in range(30)]])
        out = metric_series(p, MetricKind.CLUSTERING, theta=0.5, window=30)
        assert len(out.series) == 1

    def test_matrix_sequence_is_one_read_only_stack(self):
        p = panel_of([range(20), [v % 7 for v in range(20)], [v * v for v in range(20)]])
        matrices = correlation_matrix_sequence(p, 15)
        assert matrices.shape == (6, 3, 3) and matrices.dtype == np.float64
        last = p.values[:, -15:]
        expected = np.eye(3)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            expected[i, j] = expected[j, i] = distance_correlation(last[i], last[j])
        np.testing.assert_array_equal(matrices[-1], expected)
        with pytest.raises(ValueError):
            matrices[0, 0, 1] = 0.0

    def test_metric_series_from_matrices_matches_per_day_metrics(self):
        rng = np.random.default_rng(11)
        p = panel_of([rng.uniform(0, 100, 40) for _ in range(5)])
        matrices = correlation_matrix_sequence(p, 15)
        out = metric_series_from_matrices(matrices, START, MetricKind.CLUSTERING, 0.5)
        assert list(out.series.values) == [
            clustering_coefficient(threshold_graph(m, 0.5)) for m in matrices
        ]

    def test_identical_series_give_constant_density_one(self):
        p = panel_of([range(40), range(40), range(40)])
        out = metric_series(p, MetricKind.DENSITY, theta=0.9, window=15)
        assert set(out.series.values) == {1.0}

    def test_insufficient_panel(self):
        p = panel_of([range(10), range(10, 20)])
        with pytest.raises(InsufficientHistoryError):
            metric_series(p, MetricKind.DENSITY, theta=0.5, window=15)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        p = panel_of([rng.uniform(0, 100, 50) for _ in range(4)])
        for kind in MetricKind:
            out = metric_series(p, kind, theta=0.5, window=15)
            assert all(0.0 <= v <= 1.0 for v in out.series.values)


class TestKeywordPanel:
    def test_requires_alignment(self):
        a = DateIndexedSeries(START, (1.0, 2.0))
        b = DateIndexedSeries(START + timedelta(days=1), (1.0, 2.0))
        ranges = r"'b' covers \[2020-03-17, 2020-03-18\] but 'a' covers \[2020-03-16, 2020-03-17\]"
        with pytest.raises(CoverageError, match=ranges):
            KeywordPanel.from_mapping({"a": a, "b": b})

    def test_requires_unique_keywords(self):
        with pytest.raises(ValueError):
            KeywordPanel(("a", "a"), START, [[1.0, 2.0], [1.0, 2.0]])

    def test_values_are_read_only(self):
        p = panel_of([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        assert p.values.shape == (2, 3) and p.end_date == START + timedelta(days=2)
        with pytest.raises(ValueError):
            p.values[0, 0] = 9.0

    def test_from_mapping_sorts_keywords(self):
        a = DateIndexedSeries(START, (1.0, 2.0))
        p = KeywordPanel.from_mapping({"z": a, "b": a})
        assert p.keywords == ("b", "z")
