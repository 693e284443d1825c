import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpwatch import network
from warpwatch.errors import (
    CoverageError,
    InsufficientHistoryError,
    LengthMismatchError,
    NonFiniteValueError,
    TooFewNodesError,
    WindowTooShortError,
)
from warpwatch.network import (
    KeywordPanel,
    MetricKind,
    clustering_coefficient,
    correlation_matrix_sequence,
    distance_correlation,
    metric_series_from_matrices,
    network_density,
    threshold_graph,
)
from warpwatch.sweep import THRESHOLDS
from warpwatch.timeseries import DateIndexedSeries

from oracles import distance_correlation_oracle, graph_metric_oracle

START = date(2020, 3, 16)

# pinned before implementation from the exact double-centering computation
# on the two 3x3 matrices: sqrt(28/40)
DCOR_123_132 = 0.8366600265340756

vectors = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=5, max_size=30
)


@st.composite
def tied_panel_and_window(draw):
    """1-8 keywords over 20-60 days with integer ties, a zero run and a
    constant last keyword, plus a window from 2 up to the panel length."""
    n = draw(st.integers(min_value=1, max_value=8))
    days = draw(st.integers(min_value=20, max_value=60))
    ties = st.integers(min_value=0, max_value=4).map(float)
    cell = ties | st.floats(min_value=0.0, max_value=100.0)
    rows = [draw(st.lists(cell, min_size=days, max_size=days)) for _ in range(n)]
    zero_from = draw(st.integers(min_value=0, max_value=days - 1))
    zero_to = draw(st.integers(min_value=zero_from, max_value=days))
    rows[0][zero_from:zero_to] = [0.0] * (zero_to - zero_from)
    rows[-1] = [draw(cell)] * days
    return panel_of(rows), draw(st.integers(min_value=2, max_value=days))


@st.composite
def seeded_panel_and_window(draw):
    """2-4 keywords over 12-24 days of uniform draws from [0, 100) with a zero
    run in the first keyword, plus a window from 2 to 12 days."""
    n = draw(st.integers(min_value=2, max_value=4))
    days = draw(st.integers(min_value=12, max_value=24))
    rows = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1))).uniform(0.0, 100.0, (n, days))
    zero_from = draw(st.integers(min_value=0, max_value=days - 1))
    rows[0, zero_from : draw(st.integers(min_value=zero_from, max_value=days))] = 0.0
    return panel_of(rows), draw(st.integers(min_value=2, max_value=12))


@st.composite
def chunked_panel_window_and_step(draw):
    """A tied panel with at least 3 days of matrices, and a chunk of 1 to
    days - 1 days that leaves a remainder chunk."""
    p, window = draw(tied_panel_and_window().filter(lambda pw: len(pw[0]) - pw[1] >= 2))
    days = len(p) - window + 1
    step = draw(st.integers(min_value=1, max_value=days - 1).filter(lambda s: days % s))
    return p, window, step


def per_pair_oracle(p, window, dcor=distance_correlation):
    days = len(p) - window + 1
    expected = np.tile(np.eye(p.n_keywords), (days, 1, 1))
    for day in range(days):
        w = p.values[:, day : day + window]
        for i in range(p.n_keywords):
            for j in range(i + 1, p.n_keywords):
                expected[day, i, j] = expected[day, j, i] = dcor(w[i], w[j])
    return expected


def metric_of(p, kind, theta, window):
    """The metrics subcommand's two calls: the correlation stack, then one metric per day."""
    matrices = correlation_matrix_sequence(p, window)
    return metric_series_from_matrices(matrices, p, kind, theta)


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

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="inputs must be 1-dimensional"):
            distance_correlation([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            distance_correlation((1, 2, 3), (1, 2))

    def test_window_too_short(self):
        with pytest.raises(WindowTooShortError):
            distance_correlation((1,), (2,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(NonFiniteValueError):
            distance_correlation((bad, 1.0, 2.0), (1.0, 2.0, 3.0))
        with pytest.raises(NonFiniteValueError):
            distance_correlation((1.0, 2.0, 3.0), (1.0, bad, 3.0))

    def test_overflowing_differences_rejected(self):
        with pytest.raises(NonFiniteValueError, match="differences beyond float64"):
            distance_correlation((1e308, -1e308, 0.0), (1.0, 2.0, 3.0))

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.sampled_from([-1.0, 1.0]),
        st.lists(st.integers(min_value=-64, max_value=64), min_size=2, max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_ulp_noise_on_a_constant_window_is_flat(self, base, sign, ulps):
        noisy = [sign * base + k * math.ulp(base) for k in ulps]
        ramp = range(len(noisy))
        assert distance_correlation(ramp, noisy) == distance_correlation(noisy, ramp) == 0.0
        assert correlation_matrix_sequence(panel_of([ramp, noisy]), len(noisy))[0, 0, 1] == 0.0

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-8, max_value=1.0),
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=60).filter(
            lambda steps: len(set(steps)) > 1
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_variation_from_a_relative_1e_8_up_is_not_flat(self, base, scale, steps):
        # distinct steps differ by at least base * scale, so the window varies at relative scale >= 1e-8
        varied = [base * (1.0 + scale * k) for k in steps]
        assert len(set(varied)) > 1
        ramp = [math.sin(t) for t in range(len(varied))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "_FLAT_TOLERANCE", 0.0)
            untolerated = distance_correlation(ramp, varied)
        assert distance_correlation(ramp, varied) == untolerated
        assert network._centered(np.array([varied]))[0, 0] > 0.0

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

    @pytest.mark.parametrize("n_keywords", [1, 2])
    @pytest.mark.parametrize("window", [-3, 0, 1])
    def test_window_below_two_names_the_window(self, n_keywords, window):
        p = panel_of([range(20)] * n_keywords)
        with pytest.raises(WindowTooShortError, match=f"a {window}-day window is too short"):
            correlation_matrix_sequence(p, window)

    @given(tied_panel_and_window())
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_per_pair_oracle(self, panel_and_window):
        # the stack's Gram products and the two-row calls go through BLAS in blocks of other
        # shapes, whose summation order BLAS does not fix: each entry within a relative 1e-12
        p, window = panel_and_window
        days = len(p) - window + 1
        expected = np.tile(np.eye(p.n_keywords), (days, 1, 1))
        for day in range(days):
            w = p.values[:, day : day + window]
            for i in range(p.n_keywords):
                for j in range(i + 1, p.n_keywords):
                    expected[day, i, j] = expected[day, j, i] = distance_correlation(w[i], w[j])
        np.testing.assert_allclose(correlation_matrix_sequence(p, window), expected, rtol=1e-12, atol=0.0)

    @given(chunked_panel_window_and_step())
    @settings(max_examples=60, deadline=None)
    def test_chunked_stack_matches_per_pair_oracle(self, panel_window_and_step):
        p, window, step = panel_window_and_step
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "_CHUNK_ELEMENTS", step * p.n_keywords * window * window)
            matrices = correlation_matrix_sequence(p, window)
        np.testing.assert_allclose(matrices, per_pair_oracle(p, window), rtol=1e-12, atol=0.0)

    @given(seeded_panel_and_window())
    @settings(max_examples=60, deadline=None)
    def test_stack_agrees_with_the_definition_oracle(self, panel_and_window):
        # stack and oracle sum in different orders: each entry within a relative 1e-12 of
        # the oracle's, and the oracle keeps 1e-9 clear of every sweep threshold, so each
        # threshold graph is the same
        p, window = panel_and_window
        expected = per_pair_oracle(p, window, distance_correlation_oracle)
        assert min(abs(expected - theta).min() for theta in THRESHOLDS) > 1e-9
        matrices = correlation_matrix_sequence(p, window)
        np.testing.assert_allclose(matrices, expected, rtol=1e-12, atol=0.0)
        for theta in THRESHOLDS:
            assert np.array_equal(threshold_graph(matrices, theta), threshold_graph(expected, theta))

    def test_overflowing_panel_rejected(self):
        p = panel_of([[1e308 * (-1) ** t for t in range(30)], range(30)])
        with pytest.raises(NonFiniteValueError, match="differences beyond float64"):
            correlation_matrix_sequence(p, window=15)

    def test_working_memory_is_bounded_and_flat_in_days(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 100, (15, 365))

        def peak_beyond_result(days):
            p = KeywordPanel(tuple(f"kw{k}" for k in range(15)), START, values[:, :days])
            tracemalloc.start()
            try:
                matrices = correlation_matrix_sequence(p, 30)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - matrices.nbytes

        long, short = peak_beyond_result(365), peak_beyond_result(120)
        assert long < 768 * 2**10
        assert long <= short + 2**16


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
        out = metric_of(p, MetricKind.DENSITY, theta=0.5, window=15)
        assert len(out) == 352
        assert out.start_date == START + timedelta(days=14)

    def test_window_equal_to_panel_length(self):
        p = panel_of([range(30), [v * 3 + 1 for v in range(30)]])
        out = metric_of(p, MetricKind.CLUSTERING, theta=0.5, window=30)
        assert len(out) == 1

    def test_matrix_sequence_is_one_read_only_stack(self):
        p = panel_of([range(20), [v % 7 for v in range(20)], [v * v for v in range(20)]])
        matrices = correlation_matrix_sequence(p, 15)
        assert matrices.shape == (6, 3, 3) and matrices.dtype == np.float64
        last = p.values[:, -15:]
        expected = np.eye(3)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            expected[i, j] = expected[j, i] = distance_correlation(last[i], last[j])
        np.testing.assert_allclose(matrices[-1], expected, rtol=1e-12, atol=0.0)
        with pytest.raises(ValueError):
            matrices[0, 0, 1] = 0.0

    def test_metric_series_from_matrices_matches_per_day_metrics(self):
        rng = np.random.default_rng(11)
        p = panel_of([rng.uniform(0, 100, 40) for _ in range(5)])
        matrices = correlation_matrix_sequence(p, 15)
        out = metric_series_from_matrices(matrices, p, MetricKind.CLUSTERING, 0.5)
        assert list(out.values) == [
            clustering_coefficient(threshold_graph(m, 0.5)) for m in matrices
        ]

    def test_identical_series_give_constant_density_one(self):
        p = panel_of([range(40), range(40), range(40)])
        out = metric_of(p, MetricKind.DENSITY, theta=0.9, window=15)
        assert set(out.values) == {1.0}

    def test_insufficient_panel(self):
        p = panel_of([range(10), range(10, 20)])
        with pytest.raises(InsufficientHistoryError):
            metric_of(p, MetricKind.DENSITY, theta=0.5, window=15)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        p = panel_of([rng.uniform(0, 100, 50) for _ in range(4)])
        for kind in MetricKind:
            out = metric_of(p, kind, theta=0.5, window=15)
            assert all(0.0 <= v <= 1.0 for v in out.values)


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

    def test_requires_one_row_per_keyword(self):
        with pytest.raises(ValueError, match="one row of values per keyword required"):
            KeywordPanel(("a", "b"), START, [[1.0, 2.0]])

    def test_from_mapping_requires_a_keyword(self):
        with pytest.raises(ValueError, match="panel must hold at least one keyword"):
            KeywordPanel.from_mapping({})

    def test_values_are_read_only(self):
        p = panel_of([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        assert p.values.shape == (2, 3) and p.end_date == START + timedelta(days=2)
        with pytest.raises(ValueError):
            p.values[0, 0] = 9.0

    def test_from_mapping_sorts_keywords(self):
        a = DateIndexedSeries(START, (1.0, 2.0))
        p = KeywordPanel.from_mapping({"z": a, "b": a})
        assert p.keywords == ("b", "z")
