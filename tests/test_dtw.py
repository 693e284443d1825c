import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from warpwatch.dtw import BandSpec, dtw
from warpwatch.errors import (
    BandInfeasibleError,
    EmptySeriesError,
    LengthMismatchError,
    NonFiniteValueError,
)

from oracles import admits, brute_force_dtw

UNBOUNDED = BandSpec()

small_series = st.lists(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=6
)


@st.composite
def tied_pairs(draw):
    """Integer-valued x and y of lengths 1-12 that fit a radius None or 0-4.

    Small integers make ties common, so the path pins the tie-break order.
    """
    radius = draw(st.sampled_from([None, 0, 1, 2, 3, 4]))
    n = draw(st.integers(1, 12))
    spread = 12 if radius is None else radius
    m = draw(st.integers(max(1, n - spread), min(12, n + spread)))
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    return draw(st.lists(values, min_size=n, max_size=n)), draw(st.lists(values, min_size=m, max_size=m)), radius


@st.composite
def stacked_pairs(draw):
    """k row pairs of lengths n and m (often unequal), integer-valued or real, and a radius."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    m = min(40, max(1, n + draw(st.integers(-10, 10))))
    values = draw(st.sampled_from([
        st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        st.floats(-5.0, 5.0, allow_nan=False),
    ]))
    xs = draw(arrays(np.float64, (k, n), elements=values))
    ys = draw(arrays(np.float64, (k, m), elements=values))
    return xs, ys, draw(st.sampled_from([None, *range(10)]))


@st.composite
def ragged_pairs(draw):
    """2-6 row pairs with lengths drawn row by row, every pair inside a drawn radius."""
    radius = draw(st.sampled_from([None, *range(10)]))
    spread = 10 if radius is None else radius
    values = draw(st.sampled_from([
        st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        st.floats(-5.0, 5.0, allow_nan=False),
    ]))
    xs, ys = [], []
    for _ in range(draw(st.integers(2, 6))):
        n = draw(st.integers(1, 30))
        m = draw(st.integers(max(1, n - spread), n + spread))
        xs.append(draw(arrays(np.float64, n, elements=values)))
        ys.append(draw(arrays(np.float64, m, elements=values)))
    return xs, ys, radius


def path_is_valid(pairs, n: int, m: int, band: BandSpec) -> bool:
    if pairs[0] != (1, 1) or pairs[-1] != (n, m):
        return False
    for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
        if (i2 - i1, j2 - j1) not in {(1, 0), (0, 1), (1, 1)}:
            return False
    return all(admits(band, i, j) for i, j in pairs)


def full_matrix_dtw(x, y, radius):
    """Distance and 1-based path from the whole (N+1) x (M+1) DP table.

    Cells outside the band hold +inf. The backtrack takes a predecessor
    only when it is strictly cheaper than those before it in the order
    diagonal, up (i-1, j), left (i, j-1), so the first minimum wins ties.
    """
    n, m = len(x), len(y)
    inf = float("inf")
    acc = [[inf] * (m + 1) for _ in range(n + 1)]
    acc[0][0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if radius is None or abs(i - j) <= radius:
                best = min(acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1])
                acc[i][j] = abs(x[i - 1] - y[j - 1]) + best
    i, j, path = n, m, [(n, m)]
    while (i, j) != (1, 1):
        step, best = (i - 1, j - 1), acc[i - 1][j - 1]
        for cell in ((i - 1, j), (i, j - 1)):
            if acc[cell[0]][cell[1]] < best:
                step, best = cell, acc[cell[0]][cell[1]]
        i, j = step
        path.append(step)
    return acc[n][m], tuple(reversed(path))


def resummed_cost(path, x, y) -> float:
    total = 0.0
    for i, j in path:
        total += abs(x[i - 1] - y[j - 1])
    return total


class TestBandSpec:
    def test_radius_validation(self):
        with pytest.raises(ValueError):
            BandSpec(-1)


class TestDtw:
    @pytest.mark.parametrize("band", [UNBOUNDED, BandSpec(0), BandSpec(3)])
    def test_identical_series(self, band):
        result = dtw((1, 2, 3), (1, 2, 3), band)
        assert result.distance == 0.0
        assert result.path == ((1, 1), (2, 2), (3, 3))

    def test_radius_zero_is_elementwise_l1(self):
        result = dtw((1, 2, 3), (2, 2, 2), BandSpec(0))
        assert result.distance == 2.0
        assert result.path == ((1, 1), (2, 2), (3, 3))

    def test_enumeration_oracle_case(self):
        # minimum over all valid paths on the 3x2 grid, computed by the
        # exhaustive oracle before this module existed
        result = dtw((0, 3, 1), (2, 0), UNBOUNDED)
        assert result.distance == 4.0
        assert resummed_cost(result.path, (0, 3, 1), (2, 0)) == pytest.approx(4.0, abs=1e-9)

    def test_band_infeasible(self):
        with pytest.raises(BandInfeasibleError):
            dtw((1, 2, 3), tuple(range(10)), BandSpec(2))

    def test_empty_inputs(self):
        with pytest.raises(EmptySeriesError):
            dtw((), (1,))
        with pytest.raises(EmptySeriesError):
            dtw((1,), ())

    def test_y_never_normalized(self):
        # y enters costing as-is; distance reflects its raw scale
        result = dtw((0.0, 1.0), (10.0, 20.0), UNBOUNDED)
        assert result.distance == pytest.approx(29.0)

    def test_single_cell(self):
        result = dtw((0.75,), (0.25,))
        assert result.distance == 0.5
        assert result.path == ((1, 1),)

    def test_tie_break_on_unequal_lengths(self):
        # all-zero costs: every predecessor ties, so the diagonal wins wherever
        # it exists; the first row can only step left
        assert dtw((5, 5, 5), (5, 5, 5, 5)).path == ((1, 1), (1, 2), (2, 3), (3, 4))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_input_rejected(self, value, side):
        bad, good = [1.0, value, 2.0], [1.0, 1.0, 1.0]
        x, y = (bad, good) if side == "x" else (good, bad)
        with pytest.raises(NonFiniteValueError, match=repr(value)):
            dtw(x, y, BandSpec(1))

    def test_overflowing_distance_rejected(self):
        with pytest.raises(NonFiniteValueError, match="overflows"):
            dtw((1e308,), (-1e308,))


class TestStackedDtw:
    def test_returns_one_distance_per_row_pair(self):
        xs = [[0.0, 1.0, 2.0], [1.0, 1.0, 1.0]]
        ys = [[0.0, 2.0], [3.0, 1.0]]
        distances = dtw(xs, ys, BandSpec(1))
        assert distances.dtype == np.float64 and distances.shape == (2,)
        assert distances.tolist() == [dtw(x, y, BandSpec(1)).distance for x, y in zip(xs, ys)]

    def test_stack_heights_must_match(self):
        with pytest.raises(LengthMismatchError, match="3 x series against 2 y series"):
            dtw(np.zeros((3, 4)), np.zeros((2, 4)))

    @pytest.mark.parametrize("shape", [(2, 0), (0, 3)])
    def test_empty_rows_rejected(self, shape):
        with pytest.raises(EmptySeriesError):
            dtw(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_value_names_its_row(self, side):
        bad, good = np.ones((3, 4)), np.ones((3, 4))
        bad[2, 1] = float("nan")
        x, y = (bad, good) if side == "x" else (good, bad)
        with pytest.raises(NonFiniteValueError, match=r"nan .* in row 2$"):
            dtw(x, y, BandSpec(1))

    def test_stack_must_pair_with_a_stack(self):
        with pytest.raises(ValueError, match="expected 2-dimensional"):
            dtw(np.zeros((2, 3)), np.zeros(3))

    def test_infeasible_band_rejects_the_stack(self):
        with pytest.raises(BandInfeasibleError):
            dtw(np.zeros((2, 3)), np.zeros((2, 10)), BandSpec(2))

    def test_overflowing_pair_leaves_the_others_unchanged(self):
        xs = [[0.5, 1.0], [1e308, 1e308], [2.0, 0.0]]
        ys = [[0.25, 3.0], [-1e308, -1e308], [1.0, 1.0]]
        distances = dtw(xs, ys)
        assert distances[1] == float("inf")
        kept = [0, 2]
        assert distances[kept].tolist() == [dtw(xs[i], ys[i]).distance for i in kept]

    @given(stacked_pairs())
    @settings(max_examples=60, deadline=None)
    def test_stacked_distances_equal_single_pair_distances(self, case):
        xs, ys, radius = case
        band = BandSpec(radius)
        if radius is not None and abs(xs.shape[1] - ys.shape[1]) > radius:
            with pytest.raises(BandInfeasibleError):
                dtw(xs, ys, band)
            return
        assert dtw(xs, ys, band).tolist() == [dtw(x, y, band).distance for x, y in zip(xs, ys)]

    @given(ragged_pairs())
    @settings(max_examples=60, deadline=None)
    def test_ragged_distances_are_the_single_pair_distances_bit_for_bit(self, case):
        xs, ys, radius = case
        band = BandSpec(radius)
        expected = np.array([dtw(x, y, band).distance for x, y in zip(xs, ys)])
        assert dtw(xs, ys, band).tobytes() == expected.tobytes()

    def test_ragged_stack_with_one_infeasible_pair_is_rejected(self):
        xs = [np.zeros(3), np.zeros(8), np.zeros(5)]
        ys = [np.zeros(3), np.zeros(4), np.zeros(6)]
        assert dtw(xs, ys, BandSpec(4)).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(BandInfeasibleError, match="4 exceeds radius 3"):
            dtw(xs, ys, BandSpec(3))

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_value_in_a_ragged_row_names_its_row(self, side):
        bad, good = [[1.0], [1.0, 2.0], [1.0, float("nan"), 3.0]], [[1.0], [2.0, 2.0], [3.0, 3.0, 3.0]]
        x, y = (bad, good) if side == "x" else (good, bad)
        with pytest.raises(NonFiniteValueError, match=r"nan .* in row 2$"):
            dtw(x, y, BandSpec(1))

    def test_empty_row_of_a_ragged_stack_rejected(self):
        with pytest.raises(EmptySeriesError):
            dtw([[1.0, 2.0], [], [3.0]], [[1.0, 2.0], [1.0], [3.0]])


class TestProperties:
    @given(small_series, small_series, st.sampled_from([None, 0, 1, 2, 4, 8]))
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration_oracle(self, x, y, radius):
        band = BandSpec(radius)
        try:
            expected = brute_force_dtw(x, y, band)
        except BandInfeasibleError:
            with pytest.raises(BandInfeasibleError):
                dtw(x, y, band)
            return
        result = dtw(x, y, band)
        assert result.distance == pytest.approx(expected, abs=1e-9)
        assert path_is_valid(result.path, len(x), len(y), band)
        assert resummed_cost(result.path, x, y) == pytest.approx(result.distance, abs=1e-9)

    @given(tied_pairs())
    @settings(max_examples=300, deadline=None)
    def test_tie_break_matches_full_matrix_oracle(self, case):
        x, y, radius = case
        result = dtw(x, y, BandSpec(radius))
        assert (result.distance, result.path) == full_matrix_dtw(x, y, radius)

    @given(small_series, small_series)
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, x, y):
        assert dtw(x, y, UNBOUNDED).distance == dtw(y, x, UNBOUNDED).distance

    @given(small_series)
    @settings(max_examples=100, deadline=None)
    def test_identity(self, x):
        result = dtw(x, x, UNBOUNDED)
        assert result.distance == 0.0
        assert result.path == tuple((i, i) for i in range(1, len(x) + 1))

    @given(small_series, small_series)
    @settings(max_examples=150, deadline=None)
    def test_band_nesting(self, x, y):
        gap = abs(len(x) - len(y))
        radii = [r for r in (0, 1, 2, 4) if r >= gap]
        distances = [dtw(x, y, BandSpec(r)).distance for r in radii]
        distances.append(dtw(x, y, UNBOUNDED).distance)
        for tighter, looser in zip(distances, distances[1:]):
            assert tighter >= looser - 1e-12

    @given(small_series, small_series)
    @settings(max_examples=100, deadline=None)
    def test_deterministic_path(self, x, y):
        first = dtw(x, y, UNBOUNDED)
        second = dtw(x, y, UNBOUNDED)
        assert first.path == second.path
        assert first.distance == second.distance
