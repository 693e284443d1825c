import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpwatch.errors import DegenerateGroupsError, NonFiniteValueError
from warpwatch.stats import _ranks_and_ties, chi_square_sf, kruskal_wallis, rank_with_ties

from oracles import kruskal_wallis_h_oracle

value_lists = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2, max_size=25
)


class TestRankWithTies:
    def test_strictly_increasing(self):
        assert rank_with_ties([10, 20, 30]) == [1.0, 2.0, 3.0]

    def test_pair_tie(self):
        assert rank_with_ties([5, 5]) == [1.5, 1.5]

    def test_triple_tie(self):
        assert rank_with_ties([7, 7, 7, 9]) == [2.0, 2.0, 2.0, 4.0]

    def test_unsorted_input(self):
        assert rank_with_ties([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_empty_rejected(self):
        with pytest.raises(DegenerateGroupsError):
            rank_with_ties([])

    def test_ndarray_input(self):
        ranks = rank_with_ties(np.array([3.0, 1.0, 1.0]))
        assert type(ranks) is list and ranks == [3.0, 1.5, 1.5]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteValueError, match=f"non-finite value {bad!r}"):
            rank_with_ties([1.0, bad, 2.0])

    def test_tie_sum_of_a_run_whose_cube_leaves_int64(self):
        t = 2**21 + 1
        ranks, tie_sum = _ranks_and_ties(np.zeros(t))
        assert tie_sum == t**3 - t and ranks[0] == (t + 1) / 2

    @given(value_lists)
    @settings(max_examples=200, deadline=None)
    def test_ranks_sum_to_triangular_number(self, values):
        n = len(values)
        assert sum(rank_with_ties(values)) == pytest.approx(n * (n + 1) / 2)


class TestChiSquareSf:
    def test_zero_statistic(self):
        for dof in range(1, 11):
            assert chi_square_sf(0.0, dof) == 1.0

    def test_dof2_closed_form(self):
        # Q(1, x/2) = exp(-x/2)
        assert chi_square_sf(2.0, 2) == pytest.approx(math.exp(-1.0), abs=1e-10)
        for x in (0.5, 1.0, 5.0, 20.0, 80.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-10)

    def test_dof1_erfc_closed_form(self):
        for x in (0.1, 0.7, 2.4, 10.0, 50.0):
            assert chi_square_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), abs=1e-10)

    def test_dof4_closed_form(self):
        # Q(2, s) = exp(-s) (1 + s) with s = x/2
        for x in (0.3, 2.0, 9.0, 40.0, 120.0):
            s = x / 2.0
            assert chi_square_sf(x, 4) == pytest.approx(math.exp(-s) * (1.0 + s), abs=1e-10)

    def test_dof6_closed_form(self):
        # Q(3, s) = exp(-s) (1 + s + s^2/2)
        for x in (1.0, 7.0, 30.0, 200.0):
            s = x / 2.0
            expected = math.exp(-s) * (1.0 + s + s * s / 2.0)
            assert chi_square_sf(x, 6) == pytest.approx(expected, abs=1e-10)

    def test_monotone_in_x(self):
        for dof in (1, 3, 5, 10):
            values = [chi_square_sf(x / 4.0, dof) for x in range(0, 801)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)

    def test_infinite_statistic(self):
        for dof in range(1, 11):
            assert chi_square_sf(math.inf, dof) == 0.0

    def test_statistic_whose_half_underflows(self):
        for dof in range(1, 11):
            assert chi_square_sf(5e-324, dof) == 1.0

    def test_nan_statistic_rejected(self):
        with pytest.raises(ValueError, match="statistic must be nonnegative, got nan"):
            chi_square_sf(math.nan, 2)

    @pytest.mark.parametrize("dof", [2.5, math.nan, math.inf])
    def test_non_integral_dof_rejected(self, dof):
        with pytest.raises(ValueError, match="must be a positive integer"):
            chi_square_sf(3.0, dof)


class TestKruskalWallis:
    def test_symmetric_duplicate_groups(self):
        h, p = kruskal_wallis([(1, 2, 3), (1, 2, 3)])
        assert h == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_hand_computed_rank_sums(self):
        # ranks 1,2 vs 3,4: R = (3, 7), no ties, H = 2.4
        h, p = kruskal_wallis([(1, 2), (3, 4)])
        assert h == pytest.approx(2.4, abs=1e-9)
        assert p == pytest.approx(math.erfc(math.sqrt(2.4 / 2.0)), abs=1e-10)

    def test_all_values_identical(self):
        h, p = kruskal_wallis([(5.0, 5.0), (5.0, 5.0, 5.0)])
        assert (h, p) == (0.0, 1.0)

    def test_tie_correction_applied(self):
        # with ties the uncorrected H underestimates; correction divides by
        # 1 - sum(t^3 - t) / (n^3 - n)
        h_tied, _ = kruskal_wallis([(1, 1, 2), (3, 3, 4)])
        n = 6
        correction = 1.0 - (2 * (2 ** 3 - 2)) / (n ** 3 - n)
        ranks_a = [1.5, 1.5, 3.0]
        ranks_b = [4.5, 4.5, 6.0]
        raw = 12.0 / (n * (n + 1)) * (
            sum(ranks_a) ** 2 / 3 + sum(ranks_b) ** 2 / 3
        ) - 3 * (n + 1)
        assert h_tied == pytest.approx(raw / correction, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(NonFiniteValueError):
            kruskal_wallis([[1.0, bad], [3.0, 4.0]])

    def test_structural_errors(self):
        with pytest.raises(DegenerateGroupsError):
            kruskal_wallis([(1, 2, 3)])
        with pytest.raises(DegenerateGroupsError):
            kruskal_wallis([(1, 2), ()])
        with pytest.raises(DegenerateGroupsError):
            kruskal_wallis([(1,), (2,)])

    # half-integer grid: the shift must not absorb tiny value differences in
    # float64, or the tie structure itself changes
    grid_lists = st.lists(
        st.integers(min_value=-2000, max_value=2000).map(lambda n: n / 2.0),
        min_size=2,
        max_size=25,
    )

    @given(grid_lists, grid_lists, st.integers(min_value=-100, max_value=100).map(lambda n: n / 2.0))
    @settings(max_examples=150, deadline=None)
    def test_shift_invariance(self, a, b, shift):
        h1, p1 = kruskal_wallis([a, b])
        h2, p2 = kruskal_wallis([[v + shift for v in a], [v + shift for v in b]])
        assert h1 == pytest.approx(h2, abs=1e-9)
        assert p1 == pytest.approx(p2, abs=1e-9)

    @given(value_lists, value_lists, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_within_group_permutation_invariance(self, a, b, rng):
        h1, p1 = kruskal_wallis([a, b])
        a2, b2 = list(a), list(b)
        rng.shuffle(a2)
        rng.shuffle(b2)
        h2, p2 = kruskal_wallis([a2, b2])
        assert h1 == pytest.approx(h2, abs=1e-9)
        assert p1 == pytest.approx(p2, abs=1e-9)

    @given(value_lists, value_lists)
    @settings(max_examples=150, deadline=None)
    def test_h_nonnegative_p_in_unit_interval(self, a, b):
        h, p = kruskal_wallis([a, b])
        assert h >= 0.0
        assert 0.0 <= p <= 1.0


class TestLoopOracle:
    @given(st.lists(st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.5, 1e-300]) | st.floats(-1e3, 1e3, allow_nan=False),
                             min_size=1, max_size=30), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_h_and_p_are_bit_identical_to_the_loop_oracle(self, groups):
        if sum(map(len, groups)) < 3:
            return
        h, p = kruskal_wallis(groups)
        assert h == kruskal_wallis_h_oracle(groups)
        assert p == chi_square_sf(h, len(groups) - 1)


class TestScipyCrossCheck:
    """Agreement with scipy.stats on random groups, beyond C09's fixed cases."""

    @staticmethod
    def random_groups(rng, tied):
        # tied groups draw from five integer levels; untied ones from a continuum
        draw = (lambda: float(rng.randint(0, 4))) if tied else (lambda: rng.uniform(-50.0, 50.0))
        return [[draw() for _ in range(rng.randint(1, 12))] for _ in range(rng.randint(2, 6))]

    def test_kruskal_wallis_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(2504)
        checked = 0
        for trial in range(400):
            groups = self.random_groups(rng, tied=trial % 2 == 0)
            pooled = [v for g in groups for v in g]
            if len(pooled) < 3 or len(set(pooled)) == 1:
                continue  # structural error, or the all-identical case below
            h, p = kruskal_wallis(groups)
            expected = stats.kruskal(*groups)
            assert h == pytest.approx(expected.statistic, rel=1e-12, abs=1e-12)
            assert p == pytest.approx(expected.pvalue, rel=1e-12, abs=1e-13)
            checked += 1
        assert checked >= 350

    def test_rank_with_ties_matches_scipy_rankdata(self):
        stats = pytest.importorskip("scipy.stats")
        # up to 300 values drawn from at most 32 levels give long runs of ties; -0.0 and 0.0 are one value
        levels = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=30)
        values = st.tuples(levels, st.integers(1, 300)).flatmap(
            lambda drawn: st.lists(st.sampled_from([-0.0, 0.0, *drawn[0]]), min_size=drawn[1], max_size=drawn[1])
        )

        @given(values)
        @settings(max_examples=40, deadline=None)
        def check(values):
            assert rank_with_ties(values) == stats.rankdata(values, method="average").tolist()

        check()
        assert rank_with_ties([0.0, -0.0, 0.0, -1.0]) == [3.0, 3.0, 3.0, 1.0]

    def test_all_identical_pool_is_defined_where_scipy_is_not(self):
        stats = pytest.importorskip("scipy.stats")
        groups = [[3.0, 3.0], [3.0], [3.0, 3.0, 3.0]]
        assert kruskal_wallis(groups) == (0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = stats.kruskal(*groups)
        assert math.isnan(expected.statistic) and math.isnan(expected.pvalue)

    def test_chi_square_sf_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for dof in range(1, 11):
            for x in range(0, 201):
                expected = stats.chi2.sf(x, dof)
                assert chi_square_sf(float(x), dof) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_chi_square_sf_large_dof_matches_scipy(self):
        # exp(-x/2) underflows past x = 1490, yet the sum for a dof near x is not small
        stats = pytest.importorskip("scipy.stats")
        for dof in (11, 50, 201, 2000):
            for ratio in (0.25, 0.9, 1.0, 1.1, 2.0):
                expected = stats.chi2.sf(dof * ratio, dof)
                assert chi_square_sf(dof * ratio, dof) == pytest.approx(expected, rel=1e-11, abs=1e-14)
