import pytest

from warpwatch.dtw import BandSpec, dtw
from warpwatch.errors import BandInfeasibleError
from warpwatch.testkit import Lcg, SyntheticScenario, synth_pair
from warpwatch.timeseries import minmax_normalize

from oracles import TooLargeError, admits, brute_force_dtw, graph_metric_oracle


class TestBruteForceDtw:
    def test_identical_series(self):
        assert brute_force_dtw((1, 2, 3), (1, 2, 3)) == 0.0

    def test_enumeration_value(self):
        assert brute_force_dtw((0, 3, 1), (2, 0)) == 4.0

    def test_infeasible_band(self):
        with pytest.raises(BandInfeasibleError):
            brute_force_dtw((1, 2), (1, 2, 3, 4, 5, 6), BandSpec(1))

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            brute_force_dtw(tuple(range(9)), (1, 2))

    def test_admits(self):
        band = BandSpec(2)
        assert admits(band, 5, 7) and not admits(band, 5, 8)
        assert admits(BandSpec(), 0, 99)


class TestGraphMetricOracle:
    def test_triangle(self):
        assert graph_metric_oracle(3, {(0, 1), (0, 2), (1, 2)}) == (1.0, 1.0)

    def test_path_graph(self):
        assert graph_metric_oracle(4, {(0, 1), (1, 2), (2, 3)}) == (0.5, 0.0)

    def test_triangle_plus_pendant(self):
        density, transitivity = graph_metric_oracle(4, {(0, 1), (0, 2), (1, 2), (0, 3)})
        assert density == pytest.approx(4 / 6)
        assert transitivity == 0.6

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            graph_metric_oracle(9, ())

    @pytest.mark.parametrize("edge", [(1, 0), (0, 0), (0, 4)])
    def test_edges_must_be_ordered_pairs_of_nodes(self, edge):
        with pytest.raises(ValueError, match="invalid for 4 nodes"):
            graph_metric_oracle(4, {edge})


class TestLcg:
    def test_deterministic(self):
        a = Lcg(42)
        b = Lcg(42)
        assert [a.next_float() for _ in range(10)] == [b.next_float() for _ in range(10)]

    def test_outputs_in_unit_interval(self):
        rng = Lcg(7)
        for _ in range(1000):
            assert 0.0 <= rng.next_float() < 1.0

    def test_seed_changes_stream(self):
        assert Lcg(1).next_float() != Lcg(2).next_float()


class TestSynthPair:
    def test_zero_lag_zero_noise_aligns_exactly(self):
        case, metric = synth_pair(SyntheticScenario(length=80, lag=0, noise_amplitude=0.0, seed=3))
        assert case.values.tolist() == metric.values.tolist()
        result = dtw(minmax_normalize(case).values, metric.values)
        assert result.distance == 0.0

    def test_deterministic_per_seed(self):
        sc = SyntheticScenario(length=60, lag=5, noise_amplitude=0.1, seed=99)
        first = synth_pair(sc)
        second = synth_pair(sc)
        assert first == second

    def test_seed_matters_with_noise(self):
        a = synth_pair(SyntheticScenario(length=60, lag=5, noise_amplitude=0.1, seed=1))
        b = synth_pair(SyntheticScenario(length=60, lag=5, noise_amplitude=0.1, seed=2))
        assert a[1].values.tolist() != b[1].values.tolist()

    def test_shortest_length_builds_at_every_lag(self):
        with pytest.raises(ValueError, match="length must be at least 3, got 2"):
            SyntheticScenario(length=2)
        for lag in range(3):
            case, metric = synth_pair(SyntheticScenario(length=3, lag=lag))
            assert len(case) == len(metric) == 3

    def test_values_in_unit_interval(self):
        case, metric = synth_pair(SyntheticScenario(length=90, lag=12, noise_amplitude=0.3, seed=8))
        assert all(0.0 <= v <= 1.0 for v in case.values)
        assert all(0.0 <= v <= 1.0 for v in metric.values)

    def test_wide_band_recovers_lag_better_than_narrow(self):
        case, metric = synth_pair(SyntheticScenario(length=100, lag=10, noise_amplitude=0.0, seed=0))
        wide = dtw(case.values, metric.values, BandSpec(10)).distance
        narrow = dtw(case.values, metric.values, BandSpec(5)).distance
        assert wide < narrow

    def test_lag_must_fit(self):
        with pytest.raises(ValueError):
            SyntheticScenario(length=10, lag=10)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1])
    def test_noise_must_be_finite_and_nonnegative(self, noise):
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {noise}"):
            SyntheticScenario(length=10, noise_amplitude=noise)


class TestOracleAgreement:
    def test_brute_force_agrees_with_engine_on_random_grid(self):
        rng = Lcg(2024)
        for _ in range(150):
            n = 2 + int(rng.next_float() * 5)
            m = 2 + int(rng.next_float() * 5)
            x = [float(int(rng.next_float() * 4)) for _ in range(n)]
            y = [float(int(rng.next_float() * 4)) for _ in range(m)]
            for radius in (None, 0, 1, 2):
                band = BandSpec(radius)
                try:
                    expected = brute_force_dtw(x, y, band)
                except BandInfeasibleError:
                    with pytest.raises(BandInfeasibleError):
                        dtw(x, y, band)
                    continue
                assert dtw(x, y, band).distance == pytest.approx(expected, abs=1e-9)
