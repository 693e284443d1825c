import itertools
import math
import warnings
import weakref
from collections import Counter
from datetime import date

import numpy as np
import pytest

from warpwatch import sweep
from warpwatch.cases import CaseKind
from warpwatch.errors import DegenerateGroupsError
from warpwatch.network import (
    KeywordPanel,
    MetricKind,
    correlation_matrix_sequence,
    metric_series_from_matrices,
)
from warpwatch.sweep import (
    CASE_TYPES,
    DOMAINS,
    METRICS,
    PARAMETER_NAMES,
    Preprocess,
    lattice_shape,
    optimal_configs,
    parameter_reports,
    run_sweep,
    summarize_parameter,
)
from warpwatch.testkit import Lcg
from warpwatch.timeseries import DateIndexedSeries, align_ranges, minmax_normalize

START = date(2020, 3, 16)


def make_panel(n_keywords=4, length=50, seed=1):
    rng = Lcg(seed)
    series = {}
    for k in range(n_keywords):
        center = length / 2 + 3 * k
        values = tuple(
            min(
                100.0,
                max(
                    0.0,
                    100.0 * math.exp(-0.5 * ((t - center) / 10.0) ** 2)
                    + 5.0 * rng.next_float(),
                ),
            )
            for t in range(length)
        )
        series[f"kw{k}"] = DateIndexedSeries(START, values)
    return KeywordPanel.from_mapping(series)


def make_cases(length=50, lag=4):
    bump = lambda t: 40.0 * math.exp(-0.5 * ((t - length / 2) / 8.0) ** 2)
    confirmed = DateIndexedSeries(START, tuple(round(bump(t)) + 1.0 for t in range(length)))
    active = DateIndexedSeries(START, tuple(round(bump(t - lag)) * 3 + 2.0 for t in range(length)))
    return {CaseKind.CONFIRMED: confirmed, CaseKind.ACTIVE: active}


def product(domains=DOMAINS):
    """The lattice's configurations, in the order the sweep scores them."""
    return list(itertools.product(*(domains[name] for name in PARAMETER_NAMES)))


def records(scores):
    """A sweep result holding ``scores`` in lattice order; NaN reads as a failed configuration."""
    scores = np.asarray(scores, dtype=float).ravel()
    status = np.where(np.isnan(scores), "DegenerateRangeError: constant", "ok")
    return np.rec.fromarrays([scores, status, status == "ok"], names="score,status,ok")


def one_level(levels):
    """Domains whose only configuration is ``levels``."""
    return {name: (level,) for name, level in zip(PARAMETER_NAMES, levels)}


def panels_and_cases():
    return {Preprocess.RESCALE: make_panel(seed=1), Preprocess.MSV: make_panel(seed=2)}, make_cases()


class TestLattice:
    def test_full_lattice_has_320_points(self):
        assert lattice_shape() == (2, 2, 4, 2, 2, 5)
        assert len(set(product())) == math.prod(lattice_shape()) == 320

    def test_radius_is_the_last_parameter(self):
        # run_sweep scores a (pair, radius) grid and ravels it: lattice order only while radius comes last
        assert PARAMETER_NAMES[-1] == "radius"

    def test_product_arithmetic(self):
        assert 2 * 2 * 4 * 2 * 2 * 5 == 320

    def test_lexicographic_head(self, small_results):
        domains, results = small_results
        first = (MetricKind.DENSITY, Preprocess.RESCALE, 0.5, 15, CaseKind.CONFIRMED, 7)
        assert product(domains)[0] == first
        assert run_sweep(*panels_and_cases(), one_level(first)).score[0] == results.score[0]

    def test_restricted_domains(self):
        domains = {**DOMAINS, "threshold": (0.5,), "radius": (7, 50)}
        assert lattice_shape(domains) == (2, 2, 1, 2, 2, 2)
        assert math.prod(lattice_shape(domains)) == len(product(domains)) == 2 * 2 * 1 * 2 * 2 * 2


@pytest.fixture(scope="module")
def small_results():
    panels, cases = panels_and_cases()
    domains = {**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7, 15, 20, 30, 50)}
    return domains, run_sweep(panels, cases, domains)


class TestRunSweep:

    def test_one_result_per_config_in_order(self, small_results):
        # record k is the k-th configuration of the product: rescoring it alone gives its score
        domains, results = small_results
        assert len(results) == math.prod(lattice_shape(domains)) == 40
        panels, cases = panels_and_cases()
        for levels, r in zip(product(domains), results):
            assert run_sweep(panels, cases, one_level(levels)).score[0] == r.score

    def test_all_scored_on_clean_inputs(self, small_results):
        _, results = small_results
        assert results.ok.all() and set(results.status) == {"ok"}
        assert (results.score >= 0.0).all()

    def test_band_nesting_result_wise(self, small_results):
        domains, results = small_results
        scores = results.score.reshape(lattice_shape(domains))
        assert domains["radius"] == (7, 15, 20, 30, 50)
        assert np.all(np.diff(scores, axis=-1) <= 1e-12)

    def test_rerun_is_identical(self, small_results):
        domains, results = small_results
        again = run_sweep(*panels_and_cases(), domains)
        assert results.score.tobytes() == again.score.tobytes()
        assert results.status.tolist() == again.status.tolist()

    def test_rescoring_a_result_reproduces_it(self, small_results):
        domains, results = small_results
        redone = run_sweep(*panels_and_cases(), one_level(product(domains)[3]))
        assert len(redone) == 1 and redone.score[0] == results.score[3]

    def test_degenerate_case_series_isolated(self):
        panels, cases = panels_and_cases()
        cases[CaseKind.ACTIVE] = DateIndexedSeries(START, tuple([7.0] * 50))
        domains = {**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7,)}
        results = run_sweep(panels, cases, domains)
        for (*_, case_type, _), r in zip(product(domains), results):
            if case_type is CaseKind.ACTIVE:
                assert not r.ok and "DegenerateRangeError" in r.status
                assert math.isnan(r.score)
            else:
                assert r.ok

    def test_stages_are_shared_across_the_full_lattice(self, monkeypatch):
        panels, cases = panels_and_cases()
        calls = {"corr": [], "metric": [], "align": [], "dtw": []}
        built, alive = [], []  # a weak reference to each stack; how many earlier stacks live as each is built

        def counting_corr(panel, window, _inner=sweep.correlation_matrix_sequence):
            calls["corr"].append((id(panel), window))
            alive.append(sum(ref() is not None for ref in built))
            stack = _inner(panel, window)
            built.append(weakref.ref(stack))
            return stack

        def counting_metric(stack, panel, kind, theta, _inner=sweep.metric_series_from_matrices):
            # a freed stack's id can be reused, so a stack is named by its place in build order
            calls["metric"].append((next(i for i, ref in enumerate(built) if ref() is stack), kind, theta))
            return _inner(stack, panel, kind, theta)

        def counting_align(a, b, _inner=sweep.align_ranges):
            calls["align"].append((a, b))
            return _inner(a, b)

        def counting_dtw(x, y, band, _inner=sweep.dtw):
            calls["dtw"].append((band.radius, x, y))
            return _inner(x, y, band)

        monkeypatch.setattr(sweep, "correlation_matrix_sequence", counting_corr)
        monkeypatch.setattr(sweep, "metric_series_from_matrices", counting_metric)
        monkeypatch.setattr(sweep, "align_ranges", counting_align)
        monkeypatch.setattr(sweep, "dtw", counting_dtw)
        results = run_sweep(panels, cases)
        assert len(results) == 320 and results.ok.all()
        # once per (preprocess, window) and once per (metric, preprocess, threshold, window)
        assert sorted(calls["corr"]) == sorted(
            {(id(panels[p]), w) for p in Preprocess for w in (15, 30)}
        )
        assert len(calls["metric"]) == len(set(calls["metric"])) == 32
        # each stack is used up and freed before the next one is built
        assert alive == [0, 0, 0, 0]
        # once per (metric, preprocess, threshold, window, case_type) pair, whatever the radius
        assert len(calls["align"]) == 64
        assert len({(id(a), id(b)) for a, b in calls["align"]}) == 64
        # one stacked call per radius, its rows of both aligned lengths (one per window);
        # together the stacks hold each configuration's aligned (case, metric) pair exactly once
        assert len(calls["dtw"]) == 5
        stacked = Counter(
            (radius, x.tobytes(), y.tobytes())
            for radius, xs, ys in calls["dtw"]
            for x, y in zip(xs, ys)
        )
        stacks = {(p, w): correlation_matrix_sequence(panels[p], w) for p in Preprocess for w in (15, 30)}
        expected = Counter()
        for metric_kind, preprocess, threshold, window, case_type, radius in product():
            metric = metric_series_from_matrices(stacks[preprocess, window], panels[preprocess], metric_kind, threshold)
            case, metric = align_ranges(minmax_normalize(cases[case_type]), metric)
            expected[radius, case.values.tobytes(), metric.values.tobytes()] += 1
        assert stacked == expected

    @pytest.mark.parametrize(
        "length, domains, expected",
        [
            (
                50,
                {**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7,)},
                {"DegenerateRangeError": 4, "missing panel": 2, "ok": 2},
            ),
            (
                25,
                {**DOMAINS, "radius": (7,)},
                {"DegenerateRangeError": 32, "InsufficientHistoryError": 8, "missing panel": 16, "ok": 8},
            ),
        ],
        ids=["one-stack", "stack-too-short-for-window-30"],
    )
    def test_case_error_wins_over_missing_panel(self, length, domains, expected):
        panels = {Preprocess.RESCALE: make_panel(length=length, seed=1)}
        cases = make_cases(length=length)
        cases[CaseKind.ACTIVE] = DateIndexedSeries(START, tuple([7.0] * length))
        results = run_sweep(panels, cases, domains)
        for (_, preprocess, _, window, case_type, _), r in zip(product(domains), results):
            if case_type is CaseKind.ACTIVE:
                assert r.status.startswith("DegenerateRangeError: constant series")
            elif preprocess is Preprocess.MSV:
                assert r.status == "missing panel: msv"
            elif window > length:
                assert r.status == f"InsufficientHistoryError: panel of {length} days cannot support a {window}-day window"
            else:
                assert r.ok
        assert Counter(status.split(":")[0] for status in results.status) == expected

    def test_metric_error_fails_only_its_metric(self):
        # a one-keyword panel makes one-node graphs: density is undefined on them, clustering is not
        panels = {p: make_panel(n_keywords=1, seed=seed) for seed, p in enumerate(Preprocess, 1)}
        results = run_sweep(panels, make_cases())
        density = np.array([levels[0] is MetricKind.DENSITY for levels in product()])
        assert density.sum() == (~density).sum() == 160
        assert set(results.status[density]) == {"TooFewNodesError: density undefined on 1 node(s)"}
        assert results.ok[~density].all()
        # a case series' error wins over the metric's
        cases = make_cases()
        cases[CaseKind.ACTIVE] = DateIndexedSeries(START, tuple([7.0] * 50))
        results = run_sweep(panels, cases)
        active = np.array([levels[4] is CaseKind.ACTIVE for levels in product()])
        assert all(status.startswith("DegenerateRangeError: constant series") for status in results.status[active])
        assert set(results.status[density & ~active]) == {"TooFewNodesError: density undefined on 1 node(s)"}
        assert results.ok[~density & ~active].all()

    def test_missing_case_series_status(self):
        panels, cases = panels_and_cases()
        del cases[CaseKind.ACTIVE]
        domains = {**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7,)}
        for (*_, case_type, _), r in zip(product(domains), run_sweep(panels, cases, domains)):
            expected = "missing case series: active" if case_type is CaseKind.ACTIVE else "ok"
            assert r.status == expected

    def test_panel_too_short_for_window_30(self):
        panels = {
            Preprocess.RESCALE: make_panel(length=25, seed=1),
            Preprocess.MSV: make_panel(length=25, seed=2),
        }
        domains = {**DOMAINS, "threshold": (0.5,), "radius": (7,)}
        results = run_sweep(panels, make_cases(length=25), domains)
        window = np.array([levels[3] for levels in product(domains)])
        assert set(results.status[window == 30]) == {
            "InsufficientHistoryError: panel of 25 days cannot support a 30-day window"
        }
        assert results.ok[window == 15].all()

    def test_missing_panel_isolated(self):
        panels = {Preprocess.RESCALE: make_panel(seed=1)}
        domains = {**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7,)}
        for (_, preprocess, *_), r in zip(product(domains), run_sweep(panels, make_cases(), domains)):
            assert r.ok == (preprocess is Preprocess.RESCALE)

    def test_records_count_as_the_benchmark_tracer_counts_them(self):
        # the benchmark's tracer takes len() of the result and sums r.ok over its records
        panels = {Preprocess.RESCALE: make_panel(seed=1)}
        domains = {**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7, 50)}
        results = run_sweep(panels, make_cases(), domains)
        assert len(results) == math.prod(lattice_shape(domains)) == 16
        assert all(isinstance(r.ok, (bool, np.bool_)) for r in results)
        assert sum(1 for r in results if r.ok) == int(results.ok.sum()) == 8
        failed = [r for r in results if not r.ok]
        assert failed and all(math.isnan(r.score) and r.status == "missing panel: msv" for r in failed)


class TestOptimalConfigs:
    def test_four_rows_in_declared_order(self):
        rows = optimal_configs(records(np.arange(320.0)))
        assert [(levels["metric"], levels["case_type"]) for levels, _ in rows] == [
            (m, ct) for m in METRICS for ct in CASE_TYPES
        ]

    def test_group_minimum_wins(self):
        domains = {**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7, 50)}
        scores = np.full(math.prod(lattice_shape(domains)), 100.0)
        scores[5] = 1.0
        rows = optimal_configs(records(scores), domains)
        winner = dict(zip(PARAMETER_NAMES, product(domains)[5]))
        assert any(levels == winner and score == 1.0 for levels, score in rows)

    def test_tie_breaks_lexicographically(self):
        configs = product()
        for levels, _ in optimal_configs(records(np.full(320, 5.0))):
            same_group = [
                c for c in configs if c[0] is levels["metric"] and c[4] is levels["case_type"]
            ]
            assert tuple(levels.values()) == same_group[0]

    def test_error_entries_skipped(self):
        domains = {**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7, 50)}
        scores = np.arange(float(math.prod(lattice_shape(domains))))
        scores.reshape(lattice_shape(domains))[..., 0] = np.nan  # every radius-7 configuration failed
        rows = optimal_configs(records(scores), domains)
        assert len(rows) == 4 and all(levels["radius"] == 50 for levels, _ in rows)

    def test_block_with_no_scored_configuration_is_omitted(self):
        scores = np.arange(320.0).reshape(lattice_shape())
        scores[1, :, :, :, 1, :] = np.nan  # every clustering/active configuration failed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = optimal_configs(records(scores))
        assert [(levels["metric"], levels["case_type"]) for levels, _ in rows] == [
            (MetricKind.DENSITY, CaseKind.CONFIRMED),
            (MetricKind.DENSITY, CaseKind.ACTIVE),
            (MetricKind.CLUSTERING, CaseKind.CONFIRMED),
        ]

    def test_tie_behind_a_failed_configuration_goes_to_the_earliest_scored(self):
        # clustering/active ties exactly between radius 30 and 50, after failed radius 7-20 rows
        scores = np.full(lattice_shape(), 13.0)
        block = scores[1, :, :, :, 1, :]
        block[0, 0, 0, :3] = np.nan
        block[0, 0, 0, 3:] = 12.2992
        block[1, 0, 0, 3] = 12.2992  # the same tie again, later in lattice order
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels, score = optimal_configs(records(scores))[3]
        assert score == 12.2992
        assert levels == dict(
            zip(PARAMETER_NAMES, (MetricKind.CLUSTERING, Preprocess.RESCALE, 0.4, 15, CaseKind.ACTIVE, 30))
        )


class TestSummaries:
    def test_constant_scores_give_constant_means(self):
        report = summarize_parameter(records(np.full(320, 7.25)), "radius")
        assert set(report.level_means.values()) == {7.25}
        assert report.h_statistic == 0.0
        assert report.p_value == 1.0
        assert not report.significant

    def test_two_level_means(self):
        scores = np.empty(lattice_shape())
        scores[0], scores[1] = 1.0, 3.0  # density, clustering
        report = summarize_parameter(records(scores), "metric")
        assert report.level_means == {"density": 1.0, "clustering": 3.0}
        assert report.significant

    def test_six_reports_in_declared_order(self):
        reports = parameter_reports(records(np.arange(320) % 13))
        assert [r.parameter for r in reports] == list(PARAMETER_NAMES)
        for report in reports:
            assert report.h_statistic >= 0.0
            assert 0.0 <= report.p_value <= 1.0

    def test_unscored_configurations_and_levels_are_left_out(self):
        scores = np.arange(320.0).reshape(lattice_shape())
        scores[..., 0] = np.nan  # every radius-7 configuration failed
        report = summarize_parameter(records(scores), "radius")
        assert list(report.level_means) == ["15", "20", "30", "50"]
        # a level's group is its slice along the radius axis, in lattice order
        assert report.level_means["15"] == scores[..., 1].mean()

    def test_too_few_scores_name_the_parameter(self):
        domains = {**DOMAINS, **{name: DOMAINS[name][:1] for name in PARAMETER_NAMES}, "radius": (7, 50)}
        with pytest.raises(DegenerateGroupsError, match="^radius: need at least 3 values"):
            summarize_parameter(records([7.0, 50.0]), "radius", domains)

    def test_no_scored_configuration_rejected(self):
        with pytest.raises(ValueError, match="no successful results to summarize for 'window'"):
            summarize_parameter(records(np.full(320, np.nan)), "window")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            summarize_parameter(records([1.0]), "bandwidth", one_level(product()[0]))
