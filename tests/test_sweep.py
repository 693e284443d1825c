import math
from collections import Counter
from datetime import date, timedelta

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
    SweepConfig,
    SweepResult,
    enumerate_configs,
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


def result_for(config, score):
    return SweepResult(config, score, "ok")


class TestEnumerateConfigs:
    def test_full_lattice_has_320_points(self):
        configs = enumerate_configs()
        assert len(configs) == 320
        assert len(set(configs)) == 320

    def test_product_arithmetic(self):
        assert 2 * 2 * 4 * 2 * 2 * 5 == 320

    def test_lexicographic_head(self):
        first = enumerate_configs()[0]
        assert first == SweepConfig(
            MetricKind.DENSITY, Preprocess.RESCALE, 0.4, 15, CaseKind.CONFIRMED, 7
        )

    def test_lexicographic_order_matches_sort_key(self):
        configs = enumerate_configs()
        keys = [c.sort_key() for c in configs]
        assert keys == sorted(keys)

    def test_restricted_domains(self):
        configs = enumerate_configs({**DOMAINS, "threshold": (0.5,), "radius": (7, 50)})
        assert len(configs) == 2 * 2 * 1 * 2 * 2 * 2


@pytest.fixture(scope="module")
def small_results():
    panels = {Preprocess.RESCALE: make_panel(seed=1), Preprocess.MSV: make_panel(seed=2)}
    configs = enumerate_configs(
        {**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7, 15, 20, 30, 50)}
    )
    return configs, run_sweep(panels, make_cases(), configs)


class TestRunSweep:

    def test_one_result_per_config_in_order(self, small_results):
        configs, results = small_results
        assert [r.config for r in results] == configs

    def test_all_scored_on_clean_inputs(self, small_results):
        _, results = small_results
        assert all(r.ok for r in results)
        assert all(r.dtw_score >= 0.0 for r in results)

    def test_band_nesting_result_wise(self, small_results):
        _, results = small_results
        by_config = {r.config: r for r in results}
        for r in results:
            for tighter, looser in zip((7, 15, 20, 30), (15, 20, 30, 50)):
                if r.config.radius == tighter:
                    partner = by_config[
                        SweepConfig(
                            r.config.metric,
                            r.config.preprocess,
                            r.config.threshold,
                            r.config.window,
                            r.config.case_type,
                            looser,
                        )
                    ]
                    assert r.dtw_score >= partner.dtw_score - 1e-12

    def test_rerun_is_identical(self, small_results):
        configs, results = small_results
        panels = {Preprocess.RESCALE: make_panel(seed=1), Preprocess.MSV: make_panel(seed=2)}
        again = run_sweep(panels, make_cases(), configs)
        assert [(r.config, r.dtw_score, r.status) for r in results] == [
            (r.config, r.dtw_score, r.status) for r in again
        ]

    def test_rescoring_a_result_reproduces_it(self, small_results):
        _, results = small_results
        sample = results[3]
        panels = {Preprocess.RESCALE: make_panel(seed=1), Preprocess.MSV: make_panel(seed=2)}
        redone = run_sweep(panels, make_cases(), [sample.config])
        assert redone[0].dtw_score == sample.dtw_score

    def test_degenerate_case_series_isolated(self):
        panels = {Preprocess.RESCALE: make_panel(seed=1), Preprocess.MSV: make_panel(seed=2)}
        cases = make_cases()
        cases[CaseKind.ACTIVE] = DateIndexedSeries(START, tuple([7.0] * 50))
        configs = enumerate_configs({**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7,)})
        results = run_sweep(panels, cases, configs)
        for r in results:
            if r.config.case_type is CaseKind.ACTIVE:
                assert not r.ok and "DegenerateRangeError" in r.status
                assert r.dtw_score is None
            else:
                assert r.ok

    def test_stages_are_shared_across_the_full_lattice(self, monkeypatch):
        panels = {Preprocess.RESCALE: make_panel(seed=1), Preprocess.MSV: make_panel(seed=2)}
        cases = make_cases()
        calls = {"corr": [], "metric": [], "dtw": []}

        def counting_corr(panel, window, _inner=sweep.correlation_matrix_sequence):
            calls["corr"].append((id(panel), window))
            return _inner(panel, window)

        def counting_metric(stack, first, kind, theta, _inner=sweep.metric_series_from_matrices):
            calls["metric"].append((id(stack), kind, theta))
            return _inner(stack, first, kind, theta)

        def counting_dtw(x, y, band, _inner=sweep.dtw):
            calls["dtw"].append((band.radius, x, y))
            return _inner(x, y, band)

        monkeypatch.setattr(sweep, "correlation_matrix_sequence", counting_corr)
        monkeypatch.setattr(sweep, "metric_series_from_matrices", counting_metric)
        monkeypatch.setattr(sweep, "dtw", counting_dtw)
        results = run_sweep(panels, cases)
        assert len(results) == 320 and all(r.ok for r in results)
        # once per (preprocess, window) and once per (metric, preprocess, threshold, window)
        assert sorted(calls["corr"]) == sorted(
            {(id(panels[p]), w) for p in Preprocess for w in (15, 30)}
        )
        assert len(calls["metric"]) == len(set(calls["metric"])) == 32
        # one stacked call per (window, radius); together the stacks hold each
        # configuration's aligned (case, metric) pair exactly once
        assert len(calls["dtw"]) == 10
        stacked = Counter(
            (radius, x.tobytes(), y.tobytes())
            for radius, xs, ys in calls["dtw"]
            for x, y in zip(xs, ys)
        )
        stacks = {(p, w): correlation_matrix_sequence(panels[p], w) for p in Preprocess for w in (15, 30)}
        expected = Counter()
        for cfg in enumerate_configs():
            stack = stacks[cfg.preprocess, cfg.window]
            first = START + timedelta(days=cfg.window - 1)
            metric = metric_series_from_matrices(stack, first, cfg.metric, cfg.threshold)
            case, metric = align_ranges(minmax_normalize(cases[cfg.case_type]), metric)
            expected[cfg.radius, case.values.tobytes(), metric.values.tobytes()] += 1
        assert stacked == expected

    def test_case_error_wins_over_missing_panel(self):
        panels = {Preprocess.RESCALE: make_panel(seed=1)}
        cases = make_cases()
        cases[CaseKind.ACTIVE] = DateIndexedSeries(START, tuple([7.0] * 50))
        configs = enumerate_configs({**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7,)})
        for r in run_sweep(panels, cases, configs):
            if r.config.case_type is CaseKind.ACTIVE:
                assert r.status.startswith("DegenerateRangeError: constant series")
            elif r.config.preprocess is Preprocess.MSV:
                assert r.status == "missing panel: msv"
            else:
                assert r.ok

    def test_missing_case_series_status(self):
        panels = {Preprocess.RESCALE: make_panel(seed=1), Preprocess.MSV: make_panel(seed=2)}
        cases = {CaseKind.CONFIRMED: make_cases()[CaseKind.CONFIRMED]}
        configs = enumerate_configs({**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7,)})
        for r in run_sweep(panels, cases, configs):
            expected = "missing case series: active" if r.config.case_type is CaseKind.ACTIVE else "ok"
            assert r.status == expected

    def test_panel_too_short_for_window_30(self):
        panels = {
            Preprocess.RESCALE: make_panel(length=25, seed=1),
            Preprocess.MSV: make_panel(length=25, seed=2),
        }
        configs = enumerate_configs({**DOMAINS, "threshold": (0.5,), "radius": (7,)})
        results = run_sweep(panels, make_cases(length=25), configs)
        statuses = {r.status for r in results if r.config.window == 30}
        assert statuses == {
            "InsufficientHistoryError: panel of 25 days cannot support a 30-day window"
        }
        assert all(r.ok for r in results if r.config.window == 15)

    def test_missing_panel_isolated(self):
        panels = {Preprocess.RESCALE: make_panel(seed=1)}
        configs = enumerate_configs({**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7,)})
        results = run_sweep(panels, make_cases(), configs)
        for r in results:
            assert r.ok == (r.config.preprocess is Preprocess.RESCALE)


class TestOptimalConfigs:
    def test_four_rows_in_declared_order(self):
        results = [result_for(c, float(i)) for i, c in enumerate(enumerate_configs())]
        rows = optimal_configs(results)
        assert [(r.config.metric, r.config.case_type) for r in rows] == [
            (m, ct) for m in METRICS for ct in CASE_TYPES
        ]

    def test_group_minimum_wins(self):
        configs = enumerate_configs({**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7, 50)})
        scores = {c: 100.0 for c in configs}
        winner = configs[5]
        scores[winner] = 1.0
        results = [result_for(c, scores[c]) for c in configs]
        rows = optimal_configs(results)
        assert any(r.config == winner and r.dtw_score == 1.0 for r in rows)

    def test_tie_breaks_lexicographically(self):
        configs = enumerate_configs()
        results = [result_for(c, 5.0) for c in configs]
        rows = optimal_configs(results)
        for row in rows:
            same_group = [
                c
                for c in configs
                if c.metric is row.config.metric and c.case_type is row.config.case_type
            ]
            assert row.config == min(same_group, key=lambda c: c.sort_key())

    def test_error_entries_skipped(self):
        configs = enumerate_configs({**DOMAINS, "threshold": (0.5,), "window": (15,), "radius": (7, 50)})
        results = []
        for i, c in enumerate(configs):
            if c.radius == 7:
                results.append(SweepResult(c, None, "DegenerateRangeError: constant"))
            else:
                results.append(result_for(c, float(i)))
        rows = optimal_configs(results)
        assert all(r.config.radius == 50 for r in rows)


class TestSummaries:
    def test_constant_scores_give_constant_means(self):
        results = [result_for(c, 7.25) for c in enumerate_configs()]
        report = summarize_parameter(results, "radius")
        assert set(report.level_means.values()) == {7.25}
        assert report.h_statistic == 0.0
        assert report.p_value == 1.0
        assert not report.significant

    def test_two_level_means(self):
        configs = enumerate_configs()
        results = [
            result_for(c, 1.0 if c.metric is MetricKind.DENSITY else 3.0) for c in configs
        ]
        report = summarize_parameter(results, "metric")
        assert report.level_means == {"density": 1.0, "clustering": 3.0}
        assert report.significant

    def test_six_reports_in_declared_order(self):
        results = [result_for(c, float(i % 13)) for i, c in enumerate(enumerate_configs())]
        reports = parameter_reports(results)
        assert [r.parameter for r in reports] == list(PARAMETER_NAMES)
        for report in reports:
            assert report.h_statistic >= 0.0
            assert 0.0 <= report.p_value <= 1.0

    def test_too_few_scores_name_the_parameter(self):
        configs = enumerate_configs(
            {**DOMAINS, **{name: DOMAINS[name][:1] for name in PARAMETER_NAMES}, "radius": (7, 50)}
        )
        results = [result_for(c, float(c.radius)) for c in configs]
        with pytest.raises(DegenerateGroupsError, match="^radius: need at least 3 values"):
            summarize_parameter(results, "radius")

    def test_unknown_parameter_rejected(self):
        results = [result_for(enumerate_configs()[0], 1.0)]
        with pytest.raises(ValueError):
            summarize_parameter(results, "bandwidth")
