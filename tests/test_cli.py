import argparse
import csv
import hashlib
import importlib.util
import json
import logging
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import warpwatch
from warpwatch import cases, cli, trends
from warpwatch.cli import _build_parser, main
from warpwatch.errors import DegenerateRangeError
from warpwatch.testkit import Lcg
from warpwatch.timeseries import COLUMNAR_MIN_BYTES, DateIndexedSeries, minmax_normalize, read_series_csv, write_series_csv

from conftest import KEYWORDS

MAR16 = date(2020, 3, 16)


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.readline().removeprefix("# manifest: "))


def body_digest(paths):
    """SHA-256 over each file's name and body: CSV manifest lines and the JSON ``manifest`` key left out."""
    digest = hashlib.sha256()
    for path in paths:
        if path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            del payload["manifest"]
            body = json.dumps(payload, sort_keys=True)
        else:
            body = "".join(line for line in path.read_text(encoding="utf-8").splitlines(True) if not line.startswith("#"))
        digest.update(f"{path.name}\n{body}".encode())
    return digest.hexdigest()


def write_dirty_linelist(path):
    """A plain line list of at least COLUMNAR_MIN_BYTES: padded in-region fields, off-region rows
    with bad dates, blank regions, removals before confirmation, and patients confirmed in March
    whose removals fall in April, so an April start clamps."""
    rows = ["CaseCode,RegionRes,ProvinceRes,DateRepConf,DateRepRem,Age"]
    for n in range(30_000):
        conf = date(2020, 3, 1) + timedelta(days=(37 * n + n // 97) % 120)
        if n % 9 == 0:
            rows.append(f"C{n},Region IV-A,Cavite,not-a-date,??,{n % 90}")
        elif n % 13 == 0:
            rows.append(f"C{n},,NCR,{conf},,{n % 90}")
        elif n % 7 == 1:
            conf = date(2020, 3, 1) + timedelta(days=n % 30)
            rows.append(f"C{n},NCR,NCR,{conf},{conf + timedelta(days=32 + n % 5)},{n % 90}")
        else:
            removal = "" if n % 5 == 0 else conf + timedelta(days=n % 23 - (10 if n % 4 == 0 else 0))
            rows.append(f"C{n}, NCR ,NCR , {conf} ,{removal},{n % 90}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert path.stat().st_size >= COLUMNAR_MIN_BYTES
    return path


def write_columnar_trends(directory):
    """A plain segment file of at least COLUMNAR_MIN_BYTES with CRLF line ends, padded keyword
    fields, segments starting every 5 days (so each overlaps the next 5) and rows in shuffled
    order, plus a weekly reference covering every segment day."""
    rng = Lcg(19)
    keywords = ("fever", "cough", "masks", "flu", "lockdown", "quarantine", "testing", "ubo")
    rows, weekly = [], ["keyword,week_start,value"]
    for k, keyword in enumerate(keywords):
        for s in range(0, 560, 5):
            start = date(2020, 3, 1) + timedelta(days=s)
            for i in range(30):
                value = 0.0 if rng.next_float() < 0.05 else 1.0 + 99.0 * rng.next_float()
                rows.append(f"{' ' * (k % 3)}{keyword} ,{start},{start + timedelta(days=i)},{value:.4f}")
        weekly += [f"{keyword},{date(2020, 3, 1) + timedelta(days=7 * w)},{1.0 + 99.0 * rng.next_float():.4f}" for w in range(84)]
    for i in range(len(rows) - 1, 0, -1):  # Fisher-Yates with the reproducible generator
        j = int(rng.next_float() * (i + 1))
        rows[i], rows[j] = rows[j], rows[i]
    segments = directory / "segments.csv"
    segments.write_bytes(("\r\n".join(["keyword,segment_start,date,value", *rows]) + "\r\n").encode("ascii"))
    assert segments.stat().st_size >= COLUMNAR_MIN_BYTES
    (directory / "weekly.csv").write_text("\n".join(weekly) + "\n", encoding="utf-8")
    return segments, directory / "weekly.csv"


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--lag", 10, "--seed", 42, "--outdir", out1) == 0
        assert run("synth", "--lag", 10, "--seed", 42, "--outdir", out2) == 0
        assert (out1 / "case.csv").read_bytes() == (out2 / "case.csv").read_bytes()
        assert (out1 / "metric.csv").read_bytes() == (out2 / "metric.csv").read_bytes()

    def test_lag_at_least_length_is_usage_error(self, tmp_path):
        assert run("synth", "--length", 30, "--lag", 30, "--outdir", tmp_path / "o") == 2

    def test_outputs_survive_round_trip(self, tmp_path):
        assert run("synth", "--length", 50, "--noise", 0.05, "--seed", 7, "--outdir", tmp_path) == 0
        case = read_series_csv(str(tmp_path / "case.csv"))
        metric = read_series_csv(str(tmp_path / "metric.csv"))
        assert len(case) == len(metric) == 50


class TestDtw:
    def test_zero_lag_pair_has_zero_distance(self, tmp_path):
        synth_dir = tmp_path / "synth"
        out = tmp_path / "dtw"
        assert run("synth", "--lag", 0, "--noise", 0, "--outdir", synth_dir) == 0
        assert (
            run(
                "dtw",
                "--case", synth_dir / "case.csv",
                "--metric", synth_dir / "metric.csv",
                "--radius", 7,
                "--outdir", out,
            )
            == 0
        )
        payload = json.loads((out / "dtw.json").read_text())
        assert payload["distance"] == 0.0
        rows = read_rows(out / "alignment.csv")
        assert rows[0] == [
            "case_index", "metric_index", "case_date", "metric_date",
            "normalized_case", "metric_value",
        ]
        assert rows[1][:2] == ["1", "1"]
        assert all(row[0] == row[1] for row in rows[1:])  # diagonal alignment

    def test_band_nesting_on_lagged_pair(self, tmp_path):
        synth_dir = tmp_path / "synth"
        assert run("synth", "--lag", 10, "--noise", 0.02, "--seed", 42, "--outdir", synth_dir) == 0
        distances = {}
        for radius in (7, 50):
            out = tmp_path / f"r{radius}"
            assert (
                run(
                    "dtw",
                    "--case", synth_dir / "case.csv",
                    "--metric", synth_dir / "metric.csv",
                    "--radius", radius,
                    "--outdir", out,
                )
                == 0
            )
            distances[radius] = json.loads((out / "dtw.json").read_text())["distance"]
        assert distances[50] < distances[7]

    def test_infeasible_band_exits_3(self, tmp_path):
        a = DateIndexedSeries(MAR16, (1.0, 2.0, 3.0))
        b = DateIndexedSeries(MAR16, tuple(float(v) for v in range(10)))
        write_series_csv(a, str(tmp_path / "a.csv"))
        write_series_csv(b, str(tmp_path / "b.csv"))
        code = run(
            "dtw", "--case", tmp_path / "a.csv", "--metric", tmp_path / "b.csv",
            "--radius", 2, "--outdir", tmp_path / "out",
        )
        assert code == 3

    def test_normalized_alignment_resums_to_distance(self, tmp_path):
        # integer triangles: min-max maps the case onto multiples of 1/8 and the
        # metric is a multiple of 3/32, so every printed value is exact
        def triangle(t, peak):
            return max(0, 8 - abs(t - peak))

        case = DateIndexedSeries(MAR16, tuple(3.0 + 2.0 * triangle(t, 15) for t in range(40)))
        metric = DateIndexedSeries(MAR16, tuple(0.09375 * triangle(t, 19) for t in range(40)))
        write_series_csv(case, str(tmp_path / "case.csv"))
        write_series_csv(metric, str(tmp_path / "metric.csv"))
        out = tmp_path / "out"
        assert run(
            "dtw", "--case", tmp_path / "case.csv", "--metric", tmp_path / "metric.csv",
            "--radius", 10, "--normalize", "--outdir", out,
        ) == 0
        distance = json.loads((out / "dtw.json").read_text())["distance"]
        rows = read_rows(out / "alignment.csv")[1:]
        assert distance > 0.0
        assert sum(abs(float(r[4]) - float(r[5])) for r in rows) == pytest.approx(distance, abs=1e-9)
        assert {float(r[4]) for r in rows} == set(minmax_normalize(case).values)

    def test_normalize_constant_case_exits_2(self, tmp_path, capsys):
        case = DateIndexedSeries(MAR16, (5.0,) * 10)
        metric = DateIndexedSeries(MAR16, tuple(t / 10.0 for t in range(10)))
        write_series_csv(case, str(tmp_path / "case.csv"))
        write_series_csv(metric, str(tmp_path / "metric.csv"))
        with pytest.raises(DegenerateRangeError) as expected:
            minmax_normalize(case)
        code = run(
            "dtw", "--case", tmp_path / "case.csv", "--metric", tmp_path / "metric.csv",
            "--normalize", "--outdir", tmp_path / "out",
        )
        assert code == 2
        assert str(expected.value) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ((), "ba1022c4fa6dedd7d2f3208fada240e2bd57ad6cc9abfe7bdae2b160398addaa"),
            (("--radius", 20, "--normalize"), "ce18fa1005ef0344270c2f2ce852ff2b263deb0598cc11791149611d72a5914b"),
        ],
    )
    def test_pipeline_alignment_is_pinned(self, tmp_path, sweep_inputs, flags, expected):
        # confirmed cases (110 days) against a density series (96 days) built from
        # the fixture inputs; SHA-256 recorded before DTW moved to band-only storage
        panel, series = tmp_path / "panel", tmp_path / "series"
        assert run("preprocess", "--segments", sweep_inputs.segments, "--method", "msv", "--outdir", panel) == 0
        assert run(
            "metrics", "--panel-dir", panel, "--metric", "density", "--threshold", 0.5,
            "--window", 15, "--outdir", series,
        ) == 0
        assert run(
            "cases", "--linelist", sweep_inputs.linelist, "--region", "NCR", "--province", "NCR",
            "--start", sweep_inputs.start, "--end", sweep_inputs.end, "--outdir", series,
        ) == 0
        out = tmp_path / "dtw"
        assert run(
            "dtw", "--case", series / "confirmed.csv", "--metric", series / "metric.csv", *flags, "--outdir", out,
        ) == 0
        assert body_digest([out / "dtw.json", out / "alignment.csv"]) == expected

    def test_disjoint_ranges_exit_2(self, tmp_path):
        a = DateIndexedSeries(MAR16, (1.0, 2.0, 3.0))
        b = DateIndexedSeries(MAR16 + timedelta(days=30), (1.0, 2.0, 3.0))
        write_series_csv(a, str(tmp_path / "a.csv"))
        write_series_csv(b, str(tmp_path / "b.csv"))
        code = run(
            "dtw", "--case", tmp_path / "a.csv", "--metric", tmp_path / "b.csv",
            "--outdir", tmp_path / "out",
        )
        assert code == 2


class TestPreprocess:
    def test_rescale_writes_per_keyword_series(self, tmp_path, sweep_inputs):
        out = tmp_path / "panel"
        code = run(
            "preprocess", "--segments", sweep_inputs.segments,
            "--weekly", sweep_inputs.weekly, "--method", "rescale", "--outdir", out,
        )
        assert code == 0
        files = sorted(out.glob("*.csv"))
        assert len(files) == 6
        series = read_series_csv(str(files[0]))
        assert series.start_date == sweep_inputs.start
        assert len(series) == 110

    def test_msv_writes_max_100_series(self, tmp_path, sweep_inputs):
        out = tmp_path / "panel"
        code = run(
            "preprocess", "--segments", sweep_inputs.segments,
            "--method", "msv", "--outdir", out,
        )
        assert code == 0
        for path in out.glob("*.csv"):
            assert max(read_series_csv(str(path)).values) == 100.0

    @pytest.mark.parametrize(
        "method, leg, expected",
        [
            ("rescale", "rows", "f416650e677d892fcde92ebc72a92dc1d086121421df270d68795cc5121ab688"),
            ("msv", "rows", "c9bf904366c6c92ae45b77f061d11684f52d47390e4d75e0d3d1d13237c55450"),
            ("rescale", "columns", "36587b2ae1d2f3878cdd22a8a931b2c92df89ed2a8959c07e08e91eb7b2edfe4"),
            ("msv", "columns", "9ec002738f38fd0c9696adb7d1ad5bb23cd29e4de19191faad68b893ecc585c3"),
        ],
    )
    def test_reconstruction_bodies_are_pinned(self, tmp_path, sweep_inputs, monkeypatch, method, leg, expected):
        # SHA-256 of every written file name and body (manifest lines excluded); the rows leg
        # recorded before the trends layer moved onto arrays, the columns leg while segments
        # were still per-segment objects
        if leg == "rows":
            segments, weekly_path = sweep_inputs.segments, sweep_inputs.weekly
        else:
            segments, weekly_path = write_columnar_trends(tmp_path)
            monkeypatch.setattr(trends, "_segments_from_rows", None)  # the columnar path must answer alone
        out = tmp_path / "panel"
        weekly = ["--weekly", weekly_path] if method == "rescale" else []
        code = run("preprocess", "--segments", segments, *weekly, "--method", method, "--outdir", out)
        assert code == 0
        assert body_digest(sorted(out.glob("*.csv"))) == expected

    def test_missing_weekly_for_rescale_is_usage_error(self, tmp_path, sweep_inputs):
        code = run(
            "preprocess", "--segments", sweep_inputs.segments,
            "--method", "rescale", "--outdir", tmp_path / "o",
        )
        assert code == 2

    def test_non_overlapping_segments_fail_msv(self, tmp_path):
        lines = ["keyword,segment_start,date,value"]
        for start_offset in (0, 40):
            seg_start = MAR16 + timedelta(days=start_offset)
            for i in range(30):
                d = seg_start + timedelta(days=i)
                lines.append(f"cough,{seg_start.isoformat()},{d.isoformat()},10.0")
        seg_file = tmp_path / "segments.csv"
        seg_file.write_text("\n".join(lines) + "\n")
        code = run("preprocess", "--segments", seg_file, "--method", "msv", "--outdir", tmp_path / "o")
        assert code == 2


class TestMetrics:
    @pytest.fixture()
    def panel_dir(self, tmp_path, sweep_inputs):
        out = tmp_path / "panel"
        assert (
            run(
                "preprocess", "--segments", sweep_inputs.segments,
                "--weekly", sweep_inputs.weekly, "--method", "rescale", "--outdir", out,
            )
            == 0
        )
        return out

    def test_density_series_row_count(self, tmp_path, panel_dir):
        out = tmp_path / "metrics"
        code = run(
            "metrics", "--panel-dir", panel_dir, "--metric", "density",
            "--threshold", 0.5, "--window", 15, "--outdir", out,
        )
        assert code == 0
        series = read_series_csv(str(out / "metric.csv"))
        assert len(series) == 110 - 15 + 1
        assert all(0.0 <= v <= 1.0 for v in series.values)

    @pytest.mark.parametrize("window", [15, 30])
    def test_series_is_dated_from_the_panel(self, tmp_path, panel_dir, window):
        # day t's matrix covers [t - window + 1, t], so the series runs from the panel's day window - 1 to its last
        panel = read_series_csv(str(sorted(panel_dir.glob("*.csv"))[0]))
        out = tmp_path / "metrics"
        code = run(
            "metrics", "--panel-dir", panel_dir, "--metric", "clustering",
            "--threshold", 0.5, "--window", window, "--outdir", out,
        )
        assert code == 0
        rows = read_rows(out / "metric.csv")[1:]
        assert rows[0][0] == (panel.start_date + timedelta(days=window - 1)).isoformat()
        assert rows[-1][0] == panel.end_date.isoformat()

    def test_threshold_out_of_range_is_usage_error(self, tmp_path, panel_dir):
        code = run(
            "metrics", "--panel-dir", panel_dir, "--metric", "density",
            "--threshold", 1.5, "--window", 15, "--outdir", tmp_path / "m",
        )
        assert code == 2

    def test_window_not_in_domain_is_usage_error(self, tmp_path, panel_dir):
        code = run(
            "metrics", "--panel-dir", panel_dir, "--metric", "density",
            "--threshold", 0.5, "--window", 20, "--outdir", tmp_path / "m",
        )
        assert code == 2

    def test_identical_panel_gives_constant_clustering(self, tmp_path):
        panel = tmp_path / "panel"
        panel.mkdir()
        values = tuple(float(v % 17) for v in range(40))
        for name in ("a", "b", "c"):
            write_series_csv(DateIndexedSeries(MAR16, values), str(panel / f"{name}.csv"))
        out = tmp_path / "metrics"
        code = run(
            "metrics", "--panel-dir", panel, "--metric", "clustering",
            "--threshold", 0.8, "--window", 15, "--outdir", out,
        )
        assert code == 0
        assert set(read_series_csv(str(out / "metric.csv")).values) == {1.0}

    def test_ragged_coverage_exits_2_naming_the_keyword(self, tmp_path, capsys):
        panel = tmp_path / "panel"
        panel.mkdir()
        values = [float(v % 17) for v in range(40)]
        for name, length in (("cough", 40), ("fever", 40), ("masks", 39)):
            write_series_csv(DateIndexedSeries(MAR16, values[:length]), str(panel / f"{name}.csv"))
        code = run(
            "metrics", "--panel-dir", panel, "--metric", "density",
            "--threshold", 0.5, "--window", 15, "--outdir", tmp_path / "metrics",
        )
        assert code == 2
        assert "'masks' covers [2020-03-16, 2020-04-23]" in capsys.readouterr().err

    def test_overflowing_panel_exits_2_with_one_error_line(self, tmp_path, capsys):
        panel = tmp_path / "panel"
        panel.mkdir()
        values = tuple(1e308 * (-1) ** v for v in range(40))
        for name in ("a", "b"):
            write_series_csv(DateIndexedSeries(MAR16, values), str(panel / f"{name}.csv"))
        code = run(
            "metrics", "--panel-dir", panel, "--metric", "density",
            "--threshold", 0.5, "--window", 15, "--outdir", tmp_path / "metrics",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: a window holds a NaN or infinite value, or differences beyond float64\n"
        assert not (tmp_path / "metrics" / "metric.csv").exists()


class TestCases:
    def test_confirmed_and_active_share_range(self, tmp_path, sweep_inputs):
        out = tmp_path / "cases"
        code = run(
            "cases", "--linelist", sweep_inputs.linelist, "--region", "NCR",
            "--province", "NCR", "--start", sweep_inputs.start.isoformat(),
            "--end", sweep_inputs.end.isoformat(), "--outdir", out,
        )
        assert code == 0
        confirmed = read_series_csv(str(out / "confirmed.csv"))
        active = read_series_csv(str(out / "active.csv"))
        assert confirmed.start_date == active.start_date
        assert len(confirmed) == len(active) == 110

    def test_no_matching_records_gives_zero_series(self, tmp_path, sweep_inputs):
        out = tmp_path / "cases"
        code = run(
            "cases", "--linelist", sweep_inputs.linelist, "--region", "Region V",
            "--province", "Albay", "--start", "2020-03-16", "--end", "2020-03-20",
            "--outdir", out,
        )
        assert code == 0
        assert set(read_series_csv(str(out / "confirmed.csv")).values) == {0.0}

    @pytest.mark.parametrize(
        "leg, expected",
        [
            ("rows", "b8e617915be7179b7539f1dd3d8066fe9e456a1654f949db4aac03989dc1b663"),
            ("columns", "9e819ac74d686ec2e52578ae76ca63a45655bad42545a556db9f28fb5f7e573e"),
        ],
    )
    def test_case_bodies_are_pinned(self, tmp_path, sweep_inputs, monkeypatch, caplog, leg, expected):
        # SHA-256 recorded when the line list was still read into per-row records
        if leg == "rows":
            linelist, start, end = sweep_inputs.linelist, sweep_inputs.start, sweep_inputs.end
        else:
            linelist, start, end = write_dirty_linelist(tmp_path / "linelist.csv"), date(2020, 4, 1), date(2020, 6, 15)
            monkeypatch.setattr(cases, "_linelist_from_rows", None)  # the columnar path must answer alone
        out = tmp_path / "cases"
        with caplog.at_level(logging.WARNING, logger="warpwatch.cases"):
            code = run(
                "cases", "--linelist", linelist, "--region", "NCR", "--province", "NCR",
                "--start", start, "--end", end, "--outdir", out,
            )
        assert code == 0
        clamps = [m for m in caplog.messages if m.startswith("active-case clamp")]
        assert bool(clamps) == (leg == "columns")
        assert body_digest([out / "confirmed.csv", out / "active.csv"]) == expected

    def test_malformed_date_exits_2(self, tmp_path):
        linelist = tmp_path / "linelist.csv"
        linelist.write_text(
            "RegionRes,ProvinceRes,DateRepConf,DateRepRem\nNCR,NCR,03/16/2020,\n"
        )
        code = run(
            "cases", "--linelist", linelist, "--region", "NCR", "--province", "NCR",
            "--start", "2020-03-16", "--end", "2020-03-20", "--outdir", tmp_path / "o",
        )
        assert code == 2


# every lattice level under the label a --config file and the manifest use
LEVEL_LABELS = {
    "metric": ["density", "clustering"],
    "preprocess": ["rescale", "msv"],
    "threshold": [0.4, 0.5, 0.6, 0.8],
    "window": [15, 30],
    "case_type": ["confirmed", "active"],
    "radius": [7, 15, 20, 30, 50],
}


class TestSweep:
    def sweep(self, tmp_path, inputs, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return run(
            "sweep", "--segments", inputs.segments, "--weekly", inputs.weekly,
            "--linelist", inputs.linelist, "--region", "NCR", "--province", "NCR",
            "--config", path, "--outdir", tmp_path / "sweep",
        )

    @pytest.mark.parametrize("pick", range(5))
    def test_every_level_label_is_accepted_and_echoed(self, tmp_path, sweep_inputs, pick):
        # five one-configuration sweeps that between them name every level
        config = {name: [labels[pick % len(labels)]] for name, labels in LEVEL_LABELS.items()}
        assert self.sweep(tmp_path, sweep_inputs, config) == 0
        manifest = read_manifest(tmp_path / "sweep" / "sweep.csv")
        assert manifest["parameters"]["domains"] == config
        rows = read_rows(tmp_path / "sweep" / "sweep.csv")
        assert rows[1:] == [[str(labels[0]) for labels in config.values()] + [rows[1][6], "ok"]]

    @pytest.mark.parametrize(
        "name, label",
        [("metric", "Density"), ("window", "15"), ("radius", 8), ("radius", [7]), ("metric", {"density": 1})],
    )
    def test_label_outside_the_table_exits_2(self, tmp_path, sweep_inputs, capsys, name, label):
        assert self.sweep(tmp_path, sweep_inputs, {name: [label]}) == 2
        assert f"does not admit {label!r}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_repeated_level_exits_2(self, tmp_path, sweep_inputs, capsys):
        assert self.sweep(tmp_path, sweep_inputs, {"radius": [7, 7]}) == 2
        assert "sweep parameter 'radius' repeats level 7" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_levels_run_in_lattice_order(self, tmp_path, sweep_inputs):
        names = ("sweep.csv", "optimal_configs.csv", "parameter_report.json")
        runs = []
        for radii in ([50, 7], [7, 50]):
            out = tmp_path / "-".join(map(str, radii))
            out.mkdir()
            config = {"threshold": [0.5], "window": [15], "radius": radii}
            assert self.sweep(out, sweep_inputs, config) == 0
            sweep_dir = out / "sweep"
            runs.append(
                (
                    body_digest([sweep_dir / name for name in names]),
                    read_manifest(sweep_dir / "sweep.csv")["parameters"]["domains"]["radius"],
                    [row[5] for row in read_rows(sweep_dir / "sweep.csv")[1:3]],
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][1:] == ([7, 50], ["7", "50"])

    def test_too_few_scores_name_the_parameter(self, tmp_path, sweep_inputs, capsys):
        config = {name: [labels[0]] for name, labels in LEVEL_LABELS.items()}
        assert self.sweep(tmp_path, sweep_inputs, {**config, "radius": [50, 7]}) == 2
        assert "error: radius: need at least 3 values overall, got 2" in capsys.readouterr().err

    def test_restricted_sweep_artifacts(self, tmp_path, sweep_inputs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": [0.5], "window": [15], "radius": [7, 50]}))
        out = tmp_path / "sweep"
        code = run(
            "sweep", "--segments", sweep_inputs.segments, "--weekly", sweep_inputs.weekly,
            "--linelist", sweep_inputs.linelist, "--region", "NCR", "--province", "NCR",
            "--config", config, "--outdir", out,
        )
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0] == [
            "metric", "preprocess", "threshold", "window",
            "case_type", "radius", "dtw_score", "status",
        ]
        assert len(rows) - 1 == 2 * 2 * 1 * 1 * 2 * 2
        assert all(row[-1] == "ok" for row in rows[1:])

        report = json.loads((out / "parameter_report.json").read_text())
        assert set(report["parameters"]) == {
            "metric", "preprocess", "threshold", "window", "case_type", "radius",
        }
        optimal = read_rows(out / "optimal_configs.csv")
        assert len(optimal) - 1 == 4

    def test_full_sweep_artifacts_are_pinned(self, tmp_path, sweep_inputs):
        # all 320 configurations on the fixture inputs; SHA-256 recorded before
        # DTW moved to band-only storage
        out = tmp_path / "sweep"
        assert run(
            "sweep", "--segments", sweep_inputs.segments, "--weekly", sweep_inputs.weekly,
            "--linelist", sweep_inputs.linelist, "--region", "NCR", "--province", "NCR", "--outdir", out,
        ) == 0
        names = ("sweep.csv", "optimal_configs.csv", "parameter_report.json")
        assert body_digest([out / name for name in names]) == "e55127c7483a6f695a02c9f93ee61b31903315b7c57b753b39b43500baf86c5d"

    def test_unknown_config_key_rejected(self, tmp_path, sweep_inputs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bandwidth": [1]}))
        code = run(
            "sweep", "--segments", sweep_inputs.segments, "--weekly", sweep_inputs.weekly,
            "--linelist", sweep_inputs.linelist, "--region", "NCR", "--province", "NCR",
            "--config", config, "--outdir", tmp_path / "o",
        )
        assert code == 2

    def test_off_domain_level_rejected(self, tmp_path, sweep_inputs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": [0.7]}))
        code = run(
            "sweep", "--segments", sweep_inputs.segments, "--weekly", sweep_inputs.weekly,
            "--linelist", sweep_inputs.linelist, "--region", "NCR", "--province", "NCR",
            "--config", config, "--outdir", tmp_path / "o",
        )
        assert code == 2

    def test_all_configs_failing_exits_2(self, tmp_path, sweep_inputs):
        # a region with no line-list matches gives constant (all-zero) case
        # series, so every configuration fails normalization
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": [0.5], "window": [15], "radius": [7]}))
        out = tmp_path / "sweep"
        code = run(
            "sweep", "--segments", sweep_inputs.segments, "--weekly", sweep_inputs.weekly,
            "--linelist", sweep_inputs.linelist, "--region", "Nowhere", "--province", "Nowhere",
            "--config", config, "--outdir", out,
        )
        assert code == 2
        rows = read_rows(out / "sweep.csv")  # the status column still records why
        assert all("DegenerateRangeError" in row[-1] for row in rows[1:])

    def test_header_only_segment_file_exits_2(self, tmp_path, sweep_inputs, capsys):
        segments = tmp_path / "segments.csv"
        segments.write_text("keyword,segment_start,date,value\n", encoding="utf-8")
        code = run(
            "sweep", "--segments", segments, "--weekly", sweep_inputs.weekly,
            "--linelist", sweep_inputs.linelist, "--region", "NCR", "--province", "NCR",
            "--outdir", tmp_path / "sweep",
        )
        assert code == 2
        assert capsys.readouterr().err == "error: no segment rows after the header\n"


class TestPipelineComposition:
    def test_emitted_files_feed_the_next_stage(self, tmp_path, sweep_inputs):
        """preprocess -> metrics -> cases -> dtw, entirely through files."""
        panel = tmp_path / "panel"
        assert run(
            "preprocess", "--segments", sweep_inputs.segments,
            "--weekly", sweep_inputs.weekly, "--method", "rescale", "--outdir", panel,
        ) == 0
        metrics_out = tmp_path / "metrics"
        assert run(
            "metrics", "--panel-dir", panel, "--metric", "density",
            "--threshold", 0.5, "--window", 15, "--outdir", metrics_out,
        ) == 0
        cases_out = tmp_path / "cases"
        assert run(
            "cases", "--linelist", sweep_inputs.linelist, "--region", "NCR",
            "--province", "NCR", "--start", sweep_inputs.start.isoformat(),
            "--end", sweep_inputs.end.isoformat(), "--outdir", cases_out,
        ) == 0
        dtw_out = tmp_path / "dtw"
        assert run(
            "dtw", "--case", cases_out / "confirmed.csv",
            "--metric", metrics_out / "metric.csv",
            "--radius", 50, "--normalize", "--outdir", dtw_out,
        ) == 0
        payload = json.loads((dtw_out / "dtw.json").read_text())
        assert payload["distance"] >= 0.0
        assert payload["path_length"] >= 110 - 15 + 1
        rows = read_rows(dtw_out / "alignment.csv")
        assert len(rows) - 1 == payload["path_length"]


class TestManifest:
    def test_parameters_are_the_flags_but_outdir(self, tmp_path, sweep_inputs):
        subparsers = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": [0.5], "window": [15], "radius": [7]}))
        inputs = sweep_inputs
        # each run's input files; the panel is the preprocess run's output, one CSV per keyword
        runs = [
            ("synth", [], "case.csv", []),
            ("preprocess", ["--segments", inputs.segments, "--weekly", inputs.weekly,
                            "--method", "rescale"], "cough.csv", [inputs.segments, inputs.weekly]),
            ("metrics", ["--panel-dir", tmp_path / "preprocess", "--metric", "density",
                         "--threshold", 0.5, "--window", 15], "metric.csv",
             [tmp_path / "preprocess" / f"{keyword}.csv" for keyword in KEYWORDS]),
            ("cases", ["--linelist", inputs.linelist, "--region", "NCR", "--province", "NCR",
                       "--start", inputs.start.isoformat(), "--end", inputs.end.isoformat()],
             "confirmed.csv", [inputs.linelist]),
            ("dtw", ["--case", tmp_path / "synth" / "case.csv",
                     "--metric", tmp_path / "synth" / "metric.csv"], "dtw.json",
             [tmp_path / "synth" / "case.csv", tmp_path / "synth" / "metric.csv"]),
            ("sweep", ["--segments", inputs.segments, "--weekly", inputs.weekly,
                       "--linelist", inputs.linelist, "--region", "NCR", "--province", "NCR",
                       "--config", config], "sweep.csv", [inputs.segments, inputs.linelist, inputs.weekly]),
        ]
        assert {name for name, _, _, _ in runs} == set(subparsers.choices)
        for name, argv, artifact, input_paths in runs:
            assert run(name, *argv, "--outdir", tmp_path / name) == 0
            path = tmp_path / name / artifact
            if artifact.endswith(".json"):
                manifest = json.loads(path.read_text())["manifest"]
            else:
                manifest = read_manifest(path)
            flags = {
                a.dest
                for a in subparsers.choices[name]._actions
                if a.option_strings and a.dest not in ("help", "outdir")
            }
            assert manifest["command"] == name
            assert set(manifest["parameters"]) == flags | ({"domains"} if name == "sweep" else set())
            assert manifest["inputs"] == {
                str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in input_paths
            }


# the interpreter's built-in SHA-256 module, or None where it was built without built-in hashes
BUILTIN_SHA256 = next((name for name in ("_sha2", "_sha256") if importlib.util.find_spec(name)), None)
needs_builtin_sha256 = pytest.mark.skipif(BUILTIN_SHA256 is None, reason="no built-in SHA-256 module")


def run_child(script, *argv):
    """``python -c script argv...`` on this process's warpwatch; its last stdout line."""
    src = str(Path(warpwatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script, *map(str, argv)], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def manifest_inputs(paths):
    return cli._manifest(argparse.Namespace(subcommand="test"), [str(p) for p in paths])["inputs"]


class TestManifestDigest:
    """One SHA-256 implementation hashes a run's inputs, chosen from their total size: the
    interpreter's built-in below COLUMNAR_MIN_BYTES, hashlib's (OpenSSL) at or above it."""

    @staticmethod
    def expected_module(total):
        return BUILTIN_SHA256 if total < COLUMNAR_MIN_BYTES and BUILTIN_SHA256 else "_hashlib"

    # either side of the 64 KiB read chunk and of the threshold
    @pytest.mark.parametrize(
        "size", [0, 1, 65535, 65536, 65537, COLUMNAR_MIN_BYTES - 1, COLUMNAR_MIN_BYTES, COLUMNAR_MIN_BYTES + 1]
    )
    def test_digest_equals_hashlib_at_every_size(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "input.bin"
        path.write_bytes(data)
        assert manifest_inputs([path]) == {str(path): hashlib.sha256(data).hexdigest()}
        assert cli._sha256(size).__module__ == self.expected_module(size)

    @pytest.mark.parametrize(
        "sizes",
        [
            (0, 1000, 65536, COLUMNAR_MIN_BYTES + 1),  # small inputs beside a large one
            (65537, COLUMNAR_MIN_BYTES // 2, COLUMNAR_MIN_BYTES // 2 - 65538),  # one byte short in total
            (65537, COLUMNAR_MIN_BYTES // 2, COLUMNAR_MIN_BYTES // 2 - 65537),  # the threshold in total
        ],
    )
    def test_one_implementation_per_run_from_the_total_size(self, tmp_path, monkeypatch, sizes):
        chosen = []
        choose = cli._sha256

        def spy(total):
            chosen.append(choose(total))
            return chosen[-1]

        monkeypatch.setattr(cli, "_sha256", spy)
        paths, expected = [], {}
        for k, size in enumerate(sizes):
            data = np.random.default_rng(k).bytes(size)
            paths.append(tmp_path / f"input{k}.bin")
            paths[-1].write_bytes(data)
            expected[str(paths[-1])] = hashlib.sha256(data).hexdigest()
        assert manifest_inputs(paths) == expected
        assert [f.__module__ for f in chosen] == [self.expected_module(sum(sizes))]

    @needs_builtin_sha256
    def test_small_runs_never_load_openssl(self, tmp_path, sweep_inputs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": [0.5], "window": [15], "radius": [7, 15]}))
        assert run("synth", "--outdir", tmp_path / "synth") == 0
        assert run("preprocess", "--segments", sweep_inputs.segments, "--method", "msv",
                   "--outdir", tmp_path / "panel") == 0
        runs = [
            ["sweep", "--segments", sweep_inputs.segments, "--weekly", sweep_inputs.weekly,
             "--linelist", sweep_inputs.linelist, "--region", "NCR", "--province", "NCR", "--config", config],
            ["dtw", "--case", tmp_path / "synth" / "case.csv", "--metric", tmp_path / "synth" / "metric.csv"],
            ["metrics", "--panel-dir", tmp_path / "panel", "--metric", "density", "--threshold", 0.5, "--window", 15],
        ]
        inputs = [sweep_inputs.segments, sweep_inputs.weekly, sweep_inputs.linelist]
        assert sum(os.path.getsize(p) for p in inputs) < COLUMNAR_MIN_BYTES
        script = (
            "import sys; import warpwatch.cli as cli\n"
            "code = cli.main(sys.argv[1:]); print('_hashlib' in sys.modules); sys.exit(code)\n"
        )
        for argv in runs:
            assert run_child(script, *argv, "--outdir", tmp_path / f"{argv[0]}-out") == "False"

    def test_importing_the_cli_adds_no_hash_module(self):
        # numpy's own imports may load one (random's sha512 lives in _sha2 on CPython 3.12+)
        script = (
            "import sys; import numpy\n"
            "names = ('_hashlib', '_sha2', '_sha256'); before = [n for n in names if n in sys.modules]\n"
            "import warpwatch.cli\n"
            "print(before == [n for n in names if n in sys.modules], '_hashlib' in sys.modules)\n"
        )
        assert run_child(script) == "True False"

    def test_without_builtin_hashes_falls_back_to_hashlib(self, tmp_path):
        assert run("synth", "--outdir", tmp_path / "synth") == 0
        case, metric = tmp_path / "synth" / "case.csv", tmp_path / "synth" / "metric.csv"
        script = (
            "import sys; import warpwatch.cli as cli\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "code = cli.main(sys.argv[1:]); print('_hashlib' in sys.modules); sys.exit(code)\n"
        )
        assert run_child(script, "dtw", "--case", case, "--metric", metric, "--outdir", tmp_path / "dtw") == "True"
        manifest = json.loads((tmp_path / "dtw" / "dtw.json").read_text())["manifest"]
        assert manifest["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (case, metric)}


def bad_date(flag, raw):
    return f"{flag}: bad date {raw!r}: expected YYYY-MM-DD"


BAD_WEEKLY = "keyword,week_start,value\ncough,2020-03-16,50\ncough,2020-03-24,60\n"
CASES = ["cases", "--linelist", "{linelist}", "--region", "NCR", "--province", "NCR"]
SWEEP = ["sweep", "--segments", "{segments}", "--weekly", "{weekly}", "--linelist", "{linelist}",
         "--region", "NCR", "--province", "NCR"]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (CASES + ["--start", "2020-13-01", "--end", "2020-03-20"], bad_date("--start", "2020-13-01")),
            (CASES + ["--start", "2020-03-16", "--end", "2020-02-30"], bad_date("--end", "2020-02-30")),
            (SWEEP + ["--start", "2020-13-01"], bad_date("--start", "2020-13-01")),
            (SWEEP + ["--end", "March 20"], bad_date("--end", "March 20")),
            (["synth", "--start", "2020-13-01"], bad_date("--start", "2020-13-01")),
            (["synth", "--length", "1"], "--length must be at least 3, got 1"),
            (["synth", "--length", "2"], "--length must be at least 3, got 2"),
            (["synth", "--noise", "nan"], "--noise must be finite and nonnegative, got nan"),
            (["dtw", "--case", "{case}", "--metric", "{case}", "--radius", "-1"],
             "--radius must be nonnegative, got -1"),
            (["preprocess", "--segments", "{segments}", "--weekly", "{bad_weekly}", "--method", "rescale"],
             "keyword 'cough': week starts must be 7 days apart, got 2020-03-16 then 2020-03-24 (line 3)"),
            (CASES + ["--start", "2020-03-01", "--end", "2020-02-01"], "--end 2020-02-01 precedes --start 2020-03-01"),
            (SWEEP + ["--start", "2020-03-01", "--end", "2020-02-01"], "--end 2020-02-01 precedes --start 2020-03-01"),
            (["preprocess", "--segments", "{segments}", "--weekly", "{fever_weekly}", "--method", "rescale"],
             "keyword 'cough' missing from the weekly reference"),
            (["preprocess", "--segments", "{twin_segments}", "--method", "msv"],
             "keywords 'sore throat' and 'sore_throat' map to the same file name sore_throat.csv"),
            (["metrics", "--panel-dir", "{empty_dir}", "--metric", "density", "--threshold", "0.5", "--window", "15"],
             "no CSV series found in {empty_dir}"),
            (SWEEP + ["--config", "{bad_json}"], "bad sweep config: Expecting value: line 1 column 1 (char 0)"),
            (SWEEP + ["--config", "{list_json}"], "sweep config must be a JSON object of parameter arrays"),
            (SWEEP + ["--config", "{no_thresholds}"], "sweep parameter 'threshold' must be a non-empty array"),
            ([arg for arg in SWEEP if "weekly" not in arg], "--weekly is required when the sweep includes the rescale method"),
        ],
    )
    def test_user_error_exits_2_with_message(self, tmp_path, sweep_inputs, capsys, argv, message):
        assert run("synth", "--length", 20, "--outdir", tmp_path / "synth") == 0
        (tmp_path / "weekly.csv").write_text(BAD_WEEKLY)
        (tmp_path / "fever_weekly.csv").write_text("keyword,week_start,value\nfever,2020-03-16,50\n")
        # two keywords whose file names collide, each with the full segments of a fixture keyword
        header, *rows = Path(sweep_inputs.segments).read_text().splitlines()
        twins = [row.replace("cough,", "sore throat,", 1) for row in rows if row.startswith("cough,")]
        twins += [row.replace("fever,", "sore_throat,", 1) for row in rows if row.startswith("fever,")]
        (tmp_path / "twins.csv").write_text("\n".join([header, *twins]) + "\n")
        (tmp_path / "empty").mkdir()
        (tmp_path / "bad.json").write_text("threshold: 0.5\n")
        (tmp_path / "list.json").write_text('[{"threshold": [0.5]}]\n')
        (tmp_path / "no_thresholds.json").write_text('{"threshold": []}\n')
        paths = {
            "linelist": sweep_inputs.linelist,
            "segments": sweep_inputs.segments,
            "weekly": sweep_inputs.weekly,
            "bad_weekly": tmp_path / "weekly.csv",
            "fever_weekly": tmp_path / "fever_weekly.csv",
            "twin_segments": tmp_path / "twins.csv",
            "empty_dir": tmp_path / "empty",
            "bad_json": tmp_path / "bad.json",
            "list_json": tmp_path / "list.json",
            "no_thresholds": tmp_path / "no_thresholds.json",
            "case": tmp_path / "synth" / "case.csv",
        }
        capsys.readouterr()
        assert run(*[arg.format(**paths) for arg in argv], "--outdir", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"

    def test_non_utf8_csv_exits_2(self, tmp_path, capsys):
        assert run("synth", "--length", 20, "--outdir", tmp_path / "synth") == 0
        case = tmp_path / "case.csv"
        case.write_bytes(b"date,value\n2020-01-01,0.5\xff\n")
        code = run("dtw", "--case", case, "--metric", tmp_path / "synth" / "metric.csv",
                   "--outdir", tmp_path / "o")
        assert code == 2
        assert "can't decode byte 0xff" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def broken(scenario):
            raise ValueError("internal fault")

        monkeypatch.setattr("warpwatch.testkit.synth_pair", broken)
        with pytest.raises(ValueError, match="internal fault"):
            run("synth", "--outdir", tmp_path / "o")


class TestEntryPoint:
    def test_module_invocation_and_exit_codes(self, tmp_path):
        # the child imports the same warpwatch as this process, installed or not
        src = str(Path(warpwatch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "warpwatch.cli", "synth", "--length", "20",
             "--outdir", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        bad = subprocess.run(
            [sys.executable, "-m", "warpwatch.cli", "metrics", "--panel-dir", "nowhere",
             "--metric", "density", "--threshold", "0.5", "--window", "20",
             "--outdir", str(tmp_path / "o2")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert bad.returncode == 2

    def test_full_sweep_does_not_import_scipy(self, tmp_path, sweep_inputs):
        # scipy is a test-only dependency: the Kruskal-Wallis p-values must not need
        # it; nor does a sweep need the synthetic-data test kit
        src = str(Path(warpwatch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = "import sys; from warpwatch.cli import main; code = main(sys.argv[1:]); print('scipy' in sys.modules or 'warpwatch.testkit' in sys.modules); sys.exit(code)"
        out = tmp_path / "sweep"
        result = subprocess.run(
            [sys.executable, "-c", script, "sweep", "--segments", sweep_inputs.segments,
             "--weekly", sweep_inputs.weekly, "--linelist", sweep_inputs.linelist,
             "--region", "NCR", "--province", "NCR", "--outdir", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"
        report = json.loads((out / "parameter_report.json").read_text(encoding="utf-8"))
        assert all(0.0 <= entry["p_value"] <= 1.0 for entry in report["parameters"].values())

    def test_sweep_body_does_not_depend_on_the_blas_thread_count(self, tmp_path, sweep_inputs):
        # the correlation stack is a BLAS Gram product; one and two OpenBLAS threads must write one body
        src = str(Path(warpwatch.__file__).resolve().parents[1])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": [0.4, 0.8], "radius": [7, 15, 50]}))
        bodies = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            out = tmp_path / f"threads-{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "warpwatch.cli", "sweep", "--segments", sweep_inputs.segments,
                 "--weekly", sweep_inputs.weekly, "--linelist", sweep_inputs.linelist,
                 "--region", "NCR", "--province", "NCR", "--config", str(config), "--outdir", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert result.returncode == 0, result.stderr
            bodies.append(body_digest([out / "sweep.csv"]))
        assert bodies[0] == bodies[1]

    def test_openssl_is_loaded_only_for_the_manifest_digest(self, tmp_path):
        # hashlib maps OpenSSL (about 3.6 MB resident): importing the CLI must not load it, and
        # the columnar loaders must return before it is, so it never adds to their peak
        src = str(Path(warpwatch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import sys; import warpwatch.cli as cli\n"
            "seen = ['_hashlib' in sys.modules]\n"
            "def watched(load):\n"
            "    def call(*args):\n"
            "        result = load(*args); seen.append('_hashlib' in sys.modules); return result\n"
            "    return call\n"
            "cli.load_segments, cli.load_linelist = watched(cli.load_segments), watched(cli.load_linelist)\n"
            "code = cli.main(sys.argv[1:]); print(seen, '_hashlib' in sys.modules); sys.exit(code)\n"
        )
        segments, _ = write_columnar_trends(tmp_path)
        linelist = write_dirty_linelist(tmp_path / "linelist.csv")
        for argv in (
            ["preprocess", "--segments", segments, "--method", "msv"],
            ["cases", "--linelist", linelist, "--region", "NCR", "--province", "NCR",
             "--start", "2020-04-01", "--end", "2020-06-15"],
        ):
            result = subprocess.run(
                [sys.executable, "-c", script, *map(str, argv), "--outdir", str(tmp_path / argv[0])],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            # absent at import and when the loader returned; present once the manifest was hashed
            assert result.stdout.splitlines()[-1] == "[False, False] True"

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 2
