"""Self-tests of the benchmark harness.

Run from the repository root:
    python -m pytest benchmark/tests -q
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def test_child_reports_its_own_peak_not_the_drivers(tmp_path):
    # ru_maxrss from wait4 would carry this ballast over fork and exec
    ballast = b"x" * (300 << 20)
    c = run.Runner(tmp_path).child(["synth", "--length", "30", "--outdir", tmp_path / "o"], traced=False)
    assert c.exit == 0
    assert 1.0 < c.rss_mb < 150.0, c.rss_mb
    assert len(ballast) == 300 << 20


@pytest.mark.parametrize("workload", ["sweep-wide", "sweep-long"])
def test_tracing_does_not_change_results(tmp_path, workload):
    make_inputs, run_pass = run.WORKLOADS[workload]
    (tmp_path / "inputs").mkdir()
    inp = make_inputs(tmp_path / "inputs", run.REFERENCE_SEED)
    runner = run.Runner(tmp_path)
    untraced, traced = run.Pass(traced=False), run.Pass(traced=True)
    run_pass(runner, inp, tmp_path / "plain", untraced)
    run_pass(runner, inp, tmp_path / "traced", traced)
    assert untraced.problems == traced.problems == []
    assert untraced.failed == traced.failed == 0
    assert traced.digest == untraced.digest
    assert len(traced.children[0]["spans"]) > 0 and "spans" not in untraced.children[0]
    reference = (BENCH / "reference" / f"{workload}.csv").read_text(encoding="utf-8")
    assert run.compare_reference(untraced.body, reference) == []


def test_compare_reference_tolerates_last_digits_only():
    ref = (BENCH / "reference" / "sweep-long.csv").read_text(encoding="utf-8")
    score = list(csv.reader(io.StringIO(ref)))[1][6]
    last = int(score[-1])
    assert run.compare_reference(ref.replace(score, score[:-1] + str((last + 1) % 10), 1), ref) == []
    assert run.compare_reference(ref.replace(score, score[:4], 1), ref) != []
    assert run.compare_reference(ref.replace(",ok", ",BandInfeasibleError", 1), ref) != []
    assert run.compare_reference(ref + "density,msv\n", ref) != []


@pytest.mark.parametrize("n,m,radius", [(5, 5, 0), (6, 9, 2), (9, 6, 4), (7, 7, None), (3, 10, 7)])
def test_band_cells_counts_the_band(n, m, radius):
    brute = sum(1 for i in range(n) for j in range(m) if radius is None or abs(i - j) <= radius)
    assert child.band_cells(n, m, radius) == brute


def _span(sid, parent, layer, kind, t0, t1, tid=1, **counts):
    return {"id": sid, "parent": parent, "tid": tid, "name": kind, "layer": layer,
            "kind": kind, "t0": t0, "t1": t1, **counts}


def test_self_time_subtracts_children_and_counts_overlap_once():
    stats = {
        "main_t0": 0.0,
        "main_t1": 10.0,
        "spans": [
            _span(1, None, "sweep", "run", 1.0, 9.0, configs=2, configs_ok=2),
            _span(2, 1, "network", "corr", 1.0, 3.0, corr_calls=1),
            _span(3, 1, "dtw", "dtw", 4.0, 7.0, tid=2, dtw_calls=1, band_cells=3, alloc_cells=4),
            _span(4, 1, "dtw", "dtw", 5.0, 8.0, tid=3, dtw_calls=1, band_cells=1, alloc_cells=4),
        ],
    }
    m = layers.pass_metrics([stats])
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["sweep.self_s"] == pytest.approx(8.0 - 2.0 - 4.0)
    assert m["dtw.s"] == pytest.approx(4.0)
    assert m["sweep.dtw_concurrency"] == pytest.approx(6.0 / 4.0)
    assert m["dtw.band_fill"] == pytest.approx(0.5)
    assert m["sweep.ok_frac"] == 1.0
    assert layers.shape_problems("sweep-long", m, 10.0) == []
    assert layers.shape_problems("sweep-wide", m, 10.0) != []


def test_traced_run_reports_every_per_layer_metric_named_in_benchmark_json():
    m = layers.pass_metrics([{"main_t0": 0.0, "main_t1": 1.0, "spans": []}])
    declared = {x["name"]: x["unit"] for x in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    reported = set(m) | {"trace.wall_s", "trace.overhead_s", "trace.overhead_frac"}
    assert reported == set(declared)
    assert all(layers.unit_of(name) == unit for name, unit in declared.items())


def test_ingest_shape_rejects_network_spans():
    m = layers.pass_metrics([{
        "main_t0": 0.0,
        "main_t1": 4.0,
        "spans": [_span(1, None, "trends", "load", 0.0, 3.0), _span(2, None, "network", "corr", 3.0, 3.5)],
    }])
    assert layers.shape_problems("ingest-align", m, 4.0) == ["ingest-align: a network span appeared"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "sweep-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
