"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Tolerances are pinned here and nowhere else.
"""

import json
import logging
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import warpwatch
from warpwatch.cases import active_cases
from warpwatch.cli import main
from warpwatch.dtw import BandSpec, dtw
from warpwatch.errors import BandInfeasibleError
from warpwatch.network import clustering_coefficient, distance_correlation, network_density
from warpwatch.stats import chi_square_sf, kruskal_wallis
from warpwatch.timeseries import DateIndexedSeries

from oracles import admits, brute_force_dtw, graph_metric_oracle

MAR16 = date(2020, 3, 16)
RADIUS_LADDER = (7, 15, 20, 30, 50)


@contextmanager
def criterion(label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS ({time.perf_counter() - started:.2f}s)")


def random_pair(rng, min_len=2, max_len=6, levels=(0.0, 1.0, 2.0, 3.0)):
    n = rng.randint(min_len, max_len)
    m = rng.randint(min_len, max_len)
    x = tuple(rng.choice(levels) for _ in range(n))
    y = tuple(rng.choice(levels) for _ in range(m))
    return x, y


def collect_fuzz_results():
    """1,000 random pairs x 4 radii; shared by criteria 1 and 4."""
    rng = random.Random(20200316)
    outcomes = []
    started = time.perf_counter()
    for _ in range(1000):
        x, y = random_pair(rng)
        for radius in (0, 1, 2, None):
            band = BandSpec(radius)
            try:
                expected = brute_force_dtw(x, y, band)
            except BandInfeasibleError:
                expected = None
            try:
                result = dtw(x, y, band)
            except BandInfeasibleError:
                result = None
            outcomes.append((x, y, band, expected, result))
    return outcomes, time.perf_counter() - started


@pytest.fixture(scope="module")
def fuzz_results():
    return collect_fuzz_results()


def test_c01_dtw_oracle_equivalence(fuzz_results):
    with criterion("C1 dtw-oracle-equivalence (1000 pairs, radii {0,1,2,inf})"):
        outcomes, compute_elapsed = fuzz_results
        started = time.perf_counter()
        for x, y, band, expected, result in outcomes:
            assert (expected is None) == (result is None), (x, y, band)
            if expected is not None:
                assert abs(result.distance - expected) <= 1e-9, (x, y, band)
        assert compute_elapsed + (time.perf_counter() - started) < 10.0


def test_c02_band_nesting_ladder():
    with criterion("C2 band-nesting r in {7,15,20,30,50,inf} (200 pairs)"):
        rng = random.Random(7151)
        for _ in range(200):
            n = rng.randint(30, 60)
            m = n + rng.randint(-7, 7)
            x = [rng.uniform(0.0, 1.0) for _ in range(n)]
            y = [rng.uniform(0.0, 1.0) for _ in range(m)]
            distances = [
                dtw(x, y, BandSpec(r)).distance for r in RADIUS_LADDER
            ]
            distances.append(dtw(x, y, BandSpec()).distance)
            for tighter, looser in zip(distances, distances[1:]):
                assert tighter >= looser


def test_c03_radius_zero_degeneracy():
    with criterion("C3 r=0 equals element-wise L1 (exact)"):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 40)
            x = [rng.uniform(-5.0, 5.0) for _ in range(n)]
            y = [rng.uniform(-5.0, 5.0) for _ in range(n)]
            result = dtw(x, y, BandSpec(0))
            elementwise = 0.0
            for a, b in zip(x, y):
                elementwise += abs(a - b)
            assert result.distance == elementwise


def test_c04_path_validity(fuzz_results):
    with criterion("C4 path validity on every fuzz case"):
        outcomes, _ = fuzz_results
        for x, y, band, expected, result in outcomes:
            if result is None:
                continue
            pairs = result.path
            assert pairs[0] == (1, 1)
            assert pairs[-1] == (len(x), len(y))
            for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
                assert (i2 - i1, j2 - j1) in {(1, 0), (0, 1), (1, 1)}
            assert all(admits(band, i, j) for i, j in pairs)
            resummed = 0.0
            for i, j in pairs:
                resummed += abs(x[i - 1] - y[j - 1])
            assert abs(resummed - result.distance) <= 1e-9


def test_c05_graph_metric_oracle_all_6_node_graphs():
    with criterion("C5 graph metrics vs enumeration on all 2^15 graphs (6 nodes)"):
        started = time.perf_counter()
        all_pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        bits = ((np.arange(2 ** 15)[:, None] >> np.arange(len(all_pairs))) & 1) == 1
        rows, cols = zip(*all_pairs)
        adjacency = np.zeros((2 ** 15, 6, 6), dtype=bool)
        adjacency[:, rows, cols] = bits
        adjacency[:, cols, rows] = bits
        densities = network_density(adjacency)
        transitivities = clustering_coefficient(adjacency)
        for mask in range(2 ** 15):
            edges = frozenset(p for bit, p in enumerate(all_pairs) if mask >> bit & 1)
            density, transitivity = graph_metric_oracle(6, edges)
            assert densities[mask] == density
            assert transitivities[mask] == transitivity
        assert time.perf_counter() - started < 30.0


def test_c06_distance_correlation_properties():
    with criterion("C6 distance-correlation symmetry/affine/constant (500 pairs)"):
        rng = random.Random(606)
        for _ in range(500):
            n = rng.randint(5, 30)
            x = [rng.uniform(-10.0, 10.0) for _ in range(n)]
            y = [rng.uniform(-10.0, 10.0) for _ in range(n)]
            r = distance_correlation(x, y)
            assert r == distance_correlation(y, x)
            assert 0.0 <= r <= 1.0
            a = rng.choice((-2.0, 0.5, 3.0))
            b = rng.choice((-1.0, 0.0, 4.0))
            mapped = [a * v + b for v in x]
            assert abs(distance_correlation(mapped, y) - r) <= 1e-9
        constant = [4.0] * 10
        wobble = [float(i % 3) for i in range(10)]
        assert distance_correlation(constant, wobble) == 0.0
        assert distance_correlation(wobble, constant) == 0.0


def test_c07_active_case_conservation(caplog):
    with criterion("C7 active-case conservation and clamp logging (200 pairs)"):
        rng = random.Random(717)
        for _ in range(200):
            n = rng.randint(1, 80)
            confirmed_counts = [rng.randint(0, 30) for _ in range(n)]
            removed_counts = []
            active = 0
            for c in confirmed_counts:
                r = rng.randint(0, active + c)
                removed_counts.append(r)
                active += c - r
            confirmed = DateIndexedSeries(MAR16, tuple(map(float, confirmed_counts)))
            removed = DateIndexedSeries(MAR16, tuple(map(float, removed_counts)))
            out = active_cases(confirmed, removed)
            running = 0
            for a, c, r in zip(out.values, confirmed_counts, removed_counts):
                running += c - r
                assert a == running

        # clamp path: removals precede confirmations
        confirmed = DateIndexedSeries(MAR16, (0.0, 2.0, 0.0))
        removed = DateIndexedSeries(MAR16, (3.0, 0.0, 4.0))
        with caplog.at_level(logging.WARNING, logger="warpwatch.cases"):
            clamped = active_cases(confirmed, removed)
        assert all(v >= 0.0 for v in clamped.values)
        assert "2020-03-16" in caplog.text and "2020-03-18" in caplog.text


def test_c08_sweep_cardinality_and_structure(tmp_path, sweep_inputs):
    with criterion("C8 default sweep: 320 rows, 6 report entries, 4 optimal rows"):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--segments", sweep_inputs.segments, "--weekly", sweep_inputs.weekly,
                "--linelist", sweep_inputs.linelist, "--region", "NCR", "--province", "NCR",
                "--outdir", str(out),
            ]
        )
        assert code == 0
        data_rows = [
            line
            for line in (out / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("metric,")
        ]
        assert len(data_rows) == 320
        report = json.loads((out / "parameter_report.json").read_text())
        assert len(report["parameters"]) == 6
        optimal_rows = [
            line
            for line in (out / "optimal_configs.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("metric,")
        ]
        assert len(optimal_rows) == 4


def test_c09_kruskal_wallis_correctness():
    with criterion("C9 Kruskal-Wallis and chi-square survival values"):
        h, _ = kruskal_wallis([(1, 2, 3), (1, 2, 3)])
        assert abs(h) <= 1e-12
        h, p = kruskal_wallis([(1, 2), (3, 4)])
        assert abs(h - 2.4) <= 1e-9
        assert abs(p - math.erfc(math.sqrt(2.4 / 2.0))) <= 1e-10
        assert abs(chi_square_sf(2.0, 2) - math.exp(-1.0)) <= 1e-10
        for dof in (1, 2, 3, 5, 10):
            grid = [chi_square_sf(h_value / 10.0, dof) for h_value in range(0, 2001)]
            assert all(a >= b for a, b in zip(grid, grid[1:]))


def test_c10_lag_recovery_end_to_end(tmp_path):
    with criterion("C10 lag recovery through the CLI (r=50 beats r=7, near-zero noiseless)"):
        started = time.perf_counter()
        length = 120
        noisy = tmp_path / "noisy"
        assert main(
            ["synth", "--length", str(length), "--lag", "10", "--noise", "0.02",
             "--seed", "42", "--outdir", str(noisy)]
        ) == 0
        distances = {}
        for radius in (7, 50):
            out = tmp_path / f"noisy_r{radius}"
            assert main(
                ["dtw", "--case", str(noisy / "case.csv"), "--metric", str(noisy / "metric.csv"),
                 "--radius", str(radius), "--outdir", str(out)]
            ) == 0
            distances[radius] = json.loads((out / "dtw.json").read_text())["distance"]
        assert distances[50] < distances[7]

        clean = tmp_path / "clean"
        assert main(
            ["synth", "--length", str(length), "--lag", "10", "--noise", "0",
             "--seed", "42", "--outdir", str(clean)]
        ) == 0
        out = tmp_path / "clean_r50"
        assert main(
            ["dtw", "--case", str(clean / "case.csv"), "--metric", str(clean / "metric.csv"),
             "--radius", "50", "--outdir", str(out)]
        ) == 0
        clean_distance = json.loads((out / "dtw.json").read_text())["distance"]
        assert clean_distance <= 0.05 * length
        assert time.perf_counter() - started < 5.0


def test_c11_fresh_interpreter_determinism(tmp_path, sweep_inputs):
    with criterion("C11 sweep byte-identical in this process and in a fresh interpreter under another PYTHONHASHSEED"):
        argv = ["sweep", "--segments", sweep_inputs.segments, "--weekly", sweep_inputs.weekly,
                "--linelist", sweep_inputs.linelist, "--region", "NCR", "--province", "NCR", "--outdir"]
        assert main([*argv, str(tmp_path / "here")]) == 0
        # the child imports the same warpwatch as this process, with a hash seed this one does not have
        src = str(Path(warpwatch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                   PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
        child = subprocess.run([sys.executable, "-m", "warpwatch.cli", *argv, str(tmp_path / "fresh")],
                               capture_output=True, text=True, env=env)
        assert child.returncode == 0, child.stderr
        for name in ("sweep.csv", "parameter_report.json"):
            assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
