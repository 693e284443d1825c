#!/usr/bin/env python3
"""Outside-in benchmark of the warpwatch command line.

Usage (from the repository root):
    python3 benchmark/run.py --workload sweep-wide --seed 1 --seconds 40 --trace 0

One driver process generates the workload's inputs from ``--seed``,
then runs passes of the workload for ``--seconds`` seconds, one CLI
child at a time (a closed loop with one client), and checks every
pass's outputs. The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. See benchmark/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import layers

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE_SEED = 0
SETUP_PER_PASS = 3
CHILD_TIMEOUT_S = 120.0
MIN_PASSES = 3
SCORE_REL_TOL = 1e-6
SCORE_ABS_TOL = 1e-9

LATTICE = list(
    itertools.product(
        ("density", "clustering"),
        ("rescale", "msv"),
        ("0.4", "0.5", "0.6", "0.8"),
        ("15", "30"),
        ("confirmed", "active"),
        ("7", "15", "20", "30", "50"),
    )
)
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "frac"}


@dataclass
class Child:
    exit: int
    wall: float
    cpu: float
    rss_mb: float
    stats: dict | None


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    children: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    body: str = ""


class Runner:
    """Starts CLI children through child.py, one at a time, and accounts for them in a pass."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        # One sweep thread: with one per core the GIL hand-offs between pure-Python DTW
        # threads put the host's vCPU wake-up latency into wall time (see README.md).
        self.env["WARPWATCH_THREADS"] = "1"

    def child(self, argv: list, traced: bool) -> Child:
        stats_path = self.workdir / "child_stats.json"
        log_path = self.workdir / "child.log"
        stats_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), str(stats_path), "1" if traced else "0", "--"]
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd + [str(a) for a in argv], env=self.env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stats = json.loads(stats_path.read_text()) if stats_path.exists() else None
        if proc.returncode != 0 or stats is None:
            tail = log_path.read_text(errors="replace")[-2000:]
            print(f"child {argv[0]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
            return Child(proc.returncode or 1, wall, usage.ru_utime + usage.ru_stime, 0.0, stats)
        return Child(0, wall, usage.ru_utime + usage.ru_stime, stats["vmhwm_kb"] / 1024.0, stats)

    def run_in_pass(self, p: Pass, argv: list) -> None:
        c = self.child(argv, p.traced)
        p.wall += c.wall
        p.cpu += c.cpu
        p.rss_mb = max(p.rss_mb, c.rss_mb)
        p.attempted += 1
        if c.exit != 0:
            p.failed += 1
        if c.stats is not None:
            p.children.append(c.stats)

    def setup_s(self, repeats: int) -> list[float]:
        """Wall seconds from a fresh interpreter to ``import warpwatch.cli`` done."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import warpwatch.cli"], env=self.env, check=True)
            times.append(time.perf_counter() - t0)
        return times


def _body(path: Path) -> str:
    """File contents below the ``# manifest:`` line."""
    first, _, body = path.read_text(encoding="utf-8").partition("\n")
    if not first.startswith("# manifest:"):
        raise ValueError(f"{path.name} lacks a manifest line")
    return body


def _data_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(_body(path))))[1:]


def _series(path: Path) -> list[float]:
    return [float(v) for _, v in _data_rows(path)]


# ---------------------------------------------------------------------------
# workloads


def sweep_pass(runner: Runner, inp: inputs.SweepInputs, out: Path, p: Pass) -> None:
    runner.run_in_pass(p, [
        "sweep", "--segments", inp.segments, "--weekly", inp.weekly, "--linelist", inp.linelist,
        "--region", inputs.REGION, "--province", inputs.REGION, "--outdir", out,
    ])
    p.attempted += len(LATTICE)
    try:
        p.body = _body(out / "sweep.csv")
        rows = list(csv.reader(io.StringIO(p.body)))[1:]
        params = json.loads((out / "parameter_report.json").read_text())["parameters"]
        optimal = _data_rows(out / "optimal_configs.csv")
    except (OSError, ValueError, KeyError) as exc:
        p.failed += len(LATTICE)
        p.problems.append(f"sweep outputs unreadable: {exc}")
        return
    p.failed += len(LATTICE) - sum(1 for r in rows if r[-1] == "ok")
    if [tuple(r[:6]) for r in rows] != LATTICE:
        p.problems.append(f"sweep.csv holds {len(rows)} rows, not the 320 lattice rows in order")
    if len(params) != 6:
        p.problems.append(f"parameter_report.json has {len(params)} parameters, not 6")
    if len(optimal) != 4:
        p.problems.append(f"optimal_configs.csv has {len(optimal)} rows, not 4")
    p.digest = hashlib.sha256(p.body.encode()).hexdigest()


def ingest_pass(runner: Runner, inp: inputs.IngestInputs, out: Path, p: Pass) -> None:
    segments, weekly = inp.segments, inp.weekly
    cases, dtw_out = out / "cases", out / "dtw"
    first_keyword = out / "msv" / f"{inputs.KEYWORDS[0]}.csv"
    runner.run_in_pass(p, ["preprocess", "--segments", segments, "--weekly", weekly,
                           "--method", "rescale", "--outdir", out / "rescale"])
    runner.run_in_pass(p, ["preprocess", "--segments", segments, "--method", "msv", "--outdir", out / "msv"])
    runner.run_in_pass(p, ["cases", "--linelist", inp.linelist, "--region", inputs.REGION,
                           "--province", inputs.REGION, "--start", inp.case_start.isoformat(),
                           "--end", inp.case_end.isoformat(), "--outdir", cases])
    runner.run_in_pass(p, ["dtw", "--case", cases / "confirmed.csv", "--metric", first_keyword,
                           "--normalize", "--outdir", dtw_out])

    n_case = (inp.case_end - inp.case_start).days + 1
    digest = hashlib.sha256()
    try:
        for method in ("rescale", "msv"):
            files = sorted((out / method).glob("*.csv"))
            lengths = {len(_series(f)) for f in files}
            if len(files) != len(inp.keywords) or lengths != {inp.days}:
                p.problems.append(f"{method}: {len(files)} series of lengths {sorted(lengths)},"
                                  f" expected {len(inp.keywords)} of {inp.days}")
            for f in files:
                digest.update(_body(f).encode())
        confirmed = _series(cases / "confirmed.csv")
        active = _series(cases / "active.csv")
        alignment = _data_rows(dtw_out / "alignment.csv")
        path_length = json.loads((dtw_out / "dtw.json").read_text())["path_length"]
        for name in ("confirmed.csv", "active.csv"):
            digest.update(_body(cases / name).encode())
        digest.update(_body(dtw_out / "alignment.csv").encode())
    except (OSError, ValueError, KeyError) as exc:
        p.problems.append(f"ingest outputs unreadable: {exc}")
        return
    if len(confirmed) != n_case or sum(confirmed) != inp.expected_confirmed:
        p.problems.append(f"confirmed: {len(confirmed)} days totalling {sum(confirmed):g},"
                          f" expected {n_case} days totalling {inp.expected_confirmed}")
    if len(active) != n_case or min(active) < 0:
        p.problems.append("active: wrong length or a negative count")
    ends = [alignment[0][:2], alignment[-1][:2]] if alignment else []
    if ends != [["1", "1"], [str(n_case), str(inp.days)]] or path_length != len(alignment):
        p.problems.append(f"dtw path runs {ends}, expected (1,1) to ({n_case},{inp.days})")
    p.digest = digest.hexdigest()


WORKLOADS = {
    "sweep-wide": (lambda d, seed: inputs.sweep_inputs(d, seed, keywords=15, days=120, step=10), sweep_pass),
    "sweep-long": (lambda d, seed: inputs.sweep_inputs(d, seed, keywords=4, days=365, step=10), sweep_pass),
    "ingest-align": (
        lambda d, seed: inputs.ingest_inputs(d, seed, keywords=15, days=730, linelist_rows=300_000),
        ingest_pass,
    ),
}


# ---------------------------------------------------------------------------
# reference and summary


def compare_reference(body: str, reference: str) -> list[str]:
    """Rows must match the reference exactly except for scores within tolerance."""
    got = list(csv.reader(io.StringIO(body)))
    want = list(csv.reader(io.StringIO(reference)))
    if len(got) != len(want):
        return [f"sweep.csv has {len(got)} lines, reference {len(want)}"]
    for g, w in zip(got, want):
        if g == w:
            continue
        if len(g) != len(w) or g[:6] != w[:6] or g[7:] != w[7:]:
            return [f"sweep.csv row {g} differs from reference {w}"]
        if not (g[6] and w[6] and math.isclose(float(g[6]), float(w[6]), rel_tol=SCORE_REL_TOL, abs_tol=SCORE_ABS_TOL)):
            return [f"dtw_score {g[6]} differs from reference {w[6]} for {g[:6]}"]
    return []


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def report(metrics: dict[str, list[float]], units: dict[str, str]) -> dict:
    out = {}
    for name, values in metrics.items():
        med, q1, q3 = summary(values)
        print(f"  {name:26s} {med:14.6f} {units[name]:6s} q1 {q1:.6f} q3 {q3:.6f} n={len(values)}")
        out[name] = {"value": med, "unit": units[name]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's sweep.csv body as the reference (seed {REFERENCE_SEED} only)")
    args = parser.parse_args()

    if not (ROOT / "src" / "warpwatch" / "cli.py").is_file():
        print(f"error: no warpwatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != REFERENCE_SEED:
        parser.error(f"--record-reference needs --seed {REFERENCE_SEED}")

    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    make_inputs, run_pass = WORKLOADS[args.workload]
    inp = make_inputs(work / "inputs", args.seed)
    runner = Runner(work)
    traced = bool(args.trace)
    runner.setup_s(1)  # compiles bytecode, which users pay once per install, not per run
    setup: list[float] = []

    reference = BENCH / "reference" / f"{args.workload}.csv"
    check_reference = args.seed == REFERENCE_SEED and reference.exists() and not args.record_reference
    passes: list[Pass] = []
    start = time.perf_counter()
    # with tracing, passes alternate untraced / traced so overhead is measured in one run
    # set-up samples are spread between passes so they see the same machine as the passes
    while True:
        if not traced:
            setup += runner.setup_s(SETUP_PER_PASS)
        p = Pass(traced=traced and len(passes) % 2 == 1)
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        run_pass(runner, inp, out, p)
        if passes and p.digest != passes[0].digest:
            p.problems.append("output bodies differ from the first pass" + (" (traced vs untraced)" if traced else ""))
        if check_reference and p.body:
            p.problems += compare_reference(p.body, reference.read_text(encoding="utf-8"))
        passes.append(p)
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if traced else MIN_PASSES) and elapsed + p.wall > args.seconds:
            break

    if args.record_reference and passes[0].body:
        reference.parent.mkdir(exist_ok=True)
        reference.write_text(passes[0].body, encoding="utf-8")
    if not passes[0].body:
        ref_status = "none (no sweep.csv)"
    elif check_reference:
        identical = all(p.body == reference.read_text(encoding="utf-8") for p in passes)
        ref_status = "byte-identical" if identical else "not byte-identical"
    else:
        ref_status = f"not checked (references are recorded at seed {REFERENCE_SEED})"

    problems = [q for p in passes for q in p.problems]
    # each pass's output check is one operation of its own
    attempted = sum(p.attempted for p in passes) + len(passes)
    failed = sum(p.failed for p in passes) + sum(1 for p in passes if p.problems)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} passes {len(passes)}"
          f" WARPWATCH_THREADS={runner.env['WARPWATCH_THREADS']}"
          f" OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'default')}")
    if traced:
        per_pass = [layers.pass_metrics(p.children) for p in passes if p.traced]
        walls = {t: [p.wall for p in passes if p.traced is t] for t in (False, True)}
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        values = {name: [m[name] for m in per_pass] for name in sorted(per_pass[0])}
        values["trace.wall_s"] = walls[True]
        values["trace.overhead_s"] = [overhead]
        values["trace.overhead_frac"] = [overhead / statistics.median(walls[False])]
        medians = {name: summary(v)[0] for name, v in values.items()}
        problems += layers.shape_problems(args.workload, medians, medians["trace.wall_s"])
        metrics = report(values, {name: layers.unit_of(name) for name in values})
    else:
        values = {
            "wall_s": [p.wall for p in passes],
            "cpu_s": [p.cpu for p in passes],
            "peak_rss_mb": [p.rss_mb for p in passes],
            "setup_s": setup,
            "ok_frac": [1.0 - failed / attempted],
        }
        metrics = report(values, END_TO_END)
    print(f"  {'failed_frac':26s} {failed / attempted:14.6f} frac   ({failed} of {attempted} operations)")
    print(f"  output body sha256 {passes[0].digest or '-'}; reference: {ref_status}")
    for q in problems:
        print(f"  problem: {q}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
