"""Command-line surface: preprocess, metrics, cases, dtw, sweep, synth.

Every subcommand is deterministic: identical inputs and flags produce
byte-identical outputs. Each emitted file carries a provenance manifest
(command, parameters, input content hashes, artifact version) as a
``#`` comment line in CSVs or a top-level key in JSON. Exit codes:
0 success, 2 input or usage error, 3 infeasible computation; any other
exception is a fault in the program and propagates.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from datetime import date, timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .cases import CaseKind, active_cases, daily_confirmed, daily_removed, load_linelist
from .dtw import BandSpec, dtw
from .errors import BandInfeasibleError, CoverageError, ParseError, UsageError, WarpwatchError
from .network import KeywordPanel, MetricKind, correlation_matrix_sequence, metric_series_from_matrices
from .sweep import (
    DOMAINS,
    METRICS,
    PARAMETER_NAMES,
    WINDOWS,
    Preprocess,
    level_label,
    optimal_configs,
    parameter_reports,
    run_sweep,
)
from .timeseries import (
    COLUMNAR_MIN_BYTES,
    DateIndexedSeries,
    align_ranges,
    format_value,
    minmax_normalize,
    parse_iso_date,
    read_series_csv,
    write_csv,
    write_series_csv,
)
from .trends import load_segments, load_weekly, msv_merge, rescale_daily


def _sha256(total_bytes: int):
    """The SHA-256 constructor that hashes a run's inputs, chosen once from their total size.

    Below ``COLUMNAR_MIN_BYTES`` it is the interpreter's built-in SHA-256
    (``_sha2.sha256`` on CPython 3.12+, ``_sha256.sha256`` on 3.10 and 3.11),
    which loads no shared library; at or above it, and when neither module
    imports, ``hashlib.sha256``, which maps OpenSSL (about 3.5 MB of peak RSS)
    but hashes 5-9x faster per byte. Either gives the same digests, and
    either is imported here, not at the top, so importing the CLI loads neither.
    """
    for module in ("_sha2", "_sha256") if total_bytes < COLUMNAR_MIN_BYTES else ():
        try:
            return __import__(module).sha256
        except ImportError:
            pass
    from hashlib import sha256

    return sha256


def _manifest(args, input_paths: Sequence[str], **resolved) -> dict:
    """Provenance embedded in every output: the command, the artifact version,
    every parsed flag but ``--outdir`` in parser order with ``resolved`` values
    replacing or following them, and a hash of each input file."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("subcommand", "func", "outdir")}
    parameters.update(resolved)
    sha256 = _sha256(sum(os.path.getsize(p) for p in input_paths))
    inputs = {}
    for path in sorted(input_paths):
        digest = sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                digest.update(chunk)
        inputs[path] = digest.hexdigest()
    return {"command": args.subcommand, "version": __version__, "parameters": parameters, "inputs": inputs}


def _preamble(manifest: dict) -> str:
    """The manifest as the one-line comment that heads every CSV output."""
    return "manifest: " + json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def _round_floats(obj):
    """Re-round every float to 9 significant digits for stable serialization."""
    if isinstance(obj, float):
        return float(format_value(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_round_floats(payload), fh, indent=2)
        fh.write("\n")


def _slug(keyword: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "_", keyword).strip("_") or "keyword"


def _load_panel(panel_dir: str) -> KeywordPanel:
    paths = sorted(Path(panel_dir).glob("*.csv"))
    if not paths:
        raise ParseError(f"no CSV series found in {panel_dir}")
    return KeywordPanel.from_mapping({p.stem: read_series_csv(str(p)) for p in paths})


def _date_flag(flag: str, raw: str) -> date:
    try:
        return parse_iso_date(raw)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _reconstruct(
    segments_path: str, weekly_path: str | None, methods: Sequence[Preprocess]
) -> dict[Preprocess, dict[str, DateIndexedSeries]]:
    """Daily series per keyword, in keyword order, for each reconstruction method."""
    segments = load_segments(segments_path)
    # sorted by keyword, so each keyword's segments are one run
    keywords = segments["keyword"]
    runs = np.split(segments, np.flatnonzero(keywords[1:] != keywords[:-1]) + 1)
    by_keyword = {str(run["keyword"][0]): run for run in runs}
    weekly = load_weekly(weekly_path) if Preprocess.RESCALE in methods else {}
    by_method: dict[Preprocess, dict[str, DateIndexedSeries]] = {}
    for method in methods:
        series: dict[str, DateIndexedSeries] = {}
        for keyword in sorted(by_keyword):
            if method is Preprocess.RESCALE:
                if keyword not in weekly:
                    raise CoverageError(f"keyword {keyword!r} missing from the weekly reference")
                series[keyword] = rescale_daily(by_keyword[keyword], weekly[keyword])
            else:
                series[keyword] = msv_merge(by_keyword[keyword])
        by_method[method] = series
    return by_method


def _derive_cases(
    linelist: str, region: str, province: str, start: date, end: date
) -> tuple[int, dict[CaseKind, DateIndexedSeries]]:
    """Kept line-list row count, and the confirmed and active series over [start, end]."""
    rows = load_linelist(linelist, region, province)
    confirmed = daily_confirmed(rows, start, end)
    removed = daily_removed(rows, start, end)
    return len(rows), {CaseKind.CONFIRMED: confirmed, CaseKind.ACTIVE: active_cases(confirmed, removed)}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_preprocess(args) -> int:
    if args.method == "rescale" and not args.weekly:
        raise UsageError("--weekly is required with --method rescale")
    method = Preprocess(args.method)
    series = _reconstruct(args.segments, args.weekly, [method])[method]
    input_paths = [args.segments] + ([args.weekly] if method is Preprocess.RESCALE else [])
    manifest = _manifest(args, input_paths)

    used_slugs: dict[str, str] = {}
    for keyword in series:
        slug = _slug(keyword)
        if slug in used_slugs:
            raise ParseError(
                f"keywords {used_slugs[slug]!r} and {keyword!r} map to the same file name {slug}.csv"
            )
        used_slugs[slug] = keyword
    out = _outdir(args)
    for slug, keyword in used_slugs.items():
        write_series_csv(series[keyword], str(out / f"{slug}.csv"), _preamble(manifest))
    print(f"wrote {len(series)} keyword series to {out}")
    return 0


def _cmd_metrics(args) -> int:
    if not 0.0 < args.threshold <= 1.0:
        raise UsageError(f"--threshold must lie in (0, 1], got {args.threshold}")
    panel = _load_panel(args.panel_dir)
    manifest = _manifest(args, [str(p) for p in sorted(Path(args.panel_dir).glob("*.csv"))])
    matrices = correlation_matrix_sequence(panel, args.window)
    series = metric_series_from_matrices(matrices, panel, MetricKind(args.metric), args.threshold)
    out = _outdir(args)
    write_series_csv(series, str(out / "metric.csv"), _preamble(manifest))
    print(f"wrote {len(series)} {args.metric} values to {out / 'metric.csv'}")
    return 0


def _cmd_cases(args) -> int:
    start = _date_flag("--start", args.start)
    end = _date_flag("--end", args.end)
    if end < start:
        raise UsageError(f"--end {args.end} precedes --start {args.start}")
    n_records, cases = _derive_cases(args.linelist, args.region, args.province, start, end)
    manifest = _manifest(args, [args.linelist])
    out = _outdir(args)
    write_series_csv(cases[CaseKind.CONFIRMED], str(out / "confirmed.csv"), _preamble(manifest))
    write_series_csv(cases[CaseKind.ACTIVE], str(out / "active.csv"), _preamble(manifest))
    print(f"kept {n_records} records; wrote confirmed.csv and active.csv to {out}")
    return 0


def _cmd_dtw(args) -> int:
    if args.radius is not None and args.radius < 0:
        raise UsageError(f"--radius must be nonnegative, got {args.radius}")
    case = read_series_csv(args.case)
    metric = read_series_csv(args.metric)
    # sanity: the two series must refer to a common period, but DTW runs on
    # the full series, so a length gap beyond the radius is still infeasible
    align_ranges(case, metric)
    band = BandSpec(args.radius)
    # the values scored are the values alignment.csv reports
    x = minmax_normalize(case) if args.normalize else case
    result = dtw(x.values, metric.values, band)

    manifest = _manifest(args, [args.case, args.metric])
    out = _outdir(args)
    _write_json(
        out / "dtw.json",
        {
            "manifest": manifest,
            "distance": result.distance,
            "radius": args.radius,
            "path_length": len(result.path),
            "case_range": [case.start_date.isoformat(), case.end_date.isoformat()],
            "metric_range": [metric.start_date.isoformat(), metric.end_date.isoformat()],
        },
    )

    write_csv(
        out / "alignment.csv",
        ["case_index", "metric_index", "case_date", "metric_date", "normalized_case", "metric_value"],
        (
            [
                i,
                j,
                (case.start_date + timedelta(days=i - 1)).isoformat(),
                (metric.start_date + timedelta(days=j - 1)).isoformat(),
                format_value(x.values[i - 1]),
                format_value(metric.values[j - 1]),
            ]
            for i, j in result.path
        ),
        _preamble(manifest),
    )
    print(f"distance {format_value(result.distance)} over {len(result.path)} path steps")
    return 0


def _load_sweep_domains(path: str | None) -> dict:
    """The lattice's levels per parameter, narrowed by a JSON config of level
    labels; narrowed levels keep lattice order and may not repeat."""
    domains = {name: list(levels) for name, levels in DOMAINS.items()}
    if path is None:
        return domains
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad sweep config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("sweep config must be a JSON object of parameter arrays")
    for key, values in raw.items():
        if key not in DOMAINS:
            raise ParseError(f"unknown sweep parameter {key!r}")
        if not isinstance(values, list) or not values:
            raise ParseError(f"sweep parameter {key!r} must be a non-empty array")
        canon = {level_label(level): level for level in DOMAINS[key]}
        picked = []
        for v in values:
            if not isinstance(v, (str, int, float)) or v not in canon:
                raise ParseError(f"sweep parameter {key!r} does not admit {v!r}")
            if canon[v] in picked:
                raise ParseError(f"sweep parameter {key!r} repeats level {v!r}")
            picked.append(canon[v])
        domains[key] = [level for level in DOMAINS[key] if level in picked]
    return domains


def _cmd_sweep(args) -> int:
    domains = _load_sweep_domains(args.config)
    if Preprocess.RESCALE in domains["preprocess"] and not args.weekly:
        raise UsageError("--weekly is required when the sweep includes the rescale method")

    panels = {
        method: KeywordPanel.from_mapping(series)
        for method, series in _reconstruct(args.segments, args.weekly, domains["preprocess"]).items()
    }

    any_panel = next(iter(panels.values()))
    start = _date_flag("--start", args.start) if args.start else any_panel.start_date
    end = _date_flag("--end", args.end) if args.end else any_panel.end_date
    if end < start:
        raise UsageError(f"--end {end} precedes --start {start}")

    _, case_series = _derive_cases(args.linelist, args.region, args.province, start, end)

    results = run_sweep(panels, case_series, domains)

    input_paths = [args.segments, args.linelist] + ([args.weekly] if args.weekly else [])
    manifest = _manifest(
        args,
        input_paths,
        start=start.isoformat(),
        end=end.isoformat(),
        domains={name: [level_label(level) for level in domains[name]] for name in PARAMETER_NAMES},
    )

    out = _outdir(args)
    write_csv(
        out / "sweep.csv",
        [*PARAMETER_NAMES, "dtw_score", "status"],
        (
            [*(str(level_label(level)) for level in levels)]
            + [format_value(r.score) if r.ok else "", r.status]
            for levels, r in zip(itertools.product(*(domains[name] for name in PARAMETER_NAMES)), results)
        ),
        _preamble(manifest),
    )

    succeeded = int(results.ok.sum())
    if not succeeded:
        print("error: every configuration failed; see the status column", file=sys.stderr)
        return 2

    reports = parameter_reports(results, domains)
    _write_json(
        out / "parameter_report.json",
        {
            "manifest": manifest,
            "parameters": {
                rep.parameter: {
                    "level_means": rep.level_means,
                    "h_statistic": rep.h_statistic,
                    "p_value": rep.p_value,
                    "significant": rep.significant,
                }
                for rep in reports
            },
        },
    )
    optimal_columns = ("metric", "case_type", "preprocess", "threshold", "window", "radius")
    write_csv(
        out / "optimal_configs.csv",
        [*optimal_columns, "dtw_score"],
        (
            [*(str(level_label(levels[name])) for name in optimal_columns), format_value(score)]
            for levels, score in optimal_configs(results, domains)
        ),
        _preamble(manifest),
    )
    print(
        f"swept {len(results)} configurations ({succeeded} scored); artifacts in {out}"
    )
    return 0


def _cmd_synth(args) -> int:
    if args.length < 3:
        raise UsageError(f"--length must be at least 3, got {args.length}")
    if not 0 <= args.lag < args.length:
        raise UsageError(f"--lag must satisfy 0 <= lag < length, got {args.lag}")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise UsageError(f"--noise must be finite and nonnegative, got {args.noise}")
    from .testkit import SyntheticScenario, synth_pair  # only synth needs the test kit
    scenario = SyntheticScenario(
        length=args.length,
        lag=args.lag,
        noise_amplitude=args.noise,
        seed=args.seed,
        start_date=_date_flag("--start", args.start),
    )
    case, metric = synth_pair(scenario)
    manifest = _manifest(args, [])
    out = _outdir(args)
    write_series_csv(case, str(out / "case.csv"), _preamble(manifest))
    write_series_csv(metric, str(out / "metric.csv"), _preamble(manifest))
    print(f"wrote synthetic pair (length {args.length}, lag {args.lag}) to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpwatch",
        description="Search-interest network metrics aligned to epidemic case curves",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("preprocess", help="rebuild daily series from 30-day segments")
    p.add_argument("--segments", required=True, help="segment CSV (keyword,segment_start,date,value)")
    p.add_argument("--weekly", help="weekly CSV (keyword,week_start,value); required for rescale")
    p.add_argument("--method", required=True, choices=["rescale", "msv"])
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("metrics", help="network metric series from a panel directory")
    p.add_argument("--panel-dir", required=True, help="directory of per-keyword date,value CSVs")
    p.add_argument("--metric", required=True, choices=[m.value for m in METRICS])
    p.add_argument("--threshold", required=True, type=float)
    p.add_argument("--window", required=True, type=int, choices=list(WINDOWS))
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("cases", help="daily confirmed and active cases from a line list")
    p.add_argument("--linelist", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--province", required=True)
    p.add_argument("--start", required=True, help="YYYY-MM-DD")
    p.add_argument("--end", required=True, help="YYYY-MM-DD")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_cases)

    p = sub.add_parser("dtw", help="banded DTW between a case CSV and a metric CSV")
    p.add_argument("--case", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--radius", type=int, default=None, help="Sakoe-Chiba radius; omit for unconstrained")
    p.add_argument("--normalize", action="store_true", help="min-max normalize the case series first")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_dtw)

    p = sub.add_parser("sweep", help="score the full parameter lattice end to end")
    p.add_argument("--segments", required=True)
    p.add_argument("--weekly")
    p.add_argument("--linelist", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--province", required=True)
    p.add_argument("--start", help="case range start (default: panel start)")
    p.add_argument("--end", help="case range end (default: panel end)")
    p.add_argument("--config", help="JSON object overriding parameter domains")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("synth", help="deterministic synthetic case/metric pair")
    p.add_argument("--length", type=int, default=120)
    p.add_argument("--lag", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", default="2020-01-01")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except BandInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (WarpwatchError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
