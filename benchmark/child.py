"""Run one ``warpwatch`` CLI command and write what the benchmark needs to know.

Usage:
    python benchmark/child.py STATS_JSON TRACE(0|1) -- <warpwatch arguments>

The wrapper calls ``warpwatch.cli.main(argv)`` exactly as
``python -m warpwatch.cli`` would. On exit it writes STATS_JSON with the
exit code, the wall time of ``main`` and this process's own peak RSS
(``VmHWM``). ``ru_maxrss`` seen by the parent is no substitute: Linux
carries the parent's high-water mark over fork and exec, so a small
child of a large driver would report the driver's peak.

With TRACE=1 the wrapper first replaces the names through which the CLI
and the sweep call into each layer, so that every call records a span
(name, layer, start, end, parent span, thread) plus the work counts the
layer did. Spans stay in memory until exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import sys
import threading
import time

import numpy as np

# (module, attribute) -> (layer, kind); kind groups time within a layer
WRAPPED = {
    ("cli", "load_segments"): ("trends", "load"),
    ("cli", "load_weekly"): ("trends", "load"),
    ("cli", "rescale_daily"): ("trends", "reconstruct"),
    ("cli", "msv_merge"): ("trends", "reconstruct"),
    ("cli", "load_linelist"): ("cases", "load"),
    ("cli", "daily_confirmed"): ("cases", "derive"),
    ("cli", "daily_removed"): ("cases", "derive"),
    ("cli", "active_cases"): ("cases", "derive"),
    ("cli", "run_sweep"): ("sweep", "run"),
    ("cli", "parameter_reports"): ("stats", "report"),
    ("cli", "optimal_configs"): ("stats", "report"),
    ("cli", "dtw"): ("dtw", "dtw"),
    ("cli", "read_series_csv"): ("timeseries", "io"),
    ("cli", "write_series_csv"): ("timeseries", "io"),
    ("sweep", "correlation_matrix_sequence"): ("network", "corr"),
    ("sweep", "metric_series_from_matrices"): ("network", "metric"),
    ("sweep", "dtw"): ("dtw", "dtw"),
    ("sweep", "minmax_normalize"): ("timeseries", "transform"),
    ("sweep", "align_ranges"): ("timeseries", "transform"),
}


def vmhwm_kb() -> int:
    """This process's peak resident set size in KiB, from /proc/self/status."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def band_cells(n: int, m: int, radius: int | None) -> int:
    """Cells (i, j) of an n x m matrix with |i - j| <= radius."""
    if radius is None:
        return n * m
    i = np.arange(n)
    width = np.minimum(m - 1, i + radius) - np.maximum(0, i - radius) + 1
    return int(np.clip(width, 0, None).sum())


def _count_lines(path: str) -> int:
    """Non-blank data rows of a CSV with one header line."""
    with open(path, "rb") as fh:
        next(fh, None)
        return sum(1 for line in fh if line.strip())


class _ClampCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("active-case clamp"):
            self.count += 1


class Tracer:
    """In-memory span recorder; spans on pool threads hang off the main thread's open span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self.clamps = _ClampCounter()

    def _parent(self, tid: int) -> int | None:
        stack = self._stacks.get(tid) or self._stacks.get(self._main) or []
        return stack[-1] if stack else None

    def call(self, name: str, layer: str, kind: str, fn, args, kwargs):
        tid = threading.get_ident()
        span_id = next(self._ids)
        parent = self._parent(tid)
        stack = self._stacks.setdefault(tid, [])
        stack.append(span_id)
        clamps_before = self.clamps.count
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        span = {"id": span_id, "parent": parent, "tid": tid, "name": name,
                "layer": layer, "kind": kind, "t0": t0, "t1": t1}
        span.update(_counts(name, args, kwargs, result))
        if name == "active_cases":
            span["clamp_days"] = self.clamps.count - clamps_before
        self.spans.append(span)
        return result

    def install(self, modules: dict) -> None:
        logging.getLogger("warpwatch.cases").addHandler(self.clamps)
        for (mod, attr), (layer, kind) in WRAPPED.items():
            module = modules[mod]
            original = getattr(module, attr)

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _name=attr, _layer=layer, _kind=kind, **kwargs):
                return self.call(_name, _layer, _kind, _fn, args, kwargs)

            setattr(module, attr, wrapper)


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts of one call, computed from its arguments and result."""
    if name == "load_segments":
        return {"rows": 30 * len(result)}
    if name == "load_weekly":
        return {"rows": sum(len(w.values) for w in result.values())}
    if name in ("rescale_daily", "msv_merge"):
        return {"keyword_days": len(result)}
    if name == "load_linelist":
        return {"rows_scanned": _count_lines(args[0]), "rows_kept": len(result)}
    if name == "correlation_matrix_sequence":
        n = args[0].n_keywords
        return {"corr_calls": 1, "corr_pairs": len(result) * n * (n - 1) // 2}
    if name == "metric_series_from_matrices":
        return {"graphs": len(args[0])}
    if name == "dtw":
        n, m = len(args[0]), len(args[1])
        band = args[2] if len(args) > 2 else kwargs.get("band")
        radius = None if band is None else band.radius
        return {"dtw_calls": 1, "band_cells": band_cells(n, m, radius), "alloc_cells": n * m}
    if name == "run_sweep":
        return {"configs": len(result), "configs_ok": sum(1 for r in result if r.ok)}
    if name == "write_series_csv":
        return {"rows_written": len(args[0])}
    return {}


def main() -> int:
    stats_path, trace_flag, sep, *argv = sys.argv[1:]
    if sep != "--" or trace_flag not in ("0", "1"):
        print(__doc__.splitlines()[3], file=sys.stderr)
        return 2
    import warpwatch.cli
    import warpwatch.sweep

    tracer = None
    if trace_flag == "1":
        tracer = Tracer()
        tracer.install({"cli": warpwatch.cli, "sweep": warpwatch.sweep})
    code = 1
    t0 = time.perf_counter()
    try:
        code = warpwatch.cli.main(argv)
    finally:
        t1 = time.perf_counter()
        stats = {"exit": code, "main_t0": t0, "main_t1": t1, "vmhwm_kb": vmhwm_kb()}
        if tracer is not None:
            stats["spans"] = tracer.spans
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
