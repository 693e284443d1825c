"""Per-layer metrics from the spans that ``child.py`` records in a traced pass.

Times are interval measures, not sums: spans of one layer that overlap
(the sweep's DTW calls on pool threads) count once, so a layer's time
never exceeds the wall time it was busy. A layer's self time is the
part of its spans not covered by their child spans; the ``cli`` layer's
self time is ``main()``'s wall minus its top-level spans.
"""

from __future__ import annotations

from collections import defaultdict

# metric name -> (layer, kinds); the time of spans of that layer and those kinds
TIMES = {
    "trends.load_s": ("trends", ("load",)),
    "trends.reconstruct_s": ("trends", ("reconstruct",)),
    "cases.load_s": ("cases", ("load",)),
    "cases.derive_s": ("cases", ("derive",)),
    "network.corr_s": ("network", ("corr",)),
    "network.metric_s": ("network", ("metric",)),
    "dtw.s": ("dtw", None),
    "sweep.s": ("sweep", None),
    "stats.s": ("stats", None),
    "timeseries.s": ("timeseries", None),
}
# metric name -> span count field summed over the pass
COUNTS = {
    "trends.rows": "rows",
    "trends.keyword_days": "keyword_days",
    "cases.rows_scanned": "rows_scanned",
    "cases.rows_kept": "rows_kept",
    "cases.clamp_days": "clamp_days",
    "network.corr_calls": "corr_calls",
    "network.corr_pairs": "corr_pairs",
    "network.graphs": "graphs",
    "dtw.calls": "dtw_calls",
    "dtw.band_cells": "band_cells",
    "dtw.alloc_cells": "alloc_cells",
    "sweep.configs": "configs",
    "timeseries.rows_written": "rows_written",
}
LAYERS = ("trends", "cases", "network", "dtw", "sweep", "stats", "timeseries", "cli")
UNITS = {"_s": "s", "_frac": "frac", "_fill": "frac", "concurrency": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "s" if name.endswith(".s") else "count"


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _measure(intervals) -> float:
    return sum(b - a for a, b in _union(intervals))


def _subtract(span: tuple[float, float], holes) -> list[tuple[float, float]]:
    """Parts of ``span`` not covered by ``holes``."""
    out = []
    cursor, end = span
    for a, b in _union(holes):
        if b <= cursor or a >= end:
            continue
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < end:
        out.append((cursor, end))
    return out


def child_metrics(stats: dict) -> dict[str, float]:
    """Per-layer times and counts of one traced child process."""
    spans = stats["spans"]
    children: dict[int | None, list] = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["t0"], s["t1"]))
    main = (stats["main_t0"], stats["main_t1"])

    out: dict[str, float] = {}
    for name, (layer, kinds) in TIMES.items():
        out[name] = _measure(
            (s["t0"], s["t1"]) for s in spans if s["layer"] == layer and (kinds is None or s["kind"] in kinds)
        )
    for name, field in COUNTS.items():
        out[name] = sum(s.get(field, 0) for s in spans)

    self_parts: dict[str, list] = defaultdict(list)
    for s in spans:
        self_parts[s["layer"]].extend(_subtract((s["t0"], s["t1"]), children[s["id"]]))
    self_parts["cli"] = _subtract(main, children[None])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _measure(self_parts[layer])
    out["cli.s"] = main[1] - main[0]

    dtw = [(s["t0"], s["t1"]) for s in spans if s["layer"] == "dtw"]
    out["dtw.busy_s"] = sum(b - a for a, b in dtw)
    out["sweep.configs_ok"] = sum(s.get("configs_ok", 0) for s in spans)
    return out


def pass_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass: children run one after another, so values add."""
    total: dict[str, float] = defaultdict(float)
    for stats in children:
        for name, value in child_metrics(stats).items():
            total[name] += value
    busy = total.pop("dtw.busy_s")
    configs_ok = total.pop("sweep.configs_ok")
    total["dtw.band_fill"] = total["dtw.band_cells"] / total["dtw.alloc_cells"] if total["dtw.alloc_cells"] else 0.0
    total["sweep.ok_frac"] = configs_ok / total["sweep.configs"] if total["sweep.configs"] else 0.0
    total["sweep.dtw_concurrency"] = busy / total["dtw.s"] if total["dtw.s"] else 0.0
    return dict(total)


def shape_problems(workload: str, m: dict[str, float], wall_s: float) -> list[str]:
    """Check that a workload stresses the layer it was chosen for."""
    network = m["network.corr_s"] + m["network.metric_s"]
    shares = {"network": network, "dtw": m["dtw.s"], "timeseries": m["timeseries.s"], "sweep.self": m["sweep.self_s"]}
    top = max(shares, key=shares.get)
    if workload == "sweep-wide" and top != "network":
        return [f"sweep-wide: {top} ({shares[top]:.3f} s), not network, takes the largest share of sweep.s"]
    if workload == "sweep-long" and top != "dtw":
        return [f"sweep-long: {top} ({shares[top]:.3f} s), not dtw, takes the largest share of sweep.s"]
    if workload == "ingest-align":
        problems = []
        ingest = m["trends.self_s"] + m["cases.self_s"] + m["timeseries.self_s"] + m["cli.self_s"]
        if ingest <= 0.5 * wall_s:
            problems.append(f"ingest-align: trends+cases+timeseries+cli take {ingest:.3f} s of {wall_s:.3f} s")
        if network > 0.0:
            problems.append("ingest-align: a network span appeared")
        return problems
    return []
