"""Seeded input generators for the benchmark workloads.

Every generator draws from one ``random.Random(seed)`` stream, so a seed
fixes the bytes of every input file. The program under test only ever
sees the files written here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

START = date(2020, 3, 16)
SEGMENT_DAYS = 30
KEYWORDS = (
    "cough", "fever", "flu", "headache", "sore throat", "masks", "face shield",
    "lockdown", "quarantine", "curfew", "frontliners", "social distancing",
    "new normal", "vaccine", "sanitizer",
)
REGION = "NCR"
OTHER_REGIONS = ("CALABARZON", "CENTRAL LUZON")


@dataclass(frozen=True)
class SweepInputs:
    segments: Path
    weekly: Path
    linelist: Path


@dataclass(frozen=True)
class IngestInputs:
    segments: Path
    weekly: Path
    linelist: Path
    keywords: tuple[str, ...]
    days: int
    case_start: date
    case_end: date
    expected_confirmed: int


def _signal(rng: random.Random, k: int, days: int) -> list[float]:
    """Smooth positive daily interest curve with a per-keyword phase shift."""
    center = days * 0.45 + 4.0 * k
    spread = days / 7.0
    out = []
    for t in range(days):
        z = (t - center) / spread
        base = 0.12 + 0.8 * math.exp(-0.5 * z * z)
        wiggle = 0.06 * math.sin(2.0 * math.pi * (t + 5 * k) / 29.0)
        noise = 0.03 * (2.0 * rng.random() - 1.0)
        out.append(min(100.0, max(0.5, 100.0 * (base + wiggle + noise))))
    return out


def _segment_offsets(days: int, step: int) -> list[int]:
    """Segment starts every ``step`` days; the last one always ends on the last day."""
    offsets = list(range(0, days - SEGMENT_DAYS + 1, step))
    if offsets[-1] != days - SEGMENT_DAYS:
        offsets.append(days - SEGMENT_DAYS)
    return offsets


def write_trends(
    outdir: Path, rng: random.Random, keywords: int, days: int, step: int, newline: str = "\n"
) -> tuple[Path, Path]:
    """Segment and weekly-reference CSVs, one 30-day segment every ``step`` days."""
    seg_lines = ["keyword,segment_start,date,value"]
    weekly_lines = ["keyword,week_start,value"]
    offsets = _segment_offsets(days, step)
    dates = [(START + timedelta(days=d)).isoformat() for d in range(days)]
    for k, keyword in enumerate(KEYWORDS[:keywords]):
        signal = _signal(rng, k, days)
        for off in offsets:
            window = signal[off : off + SEGMENT_DAYS]
            scale = 100.0 / max(window)
            seg_start = dates[off]
            seg_lines.extend(
                f"{keyword},{seg_start},{dates[off + d]},{min(100.0, raw * scale):.4f}"
                for d, raw in enumerate(window)
            )
        global_scale = 100.0 / max(signal)
        for w in range((days + 6) // 7):
            week = signal[7 * w : 7 * w + 7]
            weekly_lines.append(
                f"{keyword},{dates[7 * w]},{min(100.0, sum(week) / len(week) * global_scale):.4f}"
            )
    segments = outdir / "segments.csv"
    weekly = outdir / "weekly.csv"
    segments.write_text(newline.join(seg_lines) + newline, encoding="utf-8", newline="")
    weekly.write_text("\n".join(weekly_lines) + "\n", encoding="utf-8", newline="")
    return segments, weekly


def sweep_inputs(outdir: Path, seed: int, keywords: int, days: int, step: int) -> SweepInputs:
    """The demo shape: one region whose confirmation curve trails the searches by 12 days."""
    rng = random.Random(seed)
    segments, weekly = write_trends(outdir, rng, keywords, days, step)
    lines = ["RegionRes,ProvinceRes,DateRepConf,DateRepRem,Age"]
    center = days * 0.45 + 12
    spread = days / 7.0
    for t in range(days):
        z = (t - center) / spread
        count = int(14.0 * math.exp(-0.5 * z * z) + 1.0 + 2.0 * rng.random())
        conf = START + timedelta(days=t)
        for _ in range(count):
            removal = ""
            if rng.random() < 0.85:
                removal = (conf + timedelta(days=5 + int(16 * rng.random()))).isoformat()
            lines.append(f"{REGION},{REGION},{conf.isoformat()},{removal},{18 + int(65 * rng.random())}")
    linelist = outdir / "linelist.csv"
    linelist.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return SweepInputs(segments, weekly, linelist)


def ingest_inputs(outdir: Path, seed: int, keywords: int, days: int, linelist_rows: int) -> IngestInputs:
    """Large, dirty inputs for the standalone subcommands.

    Segments start every day and use CRLF line ends. The line list mixes
    three regions in no particular order; rows outside the kept region
    carry blank fields and malformed dates (which the loader must skip
    without validating), kept rows carry padded fields, a few removals
    precede their confirmation, and an early wave peaks in the month
    before the case range starts, so its patients' removals drive the
    active-case clamp.
    """
    rng = random.Random(seed)
    segments, weekly = write_trends(outdir, rng, keywords, days, 1, newline="\r\n")
    case_start = START + timedelta(days=30)
    case_end = START + timedelta(days=days - 1)
    dirty_dates = ("", "2020/04/01", "unknown", "31-12-2020")
    lines = ["RegionRes,ProvinceRes,DateRepConf,DateRepRem,Age,Sex"]
    expected = 0
    center = days * 0.45 + 12
    spread = days / 7.0
    for _ in range(linelist_rows):
        draw = rng.random()
        if draw < 0.1:
            offset = min(days - 1, max(0, int(rng.gauss(15.0, 5.0))))
        elif draw < 0.3:
            offset = int(days * rng.random())
        else:
            offset = min(days - 1, max(0, int(rng.gauss(center, spread))))
        conf = START + timedelta(days=offset)
        u = rng.random()
        if u < 0.85:
            removal = (conf + timedelta(days=5 + int(16 * rng.random()))).isoformat()
        elif u < 0.87:
            removal = (conf - timedelta(days=1 + int(3 * rng.random()))).isoformat()
        else:
            removal = ""
        age = 18 + int(65 * rng.random())
        sex = "MF"[int(2 * rng.random())]
        region_draw = rng.random()
        if region_draw < 1.0 / 3.0:
            lines.append(f" {REGION} ,{REGION} ,{conf.isoformat()},{removal},{age},{sex}")
            if case_start <= conf <= case_end:
                expected += 1
        else:
            region = OTHER_REGIONS[int(region_draw * 3.0) - 1]
            if rng.random() < 0.05:
                lines.append(f"{region},,{rng.choice(dirty_dates)},{rng.choice(dirty_dates)},{age},{sex}")
            else:
                lines.append(f"{region},{region},{conf.isoformat()},{removal},{age},{sex}")
    linelist = outdir / "linelist.csv"
    linelist.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return IngestInputs(
        segments=segments,
        weekly=weekly,
        linelist=linelist,
        keywords=KEYWORDS[:keywords],
        days=days,
        case_start=case_start,
        case_end=case_end,
        expected_confirmed=expected,
    )
