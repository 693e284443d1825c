#!/usr/bin/env python3
"""How band radius interacts with a known lag, on clean synthetic pairs.

For each lag, sweeps the radius ladder and prints the alignment cost.
Costs should fall as the radius grows past the lag and then flatten:
a band narrower than the lag cannot absorb the shift.

Usage:
    python scripts/lag_experiment.py [--length 150] [--noise 0.02] [--seed 7]
"""

from __future__ import annotations

import argparse
import sys

from warpwatch.dtw import BandSpec, dtw
from warpwatch.sweep import RADII
from warpwatch.testkit import SyntheticScenario, synth_pair


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=150)
    parser.add_argument("--noise", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--lags", type=int, nargs="+", default=[0, 5, 10, 20, 40])
    args = parser.parse_args()

    for lag in args.lags:
        if not 0 <= lag < args.length:
            parser.error(f"lag {lag} outside [0, {args.length})")
    pairs = [synth_pair(SyntheticScenario(args.length, lag, args.noise, args.seed)) for lag in args.lags]
    cases, metrics = [case.values for case, _ in pairs], [metric.values for _, metric in pairs]
    # one stacked call per band scores every lag
    columns = [dtw(cases, metrics, BandSpec(radius)) for radius in (*RADII, None)]

    header = ["lag"] + [f"r={r}" for r in RADII] + ["unconstrained"]
    print("  ".join(f"{h:>14}" for h in header))
    for lag, distances in zip(args.lags, zip(*columns)):
        print("  ".join([f"{lag:>14}"] + [f"{distance:>14.4f}" for distance in distances]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
