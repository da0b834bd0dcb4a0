"""Microseconds a frame of the pitch search on each side of its rule, at 8-48 kHz.

    python tools/pitch_costs.py [--frames 400] [--runs 10]

Times `voicing._pitch_peaks` of the rvad in this tree on one block of
`--frames` seeded white-noise frames of FRAME_MS (25 ms) at each rate, every
frame above the energy gates, once with `voicing.FFT_COST` set to infinity
(the lag-limited sum, one frame at a time) and once set to 0 (the FFT, a
chunk of frames a call), alternating the two sides and the rates in each of
`--runs` rounds.
Prints the median per frame of each side as a markdown table, under the
ratio q*q / (n*log2 n) that the rule compares with `FFT_COST`.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rvad import RvadConfig, voicing  # noqa: E402
from rvad.dsp import next_pow2  # noqa: E402

RATES = (8000, 16000, 22050, 32000, 44100, 48000)
SIDES = {"lag-limited sum": np.inf, "chunked FFT": 0.0}
FRAME_MS = 25.0


def rule_ratio(fs: int, flen: int) -> float:
    """q*q / (n*log2 n) of the pitch search's rule at the default pitch range."""
    lag_lo = round(fs / RvadConfig.pitch_f_max)
    lag_hi = min(round(fs / RvadConfig.pitch_f_min), flen - 1)
    q, n = flen - lag_lo + 1, next_pow2(flen + lag_hi)
    return q * q / (n * np.log2(n))


def measure(frames: int, runs: int) -> dict[str, list[float]]:
    """Median microseconds a frame of each side at each of RATES."""
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((frames, round(FRAME_MS * fs / 1000.0))) for fs in RATES]
    energies = np.ones(frames)
    times = {side: [[] for _ in RATES] for side in SIDES}
    for run in range(runs):
        order = list(SIDES) if run % 2 == 0 else list(SIDES)[::-1]
        for i, (fs, block) in enumerate(zip(RATES, blocks)):
            for side in order:
                with mock.patch.object(voicing, "FFT_COST", SIDES[side]):
                    start = time.perf_counter()
                    voicing._pitch_peaks(
                        block, energies, fs, RvadConfig.pitch_f_min, RvadConfig.pitch_f_max, RvadConfig.pitch_rho
                    )
                    times[side][i].append((time.perf_counter() - start) * 1e6 / frames)
    return {side: [float(np.median(t)) for t in per_rate] for side, per_rate in times.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--frames", type=int, default=400, help="frames a block (default 400)")
    ap.add_argument("--runs", type=int, default=10, help="interleaved rounds (default 10)")
    args = ap.parse_args(argv)
    if args.frames < 1 or args.runs < 1:
        ap.error("--frames and --runs must be at least 1")
    costs = measure(args.frames, args.runs)
    print("| fs (kHz) | " + " | ".join(f"{fs / 1000:g}" for fs in RATES) + " |")
    print("|---" * (len(RATES) + 1) + "|")
    ratios = [rule_ratio(fs, round(FRAME_MS * fs / 1000.0)) for fs in RATES]
    print("| q² / n·log2(n) | " + " | ".join(f"{r:.1f}" for r in ratios) + " |")
    for side, per_rate in costs.items():
        print(f"| {side} | " + " | ".join(f"{us:.1f}" for us in per_rate) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
