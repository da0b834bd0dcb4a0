"""Frame-level SNR features: noise-energy tracking and the weighted energy difference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RvadConfig
from .dsp import recursion

__all__ = [
    "ENERGY_FLOOR",
    "FrameFeatures",
    "NoiseEnergyTrack",
    "rank_low_energy",
    "track_noise_energy",
    "log_energy_ratio_db",
    "weighted_energy_difference",
    "central_smooth",
    "compute_features",
]

# Floor for energies entering the log ratio; silence would otherwise be -inf dB.
ENERGY_FLOOR = 1e-12


def rank_low_energy(e: np.ndarray) -> float:
    """Energy of the frame ranked at 10 % of lowest energy (1-based ceil rank)."""
    n = len(e)
    if n == 0:
        raise ValueError("need at least one frame")
    k = int(np.ceil(0.10 * n))
    return float(np.sort(e)[max(k - 1, 0)])


@dataclass
class NoiseEnergyTrack:
    """Per-super-segment noise energy, raw and recursively smoothed."""

    e_v: np.ndarray
    e_v_smooth: np.ndarray


def track_noise_energy(
    e: np.ndarray, super_len: int = RvadConfig.super_len, forget: float = RvadConfig.noise_forget
) -> NoiseEnergyTrack:
    """Track noise energy over super-segments of `super_len` frames.

    Each super-segment contributes the energy ranked at 10% of lowest within
    it; the resulting sequence is exponentially smoothed with the given
    forgetting factor.  A trailing partial super-segment is kept as-is, and
    no frames give empty tracks.
    """
    e = np.asarray(e, dtype=np.float64)
    e_v = np.array([rank_low_energy(e[i : i + super_len]) for i in range(0, len(e), super_len)])
    smooth = e_v.copy()
    if len(e_v):
        # smooth[p] = forget*smooth[p-1] + (1 - forget)*e_v[p], from smooth[0] = e_v[0]
        recursion(e_v[0], np.multiply(1.0 - forget, e_v[1:], out=smooth[1:]), forget)
    return NoiseEnergyTrack(e_v, smooth)


def log_energy_ratio_db(e: np.ndarray, noise) -> np.ndarray:
    """Floored 10*log10(e/noise) of an array `e`, against a scalar `noise`
    or an array of `e`'s shape.  The ratio, its log and the scaling are
    taken in the floored `e`'s own array."""
    num = np.maximum(e, ENERGY_FLOOR)
    den = np.maximum(noise, ENERGY_FLOOR)
    np.divide(num, den, out=num)
    np.log10(num, out=num)
    return np.multiply(num, 10.0, out=num)


def weighted_energy_difference(e: np.ndarray, snr_db: np.ndarray) -> np.ndarray:
    """SNR-weighted energy difference of consecutive frames.

    d(m) = sqrt(|e(m) - e(m-1)| * max(snr_db(m), 0)), with d(0) = 0.  The
    square root keeps the dynamic range manageable and the SNR clamp kills
    the feature wherever a frame sits at or below the noise floor.
    """
    e = np.asarray(e, dtype=np.float64)
    snr_db = np.asarray(snr_db, dtype=np.float64)
    if len(e) != len(snr_db):
        raise ValueError("length mismatch")
    d = np.zeros(len(e))
    if len(e) > 1:
        rest = d[1:]
        np.subtract(e[1:], e[:-1], out=rest)
        np.abs(rest, out=rest)
        np.multiply(rest, np.maximum(snr_db[1:], 0.0), out=rest)
        np.sqrt(rest, out=rest)
    return d


def central_smooth(x: np.ndarray, n: int) -> np.ndarray:
    """Mean over the window [m-n, m+n], truncated at the sequence edges.

    Edge frames are normalized by the number of in-range entries, so a
    constant sequence stays constant all the way to the boundaries.  Both
    come from one cumulative sum: the interior frames as the difference of
    two of its slices, the at most 2n edge frames through index arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    m = len(x)
    if m == 0 or n == 0:
        return x.copy()
    csum = np.empty(m + 1)
    csum[0] = 0.0
    np.cumsum(x, out=csum[1:])
    out = np.empty(m)
    width = 2 * n + 1
    if m >= width:
        inner = out[n : m - n]
        np.subtract(csum[width:], csum[: m + 1 - width], out=inner)
        inner /= width
    head = min(n, m)
    idx = np.concatenate((np.arange(head), np.arange(max(m - n, head), m)))
    lo = np.maximum(idx - n, 0)
    hi = np.minimum(idx + n, m - 1)
    out[idx] = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    return out


@dataclass
class FrameFeatures:
    """Per-frame SNR-weighted energy difference, raw and smoothed."""

    d: np.ndarray
    d_smooth: np.ndarray


def compute_features(
    e: np.ndarray,
    super_len: int = RvadConfig.super_len,
    smooth_n: int = RvadConfig.smooth_n,
    forget: float = RvadConfig.noise_forget,
) -> FrameFeatures:
    """Full feature stack for one utterance's frame energies; the a posteriori
    SNR is each frame's energy over its super-segment's smoothed noise energy,
    dropped once it has weighted the difference."""
    e = np.asarray(e, dtype=np.float64)
    track = track_noise_energy(e, super_len, forget)
    # one noise energy per frame, the last super-segment's count cut to the frames left
    counts = np.full(len(track.e_v), super_len)
    counts[-1:] -= super_len * len(counts) - len(e)
    d = weighted_energy_difference(e, log_energy_ratio_db(e, np.repeat(track.e_v_smooth, counts)))
    return FrameFeatures(d, central_smooth(d, smooth_n))
