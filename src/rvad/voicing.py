"""Voiced-frame detection: spectral flatness thresholding or autocorrelation pitch."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .config import RvadConfig
from .dsp import Spectrogram, frame_energy, frame_matrix, spectral_flatness

__all__ = ["sft_voicing", "detect_pitch_autocorr"]

# Frames quieter than this fraction of the loudest frame are never voiced.
ENERGY_GATE_RATIO = 1e-6


def sft_voicing(spectra: Iterable[Spectrogram], theta_sft: float = RvadConfig.theta_sft) -> np.ndarray:
    """Mark frames whose spectral flatness is at or below the threshold as voiced.

    Tonal/harmonic frames have low flatness; noise-like frames sit near 1.0
    and fall through.  Under heavy white noise this detector saturates
    unvoiced, which is the documented failure mode of the fast pipeline.
    The utterance comes as consecutive spectrograms of its frames, which the
    pipeline's sweep takes one STFT block of `block_frames` frames at a
    time, so long files are never held whole; decisions do not depend on
    the blocking.  The flatness reads the spectra and leaves them as they are.
    """
    return np.concatenate([np.zeros(0, dtype=bool), *(spectral_flatness(spec) <= theta_sft for spec in spectra)])


def detect_pitch_autocorr(
    blocks: Iterable[tuple],
    f_min: float = RvadConfig.pitch_f_min,
    f_max: float = RvadConfig.pitch_f_max,
    rho: float = RvadConfig.pitch_rho,
) -> np.ndarray:
    """Mark frames with a strong normalized autocorrelation peak in the pitch range.

    Per frame, r(tau) = sum x(n)x(n+tau) normalized by the energies of the
    two overlapping stretches is searched over lags fs/f_max .. fs/f_min.
    A frame is voiced when the peak reaches `rho` and the frame is not quiet
    relative to the loudest frame of the utterance.  All-zero frames are
    unvoiced by construction.  The utterance comes as consecutive blocks of
    frames, each a buffer and the grid of its frames on it, and optionally
    their energies (`dsp.frame_energy`), which are computed here when
    absent; a frame below the gate of its own block is below the
    utterance's, so its peak is not searched for.  The blocks' energies are
    read again for the utterance's gate, not copied.
    """
    peaks, top = [], 0.0
    for audio, grid, *known in blocks:
        energies = known[0] if known else frame_energy(audio, grid)
        frames = frame_matrix(audio.samples, grid)
        peaks.append((_pitch_peaks(frames, energies, audio.sample_rate_hz, f_min, f_max, rho), energies))
        top = max(top, energies.max(initial=0.0))
    gate = ENERGY_GATE_RATIO * top
    return np.concatenate([np.zeros(0, dtype=bool)] + [voiced & (energies >= gate) for voiced, energies in peaks])


def _pitch_peaks(
    frames: np.ndarray, energies: np.ndarray, fs: int, f_min: float, f_max: float, rho: float
) -> np.ndarray:
    """Frames of one block, at or above its own energy gate, whose
    normalized autocorrelation peak in the pitch range reaches `rho`."""
    if not 0.0 < f_min < f_max < fs / 2.0:
        raise ValueError("need 0 < f_min < f_max < sample_rate/2")
    num, flen = frames.shape
    voiced = np.zeros(num, dtype=bool)
    gate = ENERGY_GATE_RATIO * energies.max(initial=0.0)
    lag_lo = int(round(fs / f_max))
    lag_hi = min(int(round(fs / f_min)), flen - 1)
    if lag_lo < 1 or lag_lo > lag_hi:
        return voiced
    lags = np.arange(lag_lo, lag_hi + 1)

    for m in range(num):
        if energies[m] <= 0.0 or energies[m] < gate:
            continue
        f = frames[m]
        corr = _lag_correlation(f, lag_lo, lag_hi)
        csum = np.concatenate(([0.0], np.cumsum(f * f)))
        head = csum[flen - lags]  # energy of x(0 .. flen-1-tau)
        tail = csum[flen] - csum[lags]  # energy of x(tau .. flen-1)
        denom = np.sqrt(head * tail)
        valid = denom > 0.0
        if valid.any():
            voiced[m] = (corr[valid] / denom[valid]).max() >= rho
    return voiced


def _lag_correlation(f: np.ndarray, lag_lo: int, lag_hi: int) -> np.ndarray:
    """sum f(n)f(n+tau) for tau = lag_lo .. lag_hi, 1 <= lag_lo <= lag_hi < len(f):
    the bits of np.correlate(f, f, "full")[len(f) - 1 + lag_lo : len(f) + lag_hi].

    Only these lags are computed.  The frame from sample lag_lo - 1 on,
    against its first q samples, gives lag tau as output q + tau - lag_lo: a
    dot product with the pointers and length of lag tau in the full
    autocorrelation, so the same bits, in q*q multiply-adds instead of
    len(f)**2.  From sample lag_lo on, lag_lo would be numpy's middle output,
    which it takes in a loop of its own when the overlap is 11 samples or
    fewer, and that can differ in the last place.
    """
    q = len(f) - lag_lo + 1
    return np.correlate(f[lag_lo - 1 :], f[:q], mode="full")[q : q + lag_hi - lag_lo + 1]
