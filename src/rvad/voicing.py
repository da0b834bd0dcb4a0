"""Voiced-frame detection: spectral flatness thresholding or autocorrelation pitch."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .config import RvadConfig
from .dsp import Spectrogram, block_frames, frame_energy, frame_matrix, next_pow2, spectral_flatness

__all__ = ["sft_voicing", "detect_pitch_autocorr"]

# Frames quieter than this fraction of the loudest frame are never voiced.
ENERGY_GATE_RATIO = 1e-6

# A frame's correlation at the searched lags comes from an FFT of n =
# next_pow2(flen + lag_hi) points, where no searched lag wraps, when
# q*q > FFT_COST * n*log2(n) (q = flen - lag_lo + 1), and from the q*q
# multiply-adds of `_lag_correlation` otherwise.  The FFT side searches a
# block's frames a chunk at a time, the sum one frame at a time.
# `tools/pitch_costs.py` prints what a frame of each side costs at 8-48 kHz,
# and README holds its table: the chunked FFT is cheaper at every rate.
# FFT_COST draws the line between default frames at 16 kHz (q*q / n*log2(n)
# = 12.7) and 22.05 kHz (24.1): 8 and 16 kHz keep the exact sum because of
# criterion 7 (full mode at least 5 times slower than fast mode on 16 kHz
# files), not cost.  The rule reads the frame's geometry, so 50 ms frames
# at 16 kHz (25.7) take the FFT too.
FFT_COST = 16.0
# The FFT correlation lies within FFT_ERROR * (f.f) of the exact sum's.  A
# frame whose decision that error could flip is searched again exactly, so
# both paths give the same decisions.
FFT_ERROR = 1e-12


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
    normalized autocorrelation peak in the pitch range reaches `rho`.
    Frames too short to hold the shortest lag searched raise ValueError."""
    if not 0.0 < f_min < f_max < fs / 2.0:
        raise ValueError("need 0 < f_min < f_max < sample_rate/2")
    num, flen = frames.shape
    voiced = np.zeros(num, dtype=bool)
    gate = ENERGY_GATE_RATIO * energies.max(initial=0.0)
    lag_lo = int(round(fs / f_max))
    lag_hi = min(int(round(fs / f_min)), flen - 1)
    if lag_lo > lag_hi:
        raise ValueError(
            f"frames of {flen} samples are too short for the pitch search, whose shortest lag"
            f" is {lag_lo} samples (sample_rate/pitch_f_max): need at least {lag_lo + 1}"
        )
    q, n = flen - lag_lo + 1, next_pow2(flen + lag_hi)
    live = np.flatnonzero((energies > 0.0) & (energies >= gate))
    if q * q > FFT_COST * n * np.log2(n):
        # a chunk's padded frames and half-spectra fill about BLOCK_BYTES
        step = block_frames(2 * (flen + lag_hi))
        for lo in range(0, len(live), step):
            rows = live[lo : lo + step]
            voiced[rows] = _fft_peaks(frames[rows], lag_lo, lag_hi, n, rho)
        return voiced
    for m in live:
        voiced[m] = _exact_peak(frames[m], _denominators(frames[m], lag_lo, lag_hi)[1], lag_lo, lag_hi, rho)
    return voiced


def _denominators(f: np.ndarray, lag_lo: int, lag_hi: int) -> tuple:
    """f.f, and sqrt of the energies of x(0 .. flen-1-tau) and x(tau .. flen-1)
    for tau = lag_lo .. lag_hi, of a frame or of each row of a stack of frames."""
    flen = f.shape[-1]
    csum = np.cumsum(f * f, axis=-1)
    head = csum[..., flen - 1 - lag_hi : flen - lag_lo][..., ::-1]
    tail = csum[..., -1:] - csum[..., lag_lo - 1 : lag_hi]
    return csum[..., -1], np.sqrt(head * tail)


def _exact_peak(f: np.ndarray, denom: np.ndarray, lag_lo: int, lag_hi: int, rho: float) -> bool:
    """Whether a frame's exact correlation, normalized by its denominators,
    reaches `rho` at some lag where they are not 0."""
    valid = denom > 0.0
    return bool(valid.any()) and (_lag_correlation(f, lag_lo, lag_hi)[valid] / denom[valid]).max() >= rho


def _fft_peaks(f: np.ndarray, lag_lo: int, lag_hi: int, n: int, rho: float) -> np.ndarray:
    """The decisions of the lag-limited sum for a stack of frames, from their
    FFT correlation, searching again exactly each frame that the FFT's error
    could flip."""
    energy, denom = _denominators(f, lag_lo, lag_hi)
    # r(tau) >= rho at some lag, read as corr - rho*denom: the FFT's error
    # moves it by at most FFT_ERROR * f.f at every lag, and twice that
    # leaves room for the rounding of the differences
    margin = np.where(denom > 0.0, _fft_correlation(f, lag_lo, lag_hi, n) - rho * denom, -np.inf).max(axis=1)
    voiced = margin > 0.0
    for k in np.flatnonzero(np.abs(margin) <= 2.0 * FFT_ERROR * energy):
        voiced[k] = _exact_peak(f[k], denom[k], lag_lo, lag_hi, rho)
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

    numpy's full mode also computes the q - 1 left-ramp outputs that the
    slice drops: at 16 kHz (q = 361) one call does 130,321 multiply-adds,
    and the 228 kept lags need only 56,202 of them (43 %).  Like the FFT
    side, that saving is fenced by criterion 7 (see FFT_COST).
    """
    q = len(f) - lag_lo + 1
    return np.correlate(f[lag_lo - 1 :], f[:q], mode="full")[q : q + lag_hi - lag_lo + 1]


def _fft_correlation(f: np.ndarray, lag_lo: int, lag_hi: int, n: int) -> np.ndarray:
    """sum f(n)f(n+tau) for tau = lag_lo .. lag_hi, within FFT_ERROR * f.f, from
    the inverse FFT of the frame's power spectrum on n >= len(f) + lag_hi
    points, where no searched lag wraps round onto another; for a frame, or
    for each row of a stack of frames."""
    spectrum = np.fft.rfft(f, n)
    spectrum *= spectrum.conj()
    return np.fft.irfft(spectrum, n)[..., lag_lo : lag_hi + 1]
