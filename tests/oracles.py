"""Slow reference implementations that the library's kernels are tested against.

Each one is the straightforward per-frame form of a computation that the
library does with array operations; tests require the two to agree exactly.
"""

from __future__ import annotations

import numpy as np

from rvad.audio_io import AudioBuffer
from rvad.denoise import DEFAULT_BIAS, DEFAULT_SMOOTHING, DEFAULT_SUBTRACT_FLOOR, DEFAULT_WINDOW_FRAMES
from rvad.dsp import FrameGrid, Spectrogram, hamming, spectral_flatness


class MinimumStatisticsNoiseEstimator:
    """Per-bin noise power tracked as a bias-compensated minimum of the
    recursively smoothed periodogram over a sliding window of frames."""

    def __init__(
        self,
        num_bins: int,
        smoothing: float = DEFAULT_SMOOTHING,
        bias: float = DEFAULT_BIAS,
        window_frames: int = DEFAULT_WINDOW_FRAMES,
    ):
        if not 0.0 < smoothing < 1.0:
            raise ValueError("smoothing must be in (0, 1)")
        if bias < 1.0:
            raise ValueError("bias must be >= 1")
        if window_frames < 1:
            raise ValueError("window_frames must be >= 1")
        self.num_bins = num_bins
        self.smoothing = smoothing
        self.bias = bias
        self.window_frames = window_frames
        self.noise_power = np.zeros(num_bins)
        self._p_smooth: np.ndarray | None = None
        self._history = np.zeros((window_frames, num_bins))
        self._filled = 0
        self._pos = 0

    def update(self, periodogram: np.ndarray) -> np.ndarray:
        """Advance by one frame and return the current noise power estimate."""
        p = np.asarray(periodogram, dtype=np.float64)
        if p.shape != (self.num_bins,):
            raise ValueError("periodogram has the wrong number of bins")
        if self._p_smooth is None:
            self._p_smooth = p.copy()
        else:
            self._p_smooth = self.smoothing * self._p_smooth + (1.0 - self.smoothing) * p
        self._history[self._pos] = self._p_smooth
        self._pos = (self._pos + 1) % self.window_frames
        self._filled = min(self._filled + 1, self.window_frames)
        self.noise_power = self.bias * self._history[: self._filled].min(axis=0)
        return self.noise_power.copy()

    def hold(self) -> np.ndarray:
        """Skip a frame (e.g. one zeroed by the first pass) without touching state."""
        return self.noise_power.copy()


def msne_noise_track_loop(
    spec: Spectrogram,
    frozen: np.ndarray | None = None,
    smoothing: float = DEFAULT_SMOOTHING,
    bias: float = DEFAULT_BIAS,
    window_frames: int = DEFAULT_WINDOW_FRAMES,
) -> np.ndarray:
    """Reference for `rvad.denoise.msne_noise_track`: one estimator update per frame."""
    estimator = MinimumStatisticsNoiseEstimator(spec.num_bins, smoothing, bias, window_frames)
    power = np.abs(spec.frames) ** 2
    out = np.empty_like(power)
    for m in range(power.shape[0]):
        if frozen is not None and frozen[m]:
            out[m] = estimator.hold()
        else:
            out[m] = estimator.update(power[m])
    return out


def detect_sft(spec: Spectrogram, theta_sft: float = 0.5) -> np.ndarray:
    """Reference for `rvad.voicing.sft_voicing`, taking the whole spectrogram at once.

    Frames whose spectral flatness is at or below the threshold are voiced.
    """
    if not 0.0 < theta_sft < 1.0:
        raise ValueError("theta_sft must be in (0, 1)")
    return spectral_flatness(spec) <= theta_sft


def spectral_subtract_whole(spec: Spectrogram, noise_power: np.ndarray, floor: float = DEFAULT_SUBTRACT_FLOOR) -> Spectrogram:
    """Reference for `rvad.denoise.spectral_subtract`: whole arrays, input left as it is."""
    power = np.abs(spec.frames) ** 2
    out_power = np.maximum(power - noise_power, floor * noise_power)
    magnitude = np.sqrt(power)
    new_magnitude = np.sqrt(out_power)
    scale = np.divide(new_magnitude, magnitude, out=np.zeros_like(magnitude), where=magnitude > 0)
    out = spec.frames * scale
    out = np.where(magnitude > 0, out, new_magnitude.astype(complex))
    return Spectrogram(out, spec.nfft, spec.sample_rate_hz)


def reconstruct_loop(spec: Spectrogram, grid: FrameGrid) -> AudioBuffer:
    """Reference for `rvad.denoise.reconstruct`: overlap-add one frame at a time."""
    window = hamming(grid.frame_len)
    window_sq = window * window
    signal = np.zeros(grid.total_samples)
    envelope = np.zeros(grid.total_samples)
    time_frames = np.fft.irfft(spec.frames, n=spec.nfft, axis=1)[:, : grid.frame_len]
    for m in range(grid.num_frames):
        lo = m * grid.frame_shift
        signal[lo : lo + grid.frame_len] += time_frames[m] * window
        envelope[lo : lo + grid.frame_len] += window_sq
    return AudioBuffer(signal / np.maximum(envelope, 1e-8), spec.sample_rate_hz)
