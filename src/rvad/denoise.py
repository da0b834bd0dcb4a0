"""Two-pass denoising: high-energy segment zeroing, then spectral subtraction
driven by minimum-statistics noise tracking."""

from __future__ import annotations

import numpy as np
from scipy.ndimage import minimum_filter1d
from scipy.signal import lfilter

from .audio_io import AudioBuffer
from .dsp import FrameGrid, Spectrogram, hamming
from .features import FrameFeatures
from .segments import Segment, mask_to_segments
from .voicing import count_voiced_in

__all__ = [
    "detect_high_energy",
    "first_pass_denoise",
    "msne_noise_track",
    "spectral_subtract",
    "lowfreq_suppress",
    "reconstruct",
]

DEFAULT_SMOOTHING = 0.85
DEFAULT_BIAS = 1.5
DEFAULT_WINDOW_FRAMES = 150
DEFAULT_SUBTRACT_FLOOR = 0.002
DEFAULT_LOWFREQ_CUTOFF_HZ = 217.0

_ENVELOPE_FLOOR = 1e-8


def detect_high_energy(
    features: FrameFeatures,
    super_len: int = 200,
    alpha: float = 0.25,
    basis: str = "distance",
) -> list[Segment]:
    """Group frames whose smoothed energy difference tops a per-super-segment threshold.

    The threshold is `alpha` times the super-segment maximum of the smoothed
    difference itself; basis="energy" compares against the frame-energy
    maximum instead.
    """
    if basis not in ("distance", "energy"):
        raise ValueError(f"unknown threshold basis: {basis!r}")
    reference = features.d_smooth if basis == "distance" else features.e
    d_smooth = features.d_smooth
    hot = np.zeros(len(d_smooth), dtype=bool)
    for i in range(0, len(d_smooth), super_len):
        block = slice(i, min(i + super_len, len(d_smooth)))
        theta = alpha * reference[block].max(initial=0.0)
        hot[block] = d_smooth[block] > theta
    return mask_to_segments(hot)


def zero_segments(audio: AudioBuffer, grid: FrameGrid, segments: list[Segment]) -> AudioBuffer:
    """Copy of the audio with every sample covered by `segments` set to zero."""
    out = audio.samples.copy()
    for seg in segments:
        lo, hi = grid.sample_span(*seg)
        out[lo:hi] = 0.0
    return AudioBuffer(out, audio.sample_rate_hz)


def first_pass_denoise(
    audio: AudioBuffer,
    grid: FrameGrid,
    segments: list[Segment],
    voiced_mask: np.ndarray,
    min_pitch_frames: int = 2,
) -> tuple[AudioBuffer, list[Segment]]:
    """Zero out high-energy segments that contain too few voiced frames.

    Returns the audio with those segments zeroed together with the list of
    segments actually zeroed; samples outside them are untouched.  When
    nothing qualifies the input buffer itself comes back, not a copy.
    """
    zeroed = [seg for seg in segments if count_voiced_in(voiced_mask, seg) <= min_pitch_frames]
    return (zero_segments(audio, grid, zeroed) if zeroed else audio), zeroed


def msne_noise_track(
    spec: Spectrogram,
    frozen: np.ndarray | None = None,
    smoothing: float = DEFAULT_SMOOTHING,
    bias: float = DEFAULT_BIAS,
    window_frames: int = DEFAULT_WINDOW_FRAMES,
) -> np.ndarray:
    """Noise power per (frame, bin) by minimum statistics.

    Each bin's periodogram is smoothed recursively, starting from the first
    frame, and the estimate is `bias` times the minimum of the smoothed
    values over the last `window_frames` frames.  Frames marked `frozen`
    do not update the tracker: they repeat the estimate of the last frame
    that did, or zeros before the first one.
    """
    if not 0.0 < smoothing < 1.0:
        raise ValueError("smoothing must be in (0, 1)")
    if bias < 1.0:
        raise ValueError("bias must be >= 1")
    if window_frames < 1:
        raise ValueError("window_frames must be >= 1")
    power = np.abs(spec.frames) ** 2
    if frozen is None:
        return _min_stats(power, smoothing, bias, window_frames)
    live = ~np.asarray(frozen, dtype=bool)
    # row 0 is the estimate before any update; frame m repeats the row of
    # the last live frame at or before it
    track = np.concatenate([np.zeros((1, power.shape[1])), _min_stats(power[live], smoothing, bias, window_frames)])
    return track[np.cumsum(live)]


def _min_stats(power: np.ndarray, smoothing: float, bias: float, window_frames: int) -> np.ndarray:
    """Bias times the trailing-window minimum of the recursively smoothed rows
    of `power`, which is overwritten by the smoothed rows."""
    if len(power) > 1:
        power[1:], _ = lfilter([1.0 - smoothing], [1.0, -smoothing], power[1:], axis=0, zi=smoothing * power[:1])
    # sliding-window minimum (Lemire 2006); the largest origin ends each window on its own frame
    track = minimum_filter1d(power, window_frames, axis=0, mode="nearest", origin=(window_frames - 1) // 2)
    track *= bias
    return track


def spectral_subtract(
    spec: Spectrogram,
    noise_power: np.ndarray,
    floor: float = DEFAULT_SUBTRACT_FLOOR,
) -> Spectrogram:
    """Power-domain subtraction with a spectral floor, keeping the noisy phase.

    Output power per bin is max(|X|^2 - noise, floor*noise), so it never
    drops below the floor level and never exceeds the observed power plus
    the floor.
    """
    noise_power = np.asarray(noise_power, dtype=np.float64)
    if noise_power.shape != spec.frames.shape:
        raise ValueError("noise power shape does not match the spectrogram")
    power = np.abs(spec.frames) ** 2
    out_power = np.maximum(power - noise_power, floor * noise_power)
    magnitude = np.sqrt(power)
    new_magnitude = np.sqrt(out_power)
    scale = np.divide(new_magnitude, magnitude, out=np.zeros_like(magnitude), where=magnitude > 0)
    out = spec.frames * scale
    # bins with zero input keep zero phase but still honor the floor
    out = np.where(magnitude > 0, out, new_magnitude.astype(complex))
    return Spectrogram(out, spec.nfft, spec.sample_rate_hz)


def lowfreq_suppress(spec: Spectrogram, cutoff_hz: float = DEFAULT_LOWFREQ_CUTOFF_HZ) -> Spectrogram:
    """Zero the bins below `cutoff_hz` in frames dominated by low-frequency energy.

    A frame qualifies when strictly more than half of its spectral energy
    sits in bins below the cutoff (7 bins at 8 kHz with nfft=256).
    """
    k_cut = int(np.ceil(cutoff_hz / spec.bin_hz))
    if k_cut <= 0 or spec.frames.shape[0] == 0:
        return Spectrogram(spec.frames.copy(), spec.nfft, spec.sample_rate_hz)
    power = np.abs(spec.frames) ** 2
    low = power[:, :k_cut].sum(axis=1)
    total = power.sum(axis=1)
    dominated = low > 0.5 * total
    frames = spec.frames.copy()
    frames[dominated, :k_cut] = 0.0
    return Spectrogram(frames, spec.nfft, spec.sample_rate_hz)


def reconstruct(spec: Spectrogram, grid: FrameGrid) -> AudioBuffer:
    """Overlap-add inverse STFT, dividing by the summed squared-window envelope.

    Round-trips the forward transform exactly on covered samples; samples
    past the last full frame come back as zeros.
    """
    if spec.frames.shape[0] != grid.num_frames:
        raise ValueError("spectrogram frame count does not match the grid")
    window = hamming(grid.frame_len)
    window_sq = window * window
    signal = np.zeros(grid.total_samples)
    envelope = np.zeros(grid.total_samples)
    time_frames = np.fft.irfft(spec.frames, n=spec.nfft, axis=1)[:, : grid.frame_len]
    for m in range(grid.num_frames):
        lo = m * grid.frame_shift
        signal[lo : lo + grid.frame_len] += time_frames[m] * window
        envelope[lo : lo + grid.frame_len] += window_sq
    return AudioBuffer(signal / np.maximum(envelope, _ENVELOPE_FLOOR), spec.sample_rate_hz)
