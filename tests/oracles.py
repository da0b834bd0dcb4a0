"""Slow reference implementations that the library's kernels are tested against.

Each one is the straightforward per-frame or whole-signal form of a
computation that the library does with array operations or block by block;
tests require the two to agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rvad.audio_io import AudioBuffer
from rvad.denoise import (
    detect_high_energy,
    lowfreq_suppress,
    msne_noise_track,
    noise_segments,
    reconstruct,
    spectral_subtract,
    zero_segments,
)
from rvad.dsp import FrameGrid, Spectrogram, frame_energy, hamming, highpass, make_grid, spectral_flatness, stft
from rvad.features import ENERGY_FLOOR, FrameFeatures, compute_features, track_noise_energy
from rvad.segments import Segment, mask_to_segments, segments_to_mask
from rvad.vad import RvadConfig
from rvad.voicing import detect_pitch_autocorr, sft_voicing


class MinimumStatisticsNoiseEstimator:
    """Per-bin noise power tracked as a bias-compensated minimum of the
    recursively smoothed periodogram over a sliding window of frames."""

    def __init__(
        self,
        num_bins: int,
        smoothing: float = RvadConfig.msne_smoothing,
        bias: float = RvadConfig.msne_bias,
        window_frames: int = RvadConfig.msne_window_frames,
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
    smoothing: float = RvadConfig.msne_smoothing,
    bias: float = RvadConfig.msne_bias,
    window_frames: int = RvadConfig.msne_window_frames,
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


def spectral_subtract_whole(
    spec: Spectrogram, noise_power: np.ndarray, floor: float = RvadConfig.subtract_floor
) -> Spectrogram:
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


def smooth_noise_energy_loop(e_v: np.ndarray, forget: float = RvadConfig.noise_forget) -> np.ndarray:
    """Reference for the smoothing in `rvad.features.track_noise_energy`:
    one step of the recursion per super-segment, from the first's energy."""
    smooth = e_v.copy()
    for p in range(1, len(e_v)):
        smooth[p] = forget * smooth[p - 1] + (1.0 - forget) * e_v[p]
    return smooth


def merge_touching(segments) -> list[Segment]:
    """Reference for the merge in `rvad.segments.extend_segments`: overlapping
    or directly adjacent intervals merged in one pass; input must be sorted."""
    merged: list[Segment] = []
    for start, end in segments:
        if merged and start <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((int(start), int(end)))
    return merged


def first_pass_denoise(
    audio: AudioBuffer,
    grid: FrameGrid,
    segments: list[Segment],
    voiced_mask: np.ndarray,
    min_pitch_frames: int = 2,
) -> tuple[AudioBuffer, list[Segment]]:
    """Zero out high-energy segments that contain too few voiced frames.

    Returns a copy of the audio with the `noise_segments` zeroed together
    with the list of those segments; samples outside them are untouched.
    When nothing qualifies the input buffer itself comes back, not a copy.
    """
    zeroed = noise_segments(segments, voiced_mask, min_pitch_frames)
    if not zeroed:
        return audio, zeroed
    return zero_segments(AudioBuffer(audio.samples.copy(), audio.sample_rate_hz), grid, zeroed), zeroed


@dataclass
class WholeFront:
    """The oracle's counterparts of the two sweeps' results."""

    grid: FrameGrid
    mask: np.ndarray
    high: list[Segment]
    zeroed: list[Segment]
    e2: np.ndarray
    enhanced: AudioBuffer
    noise: np.ndarray | None


def front_whole(
    audio: AudioBuffer, cfg: RvadConfig, voicing: np.ndarray | None = None, zeroed: list[Segment] | None = None
) -> WholeFront:
    """Reference for the two sweeps of `rvad.vad`: the whole high-passed
    signal as one working buffer, zeroed over the noise segments, then
    enhanced over its whole spectrogram at once.  `zeroed`, if given, is
    zeroed in place of the noise segments found."""
    work = highpass(audio, cfg.hpf_cutoff_hz)
    grid = make_grid(work, cfg.frame_len_ms, cfg.frame_shift_ms)
    e1 = frame_energy(work, grid)
    feats = compute_features(e1, cfg.super_len, cfg.smooth_n, cfg.noise_forget)
    high = detect_high_energy(feats, cfg.super_len, cfg.alpha)
    if voicing is not None:
        mask = np.asarray(voicing, dtype=bool)
    elif cfg.mode == "fast":
        mask = sft_voicing([stft(work, grid)], cfg.theta_sft)
    else:
        mask = detect_pitch_autocorr([(work, grid, e1)], cfg.pitch_f_min, cfg.pitch_f_max, cfg.pitch_rho)
    if zeroed is None:
        zeroed = noise_segments(high, mask, cfg.min_pitch_frames)
    zero_segments(work, grid, zeroed)
    noise = None
    if cfg.enhance != "none":
        spec = stft(work, grid)
        frozen = segments_to_mask(zeroed, grid.num_frames) if cfg.enhance == "msne-mod" else None
        noise = msne_noise_track(spec, frozen, cfg.msne_smoothing, cfg.msne_bias, cfg.msne_window_frames)
        spectral_subtract(spec, noise, cfg.subtract_floor)
        if cfg.enhance == "msne-mod":
            lowfreq_suppress(spec, cfg.lowfreq_cutoff_hz)
        work = reconstruct(spec, grid)
    return WholeFront(grid, mask, high, zeroed, frame_energy(work, grid), work, noise)


def central_smooth_whole(x: np.ndarray, n: int) -> np.ndarray:
    """Reference for `rvad.features.central_smooth`: every frame's window
    bounds as index arrays into one cumulative sum."""
    x = np.asarray(x, dtype=np.float64)
    m = len(x)
    if m == 0 or n == 0:
        return x.copy()
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(m)
    lo = np.maximum(idx - n, 0)
    hi = np.minimum(idx + n, m - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


def compute_features_whole(
    e: np.ndarray,
    super_len: int = RvadConfig.super_len,
    smooth_n: int = RvadConfig.smooth_n,
    forget: float = RvadConfig.noise_forget,
) -> FrameFeatures:
    """Reference for `rvad.features.compute_features`: each step a new
    array, the noise gathered through a per-frame index."""
    e = np.asarray(e, dtype=np.float64)
    track = track_noise_energy(e, super_len, forget)
    noise = track.e_v_smooth[np.arange(len(e)) // super_len]
    snr_db = 10.0 * np.log10(np.maximum(e, ENERGY_FLOOR) / np.maximum(noise, ENERGY_FLOOR))
    d = np.zeros(len(e))
    if len(e) > 1:
        d[1:] = np.sqrt(np.abs(np.diff(e)) * np.maximum(snr_db[1:], 0.0))
    return FrameFeatures(e, snr_db, d, central_smooth_whole(d, smooth_n))


def post_process_whole(
    raw_labels: np.ndarray, pitch_segments: list[Segment], e: np.ndarray, cfg: RvadConfig
) -> np.ndarray:
    """Reference for `rvad.vad.post_process`: every frame's distance to the
    next pitch segment's start and from the previous one's end, found with
    `searchsorted`, and both rules applied over all frames at once."""
    labels = np.asarray(raw_labels, dtype=bool).copy()
    num = len(labels)
    if not pitch_segments:
        return np.zeros(num, dtype=bool)

    starts = np.asarray([s for s, _ in pitch_segments])
    ends = np.asarray([t for _, t in pitch_segments])
    idx = np.arange(num)
    far = np.iinfo(np.int64).max

    nxt = np.searchsorted(starts, idx, side="left")
    gap_next = np.where(nxt < len(starts), starts[np.minimum(nxt, len(starts) - 1)] - idx, far)
    prv = np.searchsorted(ends, idx, side="right") - 1
    gap_prev = np.where(prv >= 0, idx - ends[np.maximum(prv, 0)], far)

    labels[(gap_next > cfg.pp_far_left) & (gap_prev > cfg.pp_far_right)] = False
    near = (gap_next <= cfg.pp_near_left) | (gap_prev <= cfg.pp_near_right)
    labels[near | segments_to_mask(pitch_segments, num)] = True

    e = np.asarray(e, dtype=np.float64)
    speech_segments = mask_to_segments(labels)
    if speech_segments:
        overall = e[labels].mean()
        for s, t in speech_segments:
            if e[s : t + 1].mean() < cfg.energy_ratio * overall:
                labels[s : t + 1] = False
    return labels
