"""Two-pass denoising: high-energy segment zeroing, then spectral subtraction
driven by minimum-statistics noise tracking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.signal import lfilter

from .audio_io import AudioBuffer
from .dsp import FrameGrid, Spectrogram, hamming
from .features import FrameFeatures
from .segments import Segment, mask_to_segments
from .voicing import count_voiced_in

__all__ = [
    "detect_high_energy",
    "noise_segments",
    "zero_segments",
    "MsneState",
    "msne_noise_track",
    "spectral_subtract",
    "lowfreq_suppress",
    "OverlapAddState",
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


def zero_segments(audio: AudioBuffer, grid: FrameGrid, segments: list[Segment], start: int = 0) -> AudioBuffer:
    """Set every sample of `audio` covered by `segments` to zero, in place,
    and return `audio`, which holds the grid's samples from sample `start`
    on; a segment's samples outside it are left alone."""
    for seg in segments:
        lo, hi = grid.sample_span(*seg)
        audio.samples[max(lo - start, 0) : max(hi - start, 0)] = 0.0
    return audio


def noise_segments(segments: list[Segment], voiced_mask: np.ndarray, min_pitch_frames: int = 2) -> list[Segment]:
    """The high-energy segments the first pass zeroes: those holding at most
    `min_pitch_frames` voiced frames."""
    return [seg for seg in segments if count_voiced_in(voiced_mask, seg) <= min_pitch_frames]


@dataclass
class MsneState:
    """What minimum statistics carries from one block of frames to the next.

    `smoothed` holds the last max(window_frames - 1, 1) smoothed periodogram
    rows of frames that updated the tracker (all of them near the start) and
    `estimate` the noise estimate of the last such frame, which frozen frames
    repeat.  A fresh state has neither: the first update starts the
    smoothing from its own periodogram, and frames frozen before it hold zeros.
    """

    smoothed: np.ndarray | None = None
    estimate: np.ndarray | None = None


def msne_noise_track(
    spec: Spectrogram,
    frozen: np.ndarray | None = None,
    smoothing: float = DEFAULT_SMOOTHING,
    bias: float = DEFAULT_BIAS,
    window_frames: int = DEFAULT_WINDOW_FRAMES,
    state: MsneState | None = None,
) -> np.ndarray:
    """Noise power per (frame, bin) by minimum statistics.

    Each bin's periodogram is smoothed recursively, starting from the first
    frame, and the estimate is `bias` times the minimum of the smoothed
    values over the last `window_frames` frames.  Frames marked `frozen`
    do not update the tracker: they repeat the estimate of the last frame
    that did, or zeros before the first one.  Calls on consecutive blocks of
    frames that share one `state` give the rows of a single call on all of
    them; without a state the frames are tracked from scratch.
    """
    if not 0.0 < smoothing < 1.0:
        raise ValueError("smoothing must be in (0, 1)")
    if bias < 1.0:
        raise ValueError("bias must be >= 1")
    if window_frames < 1:
        raise ValueError("window_frames must be >= 1")
    state = MsneState() if state is None else state
    power = np.abs(spec.frames) ** 2
    if frozen is None:
        return _min_stats(power, state, smoothing, bias, window_frames)
    live = ~np.asarray(frozen, dtype=bool)
    held = np.zeros(power.shape[1]) if state.estimate is None else state.estimate
    # row 0 is the estimate before this block; frame m repeats the row of
    # the last live frame at or before it
    track = np.concatenate([held[None], _min_stats(power[live], state, smoothing, bias, window_frames)])
    return track[np.cumsum(live)]


def _min_stats(power: np.ndarray, state: MsneState, smoothing: float, bias: float, window_frames: int) -> np.ndarray:
    """Bias times the trailing-window minimum of the recursively smoothed rows
    of `power`, which is overwritten by the smoothed rows; advances `state`."""
    if len(power) == 0:
        return power
    if state.smoothed is None:
        # the first row ever seen is its own smoothed value
        history, start, previous = power[:0], 1, power[:1]
    else:
        history, start, previous = state.smoothed, 0, state.smoothed[-1:]
    if len(power) > start:
        power[start:], _ = lfilter([1.0 - smoothing], [1.0, -smoothing], power[start:], axis=0, zi=smoothing * previous)
    track = _trailing_min(history, power, window_frames)
    track *= bias
    keep = max(window_frames - 1, 1)
    state.smoothed = power[-keep:] if len(power) >= keep else np.concatenate([history, power])[-keep:]
    state.estimate = track[-1].copy()
    return track


def _trailing_min(history: np.ndarray, rows: np.ndarray, window: int) -> np.ndarray:
    """Per row of `rows`, the minimum over the `window` rows of history and
    rows that end on it, clipped at the first row ever seen.

    `history` ends with the window - 1 rows before `rows`, or holds all of
    them when fewer exist.  Within `rows` this is van Herk / Gil-Werman:
    cut into window-long segments, each row takes the minimum of its
    segment's prefix minimum and the previous segment's suffix minimum.
    The first segment takes the suffix minima of `history` instead.
    A `minimum_filter1d` over history plus rows gives the same minima but
    filters the window - 1 history rows again on every block: on a
    10-minute 16 kHz file it made `run_rvad` about 16 % slower (2-vCPU host).
    """
    count, bins = rows.shape
    seg = window if count > window else count
    pad = -count % seg
    padded = np.concatenate([rows, np.full((pad, bins), np.inf)]) if pad else rows
    segments = padded.reshape(-1, seg, bins)
    track = np.minimum.accumulate(segments, axis=1)
    if len(segments) > 1:
        # suffix minima of each segment from its second row on, meeting the
        # next segment's rows up to its second-last
        suffix = np.minimum.accumulate(segments[:-1, :0:-1], axis=1)[:, ::-1]
        np.minimum(track[1:, :-1], suffix, out=track[1:, :-1])
    track = track.reshape(-1, bins)[:count]
    reach = min(count, window - 1)  # rows whose window reaches back into history
    if len(history) and reach:
        behind = window - 1 - len(history)  # rows whose window also starts before the first row
        history_suffix = np.minimum.accumulate(history[::-1], axis=0)[::-1]
        np.minimum(track[: min(behind, reach)], history_suffix[0], out=track[: min(behind, reach)])
        if reach > behind:
            np.minimum(track[behind:reach], history_suffix[: reach - behind], out=track[behind:reach])
    return track


def spectral_subtract(
    spec: Spectrogram,
    noise_power: np.ndarray,
    floor: float = DEFAULT_SUBTRACT_FLOOR,
) -> Spectrogram:
    """Power-domain subtraction with a spectral floor, keeping the noisy phase.

    Output power per bin is max(|X|^2 - noise, floor*noise), so it never
    drops below the floor level and never exceeds the observed power plus
    the floor.  The frames of `spec` are overwritten and `spec` returned.
    """
    noise_power = np.asarray(noise_power, dtype=np.float64)
    frames = spec.frames
    if noise_power.shape != frames.shape:
        raise ValueError("noise power shape does not match the spectrogram")
    power = np.abs(frames) ** 2
    out_power = np.subtract(power, noise_power)
    np.maximum(out_power, floor * noise_power, out=out_power)
    magnitude = np.sqrt(power, out=power)
    new_magnitude = np.sqrt(out_power, out=out_power)
    nonzero = magnitude > 0
    scale = np.divide(new_magnitude, magnitude, out=np.zeros_like(magnitude), where=nonzero)
    np.multiply(frames, scale, out=frames)
    # bins with zero input keep zero phase but still honor the floor
    np.copyto(frames, new_magnitude, where=~nonzero)
    return spec


def lowfreq_suppress(spec: Spectrogram, cutoff_hz: float = DEFAULT_LOWFREQ_CUTOFF_HZ) -> Spectrogram:
    """Zero the bins below `cutoff_hz` in frames dominated by low-frequency energy.

    A frame qualifies when strictly more than half of its spectral energy
    sits in bins below the cutoff (7 bins at 8 kHz with nfft=256).  The
    frames of `spec` are overwritten and `spec` returned.
    """
    k_cut = int(np.ceil(cutoff_hz / spec.bin_hz))
    if k_cut <= 0:
        return spec
    power = np.abs(spec.frames) ** 2
    low = power[:, :k_cut].sum(axis=1)
    total = power.sum(axis=1)
    spec.frames[low > 0.5 * total, :k_cut] = 0.0
    return spec


@dataclass
class OverlapAddState:
    """What overlap-add carries from one block of frames to the next.

    `next_frame` is the first frame of the next block and `tail` holds the
    sums so far of the frame_len - shift samples from that frame's first
    sample on, which earlier frames also cover.  A fresh state starts at
    frame 0 with no tail.
    """

    next_frame: int = 0
    tail: np.ndarray | None = None


def reconstruct(spec: Spectrogram, grid: FrameGrid, state: OverlapAddState | None = None) -> AudioBuffer:
    """Overlap-add inverse STFT, dividing by the summed squared-window envelope.

    Round-trips the forward transform exactly on covered samples.  Without
    a state, `spec` holds the whole grid and the whole signal comes back,
    of the grid's length with zeros past the last frame.  With one, `spec`
    holds the grid's frames from `state.next_frame` on, `state` carries the
    sums still open between calls on consecutive blocks of frames, and a
    call returns the samples it finishes, those no later frame covers: from
    the block's first sample up to the next block's first sample, or, after
    the grid's last frame, up to the end of that frame.  A finished sample
    is the sum of its frames in ascending order divided by the envelope of
    those same frames, so blocks give the same samples as one call on all
    frames.
    """
    count = spec.frames.shape[0]
    flen, shift = grid.frame_len, grid.frame_shift
    whole = state is None
    if whole:
        if count != grid.num_frames:
            raise ValueError("spectrogram frame count does not match the grid")
        state = OverlapAddState()
    first = state.next_frame
    if first + count > grid.num_frames:
        raise ValueError("spectrogram block does not fit the grid")
    if grid.num_frames and (grid.num_frames - 1) * shift + flen > grid.total_samples:
        raise ValueError("frames run past the end of the signal")
    if count == 0:
        return AudioBuffer._trusted(np.zeros(grid.total_samples if whole else 0), spec.sample_rate_hz)
    end = first + count
    lo = first * shift
    hi = end * shift if end < grid.num_frames else (end - 1) * shift + flen
    window = hamming(flen)
    time_frames = np.fft.irfft(spec.frames, n=spec.nfft, axis=1)[:, :flen]
    time_frames *= window
    sums = np.zeros((count - 1) * shift + flen)
    if state.tail is not None:
        sums[: len(state.tail)] = state.tail
    _overlap_add(sums, time_frames, shift)
    # the envelope of every frame that reaches a sample in [lo, hi)
    reach = min((flen - 1) // shift, first)
    envelope = np.zeros((count + reach - 1) * shift + flen)
    _overlap_add(envelope, np.broadcast_to(window * window, (count + reach, flen)), shift)
    envelope = envelope[reach * shift : reach * shift + hi - lo]
    np.maximum(envelope, _ENVELOPE_FLOOR, out=envelope)
    finished = np.divide(sums[: hi - lo], envelope, out=sums[: hi - lo])
    state.next_frame, state.tail = end, sums[hi - lo :]
    if whole:
        finished = np.concatenate([finished, np.zeros(grid.total_samples - hi)])
    return AudioBuffer._trusted(finished, spec.sample_rate_hz)


def _overlap_add(signal: np.ndarray, rows: np.ndarray, shift: int) -> None:
    """Add row m of `rows` into `signal` from sample m * shift on.

    The frames are added one shift-wide piece at a time, each piece of all
    frames in one strided pass.  A sample takes its frames at descending
    offsets within them, so going from the last piece to the first adds
    them in ascending frame order, as a loop over frames does.
    """
    count, frame_len = rows.shape
    if count and (count - 1) * shift + frame_len > len(signal):
        raise ValueError("frames run past the end of the signal")
    step = signal.strides[0]
    for lo in range((frame_len - 1) // shift * shift, -1, -shift):
        width = min(shift, frame_len - lo)
        view = as_strided(signal[lo:], (count, width), (shift * step, step))
        view += rows[:, lo : lo + width]
