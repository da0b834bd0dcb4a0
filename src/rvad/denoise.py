"""Two-pass denoising: high-energy segment zeroing, then spectral subtraction
driven by minimum-statistics noise tracking."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import AudioBuffer
from .config import RvadConfig
from .dsp import FrameGrid, Spectrogram, hamming, recursion
from .features import FrameFeatures
from .segments import Segment, mask_to_segments

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

_ENVELOPE_FLOOR = 1e-8


def detect_high_energy(
    features: FrameFeatures,
    super_len: int = RvadConfig.super_len,
    alpha: float = RvadConfig.alpha,
) -> list[Segment]:
    """Group frames whose smoothed energy difference tops a per-super-segment threshold:
    `alpha` times the super-segment maximum of the smoothed difference itself."""
    d_smooth = features.d_smooth
    hot = np.zeros(len(d_smooth), dtype=bool)
    for i in range(0, len(d_smooth), super_len):
        block = slice(i, min(i + super_len, len(d_smooth)))
        theta = alpha * d_smooth[block].max(initial=0.0)
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


def noise_segments(
    segments: list[Segment], voiced_mask: np.ndarray, min_pitch_frames: int = RvadConfig.min_pitch_frames
) -> list[Segment]:
    """The high-energy segments the first pass zeroes: those holding at most
    `min_pitch_frames` voiced frames."""
    return [(s, t) for s, t in segments if np.count_nonzero(voiced_mask[s : t + 1]) <= min_pitch_frames]


@dataclass
class MsneState:
    """What minimum statistics carries from one block of frames to the next.

    The frames that update the tracker are counted in `live`, and their
    smoothed rows are cut into window-long segments from the first one on.
    The first `live % window_frames` rows of `rows` are the smoothed rows
    of the open segment, and `prefix` is their minimum.  `suffix` holds
    the suffix minima of the last complete segment: row j is the minimum
    of its rows j on, so its last row is that segment's last smoothed row.
    `estimate` is the noise estimate of the last frame that updated, which
    frozen frames repeat.  A fresh state has none of these: the first
    update starts the smoothing from its own periodogram, and frames frozen
    before it hold zeros.
    """

    live: int = 0
    rows: np.ndarray | None = None
    prefix: np.ndarray | None = None
    suffix: np.ndarray | None = None
    estimate: np.ndarray | None = None


def msne_noise_track(
    spec: Spectrogram,
    frozen: np.ndarray | None = None,
    smoothing: float = RvadConfig.msne_smoothing,
    bias: float = RvadConfig.msne_bias,
    window_frames: int = RvadConfig.msne_window_frames,
    state: MsneState | None = None,
    power: np.ndarray | None = None,
) -> np.ndarray:
    """Noise power per (frame, bin) by minimum statistics.

    Each bin's periodogram is smoothed recursively, starting from the first
    frame, and the estimate is `bias` times the minimum of the smoothed
    values over the last `window_frames` frames.  Frames marked `frozen`
    do not update the tracker: they repeat the estimate of the last frame
    that did, or zeros before the first one.  Calls on consecutive blocks of
    frames that share one `state` give the rows of a single call on all of
    them; without a state the frames are tracked from scratch.  A caller
    that has the periodogram `np.abs(spec.frames) ** 2` may pass it as
    `power`, which is read and not changed.
    """
    state = MsneState() if state is None else state
    power = np.abs(spec.frames) ** 2 if power is None else power
    live = None if frozen is None else ~np.asarray(frozen, dtype=bool)
    if live is None or live.all():
        return _min_stats(power, state, smoothing, bias, window_frames)
    held = np.zeros(power.shape[1]) if state.estimate is None else state.estimate
    # row 0 is the estimate before this block; frame m repeats the row of
    # the last live frame at or before it
    track = np.concatenate([held[None], _min_stats(power[live], state, smoothing, bias, window_frames)])
    return track[np.cumsum(live)]


def _min_stats(power: np.ndarray, state: MsneState, smoothing: float, bias: float, window: int) -> np.ndarray:
    """Bias times the trailing-window minimum of the recursively smoothed
    rows of `power`, clipped at the first row ever seen; advances `state`.

    Each bin's smoothing is solved where it lies in a copy of `power`
    stored bin by bin, which is then laid out row by row for the minima;
    `power` is not changed.  The minimum is van Herk / Gil-Werman's,
    streamed over blocks: a row takes the minimum of its segment's prefix
    minimum and the suffix minimum of the previous segment from the row one
    window back, so each row is scanned a fixed number of times however the
    frames are cut.
    """
    count, bins = power.shape
    if count == 0:
        return np.empty((0, bins))
    smoothed = np.multiply(power, 1.0 - smoothing, order="F")
    first = state.live % window
    if state.live == 0:
        # the first row ever seen is its own smoothed value: the recursion adds zero to it
        smoothed[0] = power[0]
    before = 0.0 if state.live == 0 else state.rows[first - 1] if first else state.suffix[-1]
    recursion(before, smoothed, smoothing)
    smoothed = np.ascontiguousarray(smoothed)
    track = np.empty((count, bins))
    done = 0
    while done < count:
        # the rows up to the end of the open segment, or all that are left
        piece = slice(done, min(count, done + window - state.live % window))
        _segment_piece(smoothed[piece], track[piece], state, window)
        done = piece.stop
    track *= bias
    state.estimate = track[-1].copy()
    return track


def _segment_piece(rows: np.ndarray, out: np.ndarray, state: MsneState, window: int) -> None:
    """Write into `out` the trailing-window minima of `rows`, the next
    smoothed rows of the open segment, which they do not run past, and
    append them to it; a segment they complete becomes the last complete
    one.  A row j of a segment takes the minimum of the segment's rows up
    to j and of the last complete segment's rows j + 1 on."""
    first = state.live % window
    _running_min(rows, out)
    if first:
        np.minimum(out, state.prefix, out=out)
    state.prefix = out[-1].copy()
    if state.suffix is not None:
        reach = min(len(rows), window - 1 - first)  # rows whose window reaches into the last segment
        np.minimum(out[:reach], state.suffix[first + 1 : first + 1 + reach], out=out[:reach])
    held = 0 if state.rows is None else len(state.rows)
    if first + len(rows) > held:
        # grown up to a window as rows come, so a window longer than the
        # input holds only the rows there are
        grown = np.empty((min(window, 2 * max(held, first + len(rows))), rows.shape[1]))
        if first:
            grown[:first] = state.rows[:first]
        state.rows = grown
    state.rows[first : first + len(rows)] = rows
    state.live += len(rows)
    if state.live % window == 0:
        state.suffix = np.empty_like(state.rows) if state.suffix is None else state.suffix
        _running_min(state.rows, state.suffix, reverse=True)


def _running_min(rows: np.ndarray, out: np.ndarray, reverse: bool = False) -> None:
    """Write into `out` the running minimum of `rows` down axis 0: row j is
    the minimum of rows 0 to j, or with `reverse` of rows j on.

    Log-step doubling: each step takes the minimum of every row and the
    row `step` before it (after it), for steps 1, 2, 4, ..., passing between
    `out` and a spare array so that no step reads what it writes.  Minima
    are exact, so this gives `np.minimum.accumulate`'s rows, in a few
    passes over whole rows rather than one strided pass per column.
    """
    n = len(rows)
    if n < 2:
        out[...] = rows
        return
    spare = np.empty_like(out)
    # the last of the ceil(log2(n)) steps writes into `out`
    src, dst = rows, out if (n - 1).bit_length() % 2 else spare
    step = 1
    while step < n:
        if reverse:
            dst[n - step :] = src[n - step :]
            np.minimum(src[: n - step], src[step:], out=dst[: n - step])
        else:
            dst[:step] = src[:step]
            np.minimum(src[step:], src[: n - step], out=dst[step:])
        src, dst = dst, spare if dst is out else out
        step *= 2


def spectral_subtract(
    spec: Spectrogram,
    noise_power: np.ndarray,
    floor: float = RvadConfig.subtract_floor,
    power: np.ndarray | None = None,
) -> Spectrogram:
    """Power-domain subtraction with a spectral floor, keeping the noisy phase.

    Output power per bin is max(|X|^2 - noise, floor*noise), so it never
    drops below the floor level and never exceeds the observed power plus
    the floor.  The frames of `spec` are overwritten and `spec` returned.
    A caller that has `np.abs(spec.frames) ** 2` may pass it as `power`,
    which is then overwritten too.
    """
    noise_power = np.asarray(noise_power, dtype=np.float64)
    frames = spec.frames
    if noise_power.shape != frames.shape:
        raise ValueError("noise power shape does not match the spectrogram")
    power = np.abs(frames) ** 2 if power is None else power
    out_power = np.subtract(power, noise_power)
    np.maximum(out_power, floor * noise_power, out=out_power)
    magnitude = np.sqrt(power, out=power)
    new_magnitude = np.sqrt(out_power, out=out_power)
    nonzero = magnitude > 0
    if nonzero.all():
        np.multiply(frames, np.divide(new_magnitude, magnitude, out=magnitude), out=frames)
        return spec
    scale = np.divide(new_magnitude, magnitude, out=np.zeros_like(magnitude), where=nonzero)
    np.multiply(frames, scale, out=frames)
    # bins with zero input keep zero phase but still honor the floor
    np.copyto(frames, new_magnitude, where=~nonzero)
    return spec


def lowfreq_suppress(spec: Spectrogram, cutoff_hz: float = RvadConfig.lowfreq_cutoff_hz) -> Spectrogram:
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
    envelope = _envelope(flen, shift, count, min((flen - 1) // shift, first), hi - lo)
    finished = np.divide(sums[: hi - lo], envelope, out=sums[: hi - lo])
    state.next_frame, state.tail = end, sums[hi - lo :]
    if whole:
        finished = np.concatenate([finished, np.zeros(grid.total_samples - hi)])
    return AudioBuffer._trusted(finished, spec.sample_rate_hz)


# A file's blocks have three geometries: its first block, the blocks after
# it, and its last block.
@lru_cache(maxsize=4)
def _envelope(frame_len: int, shift: int, count: int, reach: int, length: int) -> np.ndarray:
    """The floored squared-window envelope that `reconstruct` divides a
    block's `length` finished samples by: the sum over the block's `count`
    frames and the `reach` frames before it that still cover its samples,
    in ascending frame order.  Computed once per block geometry and read-only.
    """
    envelope = np.zeros((count + reach - 1) * shift + frame_len)
    window = hamming(frame_len)
    _overlap_add(envelope, np.broadcast_to(window * window, (count + reach, frame_len)), shift)
    envelope = np.maximum(envelope[reach * shift : reach * shift + length], _ENVELOPE_FLOOR)
    envelope.flags.writeable = False
    return envelope


def _overlap_add(signal: np.ndarray, rows: np.ndarray, shift: int) -> None:
    """Add row m of `rows` into the contiguous `signal` from sample m * shift on.

    The frames are added one shift-wide piece at a time, each piece of all
    frames in one strided pass.  A sample takes its frames at descending
    offsets within them, so going from the last piece to the first adds
    them in ascending frame order, as a loop over frames does.
    """
    count, frame_len = rows.shape
    if count and (count - 1) * shift + frame_len > len(signal):
        raise ValueError("frames run past the end of the signal")
    step = signal.itemsize
    for lo in range((frame_len - 1) // shift * shift, -1, -shift):
        width = min(shift, frame_len - lo)
        # a view made by the constructor costs a fifth of `as_strided`'s call
        view = np.ndarray((count, width), signal.dtype, signal, lo * step, (shift * step, step))
        view += rows[:, lo : lo + width]
