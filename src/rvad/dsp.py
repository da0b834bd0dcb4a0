"""Framing, filtering, and spectral primitives shared by the whole pipeline."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.signal import lfilter

from .audio_io import AudioBuffer

__all__ = [
    "FrameGrid",
    "Spectrogram",
    "MAG_FLOOR",
    "HighpassState",
    "highpass",
    "make_grid",
    "frame_matrix",
    "frame_energy",
    "next_pow2",
    "hamming",
    "stft",
    "block_frames",
    "stft_blocks",
    "spectral_flatness",
]

# Magnitudes below this are treated as silence when taking logs.
MAG_FLOOR = 1e-10

# Spectra are worked on this many bytes of complex frames at a time: 128
# frames at 8 kHz, 64 at 16 kHz, 16 at 44.1 and 48 kHz, so a long file never
# holds its whole spectrum.  Smaller blocks pay more per-call overhead.  With
# twice this budget, a batch of 200 five-second 16 kHz files in fast mode
# took about 100k page faults against about 500 here, as the allocator gave
# each block's temporaries back to the system and faulted them in again.
# A byte budget rather than a frame count keeps that balance at every rate.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class FrameGrid:
    """Frame geometry: frame m covers samples [m*shift, m*shift + frame_len)."""

    frame_len: int
    frame_shift: int
    num_frames: int
    total_samples: int

    def sample_span(self, start_frame: int, end_frame: int) -> tuple[int, int]:
        """Half-open sample range covered by frames start..end inclusive."""
        lo = start_frame * self.frame_shift
        hi = end_frame * self.frame_shift + self.frame_len
        return lo, min(hi, self.total_samples)


@dataclass
class Spectrogram:
    """One-sided complex STFT frames, shape (num_frames, nfft//2 + 1)."""

    frames: np.ndarray
    nfft: int
    sample_rate_hz: int

    @property
    def num_bins(self) -> int:
        return self.nfft // 2 + 1

    @property
    def bin_hz(self) -> float:
        return self.sample_rate_hz / self.nfft


def make_grid(audio: AudioBuffer, frame_len_ms: float = 25.0, frame_shift_ms: float = 10.0) -> FrameGrid:
    """Frame geometry for the buffer, durations rounded to the nearest sample."""
    if not frame_len_ms >= frame_shift_ms > 0:
        raise ValueError("need frame_len_ms >= frame_shift_ms > 0")
    flen = int(round(frame_len_ms * audio.sample_rate_hz / 1000.0))
    shift = int(round(frame_shift_ms * audio.sample_rate_hz / 1000.0))
    total = len(audio)
    num = 0 if total < flen else (total - flen) // shift + 1
    return FrameGrid(flen, shift, num, total)


@dataclass
class HighpassState:
    """What `highpass` carries from one piece of a signal to the next: the
    filter's delay, zero in a fresh state, as before a signal's first sample."""

    zi: np.ndarray = field(default_factory=lambda: np.zeros(1))


def highpass(audio: AudioBuffer, cutoff_hz: float = 60.0, state: HighpassState | None = None) -> AudioBuffer:
    """First-order high-pass: y(n) = a*(y(n-1) + x(n) - x(n-1)).

    With a = 1/(1 + 2*pi*fc/fs) this removes DC and rumble below the cutoff
    while leaving the band above it essentially untouched (about -0.2 dB at
    1 kHz for fs = 8 kHz).  Calls on consecutive pieces of a signal that
    share one `state` give, piece by piece, the samples of one call on the
    whole signal, bit for bit; without a state the signal starts from rest.
    """
    fs = audio.sample_rate_hz
    if fs <= 2 * cutoff_hz:
        raise ValueError("sample rate too low for the chosen cutoff")
    if len(audio) == 0:
        return AudioBuffer._trusted(np.zeros(0), fs)  # lfilter's state after no samples is undefined
    a = 1.0 / (1.0 + 2.0 * np.pi * cutoff_hz / fs)
    state = HighpassState() if state is None else state
    y, state.zi = lfilter([a, -a], [1.0, -a], audio.samples, zi=state.zi)
    return AudioBuffer._trusted(y, fs)


def frame_matrix(samples: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """(num_frames, frame_len) view onto the signal; rows share its memory."""
    if grid.num_frames == 0:
        return np.empty((0, grid.frame_len))
    if (grid.num_frames - 1) * grid.frame_shift + grid.frame_len > len(samples):
        raise ValueError("frame grid runs past the end of the signal")
    step = samples.strides[0]
    return as_strided(samples, (grid.num_frames, grid.frame_len), (grid.frame_shift * step, step), writeable=False)


def frame_energy(audio: AudioBuffer, grid: FrameGrid) -> np.ndarray:
    """Per-frame energy: plain sum of squared samples, no window or pre-emphasis."""
    frames = frame_matrix(audio.samples, grid)
    return np.einsum("ij,ij->i", frames, frames)


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (and >= 1)."""
    return 1 << max(int(n) - 1, 0).bit_length()


@lru_cache(maxsize=8)
def hamming(frame_len: int) -> np.ndarray:
    """The analysis and synthesis window, computed once per length and read-only."""
    window = np.hamming(frame_len)
    window.flags.writeable = False
    return window


def stft(audio: AudioBuffer, grid: FrameGrid) -> Spectrogram:
    """Hamming-windowed one-sided STFT, frames zero-padded to the next power of two."""
    nfft = next_pow2(grid.frame_len)
    windowed = frame_matrix(audio.samples, grid) * hamming(grid.frame_len)
    return Spectrogram(np.fft.rfft(windowed, n=nfft, axis=1), nfft, audio.sample_rate_hz)


def block_frames(frame_len: int) -> int:
    """Frames per `stft_blocks` block: BLOCK_BYTES of complex spectrum,
    taking a row of nfft//2 + 1 bins as 8*nfft bytes."""
    return max(1, BLOCK_BYTES // (8 * next_pow2(frame_len)))


def stft_blocks(audio: AudioBuffer, grid: FrameGrid) -> Iterator[tuple[slice, Spectrogram]]:
    """The `stft` of the grid's frames, `block_frames` frames at a time, in order.

    Yields each block's rows of the grid and their spectrogram.  A block's
    samples are read only when it is reached, so a caller may overwrite
    the samples before the next block's first one in between.
    """
    step = block_frames(grid.frame_len)
    for first in range(0, grid.num_frames, step):
        count = min(step, grid.num_frames - first)
        lo, hi = grid.sample_span(first, first + count - 1)
        block = AudioBuffer._trusted(audio.samples[lo:hi], audio.sample_rate_hz)
        yield slice(first, first + count), stft(block, FrameGrid(grid.frame_len, grid.frame_shift, count, hi - lo))


def spectral_flatness(spec: Spectrogram) -> np.ndarray:
    """Geometric over arithmetic mean of each magnitude spectrum, in [0, 1].

    Close to 1 for noise-like frames and close to 0 for tonal ones.
    Magnitudes are floored so silent frames come out flat (1.0) instead of
    dividing by zero.
    """
    mag = np.abs(spec.frames)
    np.maximum(mag, MAG_FLOOR, out=mag)
    arithmetic = np.mean(mag, axis=1)
    np.log(mag, out=mag)
    geometric = np.exp(np.mean(mag, axis=1))
    return np.clip(geometric / arithmetic, 0.0, 1.0)
