"""Framing, filtering, and spectral primitives shared by the whole pipeline."""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
from importlib.util import module_from_spec
from types import ModuleType
from typing import NamedTuple

import numpy as np
import scipy

from .audio_io import AudioBuffer
from .config import RvadConfig

__all__ = [
    "FrameGrid",
    "Spectrogram",
    "MAG_FLOOR",
    "highpass",
    "recursion",
    "make_grid",
    "frame_matrix",
    "frame_energy",
    "next_pow2",
    "hamming",
    "stft",
    "Block",
    "blocks",
    "block_frames",
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

# `recursion` solves this many steps at a time against one band matrix per
# coefficient (128 KB), so its memory does not grow with the input, as a
# band as long as the input, 16 bytes a step, would.  Half as many steps
# cost twice the LAPACK calls, a few percent of a high-pass call.  Shorter
# recursions, such as the MSNE smoother's blocks of 16 to 128 rows, take a
# band of the next power of two of their length.
RECURSION_STEPS = 1 << 13


def _flapack() -> ModuleType:
    """scipy's compiled LAPACK module, `scipy.linalg._flapack`, without the
    `scipy.linalg` package.

    rvad calls one routine of scipy, `dtbtrs`, which lives in that extension
    module.  Imported through its package, it costs about 300 ms and 24 MB
    of every process's start-up: scipy.linalg's __init__ runs, through
    scipy._lib._array_api, `from numpy import *`, which imports numpy.f2py,
    numpy.testing, numpy.ma and numpy.random.  Loaded from its file alone it
    takes about 5 ms.  The top-level `scipy` package is imported first, for
    about 15 ms: its __init__ checks the numpy version and runs the
    distributor's set-up, which on some platforms is what makes the LAPACK
    library that the module links against loadable (Windows wheels add their
    DLL directory there).  A module that scipy.linalg has already loaded is
    reused.  Otherwise the entry that the module's single-phase init leaves
    in sys.modules is removed, so that a later `import scipy.linalg` builds
    its package as usual, with the same routines.  A first import of
    scipy.linalg in another thread while rvad is being imported is not
    supported.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    searched = [os.path.join(base, "linalg") for base in scipy.__path__]
    for directory in searched:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(directory, "_flapack" + suffix)
            if os.path.isfile(path):
                loader = ExtensionFileLoader(name, path)
                module = module_from_spec(ModuleSpec(name, loader, origin=path))
                loader.exec_module(module)
                if sys.modules.get(name) is module:
                    del sys.modules[name]
                return module
    raise ImportError(
        f"rvad loads scipy's private LAPACK module {name} from its file, but no _flapack"
        f" with a suffix of {EXTENSION_SUFFIXES} is in {os.pathsep.join(searched)}"
        f" (scipy {scipy.__version__}); rvad needs scipy >= 1.10 with that module in scipy/linalg"
    )


dtbtrs = _flapack().dtbtrs

_work = threading.local()


def _scratch(name: str, n: int) -> np.ndarray:
    """The first `n` elements of this thread's work array `name`, grown to
    hold them; what they held before is left.

    The sweeps decode, high-pass and window each block in these arrays
    instead of new ones: glibc can give a freed block-sized array back to
    the system, and a batch of 200 five-second 16 kHz files in fast mode
    then faulted the same pages in again, 54k minor faults and about a tenth
    of its time.  Only block-sized stretches are asked for, so an array
    stays bounded by the sweep geometry, and nothing handed back to a caller
    may be one of them.
    """
    buf = getattr(_work, name, None)
    if buf is None or len(buf) < n:
        buf = np.empty(n)
        setattr(_work, name, buf)
    return buf[:n]


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


def make_grid(
    audio: AudioBuffer, frame_len_ms: float = RvadConfig.frame_len_ms, frame_shift_ms: float = RvadConfig.frame_shift_ms
) -> FrameGrid:
    """Frame geometry for the buffer, durations rounded to the nearest sample."""
    if not np.inf > frame_len_ms >= frame_shift_ms > 0:
        raise ValueError("need finite frame_len_ms >= frame_shift_ms > 0")
    flen = int(round(frame_len_ms * audio.sample_rate_hz / 1000.0))
    shift = int(round(frame_shift_ms * audio.sample_rate_hz / 1000.0))
    if shift == 0:  # and so the frame length, which rounds to no less
        raise ValueError(f"a frame shift of {frame_shift_ms} ms rounds to 0 samples at {audio.sample_rate_hz} Hz")
    total = len(audio)
    num = 0 if total < flen else (total - flen) // shift + 1
    return FrameGrid(flen, shift, num, total)


def highpass(
    audio: AudioBuffer,
    cutoff_hz: float = RvadConfig.hpf_cutoff_hz,
    zi: tuple[float, float] | None = None,
    *,
    out: np.ndarray | None = None,
) -> AudioBuffer:
    """First-order high-pass: y(n) = a*(y(n-1) + x(n) - x(n-1)).

    With a = 1/(1 + 2*pi*fc/fs) this removes DC and rumble below the cutoff
    while leaving the band above it essentially untouched (about -0.2 dB at
    1 kHz for fs = 8 kHz).  Each output is a*(x(n) - x(n-1)) + a*y(n-1),
    rounded in that order: within a few units in the last place of the
    direct form's a*x(n) + (a*y(n-1) - a*x(n-1)), and with one array fewer
    than a*x(n) - a*x(n-1) would take.  A cutoff of 0 Hz returns a copy of
    the samples.  `zi` is the input and output sample just before the
    buffer, zeros (the default) for a signal from rest: calls on consecutive
    pieces of a signal, each given the last input and output samples of the
    piece before, give the samples of one call on the whole signal, bit for
    bit.  The output goes into `out` if given, an array of the input's
    length that the returned buffer then holds.
    """
    fs = audio.sample_rate_hz
    if fs <= 2 * cutoff_hz:
        raise ValueError("sample rate too low for the chosen cutoff")
    x = audio.samples
    a = 1.0 / (1.0 + 2.0 * np.pi * cutoff_hz / fs)
    y = np.empty(len(x)) if out is None else out
    if a == 1.0:
        # y(n) - x(n) stays what it was before the first sample: zero
        y[...] = x
        return AudioBuffer._trusted(y, fs)
    x_prev, y_prev = (0.0, 0.0) if zi is None else zi
    y[:1] = x[:1] - x_prev
    np.subtract(x[1:], x[:-1], out=y[1:])
    y *= a
    recursion(y_prev, y, a)
    return AudioBuffer._trusted(y, fs)


def recursion(first: float | np.ndarray, rhs: np.ndarray, c: float) -> np.ndarray:
    """w[j] = rhs[j] + c*w[j-1] down axis 0 of `rhs`, from w[-1] = `first`,
    written over `rhs`, which is returned.

    A matrix `rhs` holds one recursion per column; stored column by column
    (Fortran order), each is solved where it lies.  The steps are a unit
    lower-bidiagonal solve, which LAPACK's transposed upper-band solver
    takes one dot product of length one at a time, so each step rounds
    c*w[j-1] and then the sum, as `scipy.signal.lfilter` does for
    y(n) = x(n) + c*y(n-1).  That holds for the OpenBLAS that scipy's wheels
    ship; a BLAS that fused the two could differ in the last place.
    """
    band = _band(c, min(RECURSION_STEPS, next_pow2(len(rhs))))
    for lo in range(0, len(rhs), RECURSION_STEPS):
        block = rhs[lo : lo + RECURSION_STEPS]
        block[0] += c * first
        columns = block.reshape(len(block), -1)
        w, _ = dtbtrs(band[:, : len(block)], columns, uplo="U", trans="T", diag="U", overwrite_b=1)
        if w is not columns:
            # a block not stored column by column is solved in a copy
            block[...] = w
        first = block[-1]
    return rhs


@lru_cache(maxsize=32)
def _band(c: float, steps: int) -> np.ndarray:
    """The unit upper-bidiagonal matrix with -c above the diagonal, of
    `steps` columns in LAPACK's band storage; read-only."""
    band = np.ones((2, steps), order="F")
    band[0] = -c
    band.flags.writeable = False
    return band


def frame_matrix(samples: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """(num_frames, frame_len) read-only view onto the signal; rows share
    its memory, or that of a contiguous copy when it has gaps."""
    if grid.num_frames == 0:
        return np.empty((0, grid.frame_len))
    if (grid.num_frames - 1) * grid.frame_shift + grid.frame_len > len(samples):
        raise ValueError("frame grid runs past the end of the signal")
    samples = np.ascontiguousarray(samples)
    step = samples.itemsize
    # a view made by the constructor costs a fifth of `as_strided`'s call
    frames = np.ndarray((grid.num_frames, grid.frame_len), samples.dtype, samples, 0, (grid.frame_shift * step, step))
    frames.flags.writeable = False
    return frames


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
    frames = frame_matrix(audio.samples, grid)
    if grid.num_frames <= block_frames(grid.frame_len):
        # an STFT block's windowed frames, in this thread's work array
        out = _scratch("windowed", frames.size).reshape(frames.shape)
        windowed = np.multiply(frames, hamming(grid.frame_len), out=out)
    else:
        windowed = frames * hamming(grid.frame_len)
    return Spectrogram(np.fft.rfft(windowed, n=nfft, axis=1), nfft, audio.sample_rate_hz)


def block_frames(frame_len: int) -> int:
    """Frames per STFT block: BLOCK_BYTES of complex spectrum, taking a row
    of nfft//2 + 1 bins as 8*nfft bytes."""
    return max(1, BLOCK_BYTES // (8 * next_pow2(frame_len)))


class Block(NamedTuple):
    """A block of a grid's frames: its rows, its first sample, the next
    block's first sample, the end of the samples its frames read (both the
    signal's end for the grid's last block) and its frames' grid on [lo, hi)."""

    rows: slice
    lo: int
    split: int
    hi: int
    grid: FrameGrid


def blocks(grid: FrameGrid, step: int, first: int = 0, stop: int | None = None) -> list[Block]:
    """The grid's frames first..stop - 1 (stop None: to the last frame) in
    blocks of `step`, the last one shorter.  The [lo, split) ranges of a
    whole walk tile the whole signal: for a grid with no frames it gives
    one block with none."""
    n, shift = grid.num_frames, grid.frame_shift
    last = max(n, 1) if stop is None else stop
    out = []
    for start in range(first, last, step):
        end, lo = min(start + step, last, n), start * shift
        if end < n:
            split, hi = end * shift, (end - 1) * shift + grid.frame_len
        else:
            split = hi = grid.total_samples
        out.append(Block(slice(start, end), lo, split, hi, FrameGrid(grid.frame_len, shift, end - start, hi - lo)))
    return out


def spectral_flatness(spec: Spectrogram) -> np.ndarray:
    """Geometric over arithmetic mean of each magnitude spectrum, in [0, 1].

    Close to 1 for noise-like frames and close to 0 for tonal ones.
    Magnitudes are floored so silent frames come out flat (1.0) instead of
    dividing by zero.
    """
    mag = np.abs(spec.frames)
    np.maximum(mag, MAG_FLOOR, out=mag)
    # the sums divided by the bin count, as `np.mean` computes them
    bins = mag.shape[1]
    arithmetic = np.add.reduce(mag, axis=1)
    arithmetic /= bins
    np.log(mag, out=mag)
    geometric = np.add.reduce(mag, axis=1)
    geometric /= bins
    ratio = np.divide(np.exp(geometric, out=geometric), arithmetic, out=geometric)
    # a ratio of positive means is never negative; rounding can lift it past 1
    return np.minimum(ratio, 1.0, out=ratio)
