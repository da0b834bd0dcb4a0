"""WAV and frame-label file I/O."""

from __future__ import annotations

import io
import os
import struct
import warnings
import wave
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "AudioBuffer",
    "FrameLabels",
    "AudioFormatError",
    "LabelFormatError",
    "read_wav",
    "write_wav",
    "read_labels",
    "write_labels",
]

INT16_FULL_SCALE = 32768.0

_TAG_PCM = 1
_TAG_IEEE_FLOAT = 3
_TAG_EXTENSIBLE = 0xFFFE

# WAVE_FORMAT_EXTENSIBLE names its encoding by a GUID whose first two bytes
# are the plain format tag.
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")
_SUBFORMATS = {struct.pack("<H", tag) + _GUID_TAIL: tag for tag in (_TAG_PCM, _TAG_IEEE_FLOAT)}

# (tag, bits) -> (little-endian sample type, full-scale value)
_SAMPLE_TYPES = {
    (_TAG_PCM, 16): ("<i2", INT16_FULL_SCALE),
    (_TAG_PCM, 32): ("<i4", 2.0**31),
    (_TAG_IEEE_FLOAT, 32): ("<f4", 1.0),
    (_TAG_IEEE_FLOAT, 64): ("<f8", 1.0),
}

# A whole data chunk is decoded, or scanned for non-finite samples, this
# many bytes at a time, so no copy of the file's bytes is held.
READ_BYTES = 1 << 16

# Segment times are written with 6 decimals; this absorbs the parse rounding
# when mapping frame starts back onto [start, end).
_TIME_EPS = 1e-9


class AudioFormatError(ValueError):
    """Raised for WAV files this reader does not support."""


class LabelFormatError(ValueError):
    """Raised for malformed frame-label files."""


class AudioBuffer:
    """Mono audio as float64 samples, nominally in [-1, 1].

    A buffer made from an array holds that array.  One from `read_wav`
    reads its file: `read(lo, hi)` decodes samples [lo, hi) only, opening
    the file for that read, and `samples` decodes the whole data chunk on
    first use and keeps it.  The file must not change while such a buffer
    reads it.
    """

    def __init__(self, samples, sample_rate_hz: int):
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        _check_finite(samples)
        if int(sample_rate_hz) <= 0:
            raise ValueError("sample_rate_hz must be positive")
        self._samples, self._chunk, self.sample_rate_hz = samples, None, int(sample_rate_hz)

    @classmethod
    def _trusted(cls, samples: np.ndarray | None, sample_rate_hz: int, chunk: _DataChunk | None = None) -> AudioBuffer:
        """A buffer built with no copy and no check: on float64 samples
        computed from a checked buffer's, or, with `samples` None, on a data
        chunk that `read_wav` checked."""
        buf = cls.__new__(cls)
        buf._samples, buf._chunk, buf.sample_rate_hz = samples, chunk, sample_rate_hz
        return buf

    @property
    def samples(self) -> np.ndarray:
        """Every sample; a file's are decoded on first use and kept."""
        if self._samples is None:
            samples = np.empty(len(self._chunk))
            for lo, piece in self._chunk.pieces():
                samples[lo : lo + len(piece)] = piece
            self._samples = samples
        return self._samples

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples [lo, hi): a view of the held samples, or decoded from
        the file when the buffer holds none."""
        samples = self._samples
        return self._chunk.read(lo, hi) if samples is None else samples[lo:hi]

    def __len__(self) -> int:
        return len(self._chunk) if self._chunk is not None else len(self._samples)


def _check_finite(samples: np.ndarray) -> None:
    # min and max carry a NaN through and meet any infinity, with no array
    # the size of the signal
    if samples.size and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
        raise ValueError("samples must be finite")


class _DataChunk:
    """The samples of a WAV file's data chunk, decoded to mono float64 a
    stretch at a time.  `source` is the bytes of a pipe or the file's
    absolute path, which each read opens: a buffer holds no file open, and
    threads sharing one share no file position."""

    def __init__(self, source: str | bytes, at: int, count: int, tag: int, bits: int, channels: int):
        self.source, self.at, self.count = source, at, count
        self.tag, self.bits, self.channels = tag, bits, channels
        self.frame_bytes = bits // 8 * channels
        # whole multi-channel frames, READ_BYTES at a time
        self.step = max(READ_BYTES // self.frame_bytes, 1)

    def __len__(self) -> int:
        return self.count

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples [lo, hi), clipped to the chunk's end."""
        n = max(min(hi, self.count) - lo, 0)
        start, size = self.at + lo * self.frame_bytes, n * self.frame_bytes
        if isinstance(self.source, bytes):
            data = memoryview(self.source)[start : start + size]
        else:
            with open(self.source, "rb") as fh:
                fh.seek(start)
                data = fh.read(size)
            if len(data) != size:
                raise AudioFormatError(f"{self.source}: the file shrank while its samples were read")
        flat = _decode(data, self.tag, self.bits)
        return flat if self.channels == 1 else flat.reshape(n, self.channels).mean(axis=1)

    def pieces(self) -> Iterator[tuple[int, np.ndarray]]:
        """Each stretch of `step` samples with its first sample's index, so
        no copy of the whole chunk's bytes is held."""
        for lo in range(0, self.count, self.step):
            yield lo, self.read(lo, lo + self.step)


@dataclass
class FrameLabels:
    """Per-frame boolean speech labels with the frame geometry they assume."""

    labels: np.ndarray
    frame_shift_ms: float = 10.0
    frame_len_ms: float = 25.0

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=bool)

    def __len__(self) -> int:
        return len(self.labels)


def read_wav(path) -> AudioBuffer:
    """Read an uncompressed WAV file as mono.

    Supported encodings are integer PCM of 8 (unsigned), 16, 24 or 32 bits
    and IEEE float of 32 or 64 bits, with format tag 1 or 3 or as
    WAVE_FORMAT_EXTENSIBLE with the PCM or IEEE-float sub-format.  Any other
    encoding, or a complete data chunk that ends in a partial sample, raises
    AudioFormatError.  A data chunk cut short, holding fewer bytes than its
    header declares, is taken as a file whose end was lost: the whole
    samples present are decoded and a UserWarning names both byte counts.
    Multi-channel data is averaged down to one channel and integer samples
    are scaled by the type's full-scale value, so 16-bit 32767 maps to
    32767/32768.

    The buffer reads the samples from the file when they are needed, see
    `AudioBuffer`; a pipe, which cannot seek, is read whole and its bytes
    are held.  A float file is scanned once for NaN and infinity, which
    raise ValueError.
    """
    with open(path, "rb") as raw:
        # a pipe cannot seek, so its bytes are held; a file is read when needed
        source = os.fsdecode(os.path.abspath(path)) if raw.seekable() else raw.read()
        fh = raw if isinstance(source, str) else io.BytesIO(source)
        file_size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        head = fh.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

        fmt = None
        data_at = None
        declared = 0
        pos = 12
        while pos + 8 <= file_size:
            fh.seek(pos)
            chunk_id, size = struct.unpack("<4sI", fh.read(8))
            if chunk_id == b"fmt ":
                fmt = fh.read(size)
            elif chunk_id == b"data":
                data_at, declared = pos + 8, size
            pos += 8 + size + (size & 1)  # chunks are word-aligned

        if fmt is None or len(fmt) < 16 or data_at is None:
            raise AudioFormatError(f"{path}: missing fmt or data chunk")
        tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
        if channels < 1 or rate < 1:
            raise AudioFormatError(f"{path}: bad fmt chunk")
        if tag == _TAG_EXTENSIBLE:
            if len(fmt) < 40:
                raise AudioFormatError(f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk of {len(fmt)} bytes is too short")
            tag = _SUBFORMATS.get(fmt[24:40])
            if tag is None:
                raise AudioFormatError(f"{path}: unsupported WAVE_FORMAT_EXTENSIBLE sub-format {fmt[24:40].hex()}")

        if not ((tag == _TAG_PCM and bits in (8, 24)) or (tag, bits) in _SAMPLE_TYPES):
            raise AudioFormatError(f"{path}: unsupported encoding (tag={tag}, bits={bits})")
        width = bits // 8
        present = min(declared, file_size - data_at)
        if present < declared:
            warnings.warn(
                f"{path}: data chunk declares {declared} bytes but the file holds {present};"
                f" decoding the {present // width} whole samples present",
                UserWarning,
                stacklevel=2,
            )
        elif present % width:
            raise AudioFormatError(f"{path}: data chunk of {present} bytes ends in a partial {bits}-bit sample")

    chunk = _DataChunk(source, data_at, present // width // channels, tag, bits, channels)
    if tag == _TAG_IEEE_FLOAT:
        for _, piece in chunk.pieces():
            _check_finite(piece)
    return AudioBuffer._trusted(None, rate, chunk)


def _decode(data: bytes, tag: int, bits: int) -> np.ndarray:
    """Samples of one stretch of a data chunk as float64 in [-1, 1]."""
    if bits == 8:
        return (np.frombuffer(data, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    if bits == 24:
        # each sample into the top three bytes of an int32, which is value * 2**8
        wide = np.zeros((len(data) // 3, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        flat = wide.view("<i4")[:, 0].astype(np.float64)
        flat /= 2.0**31
        return flat
    dtype, full_scale = _SAMPLE_TYPES[tag, bits]
    flat = np.frombuffer(data, dtype=dtype).astype(np.float64)
    flat /= full_scale
    return flat


def write_wav(path, audio: AudioBuffer) -> None:
    """Write 16-bit PCM mono, clipping samples to [-1, 1] before quantizing."""
    x = np.clip(audio.samples, -1.0, 1.0)
    q = np.clip(np.round(x * INT16_FULL_SCALE), -32768, 32767).astype("<i2")
    with open(path, "wb") as fh, wave.open(fh, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(audio.sample_rate_hz)
        w.writeframes(q.tobytes())


def _parse_label_lines(path):
    lines = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if stripped:
            lines.append((lineno, stripped.split()))
    return lines


def read_labels(path, frame_shift_ms: float = 10.0, frame_len_ms: float = 25.0) -> FrameLabels:
    """Read frame labels from either supported text format.

    Format A is one "0"/"1" line per frame.  Format B is one
    "<start_sec> <end_sec>" line per speech segment; frame m is marked
    when its start time m*shift falls inside [start, end).  An empty file
    yields an empty label sequence.
    """
    lines = _parse_label_lines(path)
    if not lines:
        return FrameLabels(np.zeros(0, dtype=bool), frame_shift_ms, frame_len_ms)

    if len(lines[0][1]) == 1:
        labels = []
        for lineno, tokens in lines:
            if len(tokens) != 1 or tokens[0] not in ("0", "1"):
                raise LabelFormatError(f"{path}:{lineno}: expected a single 0 or 1")
            labels.append(tokens[0] == "1")
        return FrameLabels(np.asarray(labels, dtype=bool), frame_shift_ms, frame_len_ms)

    shift_s = frame_shift_ms / 1000.0
    spans = []
    prev_end = 0.0
    for lineno, tokens in lines:
        if len(tokens) != 2:
            raise LabelFormatError(f"{path}:{lineno}: expected '<start_sec> <end_sec>'")
        try:
            start, end = float(tokens[0]), float(tokens[1])
        except ValueError as exc:
            raise LabelFormatError(f"{path}:{lineno}: non-numeric segment time") from exc
        if start < 0 or not start < end:
            raise LabelFormatError(f"{path}:{lineno}: need 0 <= start < end")
        if start < prev_end:
            raise LabelFormatError(f"{path}:{lineno}: non-monotone segment times")
        prev_end = end
        spans.append((start, end))

    last = spans[-1][1]
    num_frames = max(int(np.ceil((last - _TIME_EPS) / shift_s)), 0)
    labels = np.zeros(num_frames, dtype=bool)
    for start, end in spans:
        lo = int(np.ceil((start - _TIME_EPS) / shift_s))
        hi = int(np.ceil((end - _TIME_EPS) / shift_s))
        labels[max(lo, 0) : hi] = True
    return FrameLabels(labels, frame_shift_ms, frame_len_ms)


def write_labels(path, labels: FrameLabels, fmt: str = "frames") -> None:
    """Write labels as per-frame 0/1 lines or as speech-segment time spans."""
    if fmt == "frames":
        text = "".join("1\n" if v else "0\n" for v in labels.labels)
    elif fmt == "segments":
        shift_s = labels.frame_shift_ms / 1000.0
        # local import keeps segments.py free of file I/O concerns
        from .segments import mask_to_segments

        parts = []
        for start, end in mask_to_segments(labels.labels):
            parts.append(f"{start * shift_s:.6f} {(end + 1) * shift_s:.6f}\n")
        text = "".join(parts)
    else:
        raise ValueError(f"unknown label format: {fmt!r}")
    Path(path).write_text(text)
