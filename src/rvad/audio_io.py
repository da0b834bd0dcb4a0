"""WAV and frame-label file I/O plus SNR-controlled noise mixing."""

from __future__ import annotations

import struct
import warnings
import wave
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
    "mix_noise",
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

# Segment times are written with 6 decimals; this absorbs the parse rounding
# when mapping frame starts back onto [start, end).
_TIME_EPS = 1e-9


class AudioFormatError(ValueError):
    """Raised for WAV files this reader does not support."""


class LabelFormatError(ValueError):
    """Raised for malformed frame-label files."""


@dataclass
class AudioBuffer:
    """Mono audio held as float64 samples, nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if int(self.sample_rate_hz) <= 0:
            raise ValueError("sample_rate_hz must be positive")
        self.sample_rate_hz = int(self.sample_rate_hz)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


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
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    declared = 0
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data, declared = body, size
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or len(fmt) < 16 or data is None:
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
    if len(data) < declared:
        warnings.warn(
            f"{path}: data chunk declares {declared} bytes but the file holds {len(data)};"
            f" decoding the {len(data) // width} whole samples present",
            UserWarning,
            stacklevel=2,
        )
        data = data[: len(data) - len(data) % width]
    elif len(data) % width:
        raise AudioFormatError(f"{path}: data chunk of {len(data)} bytes ends in a partial {bits}-bit sample")

    if bits == 8:
        flat = (np.frombuffer(data, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    elif bits == 24:
        # each sample into the top three bytes of an int32, which is value * 2**8
        wide = np.zeros((len(data) // 3, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        flat = wide.view("<i4")[:, 0].astype(np.float64)
        flat /= 2.0**31
    else:
        dtype, full_scale = _SAMPLE_TYPES[tag, bits]
        flat = np.frombuffer(data, dtype=dtype).astype(np.float64)
        flat /= full_scale

    if channels == 1:
        return AudioBuffer(flat, rate)
    usable = (len(flat) // channels) * channels
    samples = flat[:usable].reshape(-1, channels).mean(axis=1)
    return AudioBuffer(samples, rate)


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


def mix_noise(clean: AudioBuffer, noise: AudioBuffer, snr_db: float) -> AudioBuffer:
    """Add noise to clean speech at the requested whole-file RMS SNR.

    Noise shorter than the speech is tiled end-to-start, longer noise is
    truncated; the gain is computed against the adjusted noise so the
    realized SNR matches the request exactly.
    """
    if clean.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError("sample-rate mismatch between clean and noise")
    if len(noise) == 0 or not np.any(noise.samples):
        raise ValueError("noise must not be silent")
    if len(clean) == 0:
        return AudioBuffer(clean.samples.copy(), clean.sample_rate_hz)

    reps = -(-len(clean) // len(noise))  # ceil division
    adjusted = np.tile(noise.samples, reps)[: len(clean)]
    rms_noise = np.sqrt(np.mean(adjusted**2))
    if rms_noise == 0.0:
        raise ValueError("noise is silent over the mixed span")
    rms_clean = np.sqrt(np.mean(clean.samples**2))
    gain = rms_clean / rms_noise * 10.0 ** (-snr_db / 20.0)
    return AudioBuffer(clean.samples + gain * adjusted, clean.sample_rate_hz)
