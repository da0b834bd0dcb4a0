"""Seeded inputs for the rvad benchmark, built with numpy alone.

Voiced "speech" is a band-limited harmonic pulse train, built as in the
test suite's `synth.pulse_train` (harmonics of f0 up to 0.85 Nyquist with a
1/h tilt, normalised to a peak amplitude).  Each burst uses an f0 whose
period is a whole number of samples, so one period is computed exactly and
tiled.  White noise sets the SNR; loud white-noise bursts placed in the gaps
play the part of unvoiced noise.  The reference label of a frame is speech
when at least half of it overlaps a voiced burst.

Nothing here imports rvad: references, label counts, the `.vad` parser and
the accuracy are the benchmark's own, so a fault in the program cannot hide
in them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FRAME_LEN_MS = 25.0
FRAME_SHIFT_MS = 10.0
EXT_FRAMES = 60  # pitch segments are widened by this many frames on each side

WORKLOADS = LONG, BATCH, CLIPS = ("long16k-full-msne", "batch8k-fast-msnemod", "clips48k-full-none")
PIPELINE = {LONG: ("full", "msne"), BATCH: ("fast", "msne-mod"), CLIPS: ("full", "none")}  # (mode, enhance)

# Reader faults named in the project's roadmap.  These files do not depend on
# --seed, so every round fails on exactly the same number of them.
FAULTY_SEED = 7
FAULTY_FILES = (("pcm24", 24, False), ("ext16", 16, True), ("ext24", 24, True), ("pcm24b", 24, False))

_PCM_GUID = struct.pack("<IHH", 1, 0, 0x10) + bytes.fromhex("800000aa00389b71")


@dataclass
class Clip:
    """One generated input: samples plus where the voiced bursts were put."""

    name: str
    fs: int
    samples: np.ndarray = field(repr=False)
    voiced: list  # [(lo, hi)) sample ranges of voiced bursts
    kind: str = "speech"  # speech | silence | noise | faulty


def frame_geometry(fs: int) -> tuple[int, int]:
    return int(round(FRAME_LEN_MS * fs / 1000.0)), int(round(FRAME_SHIFT_MS * fs / 1000.0))


def num_frames(n: int, fs: int) -> int:
    """Label count for n samples: (n - frame_len) // shift + 1, or 0 when shorter."""
    flen, shift = frame_geometry(fs)
    return 0 if n < flen else (n - flen) // shift + 1


def reference_labels(voiced, n: int, fs: int) -> np.ndarray:
    """Speech where at least half of the frame overlaps a voiced burst."""
    flen, shift = frame_geometry(fs)
    starts = np.arange(num_frames(n, fs)) * shift
    overlap = np.zeros(len(starts), dtype=np.int64)
    for lo, hi in voiced:
        overlap += np.clip(np.minimum(starts + flen, hi) - np.maximum(starts, lo), 0, None)
    return overlap >= flen // 2


def pulse_period(period: int, fs: int, amp: float) -> np.ndarray:
    """One period of a pulse train with f0 = fs/period."""
    f0 = fs / period
    t = np.arange(period) / fs
    h = np.arange(1, max(int(0.85 * (fs / 2) / f0), 1) + 1)
    x = (np.cos(2 * np.pi * f0 * np.outer(t, h)) / h).sum(axis=1)
    return amp * x / np.abs(x).max()


def speech_clip(rng, name: str, fs: int, dur_s: float, snr_db: float, n_unvoiced: int) -> Clip:
    """Voiced bursts of 0.4-1.2 s separated by 0.8-1.2 s gaps, white noise at
    `snr_db` (whole-file RMS) and `n_unvoiced` loud noise bursts in gaps."""
    n = int(round(dur_s * fs))
    x = np.zeros(n)
    voiced, gaps = [], []
    cursor = int((0.4 + 0.3 * rng.random()) * fs)
    while True:
        length = int((0.4 + 0.8 * rng.random()) * fs)
        if cursor + length > n - int(0.4 * fs):
            break
        period = int(rng.integers(fs // 220, fs // 120 + 1))  # f0 of 120-220 Hz
        x[cursor : cursor + length] = np.resize(pulse_period(period, fs, 0.15 + 0.2 * rng.random()), length)
        voiced.append((cursor, cursor + length))
        gap = int((0.8 + 0.4 * rng.random()) * fs)
        gaps.append((cursor + length, min(cursor + length + gap, n)))
        cursor += length + gap
    noise_rms = np.sqrt(np.mean(x**2)) * 10.0 ** (-snr_db / 20.0) if voiced else 0.01
    x += noise_rms * rng.standard_normal(n)
    if gaps and n_unvoiced:
        for i in rng.choice(len(gaps), size=min(n_unvoiced, len(gaps)), replace=False):
            lo, hi = gaps[i]
            width = min(int(0.3 * fs), (hi - lo) // 2)
            mid = (lo + hi) // 2
            x[mid - width // 2 : mid - width // 2 + width] += 0.25 * rng.standard_normal(width)
    return Clip(name, fs, np.clip(x, -1.0, 1.0), voiced)


def encode_wav(samples: np.ndarray, fs: int, bits: int = 16, extensible: bool = False) -> bytes:
    """Mono integer-PCM WAV bytes, plain (tag 1) or WAVE_FORMAT_EXTENSIBLE (tag 0xFFFE)."""
    full = float(1 << (bits - 1))
    q = np.clip(np.round(samples * full), -full, full - 1).astype("<i4")
    width = bits // 8
    data = q.view(np.uint8).reshape(-1, 4)[:, :width].tobytes()
    block = width
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else 1, 1, fs, fs * block, block, bits)
    if extensible:
        fmt += struct.pack("<HHI", 22, bits, 0x4) + _PCM_GUID
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    if len(data) & 1:
        body += b"\0"
    return b"RIFF" + struct.pack("<I", len(body)) + body


def workload_clips(workload: str, seed: int) -> list[Clip]:
    """The inputs of one workload, a pure function of (workload, seed)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == LONG:
        return [speech_clip(rng, "long", 16000, 600.0, 10.0, 8)]
    if workload == CLIPS:
        return [speech_clip(rng, f"clip{i}", 48000, 30.0, 15.0, 2) for i in range(4)]
    clips = []
    for i in range(200):
        name = f"f{i:03d}"
        if i % 20 == 10:  # ten files carry no speech at all
            kind = "silence" if i % 40 == 10 else "noise"
            x = np.zeros(32000) if kind == "silence" else 0.02 * rng.standard_normal(32000)
            clips.append(Clip(name, 8000, x, [], kind))
        else:
            clips.append(speech_clip(rng, name, 8000, 4.0, float(rng.uniform(15.0, 25.0)), int(rng.integers(0, 2))))
    fixed = np.random.default_rng(FAULTY_SEED)
    for name, _, _ in FAULTY_FILES:
        clip = speech_clip(fixed, name, 8000, 4.0, 20.0, 0)
        clip.kind = "faulty"
        clips.append(clip)
    return clips


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write a workload's inputs under `out` and return its manifest.

    WAV workloads get one file each (plus `files.list` for the batch);
    in-memory clips go to `clips.npz`.  The manifest records every input's
    sample count, rate, kind and voiced sample ranges, from which the
    reference labels follow.
    """
    out.mkdir(parents=True, exist_ok=True)
    clips = workload_clips(workload, seed)
    formats = {name: (bits, ext) for name, bits, ext in FAULTY_FILES}
    items = []
    for clip in clips:
        item = {"name": clip.name, "fs": clip.fs, "n": len(clip.samples), "kind": clip.kind, "voiced": clip.voiced}
        if workload != CLIPS:
            bits, ext = formats.get(clip.name, (16, False))
            path = out / f"{clip.name}.wav"
            path.write_bytes(encode_wav(clip.samples, clip.fs, bits, ext))
            item["path"] = str(path)
        items.append(item)
    if workload == CLIPS:
        np.savez(out / "clips.npz", **{c.name: c.samples for c in clips})
    else:
        (out / "files.list").write_text("".join(it["path"] + "\n" for it in items))
    manifest = {"workload": workload, "seed": seed, "dir": str(out), "items": items}
    (out / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def parse_vad_segments(text: str, fs: int, n: int) -> np.ndarray:
    """Frame labels from a `--labels segments` file: "<start_sec> <end_sec>" lines.

    Frame m is speech when m*shift lies in [start, end).  Segments must be
    sorted, non-empty, apart from each other and inside the file.
    """
    count = num_frames(n, fs)
    shift_s = frame_geometry(fs)[1] / fs
    labels = np.zeros(count, dtype=bool)
    prev_end = -1
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two fields, got {line!r}")
        lo, hi = (int(round(float(p) / shift_s)) for p in parts)
        if not (prev_end < lo < hi <= count):
            raise ValueError(f"line {lineno}: segment {line!r} out of order or outside {count} frames")
        labels[lo:hi] = True
        prev_end = hi
    return labels


def accuracy_pct(pairs) -> float:
    """100 minus the pooled frame error rate over (reference, hypothesis) pairs."""
    total = sum(len(ref) for ref, _ in pairs)
    if total == 0:
        raise ValueError("no frames to score")
    wrong = 0
    for ref, hyp in pairs:
        if len(ref) != len(hyp):
            raise ValueError(f"label count {len(hyp)} differs from reference {len(ref)}")
        wrong += int(np.count_nonzero(np.asarray(ref, bool) != np.asarray(hyp, bool)))
    return 100.0 * (1.0 - wrong / total)


def same_labels(a: dict, b: dict) -> bool:
    """Whether two {input name: labels} maps hold identical labels."""
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def widen(mask: np.ndarray, ext: int = EXT_FRAMES) -> np.ndarray:
    """Frames within `ext` frames of a True frame."""
    mask = np.asarray(mask, dtype=bool)
    csum = np.concatenate(([0], np.cumsum(mask)))
    idx = np.arange(len(mask))
    lo = np.maximum(idx - ext, 0)
    hi = np.minimum(idx + ext + 1, len(mask))
    return csum[hi] - csum[lo] > 0


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description="Write one workload's benchmark inputs and manifest.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    manifest = write_inputs(args.workload, args.seed, args.out)
    print(f"wrote {len(manifest['items'])} inputs to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
