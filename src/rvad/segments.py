"""Frame-interval bookkeeping: grouping mask runs into segments and extending them."""

from __future__ import annotations

import numpy as np

__all__ = ["Segment", "mask_to_segments", "segments_to_mask", "extend_segments"]

Segment = tuple[int, int]


def mask_to_segments(mask: np.ndarray) -> list[Segment]:
    """Maximal runs of True as inclusive (start, end) frame intervals."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.concatenate(([False], mask, [False]))
    delta = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(delta == 1)
    ends = np.flatnonzero(delta == -1) - 1
    return list(zip(starts.tolist(), ends.tolist()))


def segments_to_mask(segments, num_frames: int) -> np.ndarray:
    """Boolean mask with True on every frame covered by a segment."""
    out = np.zeros(num_frames, dtype=bool)
    for start, end in segments:
        out[start : end + 1] = True
    return out


def widen(segments, before: int, after: int, num_frames: int) -> list[Segment]:
    """Each interval widened by `before` frames at its start and `after` at
    its end, clamped to frames 0 .. num_frames - 1."""
    return [(max(start - before, 0), min(end + after, num_frames - 1)) for start, end in segments]


def extend_segments(segments, ext: int, num_frames: int) -> list[Segment]:
    """Widen each interval by `ext` frames on both sides, clamp, and merge
    those that overlap or touch."""
    return mask_to_segments(segments_to_mask(widen(segments, ext, ext, num_frames), max(num_frames, 0)))
