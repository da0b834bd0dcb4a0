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


def extend_segments(segments, ext: int, num_frames: int) -> list[Segment]:
    """Widen each interval by `ext` frames on both sides, clamp, and merge
    those that overlap or touch."""
    widened = [(max(start - ext, 0), min(end + ext, num_frames - 1)) for start, end in segments]
    return mask_to_segments(segments_to_mask(widened, max(num_frames, 0)))
