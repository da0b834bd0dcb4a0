"""Frame-interval bookkeeping: grouping mask runs into segments and extending them."""

from __future__ import annotations

import numpy as np

__all__ = ["Segment", "mask_to_segments", "segments_to_mask", "merge_touching", "extend_segments"]

Segment = tuple[int, int]


def mask_to_segments(mask: np.ndarray) -> list[Segment]:
    """Maximal runs of True as inclusive (start, end) frame intervals."""
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return []
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


def merge_touching(segments) -> list[Segment]:
    """Merge overlapping or directly adjacent intervals; input must be sorted."""
    merged: list[Segment] = []
    for start, end in segments:
        if merged and start <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((int(start), int(end)))
    return merged


def extend_segments(segments, ext: int, num_frames: int) -> list[Segment]:
    """Widen each interval by `ext` frames on both sides, clamp, and merge."""
    if num_frames <= 0:
        return []
    widened = [(max(start - ext, 0), min(end + ext, num_frames - 1)) for start, end in segments]
    return merge_touching(widened)
