"""Segment-based robust voice activity detection with two-pass denoising.

The pipeline detects high-energy noise bursts via a posteriori SNR weighted
energy differences and zeroes the unvoiced ones, enhances the remainder by
spectral subtraction over a minimum-statistics noise floor, then makes
speech/non-speech decisions inside pitch-anchored segments.  A spectral
flatness voicing detector provides a fast mode; frame-level scoring utilities
round out the toolkit.

This package exports the pipeline, its file I/O and its scoring; the stage
kernels live in their modules (`rvad.dsp`, `rvad.features`, `rvad.denoise`,
`rvad.voicing`, `rvad.segments`, `rvad.vad`).
"""

from .audio_io import (
    AudioBuffer,
    AudioFormatError,
    FrameLabels,
    LabelFormatError,
    read_labels,
    read_wav,
    write_labels,
    write_wav,
)
from .metrics import AggregateResult, EvalCounts, EvalResult, aggregate, count_errors, score
from .vad import BatchItem, Denoised, RvadConfig, VadResult, run_batch, run_denoise, run_rvad

__version__ = "0.1.0"

__all__ = [
    "run_rvad",
    "run_denoise",
    "run_batch",
    "Denoised",
    "RvadConfig",
    "VadResult",
    "BatchItem",
    "AudioBuffer",
    "AudioFormatError",
    "FrameLabels",
    "LabelFormatError",
    "read_wav",
    "write_wav",
    "read_labels",
    "write_labels",
    "count_errors",
    "score",
    "aggregate",
    "EvalCounts",
    "EvalResult",
    "AggregateResult",
]
