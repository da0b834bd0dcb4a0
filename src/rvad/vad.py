"""Segment-based VAD: per-segment decisions, post-processing, and orchestration."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import denoise as dn
from .audio_io import AudioBuffer, read_wav
from .dsp import FrameGrid, frame_energy, highpass, make_grid, next_pow2, stft_blocks
from .features import (
    central_smooth,
    compute_features,
    rank_low_energy,
    weighted_energy_difference,
    log_energy_ratio_db,
)
from .segments import Segment, extend_segments, mask_to_segments, segments_to_mask
from .voicing import detect_pitch_autocorr, sft_voicing

__all__ = ["RvadConfig", "VadResult", "BatchItem", "segment_vad", "post_process", "run_rvad", "run_denoise", "run_batch"]

MIN_SAMPLE_RATE_HZ = 4000

MODES = ("full", "fast")
ENHANCERS = ("none", "msne", "msne-mod")
THRESHOLD_BASES = ("distance", "energy")


@dataclass
class RvadConfig:
    """Every numeric constant of the pipeline, with production defaults."""

    frame_len_ms: float = 25.0
    frame_shift_ms: float = 10.0
    hpf_cutoff_hz: float = 60.0
    super_len: int = 200
    noise_forget: float = 0.9
    smooth_n: int = 18
    alpha: float = 0.25
    min_pitch_frames: int = 2
    ext_frames: int = 60
    beta: float = 0.4
    pp_far_left: int = 33
    pp_far_right: int = 47
    pp_near_left: int = 5
    pp_near_right: int = 12
    energy_ratio: float = 0.05
    theta_sft: float = 0.5
    mode: str = "full"
    enhance: str = "msne"
    he_threshold_basis: str = "distance"
    pitch_f_min: float = 60.0
    pitch_f_max: float = 400.0
    pitch_rho: float = 0.6
    msne_smoothing: float = 0.85
    msne_bias: float = 1.5
    msne_window_frames: int = 150
    subtract_floor: float = 0.002
    lowfreq_cutoff_hz: float = 217.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.enhance not in ENHANCERS:
            raise ValueError(f"enhance must be one of {ENHANCERS}")
        if self.he_threshold_basis not in THRESHOLD_BASES:
            raise ValueError(f"he_threshold_basis must be one of {THRESHOLD_BASES}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.theta_sft < 1.0:
            raise ValueError("theta_sft must be in (0, 1)")
        if not self.frame_len_ms >= self.frame_shift_ms > 0.0:
            raise ValueError("need frame_len_ms >= frame_shift_ms > 0")
        if not 0.0 < self.msne_smoothing < 1.0:
            raise ValueError("msne_smoothing must be in (0, 1)")
        if self.msne_bias < 1.0:
            raise ValueError("msne_bias must be >= 1")
        if self.msne_window_frames < 1:
            raise ValueError("msne_window_frames must be >= 1")
        if self.super_len < 1:
            raise ValueError("super_len must be >= 1")
        if not 0.0 < self.pitch_rho < 1.0:
            raise ValueError("pitch_rho must be in (0, 1)")
        # pitch_f_max < sample_rate/2 is checked per file
        if not 0.0 < self.pitch_f_min < self.pitch_f_max:
            raise ValueError("need 0 < pitch_f_min < pitch_f_max")
        if not 0.0 <= self.noise_forget <= 1.0:
            raise ValueError("noise_forget must be in [0, 1]")
        for name in (
            "subtract_floor",
            "hpf_cutoff_hz",
            "smooth_n",
            "min_pitch_frames",
            "ext_frames",
            "pp_far_left",
            "pp_far_right",
            "pp_near_left",
            "pp_near_right",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class VadResult:
    """Per-frame speech labels, the same decisions as segments, and the denoised audio."""

    labels: np.ndarray
    speech_segments: list[Segment]
    denoised: Optional[AudioBuffer] = None
    frame_shift_ms: float = 10.0
    frame_len_ms: float = 25.0

    @property
    def num_speech_frames(self) -> int:
        return int(np.count_nonzero(self.labels))


def segment_vad(e_seg: np.ndarray, voiced_seg: np.ndarray, beta: float = 0.4, smooth_n: int = 18) -> np.ndarray:
    """Speech/non-speech decision within one extended pitch segment.

    The noise energy is re-estimated locally as the energy ranked at 10% of
    lowest within the segment, the smoothed SNR-weighted energy difference
    is recomputed against it, and a frame is speech when that feature
    strictly exceeds `beta` times its mean over the segment's voiced frames.
    """
    e_seg = np.asarray(e_seg, dtype=np.float64)
    voiced_seg = np.asarray(voiced_seg, dtype=bool)
    if len(e_seg) == 0 or len(e_seg) != len(voiced_seg):
        raise ValueError("segment features empty or mismatched")
    if not voiced_seg.any():
        raise ValueError("extended segment contains no voiced frames")
    noise_e = rank_low_energy(e_seg)
    snr_db = log_energy_ratio_db(e_seg, noise_e)
    d = weighted_energy_difference(e_seg, snr_db)
    d_smooth = central_smooth(d, smooth_n)
    theta = beta * d_smooth[voiced_seg].mean()
    return d_smooth > theta


def post_process(raw_labels: np.ndarray, pitch_segments: list[Segment], e: np.ndarray, cfg: RvadConfig) -> np.ndarray:
    """Hangover-style cleanup around pitch segments plus low-energy segment removal.

    Frames far from every pitch segment (more than `pp_far_left` before the
    next start and more than `pp_far_right` after the previous end) are
    forced non-speech; frames hugging or inside a pitch segment are forced
    speech; finally, speech segments whose mean energy falls below
    `energy_ratio` times the mean over all labeled speech frames are dropped.
    """
    labels = np.asarray(raw_labels, dtype=bool).copy()
    num = len(labels)
    if not pitch_segments:
        return np.zeros(num, dtype=bool)

    starts = np.asarray([s for s, _ in pitch_segments])
    ends = np.asarray([t for _, t in pitch_segments])
    idx = np.arange(num)
    far = np.iinfo(np.int64).max

    nxt = np.searchsorted(starts, idx, side="left")
    gap_next = np.where(nxt < len(starts), starts[np.minimum(nxt, len(starts) - 1)] - idx, far)
    prv = np.searchsorted(ends, idx, side="right") - 1
    gap_prev = np.where(prv >= 0, idx - ends[np.maximum(prv, 0)], far)

    labels[(gap_next > cfg.pp_far_left) & (gap_prev > cfg.pp_far_right)] = False
    near = (gap_next <= cfg.pp_near_left) | (gap_prev <= cfg.pp_near_right)
    labels[near | segments_to_mask(pitch_segments, num)] = True

    e = np.asarray(e, dtype=np.float64)
    speech_segments = mask_to_segments(labels)
    if speech_segments:
        overall = e[labels].mean()
        for s, t in speech_segments:
            if e[s : t + 1].mean() < cfg.energy_ratio * overall:
                labels[s : t + 1] = False
    return labels


def _voicing_mask(filtered, grid, cfg, override):
    if override is not None:
        mask = np.asarray(override, dtype=bool)
        if len(mask) != grid.num_frames:
            raise ValueError(f"voicing mask has {len(mask)} frames, expected {grid.num_frames}")
        return mask
    if cfg.mode == "fast":
        return sft_voicing(filtered, grid, cfg.theta_sft)
    return detect_pitch_autocorr(filtered, grid, cfg.pitch_f_min, cfg.pitch_f_max, cfg.pitch_rho)


def _second_pass(audio, grid, zeroed_segments, cfg, keep_noise):
    """Spectral subtraction one `stft_blocks` block at a time, carrying the
    noise tracker and the open overlap-add sums from block to block.

    The enhanced samples overwrite `audio`: `reconstruct` writes a block's
    samples once no later frame covers them, all before the next block's
    first sample, which no later block reads.  Samples past the last frame
    become zeros.  Returns the noise track, (frames x bins), when
    `keep_noise` asks for it and enhancement is on, else None.
    """
    if cfg.enhance == "none":
        return None
    frozen = segments_to_mask(zeroed_segments, grid.num_frames) if cfg.enhance == "msne-mod" else None
    state = dn.MsneState()
    ola = dn.OverlapAddState()
    noise = np.empty((grid.num_frames, next_pow2(grid.frame_len) // 2 + 1)) if keep_noise else None
    for rows, spec in stft_blocks(audio, grid):
        track = dn.msne_noise_track(
            spec,
            None if frozen is None else frozen[rows],
            cfg.msne_smoothing,
            cfg.msne_bias,
            cfg.msne_window_frames,
            state,
        )
        if keep_noise:
            noise[rows] = track
        dn.spectral_subtract(spec, track, cfg.subtract_floor)
        if cfg.enhance == "msne-mod":
            dn.lowfreq_suppress(spec, cfg.lowfreq_cutoff_hz)
        dn.reconstruct(spec, grid, audio, ola)
    audio.samples[grid.sample_span(0, grid.num_frames - 1)[1] if grid.num_frames else 0 :] = 0.0
    return noise


@dataclass
class _FrontEnd:
    """What the front end hands to the VAD stage and to run_denoise; `noise`
    is None unless the caller asked for it and enhancement is on."""

    grid: FrameGrid
    mask: np.ndarray
    enhanced: AudioBuffer
    noise: Optional[np.ndarray]
    e2: np.ndarray


def _front(audio, cfg, voicing, keep_noise=False) -> _FrontEnd:
    """High-pass, first-pass features and zeroing, second-pass enhancement.

    The high-passed signal is the one working buffer: the first pass zeroes
    its noise segments in place and the second pass overwrites it with the
    enhanced samples, so the caller's samples are never written.  A grid
    with no frames flows through every stage as empty arrays.
    """
    if audio.sample_rate_hz < MIN_SAMPLE_RATE_HZ:
        raise ValueError(f"sample rate must be >= {MIN_SAMPLE_RATE_HZ} Hz")
    work = highpass(audio, cfg.hpf_cutoff_hz)
    grid = make_grid(work, cfg.frame_len_ms, cfg.frame_shift_ms)
    e1 = frame_energy(work, grid)
    feats = compute_features(e1, cfg.super_len, cfg.smooth_n, cfg.noise_forget)
    he_segs = dn.detect_high_energy(feats, cfg.super_len, cfg.alpha, cfg.he_threshold_basis)
    mask = _voicing_mask(work, grid, cfg, voicing)
    zeroed = dn.noise_segments(he_segs, mask, cfg.min_pitch_frames)
    dn.zero_segments(work, grid, zeroed)
    noise = _second_pass(work, grid, zeroed, cfg, keep_noise)
    return _FrontEnd(grid, mask, work, noise, frame_energy(work, grid))


def run_rvad(audio: AudioBuffer, cfg: RvadConfig | None = None, voicing: np.ndarray | None = None) -> VadResult:
    """Run the full VAD pipeline on one utterance.

    `voicing` optionally injects an externally computed per-frame voiced
    mask in place of the built-in detectors.  An utterance shorter than one
    frame gets no labels, and with enhancement on its denoised samples are
    zeros, as are all samples past the last frame.
    """
    cfg = cfg or RvadConfig()
    front = _front(audio, cfg, voicing)
    grid, mask, e2 = front.grid, front.mask, front.e2
    pitch_segments = mask_to_segments(mask)
    extended = extend_segments(pitch_segments, cfg.ext_frames, grid.num_frames)
    labels = np.zeros(grid.num_frames, dtype=bool)
    for s, t in extended:
        labels[s : t + 1] = segment_vad(e2[s : t + 1], mask[s : t + 1], cfg.beta, cfg.smooth_n)
    labels = post_process(labels, pitch_segments, e2, cfg)
    return VadResult(labels, mask_to_segments(labels), front.enhanced, cfg.frame_shift_ms, cfg.frame_len_ms)


def run_denoise(
    audio: AudioBuffer, cfg: RvadConfig | None = None, voicing: np.ndarray | None = None
) -> tuple[AudioBuffer, Optional[np.ndarray]]:
    """Both denoising passes only; returns the enhanced audio and the noise
    power track per (frame, bin), None when enhancement is off.

    With enhancement on, samples past the last frame come back as zeros:
    input shorter than one frame gives all zeros and a (0, bins) track.
    """
    cfg = cfg or RvadConfig()
    front = _front(audio, cfg, voicing, keep_noise=True)
    return front.enhanced, front.noise


@dataclass
class BatchItem:
    """Outcome for one file of a batch run: a result or an error string."""

    path: str
    result: Optional[VadResult] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _process_one(path: str, cfg: RvadConfig) -> VadResult:
    # batches keep labels only: holding every file's denoised audio would
    # grow memory linearly with corpus size
    return replace(run_rvad(read_wav(path), cfg), denoised=None)


def run_batch(paths, cfg: RvadConfig | None = None, workers: int = 1) -> list[BatchItem]:
    """VAD over many files; output order follows the input and per-file
    failures are reported without aborting the batch.

    Batch results carry labels and segments but not the denoised audio; use
    run_rvad or run_denoise when the waveform itself is needed.  At most one
    worker process per file starts, since a pool may start all its workers
    at once; a batch left with one worker runs in this process."""
    cfg = cfg or RvadConfig()
    paths = [str(p) for p in paths]
    workers = min(workers, len(paths))
    items: list[BatchItem] = []
    if workers <= 1:
        for path in paths:
            try:
                items.append(BatchItem(path, result=_process_one(path, cfg)))
            except Exception as exc:
                items.append(BatchItem(path, error=f"{type(exc).__name__}: {exc}"))
        return items

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_process_one, path, cfg) for path in paths]
        for path, future in zip(paths, futures):
            try:
                items.append(BatchItem(path, result=future.result()))
            except Exception as exc:
                items.append(BatchItem(path, error=f"{type(exc).__name__}: {exc}"))
    return items
