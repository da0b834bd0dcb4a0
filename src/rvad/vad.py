"""Segment-based VAD: per-segment decisions, post-processing, and orchestration."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import denoise as dn
from .audio_io import AudioBuffer, read_wav
from .dsp import FrameGrid, HighpassState, block_frames, frame_energy, highpass, make_grid, next_pow2, stft_blocks
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

# Each sweep takes this many `stft_blocks` blocks of frames at a time:
# 512 frames (5.12 s) at 8 kHz, 256 (2.56 s) at 16 kHz and 64 (0.64 s) at
# 44.1 and 48 kHz, at most about 330 KB of float64 samples.  Every block
# costs `lfilter` calls and Python per sweep: with one `stft_blocks` block
# per sweep block, 204 four-second 8 kHz files in fast mode took 43 % longer
# than with the whole signal at once.  Twice this size raised the peak
# of `run_rvad` on two minutes at 16 kHz from 2.7 to 3.4 MB.
SWEEP_BLOCKS = 4

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
    """Per-frame speech labels and the same decisions as segments."""

    labels: np.ndarray
    speech_segments: list[Segment]
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


class _Block(NamedTuple):
    """A sweep's block of frames: its rows of the grid, its first sample, the
    next block's first sample, and the end of the samples its frames read.
    The last block's `split` and `hi` are both the signal's end."""

    rows: slice
    lo: int
    split: int
    hi: int

    def grid(self, grid: FrameGrid) -> FrameGrid:
        """The block's frames on its samples [lo, hi)."""
        return FrameGrid(grid.frame_len, grid.frame_shift, self.rows.stop - self.rows.start, self.hi - self.lo)


def _blocks(grid: FrameGrid) -> list[_Block]:
    """The grid cut into blocks of SWEEP_BLOCKS `stft_blocks` blocks, one
    block with no frames when the grid has none, so the blocks' [lo, split)
    ranges tile the whole signal."""
    step = SWEEP_BLOCKS * block_frames(grid.frame_len)
    blocks = []
    for first in range(0, max(grid.num_frames, 1), step):
        end = min(first + step, grid.num_frames)
        if end < grid.num_frames:
            split, hi = end * grid.frame_shift, grid.sample_span(first, end - 1)[1]
        else:
            split = hi = grid.total_samples
        blocks.append(_Block(slice(first, end), first * grid.frame_shift, split, hi))
    return blocks


@dataclass
class _FirstSweep:
    """What the first sweep leaves for the second one and the VAD stage,
    filled in as it goes: per-frame arrays, the noise segments to zero, the
    high-pass state at each block's first sample, and the last block's
    high-passed samples, which the second sweep zeroes in place instead of
    filtering them again."""

    grid: FrameGrid
    blocks: list[_Block]
    e1: np.ndarray
    starts: list[np.ndarray] = field(default_factory=list)
    last: AudioBuffer | None = None
    mask: np.ndarray | None = None
    zeroed: list[Segment] = field(default_factory=list)

    def high_passed(self, audio: AudioBuffer, cfg: RvadConfig) -> Iterator[tuple[AudioBuffer, FrameGrid]]:
        """Each block's high-passed samples and the grid of its frames on
        them, keeping the filter state at each block's first sample, the
        frame energies and the last block's samples on the way.

        A block's own samples are filtered on from the previous block's
        state; the samples after them that its last frames also read are
        filtered from a copy of that state, so no high-passed signal longer
        than a block is ever held.
        """
        state = HighpassState()
        for block in self.blocks:
            self.starts.append(state.zi)
            own = _highpassed(audio, block.lo, block.split, cfg, state)
            halo = _highpassed(audio, block.split, block.hi, cfg, HighpassState(state.zi))
            # the last block has no halo; a copy of its samples would cost a
            # fresh allocation, which doubled page faults over a batch of files
            filtered = own
            if len(halo):
                filtered = AudioBuffer._trusted(np.concatenate([own.samples, halo.samples]), audio.sample_rate_hz)
            local = block.grid(self.grid)
            self.e1[block.rows] = frame_energy(filtered, local)
            self.last = filtered
            yield filtered, local


def _first_sweep(audio: AudioBuffer, cfg: RvadConfig, voicing: np.ndarray | None) -> _FirstSweep:
    """High-pass, frame energies and voicing one block at a time, then the
    features, the high-energy segments and the noise segments among them."""
    if audio.sample_rate_hz < MIN_SAMPLE_RATE_HZ:
        raise ValueError(f"sample rate must be >= {MIN_SAMPLE_RATE_HZ} Hz")
    grid = make_grid(audio, cfg.frame_len_ms, cfg.frame_shift_ms)
    first = _FirstSweep(grid, _blocks(grid), np.empty(grid.num_frames))
    pieces = first.high_passed(audio, cfg)
    if voicing is not None:
        first.mask = np.asarray(voicing, dtype=bool)
        if len(first.mask) != grid.num_frames:
            raise ValueError(f"voicing mask has {len(first.mask)} frames, expected {grid.num_frames}")
        for _ in pieces:
            pass
    elif cfg.mode == "fast":
        first.mask = sft_voicing(pieces, cfg.theta_sft)
    else:
        first.mask = detect_pitch_autocorr(pieces, cfg.pitch_f_min, cfg.pitch_f_max, cfg.pitch_rho)
    feats = compute_features(first.e1, cfg.super_len, cfg.smooth_n, cfg.noise_forget)
    he_segs = dn.detect_high_energy(feats, cfg.super_len, cfg.alpha, cfg.he_threshold_basis)
    first.zeroed = dn.noise_segments(he_segs, first.mask, cfg.min_pitch_frames)
    return first


def _highpassed(audio: AudioBuffer, lo: int, hi: int, cfg: RvadConfig, state: HighpassState) -> AudioBuffer:
    """Samples [lo, hi) of the caller's signal, high-passed on from `state`."""
    return highpass(AudioBuffer._trusted(audio.read(lo, hi), audio.sample_rate_hz), cfg.hpf_cutoff_hz, state)


def _second_sweep(audio, first: _FirstSweep, cfg: RvadConfig, noise=None, touched_only=False):
    """Each block high-passed again from its stored state (the last block's
    samples are at hand), its noise segments zeroed and, with enhancement
    on, taken through STFT, noise tracking, subtraction and overlap-add,
    carrying the tracker and the open sums.

    Yields the output in consecutive pieces, each with its block and the
    block's zeroed samples: with enhancement, what `dn.reconstruct` finishes
    for each `stft_blocks` block; without it, each block's zeroed samples up
    to the next block's first.  `touched_only` skips the blocks that hold no
    zeroed sample, and rows of the noise track go into `noise` if given.
    """
    grid = first.grid
    # sample spans of the zeroed segments; both ends ascend
    spans = np.array([grid.sample_span(*seg) for seg in first.zeroed], dtype=np.int64).reshape(-1, 2)
    frozen = segments_to_mask(first.zeroed, grid.num_frames) if cfg.enhance == "msne-mod" else None
    tracker, ola = dn.MsneState(), dn.OverlapAddState()
    for block, zi in zip(first.blocks, first.starts):
        hit = slice(np.searchsorted(spans[:, 1], block.lo, "right"), np.searchsorted(spans[:, 0], block.hi))
        if touched_only and hit.start >= hit.stop:
            continue
        if block is first.blocks[-1]:
            filtered = first.last
        else:
            filtered = _highpassed(audio, block.lo, block.hi, cfg, HighpassState(zi))
        dn.zero_segments(filtered, grid, first.zeroed[hit], block.lo)
        if cfg.enhance == "none":
            yield block, filtered, filtered.samples[: block.split - block.lo]
            continue
        for rows, spec in stft_blocks(filtered, block.grid(grid)):
            rows = slice(block.rows.start + rows.start, block.rows.start + rows.stop)
            track = dn.msne_noise_track(
                spec,
                None if frozen is None else frozen[rows],
                cfg.msne_smoothing,
                cfg.msne_bias,
                cfg.msne_window_frames,
                tracker,
            )
            if noise is not None:
                noise[rows] = track
            dn.spectral_subtract(spec, track, cfg.subtract_floor)
            if cfg.enhance == "msne-mod":
                dn.lowfreq_suppress(spec, cfg.lowfreq_cutoff_hz)
            yield block, filtered, dn.reconstruct(spec, grid, ola).samples


def _energies(audio: AudioBuffer, first: _FirstSweep, cfg: RvadConfig) -> np.ndarray:
    """Frame energies of the second sweep's output, a few frames behind it.

    Without enhancement a frame's energy changes only where samples were
    zeroed, so only the blocks holding zeroed samples are visited and every
    other frame keeps its first-sweep energy, the same bits.  Filtering and
    framing every block again took 0.46 ms more per 5 s 16 kHz file, about
    14 % of the file's time in fast mode, and 16 instead of 2 ms per 30 s
    48 kHz clip.
    """
    grid = first.grid
    if cfg.enhance == "none":
        e2 = first.e1.copy()
        for block, filtered, _ in _second_sweep(audio, first, cfg, touched_only=True):
            e2[block.rows] = frame_energy(filtered, block.grid(grid))
        return e2
    flen, shift = grid.frame_len, grid.frame_shift
    e2 = np.empty(grid.num_frames)
    # the finished samples from frame `done`'s first sample on
    done, pending = 0, np.empty(0)
    for _, _, finished in _second_sweep(audio, first, cfg):
        pending = np.concatenate([pending, finished])
        ready = min(grid.num_frames, (done * shift + len(pending) - flen) // shift + 1) - done
        if ready > 0:
            piece = AudioBuffer._trusted(pending, audio.sample_rate_hz)
            e2[done : done + ready] = frame_energy(piece, FrameGrid(flen, shift, ready, len(pending)))
            pending = pending[ready * shift :]
            done += ready
    return e2


def _labels(mask: np.ndarray, e2: np.ndarray, cfg: RvadConfig) -> np.ndarray:
    """The VAD stage: segment decisions inside the extended pitch segments,
    then post-processing."""
    pitch_segments = mask_to_segments(mask)
    extended = extend_segments(pitch_segments, cfg.ext_frames, len(mask))
    labels = np.zeros(len(mask), dtype=bool)
    for s, t in extended:
        labels[s : t + 1] = segment_vad(e2[s : t + 1], mask[s : t + 1], cfg.beta, cfg.smooth_n)
    return post_process(labels, pitch_segments, e2, cfg)


def run_rvad(audio: AudioBuffer, cfg: RvadConfig | None = None, voicing: np.ndarray | None = None) -> VadResult:
    """Run the full VAD pipeline on one utterance; an utterance shorter than
    one frame gets no labels.

    `voicing` optionally injects an externally computed per-frame voiced
    mask in place of the built-in detectors.  Two sweeps over blocks of the
    caller's samples keep O(frames) state: the enhanced signal is never
    held, only its frame energies, and a buffer from `read_wav` is decoded
    from its file a block at a time.  `run_denoise` gives the waveform.
    """
    cfg = cfg or RvadConfig()
    first = _first_sweep(audio, cfg, voicing)
    labels = _labels(first.mask, _energies(audio, first, cfg), cfg)
    return VadResult(labels, mask_to_segments(labels), cfg.frame_shift_ms, cfg.frame_len_ms)


def run_denoise(
    audio: AudioBuffer, cfg: RvadConfig | None = None, voicing: np.ndarray | None = None
) -> tuple[AudioBuffer, Optional[np.ndarray]]:
    """Both denoising passes only; returns the enhanced audio and the noise
    power track per (frame, bin), None when enhancement is off.

    The same two sweeps as `run_rvad`, with the finished samples written
    into the output.  With enhancement on, samples past the last frame come
    back as zeros: input shorter than one frame gives all zeros and a
    (0, bins) track.
    """
    cfg = cfg or RvadConfig()
    return _denoise(audio, _first_sweep(audio, cfg, voicing), cfg)


def _denoise(audio: AudioBuffer, first: _FirstSweep, cfg: RvadConfig) -> tuple[AudioBuffer, Optional[np.ndarray]]:
    """The second sweep's finished samples put in place, and its noise track."""
    grid = first.grid
    out = np.zeros(grid.total_samples)
    noise = None if cfg.enhance == "none" else np.empty((grid.num_frames, next_pow2(grid.frame_len) // 2 + 1))
    done = 0
    for _, _, finished in _second_sweep(audio, first, cfg, noise):
        out[done : done + len(finished)] = finished
        done += len(finished)
    return AudioBuffer._trusted(out, audio.sample_rate_hz), noise


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
    return run_rvad(read_wav(path), cfg)


def run_batch(paths, cfg: RvadConfig | None = None, workers: int = 1) -> list[BatchItem]:
    """VAD over many files; output order follows the input and per-file
    failures are reported without aborting the batch.

    Batch results carry labels and segments; use run_denoise when the
    enhanced waveform itself is needed.  At most one
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
