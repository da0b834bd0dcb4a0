"""Segment-based VAD: per-segment decisions, post-processing, and orchestration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import denoise as dn
from .audio_io import AudioBuffer, FrameLabels, read_wav
from .config import RvadConfig
from .dsp import (
    Block,
    FrameGrid,
    Spectrogram,
    _lent,
    _scratch,
    block_frames,
    blocks,
    frame_energy,
    highpass,
    make_grid,
    next_pow2,
    stft,
)
from .features import (
    central_smooth,
    compute_features,
    rank_low_energy,
    weighted_energy_difference,
    log_energy_ratio_db,
)
from .segments import Segment, extend_segments, mask_to_segments, segments_to_mask, widen
from .voicing import detect_pitch_autocorr, sft_voicing

__all__ = [
    "RvadConfig", "VadResult", "Denoised", "BatchItem", "segment_vad", "post_process",
    "run_rvad", "run_denoise", "run_batch",
]

MIN_SAMPLE_RATE_HZ = 4000

# Each sweep takes this many STFT blocks of `block_frames` frames at a time:
# 512 frames (5.12 s) at 8 kHz, 256 (2.56 s) at 16 kHz and 64 (0.64 s) at
# 44.1 and 48 kHz, at most about 330 KB of float64 samples.  Every block
# costs high-pass calls and Python per sweep: with one STFT block per
# sweep block, 204 four-second 8 kHz files in fast mode took 43 % longer
# than with the whole signal at once.  Twice this size raised the peak
# of `run_rvad` on two minutes at 16 kHz from 2.7 to 3.4 MB.
SWEEP_BLOCKS = 4


class VadResult(FrameLabels):
    """Per-frame speech labels with their frame geometry, and the same decisions as segments."""

    @property
    def speech_segments(self) -> list[Segment]:
        return mask_to_segments(self.labels)

    @property
    def num_speech_frames(self) -> int:
        return int(np.count_nonzero(self.labels))


class Denoised(NamedTuple):
    """The enhanced audio, and the noise power per (frame, bin), None when enhancement is off."""

    audio: AudioBuffer
    noise: Optional[np.ndarray]


def segment_vad(
    e_seg: np.ndarray, voiced_seg: np.ndarray, beta: float = RvadConfig.beta, smooth_n: int = RvadConfig.smooth_n
) -> np.ndarray:
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
    del snr_db  # one segment-long array fewer at the smoothing's peak
    d_smooth = central_smooth(d, smooth_n)
    theta = beta * d_smooth[voiced_seg].mean()
    return d_smooth > theta


def post_process(raw_labels: np.ndarray, pitch_segments: list[Segment], e: np.ndarray, cfg: RvadConfig) -> np.ndarray:
    """Hangover-style cleanup around pitch segments plus low-energy segment removal.

    Frames far from every pitch segment (more than `pp_far_left` before its
    start and more than `pp_far_right` after its end) are forced
    non-speech; frames hugging or inside a pitch segment (within
    `pp_near_left` before its start or `pp_near_right` after its end) are
    forced speech; finally, speech segments whose mean energy falls below
    `energy_ratio` times the mean over all labeled speech frames are dropped.
    Each of the first two rules is the mask of the pitch segments widened by
    its reach, built one at a time.
    """
    labels = np.asarray(raw_labels, dtype=bool)
    num = len(labels)
    labels = labels & segments_to_mask(widen(pitch_segments, cfg.pp_far_left, cfg.pp_far_right, num), num)
    labels |= segments_to_mask(widen(pitch_segments, cfg.pp_near_left, cfg.pp_near_right, num), num)

    e = np.asarray(e, dtype=np.float64)
    speech_segments = mask_to_segments(labels)
    if speech_segments:
        overall = e[labels].mean()
        for s, t in speech_segments:
            if e[s : t + 1].mean() < cfg.energy_ratio * overall:
                labels[s : t + 1] = False
    return labels


def _blocks(grid: FrameGrid) -> list[Block]:
    """The grid cut into the sweeps' blocks of SWEEP_BLOCKS STFT blocks."""
    return blocks(grid, SWEEP_BLOCKS * block_frames(grid.frame_len))


@dataclass
class _FirstSweep:
    """What the first sweep leaves for the second one and the VAD stage,
    filled in as it goes: per-frame arrays, the noise segments to zero and
    the high-pass `zi` at each block's first sample.  An utterance of one
    block also keeps its high-passed samples, which the second sweep zeroes
    in place instead of filtering them again, and in fast mode with
    enhancement on the spectra its voicing took, one per STFT block, at most
    SWEEP_BLOCKS * BLOCK_BYTES; the second sweep takes them once.  The
    samples are a view of this thread's "filtered" work array, used only
    while it is the stretch last handed out, else filtered again from `zi`.
    A longer utterance keeps neither: each of its blocks is filtered again
    from its `zi`, the same bits."""

    grid: FrameGrid
    blocks: list[Block]
    e1: np.ndarray
    starts: list[tuple[float, float] | None] = field(default_factory=list)
    samples: AudioBuffer | None = None
    mask: np.ndarray | None = None
    zeroed: list[Segment] = field(default_factory=list)
    spectra: list[Spectrogram] | None = None

    def high_passed(
        self, audio: AudioBuffer, cfg: RvadConfig
    ) -> Iterator[tuple[AudioBuffer, FrameGrid, np.ndarray]]:
        """Each block's high-passed samples, the grid of its frames on them
        and their energies, keeping the filter's `zi` at each block's first
        sample, the frame energies and a one-block utterance's samples on
        the way.

        A block's samples [lo, hi) are filtered in one call.  Those from
        `split` on, which its last frames also read, are filtered again as
        the next block's own, so no high-passed signal longer than a block
        is ever held.
        """
        zi = None
        for block in self.blocks:
            self.starts.append(zi)
            filtered, zi = _highpassed(audio, block, cfg, zi)
            self.e1[block.rows] = frame_energy(filtered, block.grid)
            if len(self.blocks) == 1:  # nothing filters into its work array before the second sweep
                self.samples = filtered
            yield filtered, block.grid, self.e1[block.rows]


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
        walks = (_spectra(filtered, block, grid) for (filtered, *_), block in zip(pieces, first.blocks))
        spectra = (spec for walk in walks for _, spec in walk)
        # Only a one-block utterance's spectra are kept: the last block's of
        # a longer input, held through the whole second sweep, raised the
        # peak of `run_rvad` on two minutes at 16 kHz from 3.17 to 4.08 MB.
        if cfg.enhance != "none" and len(first.blocks) == 1:
            spectra = first.spectra = list(spectra)
        first.mask = sft_voicing(spectra, cfg.theta_sft)
    else:
        first.mask = detect_pitch_autocorr(pieces, cfg.pitch_f_min, cfg.pitch_f_max, cfg.pitch_rho)
    feats = compute_features(first.e1, cfg.super_len, cfg.smooth_n, cfg.noise_forget)
    he_segs = dn.detect_high_energy(feats, cfg.super_len, cfg.alpha, cfg.he_threshold_basis)
    first.zeroed = dn.noise_segments(he_segs, first.mask, cfg.min_pitch_frames)
    return first


def _highpassed(
    audio: AudioBuffer, block: Block, cfg: RvadConfig, zi: tuple[float, float] | None
) -> tuple[AudioBuffer, tuple[float, float] | None]:
    """The block's samples [lo, hi) of the caller's signal, high-passed on
    from `zi` into this thread's work array, and the next block's
    `zi`: the input and output samples just before `split`, None for an
    empty signal.  A file's samples are decoded into a work array too."""
    x = audio.read(block.lo, block.hi, _scratch("decoded", block.hi - block.lo) if audio.reads_file else None)
    piece = AudioBuffer._trusted(x, audio.sample_rate_hz)
    filtered = highpass(piece, cfg.hpf_cutoff_hz, zi, out=_scratch("filtered", len(x)))
    end = block.split - block.lo - 1
    return filtered, (x[end], filtered.samples[end]) if end >= 0 else None


def _second_sweep(audio, first: _FirstSweep, cfg: RvadConfig, noise=None, touched_until: int | None = None):
    """Each block high-passed again from its stored `zi` (a one-block
    utterance's samples are at hand), its noise segments zeroed and, with
    enhancement on, taken through STFT, noise tracking, subtraction and
    overlap-add, carrying the tracker and the open sums.

    Yields the output in consecutive pieces, each with its block and the
    block's zeroed samples: with enhancement, what `dn.reconstruct` finishes
    for each STFT block; without it, each block's zeroed samples up
    to the next block's first.  `touched_until`, if given, skips the blocks
    that hold no zeroed sample and ends before the first block that starts
    after that frame; rows of the noise track go into `noise` if given.
    `_spectra` decides where each block's spectrum comes from.
    """
    grid = first.grid
    # sample spans of the zeroed segments; both ends ascend
    spans = np.array([grid.sample_span(*seg) for seg in first.zeroed], dtype=np.int64).reshape(-1, 2)
    frozen = segments_to_mask(first.zeroed, grid.num_frames) if cfg.enhance == "msne-mod" else None
    tracker, ola = dn.MsneState(), dn.OverlapAddState()
    # zeroing and subtraction work in place, so what is kept serves one sweep
    samples, first.samples = first.samples, None
    if samples is not None and samples.samples is not getattr(_lent, "filtered", None):
        samples = None
    kept, first.spectra = first.spectra, None
    for block, zi in zip(first.blocks, first.starts):
        hit = _touching(spans, block.lo, block.hi)
        if touched_until is not None:
            if block.rows.start > touched_until:
                break
            if hit.start >= hit.stop:
                continue
        filtered = _highpassed(audio, block, cfg, zi)[0] if samples is None else samples
        dn.zero_segments(filtered, grid, first.zeroed[hit], block.lo)
        if cfg.enhance == "none":
            yield block, filtered, filtered.samples[: block.split - block.lo]
            continue
        for rows, spec in _spectra(filtered, block, grid, kept, spans):
            power = np.abs(spec.frames) ** 2
            track = dn.msne_noise_track(
                spec,
                None if frozen is None else frozen[rows],
                cfg.msne_smoothing,
                cfg.msne_bias,
                cfg.msne_window_frames,
                tracker,
                power,
            )
            if noise is not None:
                noise[rows] = track
            dn.spectral_subtract(spec, track, cfg.subtract_floor, power)
            if cfg.enhance == "msne-mod":
                dn.lowfreq_suppress(spec, cfg.lowfreq_cutoff_hz)
            yield block, filtered, dn.reconstruct(spec, grid, ola).samples


def _touching(spans: np.ndarray, lo: int, hi: int) -> slice:
    """The rows of `spans`, sample spans whose both ends ascend, that
    overlap samples [lo, hi)."""
    return slice(np.searchsorted(spans[:, 1], lo, "right"), np.searchsorted(spans[:, 0], hi))


def _spectra(
    filtered: AudioBuffer, block: Block, grid: FrameGrid, kept: list[Spectrogram] | None = None, spans=None
) -> Iterator[tuple[slice, Spectrogram]]:
    """The spectra of a sweep block's samples, one STFT block of
    `block_frames` frames at a time, with its rows of the utterance's grid:
    the first sweep's for voicing, the second's of the zeroed samples.

    `kept` holds one spectrum per STFT block that fast-mode voicing took of
    a one-block utterance before its noise segments were zeroed: a block no
    zeroed span in `spans` touches has the same samples, so its kept
    spectrum is `stft`'s, bit for bit; the others are taken again."""
    for i, part in enumerate(blocks(grid, block_frames(grid.frame_len), block.rows.start, block.rows.stop)):
        if kept is not None and (hit := _touching(spans, part.lo, part.hi)).start >= hit.stop:
            yield part.rows, kept[i]
        else:
            piece = filtered.samples[part.lo - block.lo : part.hi - block.lo]
            yield part.rows, stft(AudioBuffer._trusted(piece, filtered.sample_rate_hz), part.grid)


def _energies(audio: AudioBuffer, first: _FirstSweep, cfg: RvadConfig, last: int | None = None) -> np.ndarray:
    """Frame energies of the second sweep's output, a few frames behind it,
    up to frame `last` (None: the last frame).  The sweep stops after the
    block that completes that frame's energy; the frames it leaves are NaN
    with enhancement and keep their first-sweep energies without.

    Without enhancement a frame's energy changes only where samples were
    zeroed, so only the blocks holding zeroed samples are visited and every
    other frame keeps its first-sweep energy, the same bits.  Filtering and
    framing every block again took 0.46 ms more per 5 s 16 kHz file, about
    14 % of the file's time in fast mode, and 16 instead of 2 ms per 30 s
    48 kHz clip.
    """
    grid = first.grid
    if last is None:
        last = grid.num_frames - 1
    if cfg.enhance == "none":
        e2 = first.e1.copy()
        for block, filtered, _ in _second_sweep(audio, first, cfg, touched_until=last):
            e2[block.rows] = frame_energy(filtered, block.grid)
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
        if done > last:
            break
    e2[done:] = np.nan
    return e2


def _last_read(pitch: list[Segment], cfg: RvadConfig, num_frames: int) -> int:
    """The last frame whose energy the VAD stage reads: the end of the last
    extended segment or, if later, of the near rule's reach past the last
    pitch segment, which there must be."""
    return min(num_frames - 1, pitch[-1][1] + max(cfg.ext_frames, cfg.pp_near_right))


def _labels(mask: np.ndarray, e2: np.ndarray, cfg: RvadConfig, pitch: list[Segment]) -> np.ndarray:
    """The VAD stage: segment decisions inside the pitch segments extended
    from both ends, then post-processing."""
    labels = np.zeros(len(mask), dtype=bool)
    for s, t in extend_segments(pitch, cfg.ext_frames, len(mask)):
        labels[s : t + 1] = segment_vad(e2[s : t + 1], mask[s : t + 1], cfg.beta, cfg.smooth_n)
    return post_process(labels, pitch, e2, cfg)


def run_rvad(audio: AudioBuffer, cfg: RvadConfig | None = None, voicing: np.ndarray | None = None) -> VadResult:
    """Run the full VAD pipeline on one utterance; an utterance shorter than
    one frame gets no labels.

    `voicing` optionally injects an externally computed per-frame voiced
    mask in place of the built-in detectors.  Two sweeps over blocks of the
    caller's samples keep O(frames) state: the enhanced signal is never
    held, only its frame energies, and a buffer from `read_wav` is decoded
    from its file a block at a time.  The second sweep ends at the last
    frame the VAD stage reads, and does not run when there is no pitch
    segment.  `run_denoise` gives the waveform.
    """
    cfg = cfg or RvadConfig()
    first = _first_sweep(audio, cfg, voicing)
    pitch = mask_to_segments(first.mask)
    if pitch:
        e2 = _energies(audio, first, cfg, _last_read(pitch, cfg, first.grid.num_frames))
        labels = _labels(first.mask, e2, cfg, pitch)
    else:  # no speech, and no second sweep
        labels = np.zeros(first.grid.num_frames, dtype=bool)
    return VadResult(labels, cfg.frame_shift_ms, cfg.frame_len_ms)


def run_denoise(audio: AudioBuffer, cfg: RvadConfig | None = None, voicing: np.ndarray | None = None) -> Denoised:
    """Both denoising passes only, without the VAD stage.

    The same two sweeps as `run_rvad`, with the finished samples written
    into the output.  With enhancement on, samples past the last frame come
    back as zeros: input shorter than one frame gives all zeros and a
    (0, bins) track.
    """
    cfg = cfg or RvadConfig()
    return _denoise(audio, _first_sweep(audio, cfg, voicing), cfg)


def _denoise(audio: AudioBuffer, first: _FirstSweep, cfg: RvadConfig) -> Denoised:
    """The second sweep's finished samples put in place, and its noise track."""
    grid = first.grid
    out = np.zeros(grid.total_samples)
    noise = None if cfg.enhance == "none" else np.empty((grid.num_frames, next_pow2(grid.frame_len) // 2 + 1))
    done = 0
    for _, _, finished in _second_sweep(audio, first, cfg, noise):
        out[done : done + len(finished)] = finished
        done += len(finished)
    return Denoised(AudioBuffer._trusted(out, audio.sample_rate_hz), noise)


@dataclass
class BatchItem:
    """Outcome for one file of a batch run: a result or an error string."""

    path: str
    result: Optional[VadResult] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _process_one(path: str, cfg: RvadConfig, voicing: np.ndarray | None = None, fit: bool = False) -> BatchItem:
    """One file's VAD, with its failure as the item's error.  With `fit`,
    `voicing` is cut to the file's frames or padded with unvoiced ones."""
    try:
        audio = read_wav(path)
        if fit:
            n = make_grid(audio, cfg.frame_len_ms, cfg.frame_shift_ms).num_frames
            voicing = np.pad(voicing[:n], (0, max(n - len(voicing), 0)))
        return BatchItem(path, result=run_rvad(audio, cfg, voicing))
    except Exception as exc:
        return BatchItem(path, error=f"{type(exc).__name__}: {exc}")


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
    if workers <= 1:
        return [_process_one(path, cfg) for path in paths]
    items: list[BatchItem] = []
    # loaded here: concurrent.futures.process and multiprocessing took
    # about 20 ms of every `import rvad`
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_process_one, path, cfg) for path in paths]
        for path, future in zip(paths, futures):
            try:
                items.append(future.result())
            except Exception as exc:  # the worker process died
                items.append(BatchItem(path, error=f"{type(exc).__name__}: {exc}"))
    return items
