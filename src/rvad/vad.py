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


class _Framed(NamedTuple):
    """A block's high-passed samples, their frames' grid and energies: a voicing detector's input."""

    filtered: AudioBuffer
    grid: FrameGrid
    energies: np.ndarray


class _Filtered(NamedTuple):
    """A block's high-passed samples and the next block's `zi`."""

    filtered: AudioBuffer
    zi: tuple[float, float] | None


class _Output(NamedTuple):
    """A piece of sweep 2's output, with its sweep block and that block's zeroed samples."""

    block: Block
    filtered: AudioBuffer
    finished: np.ndarray


@dataclass
class _Run:
    """The record of one run, each field filled by the stage that decides
    it: sweep 1 (`_first_sweep`) the grid, its `blocks`, the frame energies
    `e1`, the high-pass `zi` at each block's first sample (`starts`), the
    voicing `mask`, the `high_energy` segments and the noise segments among
    them (`zeroed`); `_run` the `pitch` segments and their extension
    (`extended`); the VAD stage (`_labels`) the segment decisions (`raw`)
    and the post-processed `labels`.  Between the sweeps a one-block
    utterance also keeps its high-passed `samples`, a view of this thread's
    "filtered" work array that sweep 2 zeroes in place while it is the
    stretch last handed out (else it filters again from `zi`), and in fast
    mode with enhancement on the `spectra` its voicing took, at most
    SWEEP_BLOCKS * BLOCK_BYTES, which sweep 2 takes once.  Once `_run`
    returns neither is held, and no field is a view of a work array."""

    grid: FrameGrid
    blocks: list[Block]
    e1: np.ndarray
    starts: list[tuple[float, float] | None] = field(default_factory=list)
    samples: AudioBuffer | None = None
    mask: np.ndarray | None = None
    high_energy: list[Segment] = field(default_factory=list)
    zeroed: list[Segment] = field(default_factory=list)
    spectra: list[Spectrogram] | None = None
    pitch: list[Segment] = field(default_factory=list)
    extended: list[Segment] = field(default_factory=list)
    raw: np.ndarray | None = None
    labels: np.ndarray | None = None

    def high_passed(self, audio: AudioBuffer, cfg: RvadConfig) -> Iterator[_Framed]:
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
            yield _Framed(filtered, block.grid, self.e1[block.rows])


def _first_sweep(audio: AudioBuffer, cfg: RvadConfig, voicing: np.ndarray | None) -> _Run:
    """High-pass, frame energies and voicing one block at a time, then the
    features, the high-energy segments and the noise segments among them."""
    if audio.sample_rate_hz < MIN_SAMPLE_RATE_HZ:
        raise ValueError(f"sample rate must be >= {MIN_SAMPLE_RATE_HZ} Hz")
    grid = make_grid(audio, cfg.frame_len_ms, cfg.frame_shift_ms)
    run = _Run(grid, _blocks(grid), np.empty(grid.num_frames))
    pieces = run.high_passed(audio, cfg)
    if voicing is not None:
        run.mask = np.asarray(voicing, dtype=bool)
        if len(run.mask) != grid.num_frames:
            raise ValueError(f"voicing mask has {len(run.mask)} frames, expected {grid.num_frames}")
        for _ in pieces:
            pass
    elif cfg.mode == "fast":
        walks = (_spectra(piece.filtered, block, grid) for piece, block in zip(pieces, run.blocks))
        spectra = (spec for walk in walks for _, spec in walk)
        # Only a one-block utterance's spectra are kept: the last block's of
        # a longer input, held through the whole second sweep, raised the
        # peak of `run_rvad` on two minutes at 16 kHz from 3.17 to 4.08 MB.
        if cfg.enhance != "none" and len(run.blocks) == 1:
            spectra = run.spectra = list(spectra)
        run.mask = sft_voicing(spectra, cfg.theta_sft)
    else:
        run.mask = detect_pitch_autocorr(pieces, cfg.pitch_f_min, cfg.pitch_f_max, cfg.pitch_rho)
    feats = compute_features(run.e1, cfg.super_len, cfg.smooth_n, cfg.noise_forget)
    run.high_energy = dn.detect_high_energy(feats, cfg.super_len, cfg.alpha)
    run.zeroed = dn.noise_segments(run.high_energy, run.mask, cfg.min_pitch_frames)
    return run


def _highpassed(audio: AudioBuffer, block: Block, cfg: RvadConfig, zi: tuple[float, float] | None) -> _Filtered:
    """The block's samples [lo, hi) of the caller's signal, high-passed on
    from `zi` into this thread's work array, and the next block's
    `zi`: the input and output samples just before `split`, None for an
    empty signal.  A file's samples are decoded into a work array too."""
    x = audio.read(block.lo, block.hi, _scratch("decoded", block.hi - block.lo) if audio.reads_file else None)
    piece = AudioBuffer._trusted(x, audio.sample_rate_hz)
    filtered = highpass(piece, cfg.hpf_cutoff_hz, zi, out=_scratch("filtered", len(x)))
    end = block.split - block.lo - 1
    return _Filtered(filtered, (x[end], filtered.samples[end]) if end >= 0 else None)


def _second_sweep(audio, run: _Run, cfg: RvadConfig, noise=None, touched_until: int | None = None) -> Iterator[_Output]:
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
    grid = run.grid
    # sample spans of the zeroed segments; both ends ascend
    spans = np.array([grid.sample_span(*seg) for seg in run.zeroed], dtype=np.int64).reshape(-1, 2)
    frozen = segments_to_mask(run.zeroed, grid.num_frames) if cfg.enhance == "msne-mod" else None
    tracker, ola = dn.MsneState(), dn.OverlapAddState()
    # zeroing and subtraction work in place, so what is kept serves one sweep
    samples, run.samples = run.samples, None
    if samples is not None and samples.samples is not getattr(_lent, "filtered", None):
        samples = None
    kept, run.spectra = run.spectra, None
    for block, zi in zip(run.blocks, run.starts):
        hit = _touching(spans, block.lo, block.hi)
        if touched_until is not None:
            if block.rows.start > touched_until:
                break
            if hit.start >= hit.stop:
                continue
        filtered = _highpassed(audio, block, cfg, zi).filtered if samples is None else samples
        dn.zero_segments(filtered, grid, run.zeroed[hit], block.lo)
        if cfg.enhance == "none":
            yield _Output(block, filtered, filtered.samples[: block.split - block.lo])
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
            yield _Output(block, filtered, dn.reconstruct(spec, grid, ola).samples)


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


def _energies(audio: AudioBuffer, run: _Run, cfg: RvadConfig, last: int | None = None) -> np.ndarray:
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
    grid = run.grid
    if last is None:
        last = grid.num_frames - 1
    if cfg.enhance == "none":
        e2 = run.e1.copy()
        for out in _second_sweep(audio, run, cfg, touched_until=last):
            e2[out.block.rows] = frame_energy(out.filtered, out.block.grid)
        return e2
    flen, shift = grid.frame_len, grid.frame_shift
    e2 = np.empty(grid.num_frames)
    # the finished samples from frame `done`'s first sample on
    done, pending = 0, np.empty(0)
    for out in _second_sweep(audio, run, cfg):
        pending = np.concatenate([pending, out.finished])
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


def _labels(run: _Run, e2: np.ndarray, cfg: RvadConfig) -> None:
    """The VAD stage: segment decisions inside the extended segments, then
    post-processing."""
    run.raw = np.zeros(len(run.mask), dtype=bool)
    for s, t in run.extended:
        run.raw[s : t + 1] = segment_vad(e2[s : t + 1], run.mask[s : t + 1], cfg.beta, cfg.smooth_n)
    run.labels = post_process(run.raw, run.pitch, e2, cfg)


def _run(audio: AudioBuffer, cfg: RvadConfig, voicing: np.ndarray | None) -> _Run:
    """Both sweeps and the VAD stage, each stage's decisions kept in the record."""
    run = _first_sweep(audio, cfg, voicing)
    num = run.grid.num_frames
    run.pitch = mask_to_segments(run.mask)
    if run.pitch:
        run.extended = extend_segments(run.pitch, cfg.ext_frames, num)
        # the last frame the VAD stage reads: the last extended segment's end or the near rule's reach
        last = min(num - 1, max(run.extended[-1][1], run.pitch[-1][1] + cfg.pp_near_right))
        _labels(run, _energies(audio, run, cfg, last), cfg)
    else:  # no speech, and no second sweep
        run.raw = run.labels = np.zeros(num, dtype=bool)
    run.samples = run.spectra = None  # what a one-block utterance keeps for a second sweep that did not run
    return run


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
    return VadResult(_run(audio, cfg, voicing).labels, cfg.frame_shift_ms, cfg.frame_len_ms)


def run_denoise(audio: AudioBuffer, cfg: RvadConfig | None = None, voicing: np.ndarray | None = None) -> Denoised:
    """Both denoising passes only, without the VAD stage.

    The same two sweeps as `run_rvad`, with the finished samples written
    into the output.  With enhancement on, samples past the last frame come
    back as zeros: input shorter than one frame gives all zeros and a
    (0, bins) track.
    """
    cfg = cfg or RvadConfig()
    return _denoise(audio, _first_sweep(audio, cfg, voicing), cfg)


def _denoise(audio: AudioBuffer, run: _Run, cfg: RvadConfig) -> Denoised:
    """The second sweep's finished samples put in place, and its noise track."""
    grid = run.grid
    out = np.zeros(grid.total_samples)
    noise = None if cfg.enhance == "none" else np.empty((grid.num_frames, next_pow2(grid.frame_len) // 2 + 1))
    done = 0
    for piece in _second_sweep(audio, run, cfg, noise):
        out[done : done + len(piece.finished)] = piece.finished
        done += len(piece.finished)
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
