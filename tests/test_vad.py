"""Per-segment VAD decisions, post-processing, and the full pipeline."""

import ast
import concurrent.futures
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rvad
from rvad import AudioBuffer, RvadConfig, read_wav, run_batch, run_denoise, run_rvad, write_wav
from rvad.config import ENHANCERS, MODES
from rvad.dsp import FrameGrid, block_frames, frame_energy, highpass, make_grid, stft
from rvad.segments import extend_segments, mask_to_segments, segments_to_mask
from rvad.vad import (
    SWEEP_BLOCKS,
    _blocks,
    _denoise,
    _energies,
    _first_sweep,
    _labels,
    _run,
    _Run,
    _spectra,
    post_process,
    segment_vad,
)
from rvad.voicing import sft_voicing

from oracles import front_whole, post_process_whole
from synth import FS, pulse_train, random_bursts, utterance, white_noise


def _segment_vad_oracle(e_seg, voiced_seg, beta=0.4, n=18):
    """Reference loops over the per-segment decision definition."""
    e_seg = list(map(float, e_seg))
    m = len(e_seg)
    k = int(np.ceil(0.10 * m))
    noise = sorted(e_seg)[k - 1]
    snr = [10 * np.log10(max(x, 1e-12) / max(noise, 1e-12)) for x in e_seg]
    d = [0.0] + [np.sqrt(abs(e_seg[i] - e_seg[i - 1]) * max(snr[i], 0.0)) for i in range(1, m)]
    d_bar = []
    for i in range(m):
        lo, hi = max(i - n, 0), min(i + n, m - 1)
        d_bar.append(sum(d[lo : hi + 1]) / (hi - lo + 1))
    voiced_vals = [v for v, flag in zip(d_bar, voiced_seg) if flag]
    theta = beta * (sum(voiced_vals) / len(voiced_vals))
    return np.array([v > theta for v in d_bar])


class TestSegmentVad:
    def test_matches_reference_loops(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            m = int(rng.integers(30, 300))
            e_seg = (rng.random(m) * 2) ** 2 + 1e-6
            voiced = rng.random(m) < 0.3
            voiced[rng.integers(0, m)] = True
            got = segment_vad(e_seg, voiced, beta=0.4, smooth_n=18)
            np.testing.assert_array_equal(got, _segment_vad_oracle(e_seg, voiced))

    def test_constant_feature_clears_threshold_everywhere(self):
        # alternating energies far above the in-segment noise floor make the
        # smoothed feature flat at some c > 0 over the interior, and
        # c > 0.4*c keeps all those frames speech; only the first few frames,
        # whose smoothing windows are dominated by the zero-feature head, can
        # fall below the threshold
        e_seg = np.empty(120)
        e_seg[:12] = 1e-3  # rank-10% noise estimate comes from this floor
        e_seg[12::2] = 1e6
        e_seg[13::2] = 2e6
        voiced = np.zeros(120, dtype=bool)
        voiced[30:90] = True
        got = segment_vad(e_seg, voiced, beta=0.4)
        assert got[4:].all()
        np.testing.assert_array_equal(got, _segment_vad_oracle(e_seg, voiced))

    def test_huge_beta_no_speech(self):
        rng = np.random.default_rng(71)
        e_seg = rng.random(100) + 0.1
        voiced = np.ones(100, dtype=bool)
        assert not segment_vad(e_seg, voiced, beta=1e12).any()

    def test_tone_burst_in_silence(self):
        # burst frames come out speech, far-away silence does not
        sig = np.zeros(2 * FS)
        tone = pulse_train(180.0, 0.5, FS, amp=0.4)
        sig[int(0.7 * FS) : int(0.7 * FS) + len(tone)] = tone
        sig += white_noise(2.0, 1e-4, FS, np.random.default_rng(72))
        buf = AudioBuffer(sig, FS)
        grid = make_grid(buf)
        e = frame_energy(buf, grid)
        voiced = np.zeros(grid.num_frames, dtype=bool)
        voiced[72:115] = True  # frames inside the burst
        got = segment_vad(e, voiced, beta=0.4)
        np.testing.assert_array_equal(got, _segment_vad_oracle(e, voiced))
        assert got[75:110].mean() > 0.5
        assert not got[:40].any()
        assert not got[-40:].any()

    def test_beta_monotonicity(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            e_seg = (rng.random(200) * 3) ** 2 + 1e-8
            voiced = rng.random(200) < 0.4
            voiced[0] = True
            prev = None
            for beta in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
                count = int(segment_vad(e_seg, voiced, beta=beta).sum())
                if prev is not None:
                    assert count <= prev
                prev = count

    def test_gain_invariance(self):
        rng = np.random.default_rng(74)
        e_seg = (rng.random(150) + 0.05) ** 2
        voiced = rng.random(150) < 0.5
        voiced[10] = True
        base = segment_vad(e_seg, voiced)
        for g in (0.01, 100.0):
            scaled = segment_vad(g**2 * e_seg, voiced)
            np.testing.assert_array_equal(scaled, base)

    def test_no_voiced_frames_rejected(self):
        with pytest.raises(ValueError):
            segment_vad(np.ones(10), np.zeros(10, dtype=bool))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            segment_vad(np.zeros(0), np.zeros(0, dtype=bool))


class TestPostProcess:
    def _cfg(self):
        return RvadConfig()

    def test_far_frames_forced_nonspeech(self):
        labels = np.ones(300, dtype=bool)
        pitch = [(140, 160)]
        e = np.ones(300)
        out = post_process(labels, pitch, e, self._cfg())
        # frame 40 is 100 before the segment start: beyond both 33 and 47
        assert not out[40]
        assert not out[280]

    def test_near_frames_forced_speech(self):
        labels = np.zeros(300, dtype=bool)
        pitch = [(140, 160)]
        e = np.ones(300)
        out = post_process(labels, pitch, e, self._cfg())
        assert out[137]  # 3 before the start
        assert out[135]  # exactly 5 before
        assert not out[134]  # 6 before
        assert out[172]  # exactly 12 after
        assert not out[173]  # 13 after
        assert out[140:161].all()  # inside the pitch segment

    def test_boundary_of_far_rule(self):
        labels = np.ones(400, dtype=bool)
        pitch = [(200, 210)]
        e = np.ones(400)
        out = post_process(labels, pitch, e, self._cfg())
        assert out[167]  # exactly 33 before the start: not "more than"
        assert not out[166]  # 34 before
        assert out[257]  # exactly 47 after the end
        assert not out[258]  # 48 after

    def test_low_energy_segment_removed(self):
        # derived by hand: two speech islands, one carrying 1% of the energy
        labels = np.zeros(500, dtype=bool)
        pitch = [(100, 120), (300, 320)]
        labels[95:130] = True
        labels[295:330] = True
        e = np.full(500, 1e-9)
        e[95:130] = 1.0
        e[295:330] = 0.01 * 35 / 35  # 1% of the strong island's level
        cfg = self._cfg()
        out = post_process(labels, pitch, e, cfg)
        # mean over speech frames ~ 0.505; threshold 0.05*0.505 ~ 0.025 > 0.01
        assert out[95:130].any()
        assert not out[295:330].any()

    def test_no_pitch_segments_means_no_speech(self):
        labels = np.ones(100, dtype=bool)
        out = post_process(labels, [], np.ones(100), self._cfg())
        assert not out.any()

    def test_empty_sequences(self):
        out = post_process(np.zeros(0, dtype=bool), [], np.zeros(0), self._cfg())
        assert len(out) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        num=st.integers(0, 600),
        pitch_density=st.sampled_from([0.0, 0.01, 0.05, 0.3]),
        raw_density=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        pp=st.lists(st.integers(0, 120), min_size=4, max_size=4),
        energy_ratio=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_vectorised_oracle(self, num, pitch_density, raw_density, pp, energy_ratio, seed):
        # the near and far reaches drawn on both sides of the default
        # `ext_frames`; pitch segments are runs of a random mask, so sorted,
        # disjoint and at least one frame apart
        rng = np.random.default_rng(seed)
        pitch = mask_to_segments(rng.random(num) < pitch_density)
        raw = rng.random(num) < raw_density
        e = (10.0 ** rng.uniform(-6.0, 0.0, num)) * (rng.random(num) < 0.95)
        cfg = RvadConfig(
            pp_far_left=pp[0], pp_far_right=pp[1], pp_near_left=pp[2], pp_near_right=pp[3], energy_ratio=energy_ratio
        )
        assert post_process(raw, pitch, e, cfg).tobytes() == post_process_whole(raw, pitch, e, cfg).tobytes()

    def test_peak_memory_with_many_pitch_segments(self):
        # rules applied as slices between pitch segments: no per-frame
        # index or gap arrays, only the labels and the speech frames' energies
        frames = 1_000_000
        rng = np.random.default_rng(85)
        mask = np.zeros(frames, dtype=bool)
        for start in np.sort(rng.choice(frames // 200, 5000, replace=False)) * 200:
            mask[start : start + int(rng.integers(5, 60))] = True
        pitch = mask_to_segments(mask)
        assert len(pitch) == 5000
        raw = segments_to_mask(extend_segments(pitch, 30, frames), frames)
        e = rng.random(frames) + 0.01
        cfg = self._cfg()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            out = post_process(raw, pitch, e, cfg)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert out.any()
        assert peak <= 1.5 * e.nbytes


class TestRunRvad:
    def test_digital_silence_no_speech(self):
        buf = AudioBuffer(np.zeros(2 * FS), FS)
        for mode in ("full", "fast"):
            r = run_rvad(buf, RvadConfig(mode=mode))
            assert r.num_speech_frames == 0
            assert r.speech_segments == []

    def test_tone_utterance_regression(self):
        # 1 s silence + 2 s of a 150 Hz pulse train + 1 s silence; the tone
        # occupies frames 100..297.  Boundaries recorded at first
        # implementation; the 60-frame extension bounds the slack.
        buf = utterance([(1.0, 2.0, 150.0)], 4.0)
        r = run_rvad(buf, RvadConfig(mode="full", enhance="msne"))
        assert len(r.speech_segments) == 1
        start, end = r.speech_segments[0]
        assert abs(start - 100) <= 60
        assert abs(end - 297) <= 60
        assert (start, end) == (86, 312)  # frozen regression value

        r_fast = run_rvad(buf, RvadConfig(mode="fast", enhance="msne"))
        assert len(r_fast.speech_segments) == 1
        assert r_fast.speech_segments[0] == (86, 316)  # frozen regression value

    def test_labels_match_segments(self):
        buf = utterance([(0.5, 1.0, 170.0)], 2.5, noise_rms=0.01, rng=np.random.default_rng(75))
        r = run_rvad(buf, RvadConfig(enhance="none"))
        np.testing.assert_array_equal(segments_to_mask(r.speech_segments, len(r.labels)), r.labels)

    def test_super_segment_longer_than_the_input(self):
        # a super-segment of 10**6 frames over a few hundred is one
        # super-segment, as one exactly as long as the input is
        buf = utterance([(0.5, 1.0, 170.0)], 2.5, noise_rms=0.01, rng=np.random.default_rng(77))
        num = make_grid(buf).num_frames
        labels = run_rvad(buf, RvadConfig(super_len=num)).labels
        assert labels.any()
        assert run_rvad(buf, RvadConfig(super_len=10**6)).labels.tobytes() == labels.tobytes()

    def test_speech_confined_to_extended_pitch_segments(self):
        rng = np.random.default_rng(76)
        buf = utterance([(0.4, 0.8, 140.0), (2.0, 0.6, 200.0)], 3.5, noise_rms=0.005, rng=rng)
        cfg = RvadConfig(mode="fast", enhance="none")
        r = run_rvad(buf, cfg)
        filtered = highpass(buf, cfg.hpf_cutoff_hz)
        grid = make_grid(filtered)
        mask = sft_voicing([stft(filtered, grid)], cfg.theta_sft)
        extended = segments_to_mask(extend_segments(mask_to_segments(mask), cfg.ext_frames, grid.num_frames), grid.num_frames)
        assert np.all(extended[r.labels])

    def test_empty_and_short_audio(self):
        r = run_rvad(AudioBuffer(np.zeros(0), FS))
        assert len(r.labels) == 0
        r = run_rvad(AudioBuffer(np.zeros(150), FS))  # shorter than one frame
        assert len(r.labels) == 0
        assert r.speech_segments == []
        # the same stages run on no frames, under one frame and one frame
        for n, frames in ((0, 0), (150, 0), (250, 1)):
            audio = AudioBuffer(0.1 * np.random.default_rng(n).standard_normal(n), FS)
            for mode in ("full", "fast"):
                for enhance in ("msne", "msne-mod"):
                    cfg = RvadConfig(mode=mode, enhance=enhance)
                    assert len(run_rvad(audio, cfg).labels) == frames
                    assert len(run_denoise(audio, cfg)[0]) == n

    def test_low_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            run_rvad(AudioBuffer(np.zeros(1000), 2000))

    @pytest.mark.parametrize("enhance", ENHANCERS)
    def test_full_mode_rejects_frames_too_short_to_search(self, enhance):
        # 2 ms frames are 16 samples at 8 kHz, and the shortest lag searched
        # is 20: full mode would label nothing, where fast mode finds speech
        audio = utterance(random_bursts(np.random.default_rng(3)), 4.0)
        short = dict(frame_len_ms=2.0, frame_shift_ms=2.0, enhance=enhance)
        for run in (run_rvad, run_denoise):
            with pytest.raises(ValueError, match="frames of 16 samples .* shortest lag is 20 samples"):
                run(audio, RvadConfig(mode="full", **short))
        assert run_rvad(audio, RvadConfig(mode="fast", **short)).num_speech_frames > 0

    def test_deterministic_reruns(self):
        buf = utterance([(0.7, 1.2, 160.0)], 3.0, noise_rms=0.02, rng=np.random.default_rng(77))
        a = run_rvad(buf, RvadConfig())
        b = run_rvad(buf, RvadConfig())
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(run_denoise(buf)[0].samples, run_denoise(buf)[0].samples)

    def test_fast_mode_white_noise_no_speech(self):
        rng = np.random.default_rng(78)
        buf = AudioBuffer(white_noise(3.0, 0.1, FS, rng), FS)
        r = run_rvad(buf, RvadConfig(mode="fast"))
        assert r.num_speech_frames == 0

    def test_voicing_override(self):
        buf = utterance([(0.5, 1.0, 150.0)], 2.5)
        n = make_grid(highpass(buf)).num_frames
        silent_mask = np.zeros(n, dtype=bool)
        r = run_rvad(buf, RvadConfig(), voicing=silent_mask)
        assert r.num_speech_frames == 0

        override = np.zeros(n, dtype=bool)
        override[60:140] = True
        r2 = run_rvad(buf, RvadConfig(), voicing=override)
        assert r2.num_speech_frames > 0

    def test_voicing_override_length_checked(self):
        buf = utterance([(0.5, 1.0, 150.0)], 2.5)
        with pytest.raises(ValueError):
            run_rvad(buf, RvadConfig(), voicing=np.zeros(10, dtype=bool))

    def test_scale_invariant_decisions(self):
        # global gain does not move the decision boundary
        buf = utterance([(0.6, 1.0, 150.0)], 3.0, noise_rms=0.01, rng=np.random.default_rng(79))
        cfg = RvadConfig(enhance="none")
        base = run_rvad(buf, cfg)
        for g in (0.01, 100.0):
            scaled = run_rvad(AudioBuffer(np.clip(g * buf.samples, -1e6, 1e6), FS), cfg)
            np.testing.assert_array_equal(scaled.labels, base.labels)

    def test_enhance_variants_run(self):
        buf = utterance([(0.5, 0.8, 180.0)], 2.5, noise_rms=0.02, rng=np.random.default_rng(80))
        for enh in ("none", "msne", "msne-mod"):
            cfg = RvadConfig(enhance=enh)
            assert len(run_rvad(buf, cfg).labels) == make_grid(buf).num_frames
            assert len(run_denoise(buf, cfg)[0]) == len(buf)

    def test_enhance_none_energies_from_zeroed_signal(self):
        # a tone, then a loud burst the injected mask leaves unvoiced: the
        # first pass zeroes it, so the second-pass energies cannot be the
        # first-pass ones even with no enhancement
        rng = np.random.default_rng(84)
        samples = utterance([(0.5, 1.0, 150.0)], 3.0, noise_rms=0.01, rng=rng).samples.copy()
        samples[int(2.0 * FS) : int(2.3 * FS)] += 0.4 * rng.standard_normal(int(0.3 * FS))
        audio = AudioBuffer(samples, FS)
        grid = make_grid(audio)
        voicing = np.zeros(grid.num_frames, dtype=bool)
        voicing[60:140] = True
        cfg = RvadConfig(enhance="none")
        e2 = _energies(audio, _first_sweep(audio, cfg, voicing), cfg, grid.num_frames - 1)
        enhanced, _ = run_denoise(audio, cfg, voicing)
        burst = slice(int(2.05 * FS), int(2.25 * FS))
        assert np.all(enhanced.samples[burst] == 0.0)
        assert e2.tobytes() == frame_energy(enhanced, grid).tobytes()
        assert not np.array_equal(e2, frame_energy(highpass(audio), grid))


def _random_utterance(fs, seconds, seed, tail=0.0):
    """Noise at a random level with pulse-train bursts and a loud noise
    burst, so that frames are voiced, zeroed, or quiet enough for the
    autocorrelation gate only once a louder frame comes later; then `tail`
    seconds of the noise alone.  The first burst fits in the input and its
    peak clears the noise's RMS by 40 to 50 dB, which both voicing detectors
    pass, so most inputs have a pitch segment; up to two more fall anywhere
    at any level."""
    rng = np.random.default_rng(seed)
    n = int(seconds * fs)
    noise = 10.0 ** rng.uniform(-5.0, -2.5)
    samples = noise * rng.standard_normal(n + int(tail * fs))
    for k in range(int(rng.integers(1, 4))):
        f0, dur = rng.uniform(100.0, 300.0), rng.uniform(0.1, 1.0)
        if k == 0:
            tone = pulse_train(f0, dur, fs, amp=noise * 10.0 ** rng.uniform(2.0, 2.5))[:n]
            lo = int(rng.integers(0, n - len(tone) + 1))
        else:
            lo = int(rng.integers(0, n + 1))
            tone = pulse_train(f0, dur, fs, amp=10.0 ** rng.uniform(-4.0, -0.5))[: n - lo]
        samples[lo : lo + len(tone)] += tone
    lo = int(rng.integers(0, n + 1))
    width = min(int(rng.integers(0, fs // 2)), n - lo)
    samples[lo : lo + width] += 10.0 ** rng.uniform(-2.0, -0.5) * rng.standard_normal(width)
    return AudioBuffer(samples, fs)


def _oracle_labels(expected, cfg: RvadConfig) -> np.ndarray:
    """The VAD stage's labels on the whole-buffer oracle's voicing and energies."""
    pitch = mask_to_segments(expected.mask)
    extended = extend_segments(pitch, cfg.ext_frames, len(expected.mask))
    run = _Run(expected.grid, [], expected.e2, mask=expected.mask, pitch=pitch, extended=extended)
    _labels(run, expected.e2, cfg)
    return run.labels


def _spied_run(audio: AudioBuffer, cfg: RvadConfig):
    """`_run`'s record, the frame its second sweep stopped at and the
    energies that sweep gave the VAD stage (None and None without one)."""
    seen = [None, None]

    def energies(audio, run, cfg, last):
        seen[:] = last, _energies(audio, run, cfg, last)
        return seen[1]

    with mock.patch.object(rvad.vad, "_energies", energies):
        run = _run(audio, cfg, None)
    return run, *seen


PIPELINES = dict(
    fs=st.sampled_from([8000, 16000, 44100, 48000]),
    seconds=st.floats(0.0, 3.0),
    mode=st.sampled_from(["full", "fast"]),
    enhance=st.sampled_from(["none", "msne", "msne-mod"]),
    seed=st.integers(0, 2**32 - 1),
)


# the numbers the sweeps' geometry rules read: frames of 10 to 50 ms at a
# shift of 2.5 to 25 ms, no longer than the frame, and in about half the
# draws each, the MSNE window, the super-segment and the smoothing reach
GEOMETRY = st.floats(10.0, 50.0).flatmap(
    lambda frame_len_ms: st.fixed_dictionaries(
        {"frame_len_ms": st.just(frame_len_ms), "frame_shift_ms": st.floats(2.5, min(25.0, frame_len_ms))},
        optional={
            "msne_window_frames": st.integers(1, 299),
            "super_len": st.integers(1, 399),
            "smooth_n": st.integers(0, 39),
        },
    )
)


class TestPipelineProperties:
    """Invariants of the two sweeps over random audio, rates and configs."""

    @settings(max_examples=100, deadline=None)
    @given(
        **PIPELINES,
        post=st.fixed_dictionaries(
            {"ext_frames": st.integers(0, 60)}
            | {name: st.integers(0, 120) for name in ("pp_near_left", "pp_near_right", "pp_far_left", "pp_far_right")}
        ),
        tail=st.floats(0.0, 1.0),
        geometry=GEOMETRY,
    )
    # a near rule reaching 120 frames past the last pitch segment against an
    # extension of 2: the second sweep must run on past the 64-frame STFT
    # block that completes the extension
    @example(
        fs=16000,
        seconds=2.0,
        mode="full",
        enhance="msne",
        seed=3,
        post={"ext_frames": 2, "pp_near_left": 5, "pp_near_right": 120, "pp_far_left": 33, "pp_far_right": 47},
        tail=1.0,
        geometry={},
    )
    # no pitch segment, so no second sweep: the voiced burst lies under the
    # loud noise burst, which hides it from both detectors at 48 kHz and
    # from fast mode's flatness at 8 kHz
    @example(fs=48000, seconds=2.0, mode="full", enhance="msne", seed=86, post={}, tail=0.0, geometry={})
    @example(fs=8000, seconds=2.0, mode="fast", enhance="msne-mod", seed=77, post={}, tail=0.0, geometry={})
    def test_sweeps_equal_whole_buffer_oracle(self, fs, seconds, mode, enhance, seed, post, tail, geometry):
        # the second sweep stops at the last frame the VAD stage reads; the
        # oracle's energies cover every frame, under reaches either side of
        # the extension, which the tail of noise leaves room for
        audio = _random_utterance(fs, seconds, seed, tail)
        cfg = RvadConfig(mode=mode, enhance=enhance, **post, **geometry)
        expected = front_whole(audio, cfg)
        first = _first_sweep(audio, cfg, None)
        e2 = _energies(audio, first, cfg, first.grid.num_frames - 1)
        assert first.mask.tobytes() == expected.mask.tobytes()
        assert e2.tobytes() == expected.e2.tobytes()
        run, _, stopped = _spied_run(audio, cfg)
        assert run.high_energy == expected.high and run.zeroed == expected.zeroed
        assert run.labels.tobytes() == _oracle_labels(expected, cfg).tobytes()
        pitch = mask_to_segments(expected.mask)
        if pitch:
            # every frame the VAD stage may read: the extended segments and
            # the frames the near rule makes speech
            num = len(expected.mask)
            rules_only = replace(cfg, energy_ratio=0.0)
            near = post_process_whole(np.zeros(num, dtype=bool), pitch, np.ones(num), rules_only)
            read = segments_to_mask(extend_segments(pitch, cfg.ext_frames, num), num) | near
            assert stopped[read].tobytes() == expected.e2[read].tobytes()

    @pytest.mark.parametrize("fs", [16000, 48000])
    def test_autocorrelation_gate_follows_the_loudest_frame(self, fs):
        # a voiced burst 1e-4 below a louder one in a later sweep block: the
        # gate of its own block passes it, the utterance's gate must not
        quiet = utterance([(0.2, 0.5, 150.0)], 4.0, fs, amp=1e-4).samples
        loud = utterance([(3.0, 0.8, 180.0)], 4.0, fs, amp=0.5).samples
        audio = AudioBuffer(quiet + loud, fs)
        cfg = RvadConfig(mode="full")
        mask = _first_sweep(audio, cfg, None).mask
        assert mask.tobytes() == front_whole(audio, cfg).mask.tobytes()
        assert not mask[:100].any() and mask[300:380].any()
        alone = _first_sweep(AudioBuffer(quiet, fs), cfg, None).mask
        assert alone[30:60].all()

    @settings(max_examples=30, deadline=None)
    @given(**PIPELINES)
    # no pitch segment, as in the sweeps' property
    @example(fs=48000, seconds=2.0, mode="full", enhance="msne", seed=86)
    @example(fs=8000, seconds=2.0, mode="fast", enhance="msne-mod", seed=77)
    def test_denoise_equals_whole_buffer_oracle(self, fs, seconds, mode, enhance, seed):
        audio = _random_utterance(fs, seconds, seed)
        cfg = RvadConfig(mode=mode, enhance=enhance)
        expected = front_whole(audio, cfg)
        enhanced, noise = run_denoise(audio, cfg)
        assert enhanced.samples.tobytes() == expected.enhanced.samples.tobytes()
        if expected.noise is None:
            assert noise is None
        else:
            assert noise.shape == expected.noise.shape
            assert noise.tobytes() == expected.noise.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        fs=st.sampled_from([8000, 16000, 44100, 48000]),
        seconds=st.floats(0.0, 3.0),
        mode=st.sampled_from(["full", "fast"]),
        enhance=st.sampled_from(["none", "msne", "msne-mod"]),
        density=st.sampled_from([0.0, 0.05, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_caller_samples_untouched_and_labels_bounded(self, fs, seconds, mode, enhance, density, seed):
        rng = np.random.default_rng(seed)
        n = int(seconds * fs)
        samples = 10.0 ** rng.uniform(-3.0, 0.0) * rng.standard_normal(n)
        lo = int(rng.integers(0, n + 1))
        samples[lo : lo + int(rng.integers(0, fs))] *= 20.0  # a loud stretch for the first pass
        audio = AudioBuffer(samples, fs)
        before = audio.samples.tobytes()
        cfg = RvadConfig(mode=mode, enhance=enhance)
        num = make_grid(audio, cfg.frame_len_ms, cfg.frame_shift_ms).num_frames
        mask = rng.random(num) < density

        result = run_rvad(audio, cfg, voicing=mask)
        assert audio.samples.tobytes() == before
        assert len(result.labels) == num
        allowed = segments_to_mask(extend_segments(mask_to_segments(mask), cfg.ext_frames, num), num)
        assert not np.any(result.labels & ~allowed)

        enhanced, _ = run_denoise(audio, cfg)
        assert audio.samples.tobytes() == before
        assert len(enhanced) == n

    @settings(max_examples=20, deadline=None)
    @given(
        fs=st.sampled_from([8000, 16000, 44100, 48000]),
        seconds=st.floats(0.0, 3.0),
        mode=st.sampled_from(["full", "fast"]),
        enhance=st.sampled_from(["none", "msne", "msne-mod"]),
    )
    def test_all_zero_input_no_speech(self, fs, seconds, mode, enhance):
        result = run_rvad(AudioBuffer(np.zeros(int(seconds * fs)), fs), RvadConfig(mode=mode, enhance=enhance))
        assert result.num_speech_frames == 0

    @settings(max_examples=30, deadline=None)
    @given(
        rms=st.floats(1e-4, 0.3),
        seconds=st.floats(0.5, 4.0),
        mode=st.sampled_from(["full", "fast"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_white_noise_no_speech(self, rms, seconds, mode, seed):
        noise = white_noise(seconds, rms, FS, np.random.default_rng(seed))
        assert run_rvad(AudioBuffer(noise, FS), RvadConfig(mode=mode)).num_speech_frames == 0


class TestVoicingSpectraReuse:
    """A one-block utterance in fast mode with enhancement feeds its voicing
    spectra to the second sweep, except for blocks of frames that zeroed
    samples touch."""

    @settings(max_examples=60, deadline=None)
    @given(
        fs=st.sampled_from([8000, 16000, 44100, 48000]),
        length=st.sampled_from(["random", "limit-1", "limit", "limit+1"]),
        enhance=st.sampled_from(["msne", "msne-mod"]),
        where=st.lists(st.sampled_from(["inside", "across", "ends-at", "starts-at"]), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_whole_buffer_oracle(self, fs, length, enhance, where, seed):
        # loud noise bursts, which the first pass zeroes, placed against the
        # STFT block edges: inside a block, across an edge, or
        # ending or starting at one
        rng = np.random.default_rng(seed)
        cfg = RvadConfig(mode="fast", enhance=enhance)
        flen, shift = int(round(0.025 * fs)), int(round(0.010 * fs))
        step = block_frames(flen)
        limit = SWEEP_BLOCKS * step
        num = {"limit-1": limit - 1, "limit": limit, "limit+1": limit + 1}.get(length) or int(rng.integers(1, limit))
        n = (num - 1) * shift + flen + int(rng.integers(0, shift))
        samples = 0.003 * rng.standard_normal(n)
        tone = pulse_train(rng.uniform(100.0, 250.0), rng.uniform(0.2, 0.6) * n / fs, fs, amp=0.2)
        lo = int(rng.integers(0, n - len(tone) + 1))
        samples[lo : lo + len(tone)] += tone
        for kind in where:
            edge = int(rng.integers(0, num // step + 1)) * step * shift
            width = int(rng.integers(flen, 3 * step * shift + flen))
            lo = {
                "inside": edge + int(rng.integers(0, step * shift)),
                "across": edge - width // 2,
                "ends-at": edge - width,
                "starts-at": edge,
            }[kind]
            lo, hi = max(lo, 0), min(lo + width, n)
            samples[lo:hi] += 0.3 * rng.standard_normal(max(hi - lo, 0))
        audio = AudioBuffer(np.clip(samples, -1.0, 1.0), fs)
        assert make_grid(audio).num_frames == num

        expected = front_whole(audio, cfg)
        labels = run_rvad(audio, cfg).labels
        assert labels.tobytes() == _oracle_labels(expected, cfg).tobytes()
        enhanced, noise = run_denoise(audio, cfg)
        assert enhanced.samples.tobytes() == expected.enhanced.samples.tobytes()
        assert noise.tobytes() == expected.noise.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        fs=st.sampled_from([8000, 16000, 44100, 48000]),
        length=st.sampled_from(["random", "limit"]),
        enhance=st.sampled_from(["msne", "msne-mod"]),
        where=st.lists(st.sampled_from(["inside", "across", "ends-at", "starts-at"]), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zeroed_frames_at_block_edges(self, fs, length, enhance, where, seed):
        # zeroed segments set by hand, starting or ending a few frames either
        # side of an STFT block edge: the last frames of a block also
        # read samples past the next block's first one
        rng = np.random.default_rng(seed)
        cfg = RvadConfig(mode="fast", enhance=enhance)
        flen, shift = int(round(0.025 * fs)), int(round(0.010 * fs))
        step = block_frames(flen)
        num = SWEEP_BLOCKS * step if length == "limit" else int(rng.integers(1, SWEEP_BLOCKS * step))
        audio = AudioBuffer(0.1 * rng.standard_normal((num - 1) * shift + flen + int(rng.integers(0, shift))), fs)
        mask = np.zeros(num, dtype=bool)
        for kind in where:
            edge = int(rng.integers(0, num // step + 1)) * step + int(rng.integers(-3, 4))
            lo, hi = {
                "inside": (edge + 3, edge + 3 + int(rng.integers(0, step - 6))),
                "across": (edge - int(rng.integers(1, step)), edge + int(rng.integers(0, step))),
                "ends-at": (edge - int(rng.integers(0, step)), edge),
                "starts-at": (edge, edge + int(rng.integers(0, step))),
            }[kind]
            mask[max(lo, 0) : max(hi + 1, 0)] = True
        zeroed = mask_to_segments(mask)

        expected = front_whole(audio, cfg, zeroed=zeroed)
        first = replace(_first_sweep(audio, cfg, None), zeroed=zeroed)
        assert first.spectra is not None
        enhanced, noise = _denoise(audio, first, cfg)
        assert enhanced.samples.tobytes() == expected.enhanced.samples.tobytes()
        assert noise.tobytes() == expected.noise.tobytes()
        # subtraction has worked on the kept spectra, so another second
        # sweep over the same state takes every spectrum again
        assert _energies(audio, first, cfg, first.grid.num_frames - 1).tobytes() == expected.e2.tobytes()

    @pytest.mark.parametrize("fs", [8000, 16000, 48000])
    def test_one_stft_per_block_of_frames(self, fs, monkeypatch):
        audio = utterance([(0.1, 0.4, 150.0)], 0.6, fs)
        cfg = RvadConfig(mode="fast", enhance="msne")
        assert not _first_sweep(audio, cfg, None).zeroed
        grid = make_grid(audio)
        calls = []

        def counting_stft(*args):
            calls.append(1)
            return stft(*args)

        monkeypatch.setattr(rvad.dsp, "stft", counting_stft)
        monkeypatch.setattr(rvad.vad, "stft", counting_stft)
        run_rvad(audio, cfg)
        assert len(calls) == -(-grid.num_frames // block_frames(grid.frame_len))


def _counting(monkeypatch, module, name):
    """A list that gains an item at each call of `module.name`."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestSecondSweepStops:
    """The second sweep runs only as far as the VAD stage reads."""

    @pytest.mark.parametrize("enhance", ["none", "msne", "msne-mod"])
    def test_no_pitch_segment_no_second_sweep(self, enhance, monkeypatch):
        audio = _random_utterance(16000, 3.0, 5)
        cfg = RvadConfig(mode="fast", enhance=enhance)
        num = make_grid(audio).num_frames
        calls = _counting(monkeypatch, rvad.vad, "_second_sweep")
        result = run_rvad(audio, cfg, voicing=np.zeros(num, dtype=bool))
        assert calls == [] and len(result.labels) == num and not result.labels.any()
        run_denoise(audio, cfg, voicing=np.zeros(num, dtype=bool))
        assert calls == [1]

    @pytest.mark.parametrize("enhance", ["msne", "msne-mod"])
    def test_trailing_non_speech_not_reconstructed(self, enhance, monkeypatch):
        # 20 s at 16 kHz, voiced in its first 2 s: run_rvad reconstructs the
        # STFT blocks up to the one that completes the last frame
        # read, run_denoise every block
        fs = 16000
        audio = utterance([(0.5, 1.0, 150.0)], 20.0, fs, noise_rms=0.01, rng=np.random.default_rng(86))
        cfg = RvadConfig(mode="full", enhance=enhance)
        grid = make_grid(audio)
        step = block_frames(grid.frame_len)
        calls = _counting(monkeypatch, rvad.denoise, "reconstruct")
        run, last, _ = _spied_run(audio, cfg)
        assert run.labels[50:150].any() and not run.labels[400:].any()
        assert len(calls) <= -(-(last + 2) // step) + 1 < -(-grid.num_frames // step)
        calls.clear()
        run_denoise(audio, cfg)
        assert len(calls) == -(-grid.num_frames // step)

    @pytest.mark.parametrize("enhance", ["none", "msne", "msne-mod"])
    def test_stop_covers_the_near_rule(self, enhance):
        # a near rule that reaches 50 frames past the last pitch segment,
        # far past its extension of 2 and the 16-frame STFT blocks
        # at 48 kHz: the energies of those frames are the whole sweep's
        fs = 48000
        rng = np.random.default_rng(89)
        samples = utterance([(0.5, 0.5, 150.0)], 2.0, fs, noise_rms=0.01, rng=rng).samples.copy()
        samples[int(1.1 * fs) : int(1.3 * fs)] += 0.3 * rng.standard_normal(int(0.2 * fs))
        audio = AudioBuffer(samples, fs)
        cfg = RvadConfig(mode="full", enhance=enhance, ext_frames=2, pp_near_right=50, pp_far_right=50)
        expected = front_whole(audio, cfg)
        num = len(expected.mask)
        pitch = mask_to_segments(expected.mask)
        near = min(pitch[-1][1] + cfg.pp_near_right, num - 1)
        assert near >= extend_segments(pitch, cfg.ext_frames, num)[-1][1] + 40
        run, _, stopped = _spied_run(audio, cfg)
        assert run.labels.tobytes() == _oracle_labels(expected, cfg).tobytes()
        assert stopped[: near + 1].tobytes() == expected.e2[: near + 1].tobytes()

    def test_trailing_non_speech_not_filtered_again(self, monkeypatch):
        # without enhancement only the sweep blocks holding zeroed samples
        # are filtered again, and none after the last frame read: here the
        # first block holds that frame, and later blocks zeroed samples
        fs = 16000
        rng = np.random.default_rng(87)
        samples = utterance([(0.5, 1.0, 150.0)], 20.0, fs, noise_rms=0.01, rng=rng).samples.copy()
        for lo in (2.0, 12.0, 18.0):  # loud unvoiced bursts for the first pass to zero
            samples[int(lo * fs) : int((lo + 0.3) * fs)] += 0.3 * rng.standard_normal(int(0.3 * fs))
        audio = AudioBuffer(samples, fs)
        cfg = RvadConfig(mode="full", enhance="none")
        first = _first_sweep(audio, cfg, None)
        _, last, _ = _spied_run(audio, cfg)
        assert last < first.blocks[1].rows.start
        calls = _counting(monkeypatch, rvad.vad, "_highpassed")
        run_rvad(audio, cfg)
        second = len(calls) - len(first.blocks)
        calls.clear()
        _energies(audio, first, cfg, first.grid.num_frames - 1)
        assert second == 1 < len(calls)


@pytest.mark.parametrize("blocks", [1, 2])
def test_second_sweep_filters_each_block_of_a_longer_utterance(tmp_path, blocks, monkeypatch):
    # the first sweep keeps a block's samples for the second one only when
    # it is the utterance's one block
    audio = read_wav(_speech_wav(tmp_path / "u.wav", 0.6 * blocks * _sweep_block_seconds(8000), 4, fs=8000))
    cfg = RvadConfig(mode="fast", enhance="msne")
    calls = _counting(monkeypatch, rvad.vad, "_highpassed")
    first = _first_sweep(audio, cfg, None)
    assert len(first.blocks) == len(calls) == blocks and first.zeroed
    calls.clear()
    _denoise(audio, first, cfg)
    assert len(calls) == (0 if blocks == 1 else blocks)


@pytest.mark.parametrize("fs", [8000, 16000, 44100, 48000])
def test_first_sweep_high_passes_each_block_once(fs, monkeypatch):
    # a block's samples and the next block's first few, which its last
    # frames also read, are filtered in one call
    probe = make_grid(AudioBuffer(np.zeros(fs), fs))
    frames = 2 * SWEEP_BLOCKS * block_frames(probe.frame_len) + 7
    x = np.random.default_rng(fs).standard_normal((frames - 1) * probe.frame_shift + probe.frame_len)
    audio = AudioBuffer(x, fs)
    assert len(_blocks(make_grid(audio))) == 3
    calls = []

    def counting_highpass(*args, **kwargs):
        calls.append(1)
        return highpass(*args, **kwargs)

    monkeypatch.setattr(rvad.vad, "highpass", counting_highpass)
    _first_sweep(audio, RvadConfig(mode="fast", enhance="none"), None)
    assert len(calls) == 3


def _two_minutes_with_bursts() -> AudioBuffer:
    """Two minutes at 16 kHz of pitch bursts in noise, with an unvoiced
    burst after each for the first pass to zero."""
    rng = np.random.default_rng(83)
    fs = 16000
    bursts = [(3.0 * k + 0.5, 1.2, 120.0 + 2.0 * k) for k in range(40)]
    samples = utterance(bursts, 120.0, fs, noise_rms=0.01, rng=rng).samples.copy()
    for k in range(40):
        lo = int((3.0 * k + 2.0) * fs)
        samples[lo : lo + fs // 4] += 0.3 * rng.standard_normal(fs // 4)
    return AudioBuffer(np.clip(samples, -1.0, 1.0), fs)


@pytest.mark.parametrize("enhance", ["none", "msne", "msne-mod"])
@pytest.mark.parametrize("mode", ["fast", "full"])
def test_peak_memory_bounded_by_signal_arrays(mode, enhance):
    # both sweeps hold one block of samples at a time, so run_rvad keeps
    # per-frame arrays only, and run_denoise adds what it returns: the
    # output signal and, with enhancement, the noise track (1.6x the input)
    buf = _two_minutes_with_bursts()
    cfg = RvadConfig(mode=mode, enhance=enhance)
    tracemalloc.start()
    try:
        result = run_rvad(buf, cfg)
        rvad_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        enhanced, noise = run_denoise(buf, cfg)
        denoise_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert result.num_speech_frames > 0
    assert rvad_peak <= 0.25 * buf.samples.nbytes
    returned = enhanced.samples.nbytes + (0 if noise is None else noise.nbytes)
    assert denoise_peak <= returned + 0.5 * buf.samples.nbytes


@pytest.mark.parametrize("enhance", ["msne", "msne-mod"])
@pytest.mark.parametrize("mode", ["fast", "full"])
def test_peak_memory_bounded_in_a_fresh_process(mode, enhance):
    # the same bound on a process's first call, which also makes the
    # thread's work arrays and the cached band matrices and windows that
    # earlier tests in this process have made already
    _python(
        "-c",
        f"""
import sys, tracemalloc
sys.path.insert(0, {str(Path(__file__).parent)!r})
from rvad import RvadConfig, run_rvad
from test_vad import _two_minutes_with_bursts
buf = _two_minutes_with_bursts()
tracemalloc.start()
result = run_rvad(buf, RvadConfig(mode={mode!r}, enhance={enhance!r}))
peak = tracemalloc.get_traced_memory()[1]
assert result.num_speech_frames > 0
assert peak <= 0.25 * buf.samples.nbytes, f"peak {{peak / 2**20:.3f}} MiB"
""",
    )


def test_vad_stage_peak_memory_on_one_long_segment():
    # one extended segment over 1e6 frames: segment_vad holds the energy
    # difference, its smoothing and the cumulative sum, no more
    frames = 1_000_000
    rng = np.random.default_rng(88)
    e = rng.random(frames) ** 4 + 1e-6
    mask = np.zeros(frames, dtype=bool)
    mask[::100] = True
    mask[-1] = True
    cfg = RvadConfig()
    pitch = mask_to_segments(mask)
    extended = extend_segments(pitch, cfg.ext_frames, frames)
    assert extended == [(0, frames - 1)]
    run = _Run(None, [], e, mask=mask, pitch=pitch, extended=extended)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        _labels(run, e, cfg)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * e.nbytes


def test_file_path_peak_memory_is_per_frame(tmp_path):
    # two minutes of 16 kHz 16-bit WAV: the sweeps decode one block of the
    # file at a time, so not even the input's float64 samples are held
    rng = np.random.default_rng(84)
    fs = 16000
    bursts = [(3.0 * k + 0.5, 1.2, 120.0 + 2.0 * k) for k in range(40)]
    samples = utterance(bursts, 120.0, fs, noise_rms=0.01, rng=rng).samples
    path = tmp_path / "long.wav"
    write_wav(path, AudioBuffer(np.clip(samples, -1.0, 1.0), fs))
    tracemalloc.start()
    try:
        result = run_rvad(read_wav(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.num_speech_frames > 0
    assert peak <= 0.25 * samples.nbytes


def _sweep_block_seconds(fs: int) -> float:
    """The duration of one sweep block of default frames at `fs`."""
    grid = make_grid(AudioBuffer(np.zeros(fs), fs))
    return SWEEP_BLOCKS * block_frames(grid.frame_len) * grid.frame_shift / fs


def _speech_wav(path, seconds, seed, fs=16000):
    """A WAV of pitch bursts in noise, with an unvoiced burst after each for
    the first pass to zero."""
    rng = np.random.default_rng(seed)
    bursts = [(3.0 * k + 0.5, 1.2, 120.0 + 7.0 * k) for k in range(int(seconds // 3))]
    samples = utterance(bursts, seconds, fs, noise_rms=0.01, rng=rng).samples.copy()
    for k in range(len(bursts)):
        lo = int((3.0 * k + 2.0) * fs)
        samples[lo : lo + fs // 4] += 0.3 * rng.standard_normal(len(samples[lo : lo + fs // 4]))
    write_wav(path, AudioBuffer(np.clip(samples, -1.0, 1.0), fs))
    return path


def _outputs(path, cfg):
    """The labels, enhanced samples and noise track of one file, as bytes."""
    enhanced, noise = run_denoise(read_wav(path), cfg)
    labels = run_rvad(read_wav(path), cfg).labels
    return labels.tobytes(), enhanced.samples.tobytes(), None if noise is None else noise.tobytes()


def _in_threads(*jobs):
    """Each job's list of calls run in a new thread of its own, the threads
    started together and switched often; the results of each job's calls."""
    barrier = threading.Barrier(len(jobs))

    def run(calls):
        barrier.wait(timeout=60)
        return [call() for call in calls]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            futures = [pool.submit(run, calls) for calls in jobs]
            return [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("enhance", ["none", "msne", "msne-mod"])
@pytest.mark.parametrize("mode", ["fast", "full"])
def test_outputs_do_not_depend_on_the_work_arrays_history(tmp_path, mode, enhance):
    # the sweeps decode, filter and window in each thread's work arrays: a
    # file of two sweep blocks gives the same bits in a fresh thread, after
    # a file of eight blocks has grown and filled those arrays in the same
    # thread, after a file of one block, whose samples wait in them between
    # the sweeps, and while two more threads run beside it; and the
    # one-block file gives its own bits after the others
    cfg = RvadConfig(mode=mode, enhance=enhance)
    block_s = _sweep_block_seconds(16000)
    short = _speech_wav(tmp_path / "short.wav", 1.5 * block_s, 1)
    long = _speech_wav(tmp_path / "long.wav", 7.5 * block_s, 2)
    one = _speech_wav(tmp_path / "one.wav", 0.6 * _sweep_block_seconds(8000), 5, fs=8000)
    assert len(_blocks(make_grid(read_wav(short)))) == 2 and len(_blocks(make_grid(read_wav(long)))) == 8
    assert len(_blocks(make_grid(read_wav(one)))) == 1
    [[fresh], [fresh_one]] = _in_threads([lambda: _outputs(short, cfg)], [lambda: _outputs(one, cfg)])
    [[_, after_long], [_, after_one], [_, one_after]] = _in_threads(
        [lambda: _outputs(long, cfg), lambda: _outputs(short, cfg)],
        [lambda: _outputs(one, cfg), lambda: _outputs(short, cfg)],
        [lambda: _outputs(short, cfg), lambda: _outputs(one, cfg)],
    )
    side_by_side = _in_threads(
        [lambda: _outputs(long, cfg), lambda: _outputs(short, cfg)],
        [lambda: _outputs(short, cfg), lambda: _outputs(long, cfg), lambda: _outputs(short, cfg)],
        [lambda: _outputs(short, cfg)],
    )
    assert after_long == after_one == fresh and one_after == fresh_one
    assert side_by_side[0][1] == side_by_side[1][0] == side_by_side[1][2] == side_by_side[2][0] == fresh
    assert side_by_side[0][0] == side_by_side[1][1]


def _bursts_and_noise(seed: int, seconds: float = 3.0, fs: int = FS) -> AudioBuffer:
    """An utterance of pulse bursts in noise, with a loud quarter-second
    unvoiced burst for the first sweep to zero."""
    rng = np.random.default_rng(seed)
    samples = utterance(random_bursts(rng, total_s=seconds), seconds, fs, noise_rms=0.01, rng=rng).samples.copy()
    lo = int(rng.integers(0, len(samples) - fs // 4))
    samples[lo : lo + fs // 4] += 0.3 * rng.standard_normal(fs // 4)
    return AudioBuffer(samples, fs)


@pytest.mark.parametrize("enhance", ENHANCERS)
@pytest.mark.parametrize("mode", MODES)
def test_kept_one_block_samples_survive_a_call_between_the_sweeps(mode, enhance):
    # a one-block utterance keeps its high-passed samples in the thread's
    # "filtered" work array between the sweeps; another input's run in
    # between fills that array, and the second sweep then filters the block
    # again from its `zi` instead of zeroing the other input's samples
    cfg = RvadConfig(mode=mode, enhance=enhance)
    a, b = _bursts_and_noise(31, 2.0, 16000), _bursts_and_noise(32, 2.0, 16000)
    assert len(_blocks(make_grid(a))) == 1
    first = _first_sweep(a, cfg, None)
    assert first.zeroed
    run_rvad(b, cfg)
    after, alone = _denoise(a, first, cfg), _denoise(a, _first_sweep(a, cfg, None), cfg)
    gap = np.abs(after.audio.samples - alone.audio.samples).max()
    assert after.audio.samples.tobytes() == alone.audio.samples.tobytes(), gap
    assert (after.noise is None) == (alone.noise is None)
    if after.noise is not None:
        assert after.noise.tobytes() == alone.noise.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), mode=st.sampled_from(MODES), enhance=st.sampled_from(ENHANCERS), data=st.data())
def test_stage_invariants(seed, mode, enhance, data):
    # zeroing, segment extension and the VAD stage's reach, on the run's
    # record: zeroed are exactly the high-energy segments with at most
    # min_pitch_frames voiced frames, every extended segment holds a pitch
    # segment, the segment decisions lie inside the extended segments, and
    # with the near rule's reach inside the extension so do the labels
    ext = data.draw(st.integers(0, 80), label="ext_frames")
    near_left = data.draw(st.integers(0, ext), label="pp_near_left")
    near_right = data.draw(st.integers(0, ext), label="pp_near_right")
    cfg = RvadConfig(mode=mode, enhance=enhance, ext_frames=ext, pp_near_left=near_left, pp_near_right=near_right)
    run = _run(_bursts_and_noise(seed), cfg, None)
    voiced = [np.count_nonzero(run.mask[s : t + 1]) for s, t in run.high_energy]
    assert run.zeroed == [seg for seg, n in zip(run.high_energy, voiced) if n <= cfg.min_pitch_frames]

    for s, t in run.extended:
        assert any(s <= p and q <= t for p, q in run.pitch)

    outside = ~segments_to_mask(run.extended, len(run.labels))
    assert not run.raw[outside].any()
    assert not run.labels[outside].any()


def test_returned_arrays_are_not_work_arrays(tmp_path):
    # every array handed back to a caller is its own, never a view of the
    # thread's work arrays, which the next call overwrites; nor is any array
    # a run's record holds once it returns, for a one-block utterance with
    # speech and one with no pitch segment, where sweep 2 does not run
    path = _speech_wav(tmp_path / "u.wav", 4.0, 3)
    returned = [read_wav(path).samples]
    for mode in ("fast", "full"):
        for enhance in ("none", "msne", "msne-mod"):
            cfg = RvadConfig(mode=mode, enhance=enhance)
            returned.append(run_rvad(read_wav(path), cfg).labels)
            returned.extend(a for a in run_denoise(read_wav(path), cfg) if a is not None)
    audio = read_wav(path)
    returned.append(highpass(audio).samples)
    grid = make_grid(audio)
    for block in _blocks(grid):
        piece = AudioBuffer(audio.samples[block.lo : block.hi], audio.sample_rate_hz)
        returned.extend(spec.frames for _, spec in _spectra(piece, block, grid))
    returned.append(stft(audio, FrameGrid(grid.frame_len, grid.frame_shift, 3, grid.total_samples)).frames)
    # full mode at 48 kHz takes the pitch search's FFT side, in work arrays too
    returned.append(run_rvad(_bursts_and_noise(32, 2.0, 48000), RvadConfig(mode="full")).labels)
    one = _bursts_and_noise(31, 2.0, 16000)
    assert len(_blocks(make_grid(one))) == 1
    silent = np.zeros(make_grid(one).num_frames, dtype=bool)
    for mode in ("fast", "full"):
        for enhance in ("none", "msne", "msne-mod"):
            for voicing in (None, silent):
                run = _run(one, RvadConfig(mode=mode, enhance=enhance), voicing)
                assert bool(run.pitch) == (voicing is None) and run.samples is None and run.spectra is None
                held = (getattr(value, "samples", value) for value in vars(run).values())
                returned.extend(value for value in held if isinstance(value, np.ndarray))
    assert set(vars(rvad.dsp._work)) == {"decoded", "filtered", "windowed", "spectrum", "correlation"}
    work = list(vars(rvad.dsp._work).values())
    for array in returned:
        array = getattr(array, "samples", array)
        assert not any(np.shares_memory(array, buf) for buf in work)


@pytest.mark.skipif(sys.platform != "linux", reason="counts the page faults of glibc's allocator")
def test_work_arrays_spare_page_faults_between_files(tmp_path):
    # a block's buffers made new for each block were given back to the
    # system between files and faulted in again: in a fresh process, a
    # second batch of 20 two-block 16 kHz files took about 300 minor faults
    # per file that way, and about 0.05 with the work arrays
    pytest.importorskip("resource")
    paths = [str(_speech_wav(tmp_path / f"u{k}.wav", 4.0, k)) for k in range(20)]
    _python(
        "-c",
        f"""
import resource
from rvad import RvadConfig, run_batch
paths, cfg = {paths!r}, RvadConfig(mode="full", enhance="none")
run_batch(paths, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
items = run_batch(paths, cfg)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
assert all(item.ok for item in items)
assert faults < 50 * len(paths), f"{{faults / len(paths):.1f}} minor faults per file"
""",
    )


class TestRunDenoise:
    def test_noise_track_shape(self):
        buf = utterance([(0.5, 0.8, 170.0)], 2.0, noise_rms=0.05, rng=np.random.default_rng(81))
        out, noise = run_denoise(buf, RvadConfig(enhance="msne"))
        grid = make_grid(buf)
        assert noise.shape[0] == grid.num_frames
        assert len(out) == len(buf)

    @pytest.mark.parametrize("enhance", ["msne", "msne-mod"])
    @pytest.mark.parametrize("n, frames", [(0, 0), (150, 0), (250, 1)])
    def test_short_input_zeros_past_the_last_frame(self, enhance, n, frames):
        audio = AudioBuffer(0.1 * np.random.default_rng(n).standard_normal(n), FS)
        out, noise = run_denoise(audio, RvadConfig(enhance=enhance))
        assert noise.shape == (frames, 129)
        assert len(out) == n
        covered = (frames - 1) * 80 + 200 if frames else 0
        assert np.all(out.samples[covered:] == 0.0)
        assert np.any(out.samples[:covered]) == bool(frames)

    def test_enhance_none_returns_no_track(self):
        buf = utterance([(0.5, 0.8, 170.0)], 2.0)
        out, noise = run_denoise(buf, RvadConfig(enhance="none"))
        assert noise is None

    def test_msne_reduces_stationary_noise(self):
        rng = np.random.default_rng(82)
        clean = utterance([(0.8, 1.5, 160.0)], 3.5)
        noisy = AudioBuffer(clean.samples + white_noise(3.5, 0.03, FS, rng), FS)
        out, _ = run_denoise(noisy, RvadConfig(enhance="msne"))
        grid = make_grid(noisy)
        covered = slice(0, (grid.num_frames - 1) * grid.frame_shift + grid.frame_len)
        # compare against the high-passed clean signal: enhancement operates
        # past the high-pass filter
        ref = highpass(clean).samples[covered]
        before = np.mean((highpass(noisy).samples[covered] - ref) ** 2)
        after = np.mean((out.samples[covered] - ref) ** 2)
        assert after < before


class TestRunBatch:
    def _corpus(self, tmp_path, n=3):
        paths = []
        for i in range(n):
            p = tmp_path / f"u{i}.wav"
            write_wav(p, utterance([(0.4, 0.8, 150.0 + 25 * i)], 2.0))
            paths.append(str(p))
        return paths

    def test_order_preserved_with_workers(self, tmp_path):
        paths = self._corpus(tmp_path, 3)
        items = run_batch(paths, RvadConfig(enhance="none"), workers=2)
        assert [i.path for i in items] == paths
        assert all(i.ok for i in items)

    def test_corrupt_file_reported_not_fatal(self, tmp_path):
        paths = self._corpus(tmp_path, 2)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        items = run_batch([paths[0], str(bad), paths[1]], RvadConfig(enhance="none"))
        assert items[0].ok and items[2].ok
        assert not items[1].ok
        assert "AudioFormatError" in items[1].error

    def test_duplicate_input_identical_results(self, tmp_path):
        paths = self._corpus(tmp_path, 1)
        items = run_batch([paths[0], paths[0]], RvadConfig(enhance="none"))
        np.testing.assert_array_equal(items[0].result.labels, items[1].result.labels)

    def test_no_more_workers_than_files(self, tmp_path, monkeypatch):
        started = []

        class InlinePool:
            """Stands in for the process pool: records its size, runs calls here."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        paths = self._corpus(tmp_path, 2)
        items = run_batch(paths, RvadConfig(enhance="none"), workers=64)
        assert started == [2]
        assert [i.path for i in items] == paths and all(i.ok for i in items)

    def test_dead_worker_reported_not_fatal(self, tmp_path, monkeypatch):
        class DyingPool:
            """Stands in for the process pool: the worker for the second file dies."""

            def __init__(self, max_workers):
                self.calls = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                self.calls += 1
                future = Future()
                if self.calls == 2:
                    future.set_exception(BrokenProcessPool("worker died"))
                else:
                    future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
        paths = self._corpus(tmp_path, 2)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        items = run_batch([paths[0], paths[1], str(bad)], RvadConfig(enhance="none"), workers=3)
        assert [i.path for i in items] == [paths[0], paths[1], str(bad)]
        assert items[0].ok
        assert items[1].error == "BrokenProcessPool: worker died"
        assert items[2].error.startswith("AudioFormatError")

    def test_parallel_matches_sequential(self, tmp_path):
        paths = self._corpus(tmp_path, 4)
        seq = run_batch(paths, RvadConfig(enhance="none"), workers=1)
        par = run_batch(paths, RvadConfig(enhance="none"), workers=3)
        for a, b in zip(seq, par):
            np.testing.assert_array_equal(a.result.labels, b.result.labels)


class TestRvadConfig:
    def test_defaults_are_production_values(self):
        cfg = RvadConfig()
        assert cfg.frame_len_ms == 25.0
        assert cfg.frame_shift_ms == 10.0
        assert cfg.super_len == 200
        assert cfg.smooth_n == 18
        assert cfg.alpha == 0.25
        assert cfg.beta == 0.4
        assert cfg.ext_frames == 60
        assert cfg.min_pitch_frames == 2
        assert (cfg.pp_far_left, cfg.pp_far_right) == (33, 47)
        assert (cfg.pp_near_left, cfg.pp_near_right) == (5, 12)
        assert cfg.energy_ratio == 0.05
        assert cfg.theta_sft == 0.5
        assert cfg.noise_forget == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            RvadConfig(mode="turbo")
        with pytest.raises(ValueError):
            RvadConfig(enhance="wiener")
        with pytest.raises(ValueError):
            RvadConfig(alpha=0.0)
        with pytest.raises(ValueError):
            RvadConfig(beta=-1.0)
        with pytest.raises(ValueError):
            RvadConfig(theta_sft=1.0)
        with pytest.raises(ValueError):
            RvadConfig(ext_frames=-5)
        for bad in (
            {"msne_window_frames": 0},
            {"msne_smoothing": 0.0},
            {"msne_smoothing": 1.0},
            {"msne_bias": 0.99},
            {"frame_len_ms": 5.0},
            {"frame_shift_ms": 0.0},
            {"super_len": 0},
            {"pitch_rho": 0.0},
            {"pitch_rho": 1.5},
            {"pitch_f_min": 0.0},
            {"pitch_f_min": 500.0},
            {"pitch_f_min": 400.0},
            {"subtract_floor": -1.0},
            {"hpf_cutoff_hz": -10.0},
            {"noise_forget": -0.1},
            {"noise_forget": 1.1},
            {"subtract_floor": float("nan")},
            {"subtract_floor": float("inf")},
            {"msne_bias": float("inf")},
            {"msne_bias": float("nan")},
            {"hpf_cutoff_hz": float("nan")},
            {"lowfreq_cutoff_hz": float("nan")},
            {"lowfreq_cutoff_hz": -5.0},
            {"frame_len_ms": float("inf")},
            {"pitch_f_max": float("inf")},
            {"beta": float("nan")},
            {"energy_ratio": float("nan")},
            {"energy_ratio": -0.1},
            {"theta_sft": float("nan")},
        ):
            with pytest.raises(ValueError):
                RvadConfig(**bad)
        # no numeric field takes a negative value
        for f in fields(RvadConfig):
            if type(f.default) is not str:
                with pytest.raises(ValueError):
                    RvadConfig(**{f.name: type(f.default)(-1)})
        # the nine integer fields take integers only, and say which field is wrong
        int_fields = [f.name for f in fields(RvadConfig) if type(f.default) is int]
        assert len(int_fields) == 9
        for name in int_fields:
            for bad in (2.5, 3.0, True, False, "3", None, np.float64(3.0), np.bool_(True)):
                with pytest.raises(ValueError, match=name):
                    RvadConfig(**{name: bad})
            assert getattr(RvadConfig(**{name: np.int64(3)}), name) == 3
        RvadConfig(super_len=np.int32(100), ext_frames=np.uint8(0))
        # the closed ends of the ranges stay valid
        for edge in (
            {"super_len": 1},
            {"subtract_floor": 0.0},
            {"hpf_cutoff_hz": 0.0},
            {"noise_forget": 0.0},
            {"noise_forget": 1.0},
            {"lowfreq_cutoff_hz": 0.0},
            {"energy_ratio": 0.0},
        ):
            RvadConfig(**edge)


def test_public_api_is_the_pipeline():
    assert sorted(rvad.__all__) == sorted(
        [
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
    )
    assert all(hasattr(rvad, name) for name in rvad.__all__)


def test_kernel_modules_do_not_import_the_pipeline():
    # the stage kernels sit below the orchestration, and first-pass zeroing
    # counts voiced frames itself instead of reaching into voicing
    src = Path(rvad.__file__).parent
    direct = {}
    for path in src.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update([node.module] if node.module else [a.name for a in node.names])
        direct[path.stem] = names

    def closure(module):
        seen, todo = set(), [module]
        while todo:
            for name in direct[todo.pop()] - seen:
                seen.add(name)
                todo.append(name)
        return seen

    for module in ("dsp", "features", "segments", "voicing", "denoise"):
        assert not closure(module) & {"vad", "cli"}, module
    assert "voicing" not in closure("denoise")
    # the kernels take their defaults from config, which sits below them all
    assert closure("config") == set()


def _python(*args: str) -> str:
    """Run a fresh interpreter that imports this tree's rvad; return its stderr."""
    src = str(Path(rvad.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stderr


@pytest.mark.parametrize("command", [["-c", "import rvad"], ["-m", "rvad.cli", "vad", "--help"]])
def test_start_up_does_not_import_scipy_signal(command):
    # scipy.signal took about 1 s and 48 MB of every process's start-up, and
    # the scipy.linalg package about 300 ms and 24 MB more, through what its
    # __init__ imports; the recursions load its LAPACK extension alone, after
    # the top-level scipy package, whose __init__ sets up the LAPACK library
    stderr = _python("-X", "importtime", *command)
    imported = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if line.startswith("import time:")}
    assert {"rvad.dsp", "scipy"} <= imported
    # and concurrent.futures with multiprocessing about 20 ms, which only
    # run_batch's process pool needs
    unwanted = (
        "scipy.linalg",
        "scipy.signal",
        "scipy._lib._array_api",
        "numpy.f2py",
        "numpy.testing",
        "concurrent.futures",
        "multiprocessing",
    )
    assert not {name for name in imported if any(name == u or name.startswith(u + ".") for u in unwanted)}


@pytest.mark.parametrize("rvad_first", [True, False], ids=["rvad-then-scipy", "scipy-then-rvad"])
def test_lapack_extension_shared_in_either_import_order(rvad_first):
    # rvad loads scipy.linalg._flapack without its package; scipy.linalg,
    # imported before or after, must still have it, and rvad must take one
    # scipy.linalg already loaded rather than load a second copy
    _python(
        "-c",
        f"""
import sys
import numpy as np
if {rvad_first}:
    from rvad import dsp
    assert "scipy.linalg" not in sys.modules and "scipy.linalg._flapack" not in sys.modules
import scipy.linalg, scipy.signal
flapack = sys.modules["scipy.linalg._flapack"]
if not {rvad_first}:
    from rvad import dsp
    assert sys.modules["scipy.linalg._flapack"] is flapack and dsp.dtbtrs is flapack.dtbtrs
assert scipy.linalg._flapack is flapack
rng = np.random.default_rng(7)
for shape, order in [((dsp.RECURSION_STEPS + 3,), "C"), ((dsp.RECURSION_STEPS + 3, 2), "F")]:
    rhs, first, c = np.asarray(rng.standard_normal(shape), order=order), rng.standard_normal(shape[1:]), 0.97
    expected, _ = scipy.signal.lfilter([1.0], [1.0, -c], rhs, axis=0, zi=c * first[None])
    assert dsp.recursion(first, rhs.copy(order=order), c).tobytes() == expected.tobytes()
""",
    )


def test_missing_lapack_extension_is_named():
    # a scipy without the private module at scipy/linalg/_flapack<suffix>
    # gets an ImportError that names the module, where it was looked for and
    # the installed scipy version; no suffix matches here
    _python(
        "-c",
        """
import importlib.machinery, os, scipy
importlib.machinery.EXTENSION_SUFFIXES[:] = [".absent"]
try:
    import rvad
except ImportError as e:
    message = str(e)
else:
    raise AssertionError("rvad imported without scipy.linalg._flapack")
assert "scipy.linalg._flapack" in message and scipy.__version__ in message, message
assert os.path.join(scipy.__path__[0], "linalg") in message, message
""",
    )


def test_kernel_defaults_are_written_once():
    # a default that equals an RvadConfig field's is that field, read as
    # `RvadConfig.<field>`, not the number written again
    config_defaults = {f.default for f in fields(RvadConfig) if type(f.default) in (int, float)}
    src = Path(rvad.__file__).parent
    written = []
    for module in ("dsp", "features", "voicing", "denoise", "segments", "vad", "audio_io"):
        for node in ast.walk(ast.parse((src / f"{module}.py").read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = [*node.args.defaults, *node.args.kw_defaults]
            elif isinstance(node, ast.ClassDef):  # dataclass and NamedTuple fields
                defaults = [stmt.value for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
            else:
                continue
            for default in defaults:
                if isinstance(default, ast.Constant) and default.value in config_defaults:
                    written.append(f"{module}.py:{default.lineno}: {default.value!r}")
    assert not written
