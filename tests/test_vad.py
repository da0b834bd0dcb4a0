"""Per-segment VAD decisions, post-processing, and the full pipeline."""

import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rvad
from rvad import AudioBuffer, RvadConfig, read_wav, run_batch, run_denoise, run_rvad, write_wav
from rvad.dsp import frame_energy, highpass, make_grid
from rvad.segments import extend_segments, mask_to_segments, segments_to_mask
from rvad.vad import _energies, _first_sweep, _labels, post_process, segment_vad
from rvad.voicing import sft_voicing

from oracles import front_whole
from synth import FS, pulse_train, utterance, white_noise


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

    def test_speech_confined_to_extended_pitch_segments(self):
        rng = np.random.default_rng(76)
        buf = utterance([(0.4, 0.8, 140.0), (2.0, 0.6, 200.0)], 3.5, noise_rms=0.005, rng=rng)
        cfg = RvadConfig(mode="fast", enhance="none")
        r = run_rvad(buf, cfg)
        filtered = highpass(buf, cfg.hpf_cutoff_hz)
        grid = make_grid(filtered)
        mask = sft_voicing([(filtered, grid)], cfg.theta_sft)
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
        e2 = _energies(audio, _first_sweep(audio, cfg, voicing), cfg)
        enhanced, _ = run_denoise(audio, cfg, voicing)
        burst = slice(int(2.05 * FS), int(2.25 * FS))
        assert np.all(enhanced.samples[burst] == 0.0)
        assert e2.tobytes() == frame_energy(enhanced, grid).tobytes()
        assert not np.array_equal(e2, frame_energy(highpass(audio), grid))


def _random_utterance(fs, seconds, seed):
    """Noise at a random level with pulse-train bursts at random levels and
    a loud noise burst, so that frames are voiced, zeroed, or quiet enough
    for the autocorrelation gate only once a louder frame comes later."""
    rng = np.random.default_rng(seed)
    n = int(seconds * fs)
    samples = 10.0 ** rng.uniform(-5.0, -1.0) * rng.standard_normal(n)
    for _ in range(int(rng.integers(0, 4))):
        lo = int(rng.integers(0, n + 1))
        tone = pulse_train(rng.uniform(100.0, 300.0), rng.uniform(0.1, 1.0), fs, amp=10.0 ** rng.uniform(-4.0, -0.5))
        samples[lo : lo + len(tone)] += tone[: n - lo]
    lo = int(rng.integers(0, n + 1))
    width = min(int(rng.integers(0, fs // 2)), n - lo)
    samples[lo : lo + width] += 10.0 ** rng.uniform(-2.0, -0.5) * rng.standard_normal(width)
    return AudioBuffer(samples, fs)


PIPELINES = dict(
    fs=st.sampled_from([8000, 16000, 44100, 48000]),
    seconds=st.floats(0.0, 3.0),
    mode=st.sampled_from(["full", "fast"]),
    enhance=st.sampled_from(["none", "msne", "msne-mod"]),
    seed=st.integers(0, 2**32 - 1),
)


class TestPipelineProperties:
    """Invariants of the two sweeps over random audio, rates and configs."""

    @settings(max_examples=50, deadline=None)
    @given(**PIPELINES)
    def test_sweeps_equal_whole_buffer_oracle(self, fs, seconds, mode, enhance, seed):
        audio = _random_utterance(fs, seconds, seed)
        cfg = RvadConfig(mode=mode, enhance=enhance)
        expected = front_whole(audio, cfg)
        first = _first_sweep(audio, cfg, None)
        e2 = _energies(audio, first, cfg)
        assert first.mask.tobytes() == expected.mask.tobytes()
        assert e2.tobytes() == expected.e2.tobytes()
        assert run_rvad(audio, cfg).labels.tobytes() == _labels(expected.mask, expected.e2, cfg).tobytes()

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


@pytest.mark.parametrize("enhance", ["none", "msne", "msne-mod"])
@pytest.mark.parametrize("mode", ["fast", "full"])
def test_peak_memory_bounded_by_signal_arrays(mode, enhance):
    # two minutes at 16 kHz, with unvoiced bursts for the first pass to zero;
    # both sweeps hold one block of samples at a time, so run_rvad keeps
    # per-frame arrays only, and run_denoise adds what it returns: the
    # output signal and, with enhancement, the noise track (1.6x the input)
    rng = np.random.default_rng(83)
    fs = 16000
    bursts = [(3.0 * k + 0.5, 1.2, 120.0 + 2.0 * k) for k in range(40)]
    samples = utterance(bursts, 120.0, fs, noise_rms=0.01, rng=rng).samples.copy()
    for k in range(40):
        lo = int((3.0 * k + 2.0) * fs)
        samples[lo : lo + fs // 4] += 0.3 * rng.standard_normal(fs // 4)
    buf = AudioBuffer(np.clip(samples, -1.0, 1.0), fs)
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

        monkeypatch.setattr(rvad.vad, "ProcessPoolExecutor", InlinePool)
        paths = self._corpus(tmp_path, 2)
        items = run_batch(paths, RvadConfig(enhance="none"), workers=64)
        assert started == [2]
        assert [i.path for i in items] == paths and all(i.ok for i in items)

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
        ):
            with pytest.raises(ValueError):
                RvadConfig(**bad)
        # the closed ends of the ranges stay valid
        for edge in (
            {"super_len": 1},
            {"subtract_floor": 0.0},
            {"hpf_cutoff_hz": 0.0},
            {"noise_forget": 0.0},
            {"noise_forget": 1.0},
        ):
            RvadConfig(**edge)


def test_public_api_is_the_pipeline():
    assert sorted(rvad.__all__) == sorted(
        [
            "run_rvad",
            "run_denoise",
            "run_batch",
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
