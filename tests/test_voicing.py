"""Voicing detectors: spectral flatness threshold and autocorrelation pitch."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rvad import AudioBuffer, RvadConfig, voicing
from rvad.dsp import (
    BLOCK_BYTES,
    FrameGrid,
    Spectrogram,
    block_frames,
    frame_energy,
    highpass,
    make_grid,
    next_pow2,
    spectral_flatness,
    stft,
)
from rvad.vad import SWEEP_BLOCKS, _first_sweep
from rvad.voicing import _fft_correlation, _lag_correlation, _pitch_peaks, detect_pitch_autocorr, sft_voicing

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
        flen, shift = int(round(0.025 * FS)), int(round(0.010 * FS))
        block = block_frames(flen)
        sweep = SWEEP_BLOCKS * block
        sig = white_noise(sweep * shift / FS + 0.5, 0.005, rng=rng)  # past a sweep block's edge
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
        # it; the gate is the utterance's.  At 8 kHz the frames take the
        # lag-limited sum, at 48 kHz the FFT
        for fs in (FS, 48000):
            sig = np.concatenate([sine(150.0, 0.5, fs, amp=1e-5), sine(150.0, 0.5, fs, amp=0.5)])
            buf = AudioBuffer(sig, fs)
            g = make_grid(buf)
            whole = detect_pitch_autocorr([(buf, g)])
            assert whole[60:].all() and not whole[:40].any()
            split = cut * g.frame_shift
            head = sig[: split + g.frame_len - g.frame_shift]
            rest = sig[split:]
            blocks = [
                (AudioBuffer(head, fs), FrameGrid(g.frame_len, g.frame_shift, cut, len(head))),
                (AudioBuffer(rest, fs), FrameGrid(g.frame_len, g.frame_shift, g.num_frames - cut, len(rest))),
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
        # a tone above the pitch range is not rejected: some multiple of its
        # period falls on a searched lag (tau = fs/f_max .. fs/f_min), where
        # r(tau) is near 1, so every frame is voiced.  At 8 kHz the frames
        # take the lag-limited sum, at 48 kHz the chunked FFT
        for fs in (FS, 48000):
            for freq in (1000.0, 1500.0, 2500.0):
                buf = AudioBuffer(sine(freq, 1.0, fs, amp=0.5), fs)
                assert detect_pitch_autocorr([(buf, make_grid(buf))]).all()

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

    @pytest.mark.parametrize("frames", [0, 5])
    def test_frames_too_short_for_the_shortest_lag_raise(self, frames):
        # lag fs/f_max = 20 samples needs frames of 21; a grid with no frames
        # is refused too, as the file's other frames would be
        n = 16 + 4 * (frames - 1) if frames else 10
        buf = AudioBuffer(sine(150.0, 0.01, amp=0.5)[:n], FS)
        g = make_grid(buf, frame_len_ms=2.0, frame_shift_ms=0.5)
        assert (g.frame_len, g.num_frames) == (16, frames)
        with pytest.raises(ValueError, match="frames of 16 samples .* shortest lag is 20 samples"):
            detect_pitch_autocorr([(buf, g)])
        g = make_grid(buf, frame_len_ms=2.625, frame_shift_ms=0.5)  # 21 samples, the shortest that searches
        assert g.frame_len == 21
        assert len(detect_pitch_autocorr([(buf, g)])) == g.num_frames

    @pytest.mark.parametrize(
        "fs, frame_len_ms, by_fft",
        [(8000, 25.0, False), (16000, 25.0, False), (22050, 25.0, True), (32000, 25.0, True),
         (44100, 25.0, True), (48000, 25.0, True), (16000, 50.0, True)],
    )
    def test_frames_from_22050_hz_up_take_the_fft(self, fs, frame_len_ms, by_fft):
        # the rule reads the frame's geometry: default frames at 8 and 16 kHz
        # take the lag-limited sum one frame at a time, and higher rates or
        # longer frames the FFT, a chunk of block_frames(2 * (flen + lag_hi))
        # frames a call
        buf = AudioBuffer(pulse_train(150.0, 0.5, fs), fs)
        g = make_grid(buf, frame_len_ms=frame_len_ms)
        with (
            mock.patch.object(voicing, "_fft_correlation", wraps=_fft_correlation) as fft,
            mock.patch.object(voicing, "_lag_correlation", wraps=_lag_correlation) as lag,
        ):
            assert detect_pitch_autocorr([(buf, g)]).all()
        fft_rows = sum(len(call.args[0]) for call in fft.call_args_list)
        assert (fft_rows, lag.call_count) == ((g.num_frames, 0) if by_fft else (0, g.num_frames))
        chunk = block_frames(2 * (g.frame_len + _lags(fs, g.frame_len)[1]))
        assert fft.call_count == (-(-g.num_frames // chunk) if by_fft else 0)
        assert chunk < g.num_frames  # so a frame-at-a-time FFT would show

    def test_peak_memory_does_not_grow_with_the_block(self):
        # the FFT side holds one chunk of frames and spectra at a time, not
        # the block's; batching a whole block of 64 frames would pass 3 MB
        fs, peaks = 48000, []
        for frames in (64, 640):
            dur = (frames - 1) * 0.01 + 0.025
            sig = sine(150.0, dur, fs) + white_noise(dur, 0.05, fs, rng=np.random.default_rng(frames))
            buf = AudioBuffer(sig[: round(dur * fs)], fs)
            g = make_grid(buf)
            block = [(buf, g, frame_energy(buf, g))]
            assert g.num_frames == frames
            assert detect_pitch_autocorr(block).mean() > 0.9
            tracemalloc.start()
            try:
                detect_pitch_autocorr(block)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 3 * BLOCK_BYTES
        assert peaks[1] - peaks[0] <= BLOCK_BYTES // 8


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


RATES = (8000, 16000, 22050, 32000, 44100, 48000)


@st.composite
def fft_blocks(draw):
    """(fs, frames, energies, threshold) of a block on the FFT side of the
    pitch search's rule, with more frames than one FFT chunk: the default
    25 ms frame at 22.05-48 kHz, or a frame of any length that the rule sends
    to the FFT.  Each frame has its own scale from 1e-8 to 1e3 and is noise,
    noise with a zeroed stretch or a near-silent tail, an exact-period pulse
    train alone or in noise, a click before the shortest lag (no lag has
    energy on both sides), all zero, or pulses under the gate.  The energies
    only gate the search, so frames of every scale are searched in one
    block: 1 for a searched frame, 0 for an all-zero one and 1e-7 (under
    1e-6 of the loudest) for a gated one.  The threshold is the default, or
    one searched frame's exact peak or one step either side of it, where
    the FFT's error alone would flip that frame's decision."""
    fs, flen = draw(
        st.one_of(
            st.sampled_from([(fs, round(0.025 * fs)) for fs in RATES[2:]]),
            st.tuples(st.sampled_from(RATES), st.integers(2, 2400)),
        )
    )
    lag_lo, lag_hi = _lags(fs, flen)
    assume(lag_lo <= lag_hi)
    q, n = flen - lag_lo + 1, next_pow2(flen + lag_hi)
    assume(q * q > voicing.FFT_COST * n * np.log2(n))
    chunk = block_frames(2 * (flen + lag_hi))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["noise", "zeroed", "tail", "pulses", "pulses in noise", "click", "zero", "gated"]),
                st.sampled_from([1e-8, 1e-3, 1.0, 1e3]),
            ),
            min_size=chunk + 1,
            max_size=2 * chunk + 1,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames, energies = np.zeros((len(rows), flen)), np.ones(len(rows))
    for m, (f, (kind, scale)) in enumerate(zip(frames, rows)):
        if kind in ("noise", "zeroed", "tail", "pulses in noise"):
            f[:] = rng.standard_normal(flen)
        if "pulses" in kind or kind == "gated":
            period = int(rng.integers(lag_lo, lag_hi + 1))
            f[int(rng.integers(period)) :: period] += 10.0 if kind == "pulses in noise" else 1.0
        if kind == "zeroed":
            lo = int(rng.integers(flen))
            f[lo : lo + int(rng.integers(flen + 1))] = 0.0
        if kind == "tail":
            f[int(rng.integers(lag_lo, flen)) :] *= 10.0 ** -rng.uniform(6.0, 20.0)
        if kind == "click":
            f[int(rng.integers(lag_lo))] = 1.0
        f *= scale
        energies[m] = {"zero": 0.0, "gated": 1e-7}.get(kind, 1.0)
    threshold = draw(st.sampled_from(["default", "peak", "below peak", "above peak"]))
    at = draw(st.integers(0, len(rows) - 1))
    return fs, frames, energies, threshold, at


def _lags(fs, flen):
    return round(fs / RvadConfig.pitch_f_max), min(round(fs / RvadConfig.pitch_f_min), flen - 1)


def _denominators(f, lag_lo, lag_hi):
    """sqrt of the energies of x(0 .. flen-1-tau) and x(tau .. flen-1), the
    per-frame form of the pitch search's normalisation."""
    flen, lags = len(f), np.arange(lag_lo, lag_hi + 1)
    csum = np.concatenate(([0.0], np.cumsum(f * f)))
    return np.sqrt(csum[flen - lags] * (csum[flen] - csum[lags]))


@settings(max_examples=300, deadline=None)
@given(block=fft_blocks())
def test_fft_correlation_gives_the_decisions_of_the_lag_limited_sum(block):
    fs, frames, energies, threshold, at = block
    lag_lo, lag_hi = _lags(fs, frames.shape[1])
    searched = (energies > 0.0) & (energies >= voicing.ENERGY_GATE_RATIO * energies.max())
    exact = [_lag_correlation(f, lag_lo, lag_hi) for f in frames]
    denoms = [_denominators(f, lag_lo, lag_hi) for f in frames]
    peaks = np.array([(c[d > 0.0] / d[d > 0.0]).max() if (d > 0.0).any() else -np.inf for c, d in zip(exact, denoms)])

    # a threshold at one searched frame's normalized peak, or one step either side
    candidates = np.flatnonzero(searched & np.isfinite(peaks))
    peak = peaks[candidates[at % len(candidates)]] if len(candidates) else RvadConfig.pitch_rho
    rho = {"default": RvadConfig.pitch_rho, "peak": peak, "below peak": np.nextafter(peak, -np.inf),
           "above peak": np.nextafter(peak, np.inf)}[threshold]
    args = (frames, energies, fs, RvadConfig.pitch_f_min, RvadConfig.pitch_f_max, rho)
    with mock.patch.object(voicing, "FFT_COST", np.inf):
        direct = _pitch_peaks(*args)
    assert direct.tobytes() == (searched & (peaks >= rho)).tobytes()

    with (
        mock.patch.object(voicing, "_fft_correlation", wraps=_fft_correlation) as fft,
        mock.patch.object(voicing, "_lag_correlation", wraps=_lag_correlation) as lag,
    ):
        chunked = _pitch_peaks(*args)
    # a frame whose decision the FFT's error could flip is searched again
    # exactly, so the decisions are the direct path's everywhere
    assert chunked.tobytes() == direct.tobytes()

    # each row of each stack lies within 1e-12 * (f.f) of its own exact sum,
    # and exactly the rows within twice FFT_ERROR * (f.f) of the threshold,
    # by their own f.f, are searched again
    index = {f.tobytes(): m for m, f in enumerate(frames)}
    stacked, near = [], []
    for call in fft.call_args_list:
        for f, corr in zip(call.args[0], _fft_correlation(*call.args)):
            m = index[f.tobytes()]
            stacked.append(m)
            assert np.abs(corr - exact[m]).max() <= 1e-12 * (f @ f)
            valid = denoms[m] > 0.0
            margin = (corr - rho * denoms[m])[valid].max() if valid.any() else -np.inf
            if abs(margin) <= 2.0 * voicing.FFT_ERROR * (f @ f):
                near.append(m)
    assert sorted(stacked) == sorted(index[f.tobytes()] for f in frames[searched])
    assert sorted(index[call.args[0].tobytes()] for call in lag.call_args_list) == sorted(near)
