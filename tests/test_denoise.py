"""High-energy segment zeroing, minimum-statistics noise tracking, subtraction, OLA."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import rvad.denoise
from rvad import AudioBuffer
from rvad.denoise import (
    MsneState,
    OverlapAddState,
    _envelope,
    detect_high_energy,
    lowfreq_suppress,
    msne_noise_track,
    noise_segments,
    reconstruct,
    spectral_subtract,
    zero_segments,
)
from rvad.dsp import FrameGrid, Spectrogram, block_frames, frame_energy, highpass, make_grid, stft
from rvad.features import FrameFeatures, compute_features
from rvad.segments import mask_to_segments, segments_to_mask
from rvad.vad import RvadConfig, _denoise, _first_sweep, _second_sweep
from rvad.voicing import detect_pitch_autocorr

from oracles import first_pass_denoise, msne_noise_track_loop, reconstruct_loop, spectral_subtract_whole
from synth import FS, pulse_train, white_noise


def _features_from(d_smooth):
    d_smooth = np.asarray(d_smooth, dtype=float)
    return FrameFeatures(e=d_smooth.copy(), snr_db=np.zeros_like(d_smooth), d=d_smooth.copy(), d_smooth=d_smooth)


class TestDetectHighEnergy:
    def test_constant_positive_is_one_full_segment(self):
        feats = _features_from(np.full(300, 2.0))
        assert detect_high_energy(feats, super_len=200, alpha=0.25) == [(0, 299)]

    def test_all_zero_no_segments(self):
        feats = _features_from(np.zeros(300))
        assert detect_high_energy(feats, super_len=200) == []

    def test_plateau_grouping_matches_bruteforce(self):
        d = np.zeros(200)
        d[60:70] = 5.0
        feats = _features_from(d)
        got = detect_high_energy(feats, super_len=200, alpha=0.25)

        # reference loop: threshold then group consecutive frames
        theta = 0.25 * d.max()
        hot = d > theta
        ref, start = [], None
        for i, h in enumerate(hot):
            if h and start is None:
                start = i
            if not h and start is not None:
                ref.append((start, i - 1))
                start = None
        if start is not None:
            ref.append((start, len(hot) - 1))
        assert got == ref == [(60, 69)]

    def test_per_super_segment_thresholds(self):
        # second super-segment has its own maximum, so its small bumps survive
        d = np.concatenate([np.where(np.arange(200) == 10, 100.0, 0.0), np.where(np.arange(200) == 30, 1.0, 0.0)])
        feats = _features_from(d)
        got = detect_high_energy(feats, super_len=200, alpha=0.25)
        assert (230, 230) in got


class TestNoiseSegments:
    def test_boundary_at_min_pitch_frames(self):
        # (0, 4) holds exactly two voiced frames and is zeroed; (5, 9) holds three and is kept
        mask = np.zeros(10, dtype=bool)
        mask[[1, 2, 6, 7, 8]] = True
        segs = [(0, 4), (5, 9)]
        assert noise_segments(segs, mask, min_pitch_frames=2) == [(0, 4)]
        assert noise_segments(segs, mask, min_pitch_frames=3) == segs
        assert noise_segments(segs, mask, min_pitch_frames=1) == []

    def test_counts_only_inside_each_segment(self):
        mask = np.ones(10, dtype=bool)
        mask[3:8] = False
        assert noise_segments([(3, 7), (2, 8), (0, 9)], mask) == [(3, 7), (2, 8)]
        assert noise_segments([], mask) == []


class TestFirstPassDenoise:
    def test_segment_with_enough_voiced_untouched(self):
        buf = AudioBuffer(np.ones(1000) * 0.1, FS)
        grid = make_grid(buf)
        mask = np.zeros(grid.num_frames, dtype=bool)
        mask[2:5] = True  # 3 voiced frames > 2
        out, zeroed = first_pass_denoise(buf, grid, [(0, 9)], mask)
        assert zeroed == []
        assert out is buf

    def test_unvoiced_segment_zeroed_exactly(self):
        buf = AudioBuffer(np.ones(1200) * 0.1, FS)
        grid = make_grid(buf)
        mask = np.zeros(grid.num_frames, dtype=bool)
        out, zeroed = first_pass_denoise(buf, grid, [(3, 6)], mask)
        assert zeroed == [(3, 6)]
        lo, hi = 3 * grid.frame_shift, 6 * grid.frame_shift + grid.frame_len
        assert np.all(out.samples[lo:hi] == 0.0)
        np.testing.assert_array_equal(out.samples[:lo], buf.samples[:lo])
        np.testing.assert_array_equal(out.samples[hi:], buf.samples[hi:])

    def test_input_not_mutated(self):
        buf = AudioBuffer(np.ones(600) * 0.2, FS)
        grid = make_grid(buf)
        first_pass_denoise(buf, grid, [(0, 2)], np.zeros(grid.num_frames, dtype=bool))
        assert np.all(buf.samples == 0.2)

    def test_injected_burst_removed_tone_bit_identical(self):
        # derived construction: tone, then an unvoiced white burst, then tone
        rng = np.random.default_rng(50)
        fs = FS
        sig = np.zeros(int(5.5 * fs))
        tone1 = pulse_train(150.0, 1.0, fs, amp=0.3)
        tone2 = pulse_train(200.0, 1.0, fs, amp=0.3)
        sig[int(0.5 * fs) : int(0.5 * fs) + len(tone1)] = tone1
        burst_lo, burst_hi = int(2.5 * fs), int(2.9 * fs)
        sig[burst_lo:burst_hi] = white_noise(0.4, 0.6, fs, rng)
        sig[int(3.9 * fs) : int(3.9 * fs) + len(tone2)] = tone2

        buf = AudioBuffer(sig, fs)
        filtered = highpass(buf)
        grid = make_grid(filtered)
        feats = compute_features(frame_energy(filtered, grid))
        segs = detect_high_energy(feats)
        mask = detect_pitch_autocorr([(filtered, grid)])
        out, zeroed = first_pass_denoise(filtered, grid, segs, mask)

        assert zeroed, "burst was not detected as a high-energy noise segment"
        assert np.all(out.samples[burst_lo:burst_hi] == 0.0)
        tone1_span = slice(int(0.5 * fs), int(0.5 * fs) + len(tone1))
        tone2_span = slice(int(3.9 * fs), int(3.9 * fs) + len(tone2))
        np.testing.assert_array_equal(out.samples[tone1_span], filtered.samples[tone1_span])
        np.testing.assert_array_equal(out.samples[tone2_span], filtered.samples[tone2_span])


class TestMsne:
    def test_white_noise_convergence_band(self):
        # Monte-Carlo over 30 seeds; the asserted band was recorded from the
        # first run of this experiment: per-run means sit near 0.70 of
        # sigma^2 * sum(w^2) and individual bins stay inside [0.15, 1.45]
        sigma = 0.05
        run_means = []
        for run in range(30):
            rng = np.random.default_rng(1000 + run)
            buf = AudioBuffer(rng.standard_normal(5 * FS) * sigma, FS)
            grid = make_grid(buf)
            noise = msne_noise_track(np.abs(stft(buf, grid).frames) ** 2, MsneState())
            expected = sigma**2 * np.sum(np.hamming(grid.frame_len) ** 2)
            stationary = noise[300:] / expected
            run_means.append(stationary.mean())
            assert stationary.min() >= 0.15
            assert stationary.max() <= 1.45
        assert 0.58 <= np.mean(run_means) <= 0.82

    def test_all_zero_input(self):
        assert np.all(msne_noise_track(np.zeros((10, 8)), MsneState()) == 0.0)

    def test_single_loud_frame_ignored_by_minimum(self):
        power = np.ones((11, 4))
        power[10] = 1000.0
        track = msne_noise_track(power, MsneState(), window_frames=20)
        np.testing.assert_array_equal(track[10], track[9])

    def test_bias_scales_estimate_exactly(self):
        power = np.random.default_rng(51).random((60, 16))
        a = msne_noise_track(power, MsneState(), bias=1.5)
        b = msne_noise_track(power, MsneState(), bias=3.0)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_estimate_bounded_by_bias_times_smoothed(self):
        power = np.random.default_rng(52).random((100, 16))
        track = msne_noise_track(power, MsneState(), bias=1.5, window_frames=30)
        smoothed = power[0]
        for m in range(len(power)):
            if m:
                smoothed = 0.85 * smoothed + 0.15 * power[m]
            assert np.all(track[m] <= 1.5 * smoothed + 1e-15)
            assert np.all(track[m] >= 0.0)

    def test_hold_freezes_state(self):
        # frozen frames repeat the last estimate, and later frames come out
        # as if the frozen ones had never been there
        power = np.random.default_rng(53).random((30, 8))
        frozen = np.zeros(30, dtype=bool)
        frozen[15:20] = True
        track = msne_noise_track(power, MsneState(), frozen, window_frames=10)
        for m in range(15, 20):
            np.testing.assert_array_equal(track[m], track[14])
        np.testing.assert_array_equal(track[~frozen], msne_noise_track(power[~frozen], MsneState(), window_frames=10))
        # frames frozen before the first update hold the initial zero estimate
        frozen[:3] = True
        assert np.all(msne_noise_track(power, MsneState(), frozen, window_frames=10)[:3] == 0.0)

    def test_frozen_frames_in_track(self):
        rng = np.random.default_rng(54)
        buf = AudioBuffer(rng.standard_normal(8000) * 0.1, FS)
        grid = make_grid(buf)
        power = np.abs(stft(buf, grid).frames) ** 2
        frozen = np.zeros(grid.num_frames, dtype=bool)
        frozen[10:20] = True
        track = msne_noise_track(power, MsneState(), frozen)
        for m in range(10, 20):
            np.testing.assert_array_equal(track[m], track[9])

    @settings(max_examples=300, deadline=None)
    @given(
        frames=st.integers(0, 40),
        bins=st.integers(1, 6),
        window=st.integers(1, 60),
        smoothing=st.floats(0.01, 0.99),
        bias=st.floats(1.0, 4.0),
        scale=st.sampled_from([0.0, 1.0, 1e6]),
        freeze=st.sampled_from(["none", "random", "all"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_oracle(self, frames, bins, window, smoothing, bias, scale, freeze, seed):
        rng = np.random.default_rng(seed)
        power = scale * rng.random((frames, bins))
        frozen = {"none": None, "random": rng.random(frames) < 0.4, "all": np.ones(frames, dtype=bool)}[freeze]
        got = msne_noise_track(power, MsneState(), frozen, smoothing, bias, window)
        expected = msne_noise_track_loop(power, frozen, smoothing, bias, window)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


    @settings(max_examples=100, deadline=None)
    @given(
        cuts=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        bins=st.sampled_from([1, 2, 129, 257]),
        smoothing=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_smoothing_equals_lfilter(self, cuts, bins, smoothing, seed):
        # with a one-frame window and no bias the track is the smoothed
        # periodogram, which starts from the first frame's
        rng = np.random.default_rng(seed)
        power = rng.random((sum(cuts), bins)) * 10.0 ** rng.uniform(-6, 6, (sum(cuts), 1))
        expected = power.copy()
        if len(power) > 1:
            expected[1:], _ = lfilter([1.0 - smoothing], [1.0, -smoothing], power[1:], axis=0, zi=smoothing * power[:1])
        state = MsneState()
        edges = np.cumsum([0, *cuts])
        got = [
            msne_noise_track(power[lo:hi], state, None, smoothing, 1.0, 1)
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        assert np.concatenate(got).tobytes() == expected.tobytes()


@st.composite
def _cuts(draw, unit):
    """Block lengths that tile some frames: 1-row blocks, blocks one short
    of, equal to and one past `unit`, longer ones, and empty ones."""
    sizes = st.one_of(st.sampled_from([1, max(unit - 1, 1), unit, unit + 1, 2 * unit + 1]), st.integers(0, 3 * unit))
    return draw(st.lists(sizes, min_size=1, max_size=10))


class TestStreamedTracker:
    """One `MsneState` carried over blocks cut anywhere, against the loop
    tracker on all frames at once."""

    @settings(max_examples=300, deadline=None)
    @given(
        window=st.one_of(st.sampled_from([1, 2]), st.integers(3, 24)),
        data=st.data(),
        bins=st.integers(1, 5),
        smoothing=st.floats(0.01, 0.99),
        freeze=st.sampled_from(["none", "random", "segment-edges", "whole-blocks", "all"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_loop_oracle(self, window, data, bins, smoothing, freeze, seed):
        cuts = data.draw(_cuts(window))
        rng = np.random.default_rng(seed)
        frames = sum(cuts)
        power = rng.random((frames, bins)) * rng.choice([1e-3, 1.0, 1e6], size=(frames, 1))
        edges = np.cumsum([0, *cuts])
        frozen = np.zeros(frames, dtype=bool)
        if freeze == "random":
            frozen = rng.random(frames) < 0.4
        elif freeze == "segment-edges":
            # frozen runs that start as the tracker closes a window-long
            # segment of live frames, or one live frame before it does
            live = m = 0
            while m < frames:
                if live % window in (0, window - 1) and rng.random() < 0.6:
                    run = int(rng.integers(1, 4))
                    frozen[m : m + run] = True
                    m += run
                else:
                    live += 1
                    m += 1
        elif freeze == "whole-blocks":
            for lo, hi in zip(edges[:-1], edges[1:]):
                frozen[lo:hi] = rng.random() < 0.5
        elif freeze == "all":
            frozen[:] = True
        mask = None if freeze == "none" else frozen

        state = MsneState()
        pieces = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            block = power[lo:hi].copy()
            pieces.append(msne_noise_track(block, state, None if mask is None else mask[lo:hi], smoothing, 1.5, window))
            assert block.tobytes() == power[lo:hi].tobytes()
        got = np.concatenate(pieces)
        expected = msne_noise_track_loop(power, mask, smoothing, 1.5, window)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert state.live == frames - np.count_nonzero(frozen if mask is not None else np.zeros(frames, bool))


class TestSpectralSubtract:
    def test_zero_noise_identity(self):
        rng = np.random.default_rng(55)
        frames = rng.standard_normal((5, 129)) + 1j * rng.standard_normal((5, 129))
        spec = Spectrogram(frames.copy(), 256, FS)
        out = spectral_subtract(spec, np.abs(frames) ** 2, np.zeros((5, 129)))
        np.testing.assert_allclose(out.frames, frames, rtol=1e-12)

    def test_floor_engages_when_noise_equals_power(self):
        frames = np.full((1, 129), 2.0 + 0j)
        noise = np.full((1, 129), 4.0)  # |X|^2 == noise
        out = spectral_subtract(Spectrogram(frames, 256, FS), np.abs(frames) ** 2, noise, floor=0.002)
        np.testing.assert_allclose(np.abs(out.frames) ** 2, 0.002 * 4.0, rtol=1e-12)

    def test_phase_retained(self):
        frames = np.array([[1.0 + 1.0j]])
        out = spectral_subtract(Spectrogram(frames, 2, FS), np.abs(frames) ** 2, np.array([[0.5]]))
        assert np.angle(out.frames[0, 0]) == pytest.approx(np.pi / 4)

    def test_power_bounds(self):
        rng = np.random.default_rng(56)
        frames = rng.standard_normal((20, 129)) + 1j * rng.standard_normal((20, 129))
        noise = rng.random((20, 129)) * 2
        out = spectral_subtract(Spectrogram(frames.copy(), 256, FS), np.abs(frames) ** 2, noise, floor=0.002)
        p = np.abs(out.frames) ** 2
        assert np.all(p >= 0.002 * noise - 1e-15)
        assert np.all(p <= np.abs(frames) ** 2 + 0.002 * noise + 1e-12)

    def test_oracle_noise_improves_snr(self):
        # derived: with the true noise power per bin, the output should be
        # closer to the clean tone than the noisy input was
        rng = np.random.default_rng(57)
        clean = pulse_train(250.0, 2.0, FS, amp=0.3)
        noise_t = white_noise(2.0, 0.05, FS, rng)
        cbuf, nbuf = AudioBuffer(clean, FS), AudioBuffer(clean + noise_t, FS)
        grid = make_grid(cbuf)
        spec_noisy = stft(nbuf, grid)
        sigma2 = 0.05**2 * np.sum(np.hamming(grid.frame_len) ** 2)
        oracle = np.full(spec_noisy.frames.shape, sigma2)
        out = reconstruct(spectral_subtract(spec_noisy, np.abs(spec_noisy.frames) ** 2, oracle), grid)

        covered = (grid.num_frames - 1) * grid.frame_shift + grid.frame_len
        err_before = np.mean((nbuf.samples[:covered] - clean[:covered]) ** 2)
        err_after = np.mean((out.samples[:covered] - clean[:covered]) ** 2)
        assert err_after < err_before

    @settings(max_examples=100, deadline=None)
    @given(
        frames=st.integers(0, 12),
        scale=st.sampled_from([1e-3, 1.0, 1e5]),
        zero_bins=st.floats(0.0, 0.5),
        floor=st.sampled_from([0.0, 0.002, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_whole_array_oracle(self, frames, scale, zero_bins, floor, seed):
        rng = np.random.default_rng(seed)
        x = scale * (rng.standard_normal((frames, 33)) + 1j * rng.standard_normal((frames, 33)))
        x[rng.random(x.shape) < zero_bins] = 0.0
        noise = scale**2 * rng.random(x.shape) * 3.0
        expected = spectral_subtract_whole(Spectrogram(x, 64, FS), noise, floor).frames
        got = spectral_subtract(Spectrogram(x.copy(), 64, FS), np.abs(x) ** 2, noise, floor).frames
        assert got.tobytes() == expected.tobytes()

    def test_shape_mismatch_rejected(self):
        spec = Spectrogram(np.zeros((2, 129), complex), 256, FS)
        with pytest.raises(ValueError):
            spectral_subtract(spec, np.zeros((2, 129)), np.zeros((3, 129)))
        with pytest.raises(ValueError):
            spectral_subtract(spec, np.zeros((3, 129)), np.zeros((2, 129)))


class TestLowfreqSuppress:
    def _spec_with_low_fraction(self, fraction):
        # 7 bins below 217 Hz at fs=8000, nfft=256
        frames = np.zeros((1, 129), dtype=complex)
        frames[0, :7] = np.sqrt(fraction / 7.0)
        frames[0, 50] = np.sqrt(1.0 - fraction)
        return Spectrogram(frames, 256, FS)

    def test_dominant_low_energy_zeroed(self):
        out = lowfreq_suppress(self._spec_with_low_fraction(0.6))
        assert np.all(out.frames[0, :7] == 0.0)
        assert out.frames[0, 50] != 0.0

    def test_minor_low_energy_untouched(self):
        spec = self._spec_with_low_fraction(0.4)
        before = spec.frames.copy()
        out = lowfreq_suppress(spec)
        np.testing.assert_array_equal(out.frames, before)

    def test_exactly_half_untouched(self):
        # powers of 0.25 per bin are exact in binary, so low == 0.5 * total
        frames = np.zeros((1, 129), dtype=complex)
        frames[0, [0, 1, 50, 51]] = 0.5
        spec = Spectrogram(frames, 256, FS)
        before = spec.frames.copy()
        out = lowfreq_suppress(spec)
        np.testing.assert_array_equal(out.frames, before)

    def test_cut_bin_count_at_8k(self):
        spec = Spectrogram(np.zeros((1, 129), complex), 256, FS)
        assert int(np.ceil(217.0 / spec.bin_hz)) == 7


class TestReconstruct:
    def test_round_trip_interior(self):
        rng = np.random.default_rng(58)
        x = rng.standard_normal(3 * FS) * 0.2
        buf = AudioBuffer(x, FS)
        grid = make_grid(buf)
        y = reconstruct(stft(buf, grid), grid).samples
        covered = (grid.num_frames - 1) * grid.frame_shift + grid.frame_len
        interior = slice(grid.frame_len, covered - grid.frame_len)
        err = np.sqrt(np.mean((y[interior] - x[interior]) ** 2)) / np.sqrt(np.mean(x[interior] ** 2))
        assert err < 1e-6

    def test_zero_spectrogram_zero_signal(self):
        buf = AudioBuffer(np.zeros(1000), FS)
        grid = make_grid(buf)
        y = reconstruct(stft(buf, grid), grid)
        assert np.all(y.samples == 0.0)
        assert len(y) == grid.total_samples

    def test_error_profile_confined_to_edges(self):
        rng = np.random.default_rng(59)
        x = rng.standard_normal(1501) * 0.3
        buf = AudioBuffer(x, FS)
        grid = make_grid(buf)
        y = reconstruct(stft(buf, grid), grid).samples
        covered = (grid.num_frames - 1) * grid.frame_shift + grid.frame_len
        err = np.abs(y - x)
        # covered span reconstructs essentially exactly; anything beyond the
        # last full frame is zeroed
        assert err[:covered].max() < 1e-9
        assert np.all(y[covered:] == 0.0)

    @pytest.mark.parametrize("fs, samples", [(FS, 1501), (16000, 4000), (44100, 30000), (48000, 3000)])
    def test_matches_loop_oracle(self, fs, samples):
        buf = AudioBuffer(np.random.default_rng(60).standard_normal(samples), fs)
        grid = make_grid(buf)
        spec = stft(buf, grid)
        expected = reconstruct_loop(spec, grid).samples
        assert reconstruct(spec, grid).samples.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        geometry=st.sampled_from([(200, 80), (400, 160), (1200, 480), (7, 3), (6, 6), (9, 2), (5, 4)]),
        data=st.data(),
        spare=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_loop_oracle(self, geometry, data, spare, seed):
        flen, shift = geometry
        cuts = data.draw(_cuts(max(flen // shift, 1) + 1))
        num = sum(cuts)
        total = (num - 1) * shift + flen + spare if num else spare
        rng = np.random.default_rng(seed)
        buf = AudioBuffer(rng.standard_normal(total), FS)
        grid = FrameGrid(flen, shift, num, total)
        spec = stft(buf, grid)
        expected = reconstruct_loop(spec, grid).samples
        state, pieces = OverlapAddState(), []
        edges = np.cumsum([0, *cuts])
        for lo, hi in zip(edges[:-1], edges[1:]):
            pieces.append(reconstruct(Spectrogram(spec.frames[lo:hi], spec.nfft, FS), grid, state).samples)
        got = np.concatenate(pieces)
        covered = (num - 1) * shift + flen if num else 0
        assert len(got) == covered
        assert got.tobytes() == expected[:covered].tobytes()
        assert state.next_frame == num

    def test_envelope_is_cached_and_read_only(self):
        first = _envelope(400, 160, 64, 2, 64 * 160)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        again = _envelope(400, 160, 64, 2, 64 * 160)
        assert again.tobytes() == first.tobytes()
        # reconstructing the same blocks again gives the same bytes
        buf = AudioBuffer(np.random.default_rng(62).standard_normal(16000), 16000)
        grid = make_grid(buf)
        spec = stft(buf, grid)
        runs = []
        for _ in range(2):
            state, pieces = OverlapAddState(), []
            for lo in range(0, grid.num_frames, 20):
                block = Spectrogram(spec.frames[lo : lo + 20], spec.nfft, 16000)
                pieces.append(reconstruct(block, grid, state).samples.tobytes())
            runs.append(b"".join(pieces))
        assert runs[0] == runs[1]

    def test_frame_count_mismatch_rejected(self):
        buf = AudioBuffer(np.zeros(1000), FS)
        grid = make_grid(buf)
        spec = stft(buf, grid)
        bad = Spectrogram(spec.frames[:-1], spec.nfft, spec.sample_rate_hz)
        with pytest.raises(ValueError):
            reconstruct(bad, grid)
        # a block must fit the grid from the state's next frame on
        with pytest.raises(ValueError):
            reconstruct(bad, grid, OverlapAddState(next_frame=2))
        with pytest.raises(ValueError):
            reconstruct(spec, FrameGrid(grid.frame_len, grid.frame_shift, grid.num_frames, 900))


class TestBlockwiseSecondPass:
    """`vad._second_sweep` runs block by block; the oracle path takes the
    whole spectrogram through the loop references.  A zero cutoff makes the
    high-pass the identity, so the sweep works on the samples as given."""

    @settings(max_examples=150, deadline=None)
    @given(
        fs=st.sampled_from([8000, 16000, 44100, 48000]),
        length=st.sampled_from(["zero", "one", "block-1", "block", "block+1", "two-blocks+1", "random"]),
        window=st.sampled_from(["one", "two", "block-1", "block+1", "two-blocks", "random"]),
        enhance=st.sampled_from(["msne", "msne-mod"]),
        freeze=st.sampled_from(["none", "random", "across-edge", "from-start", "all"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_whole_array_oracle(self, fs, length, window, enhance, freeze, seed):
        rng = np.random.default_rng(seed)
        flen, shift = int(round(0.025 * fs)), int(round(0.010 * fs))
        block = block_frames(flen)
        num = {
            "zero": 0,
            "one": 1,
            "block-1": block - 1,
            "block": block,
            "block+1": block + 1,
            "two-blocks+1": 2 * block + 1,
            "random": int(rng.integers(2, 3 * block)),
        }[length]
        total = (num - 1) * shift + flen + int(rng.integers(0, shift)) if num else int(rng.integers(0, flen))
        samples = 0.1 * rng.standard_normal(total) + 0.3 * np.sin(2 * np.pi * 150.0 / fs * np.arange(total))
        samples[rng.random(total) < 0.2] = 0.0
        audio = AudioBuffer(samples, fs)
        grid = FrameGrid(flen, shift, num, total)
        assert grid == make_grid(audio)

        frozen = np.zeros(num, dtype=bool)
        if freeze == "random":
            frozen = rng.random(num) < 0.3
        elif freeze == "across-edge":
            frozen[max(block - 3, 0) : block + 3] = True
        elif freeze == "from-start":
            frozen[: int(rng.integers(1, 2 * block))] = True
        elif freeze == "all":
            frozen[:] = True
        zeroed = mask_to_segments(frozen)
        w = {"one": 1, "two": 2, "block-1": block - 1, "block+1": block + 1, "two-blocks": 2 * block}.get(window)
        cfg = RvadConfig(enhance=enhance, msne_window_frames=w or int(rng.integers(1, 3 * block)), hpf_cutoff_hz=0.0)

        first = replace(_first_sweep(audio, cfg, np.zeros(num, dtype=bool)), zeroed=zeroed)
        enhanced, noise = _denoise(audio, first, cfg)
        assert audio.samples.tobytes() == samples.tobytes()

        spec = stft(zero_segments(AudioBuffer(samples.copy(), fs), grid, zeroed), grid)
        mask = segments_to_mask(zeroed, num) if enhance == "msne-mod" else None
        power = np.abs(spec.frames) ** 2
        track = msne_noise_track_loop(power, mask, cfg.msne_smoothing, cfg.msne_bias, cfg.msne_window_frames)
        cleaned = spectral_subtract_whole(spec, track, cfg.subtract_floor)
        if enhance == "msne-mod":
            cleaned = lowfreq_suppress(cleaned, cfg.lowfreq_cutoff_hz)
        expected = reconstruct_loop(cleaned, grid)
        assert noise.shape == track.shape
        assert noise.tobytes() == track.tobytes()
        assert enhanced.samples.tobytes() == expected.samples.tobytes()

    @pytest.mark.parametrize("mode", ["full", "fast"])
    @pytest.mark.parametrize("enhance", ["msne", "msne-mod"])
    def test_one_periodogram_per_stft_block(self, mode, enhance, monkeypatch):
        # the tracker and the subtraction take one |X|^2 array of each STFT
        # block's spectrum, in fast mode of the spectra voicing kept
        audio = AudioBuffer(np.random.default_rng(62).standard_normal(3 * FS), FS)
        cfg = RvadConfig(mode=mode, enhance=enhance)
        first = replace(_first_sweep(audio, cfg, None), zeroed=[(3, 9)])
        assert (first.spectra is not None) == (mode == "fast")
        track, subtract = rvad.denoise.msne_noise_track, rvad.denoise.spectral_subtract
        tracked, subtracted = [], []

        def spy_track(power, *args):
            tracked.append(power)
            return track(power, *args)

        def spy_subtract(spec, power, *args):
            subtracted.append(power)
            assert power.tobytes() == (np.abs(spec.frames) ** 2).tobytes()
            return subtract(spec, power, *args)

        monkeypatch.setattr(rvad.denoise, "msne_noise_track", spy_track)
        monkeypatch.setattr(rvad.denoise, "spectral_subtract", spy_subtract)
        for _ in _second_sweep(audio, first, cfg):
            pass
        assert len(tracked) == len(subtracted) == -(-first.grid.num_frames // block_frames(first.grid.frame_len)) > 1
        assert all(a is b for a, b in zip(tracked, subtracted))
        assert sum(len(power) for power in tracked) == first.grid.num_frames

    def test_noise_track_only_on_request(self):
        audio = AudioBuffer(np.random.default_rng(61).standard_normal(8000), FS)
        cfg = RvadConfig(enhance="msne-mod")
        first = replace(_first_sweep(audio, cfg, None), zeroed=[(3, 9)])
        noise = np.full((first.grid.num_frames, 129), np.nan)
        with_track = [out.finished.tobytes() for out in _second_sweep(audio, first, cfg, noise)]
        without = [out.finished.tobytes() for out in _second_sweep(audio, first, cfg)]
        assert with_track == without
        assert not np.isnan(noise).any()
