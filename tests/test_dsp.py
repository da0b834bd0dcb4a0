"""Framing, filtering, STFT, and spectral flatness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from rvad import AudioBuffer
from rvad.dsp import (
    RECURSION_STEPS,
    FrameGrid,
    Spectrogram,
    block_frames,
    blocks,
    frame_energy,
    frame_matrix,
    highpass,
    make_grid,
    next_pow2,
    recursion,
    spectral_flatness,
    stft,
)
from rvad.vad import SWEEP_BLOCKS, _blocks, _spectra

from synth import FS, sine, white_noise


def _grid(n, fs=FS):
    return make_grid(AudioBuffer(np.zeros(n), fs))


class TestHighpass:
    def test_dc_rejection_decays(self):
        buf = AudioBuffer(np.full(500, 0.7), FS)
        y = highpass(buf).samples
        mags = np.abs(y[1:])
        assert np.all(np.diff(mags) < 0)
        assert abs(y[-1]) < 1e-3

    def test_zero_in_zero_out(self):
        y = highpass(AudioBuffer(np.zeros(100), FS)).samples
        assert np.all(y == 0)

    def test_1khz_passband_response_matches_analytic(self):
        # oracle: |H(e^jw)|^2 for H(z) = a(1 - z^-1)/(1 - a z^-1)
        a = 1.0 / (1.0 + 2.0 * np.pi * 60.0 / FS)
        w = 2.0 * np.pi * 1000.0 / FS
        h2 = a**2 * (2 - 2 * np.cos(w)) / (1 + a**2 - 2 * a * np.cos(w))

        x = sine(1000.0, 2.0, amp=0.5)
        y = highpass(AudioBuffer(x, FS)).samples
        # steady state only: drop the transient head
        px = np.mean(x[2000:] ** 2)
        py = np.mean(y[2000:] ** 2)
        assert py / px == pytest.approx(h2, rel=1e-3)
        assert abs(10 * np.log10(py / px)) < 1.0

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3000)
        y = rng.standard_normal(3000)
        lhs = highpass(AudioBuffer(2.5 * x - 1.5 * y, FS)).samples
        rhs = 2.5 * highpass(AudioBuffer(x, FS)).samples - 1.5 * highpass(AudioBuffer(y, FS)).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * np.abs(rhs).max())

    def test_low_rate_rejected(self):
        with pytest.raises(ValueError):
            highpass(AudioBuffer(np.zeros(10), 100))

    @staticmethod
    def _in_pieces(x, fs, cutoff, bounds):
        """`highpass` on x[lo:hi] for each piece of `bounds`, each piece
        given the last input and output samples of the piece before."""
        pieces, zi = [], None
        for lo, hi in zip(bounds, bounds[1:]):
            y = highpass(AudioBuffer(x[lo:hi], fs), cutoff, zi).samples
            if hi > lo:
                zi = (x[hi - 1], y[-1])
            pieces.append(y)
        return np.concatenate(pieces)

    @settings(max_examples=100, deadline=None)
    @given(
        fs=st.sampled_from([8000, 16000, 44100, 48000]),
        n=st.integers(0, 20000),
        cuts=st.lists(st.integers(0, 20000), max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_with_carried_state_equal_one_call(self, fs, n, cuts, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        whole = highpass(AudioBuffer(x, fs)).samples
        bounds = [0, *sorted(c for c in cuts if c <= n), n]
        assert self._in_pieces(x, fs, 60.0, bounds).tobytes() == whole.tobytes()


    @settings(max_examples=100, deadline=None)
    @given(
        fs=st.sampled_from([8000, 16000, 44100, 48000]),
        n=st.integers(0, 20000),
        cuts=st.lists(st.integers(0, 20000), max_size=6),
        cutoff=st.one_of(st.just(0.0), st.floats(1.0, 2000.0)),
        offset=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_lfilter_oracle(self, fs, n, cuts, cutoff, offset, seed):
        # the direct form rounds differently, so the two agree to a few
        # units in the last place of the output's peak
        rng = np.random.default_rng(seed)
        x = offset + 10.0 ** rng.uniform(-3, 0) * rng.standard_normal(n)
        a = 1.0 / (1.0 + 2.0 * np.pi * cutoff / fs)
        expected = lfilter([a, -a], [1.0, -a], x)
        bounds = [0, *sorted(c for c in cuts if c <= n), n]
        got = self._in_pieces(x, fs, cutoff, bounds)
        assert np.abs(got - expected).max(initial=0.0) <= 1e-13 * np.abs(expected).max(initial=0.0)

    def test_zero_cutoff_passes_samples_through(self):
        x = np.random.default_rng(9).standard_normal(5000) + 0.3
        assert self._in_pieces(x, FS, 0.0, [0, 1700, 3400, 5000]).tobytes() == x.tobytes()
        assert highpass(AudioBuffer(x, FS), 0.0).samples.tobytes() == x.tobytes()


class TestRecursion:
    """`recursion` against `lfilter` on y(n) = x(n) + c*y(n-1), which rounds
    c*y(n-1) and then the sum: byte for byte, across solve steps."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 2, RECURSION_STEPS - 1, RECURSION_STEPS, RECURSION_STEPS + 1, 2 * RECURSION_STEPS + 3]),
        columns=st.sampled_from([None, 1, 3]),
        order=st.sampled_from(["C", "F"]),
        c=st.floats(0.01, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_lfilter(self, n, columns, order, c, seed):
        rng = np.random.default_rng(seed)
        shape = (n,) if columns is None else (n, columns)
        rhs = np.asarray(rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6), order=order)
        first = rng.standard_normal(shape[1:])
        expected, _ = lfilter([1.0], [1.0, -c], rhs, axis=0, zi=c * first[None] if columns else [c * first])
        got = recursion(first, rhs.copy(order=order), c)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestMakeGrid:
    def test_800_samples_at_8k(self):
        g = _grid(800)
        assert (g.frame_len, g.frame_shift, g.num_frames) == (200, 80, 8)

    def test_boundaries(self):
        assert _grid(199).num_frames == 0
        assert _grid(200).num_frames == 1

    def test_never_indexes_past_total(self):
        rng = np.random.default_rng(6)
        for n in rng.integers(0, 5000, size=50):
            g = _grid(int(n))
            if g.num_frames:
                last = (g.num_frames - 1) * g.frame_shift + g.frame_len
                assert last <= g.total_samples
                # one more frame would overrun
                assert g.num_frames * g.frame_shift + g.frame_len > g.total_samples

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            make_grid(AudioBuffer(np.zeros(100), FS), frame_len_ms=5, frame_shift_ms=10)
        for flen_ms, shift_ms in ((np.inf, 10.0), (np.inf, np.inf), (np.nan, 10.0), (25.0, np.nan), (25.0, -10.0)):
            with pytest.raises(ValueError, match="need finite"):
                make_grid(AudioBuffer(np.zeros(100), FS), flen_ms, shift_ms)
        # a shift, or both durations, that round to no sample at the rate
        for flen_ms, shift_ms in ((25.0, 0.05), (0.05, 0.05), (25.0, 0.0625)):
            with pytest.raises(ValueError, match="0 samples"):
                make_grid(AudioBuffer(np.zeros(800), 8000), flen_ms, shift_ms)
        assert make_grid(AudioBuffer(np.zeros(800), 8000), 25.0, 0.07).frame_shift == 1


class TestFrameEnergy:
    def test_grid_past_the_signal_rejected(self):
        # frames are strided views, so a grid from a longer signal must not read past this one
        grid = make_grid(AudioBuffer(np.zeros(800), FS))
        with pytest.raises(ValueError):
            frame_energy(AudioBuffer(np.zeros(700), FS), grid)

    def test_zero_frame(self):
        buf = AudioBuffer(np.zeros(400), FS)
        assert frame_energy(buf, make_grid(buf))[0] == 0.0

    def test_constant_half(self):
        buf = AudioBuffer(np.full(200, 0.5), FS)
        e = frame_energy(buf, make_grid(buf))
        assert e[0] == pytest.approx(50.0)

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(7)
        buf = AudioBuffer(rng.standard_normal(2000) * 0.3, FS)
        g = make_grid(buf)
        e = frame_energy(buf, g)
        for m in range(g.num_frames):
            ref = sum(float(v) ** 2 for v in buf.samples[m * g.frame_shift : m * g.frame_shift + g.frame_len])
            assert e[m] == pytest.approx(ref, rel=1e-12)

    def test_nonnegative_and_additive(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(1000)
        buf = AudioBuffer(x, FS)
        g = make_grid(buf, frame_len_ms=25.0, frame_shift_ms=25.0)  # disjoint frames
        e = frame_energy(buf, g)
        assert np.all(e >= 0)
        covered = g.num_frames * g.frame_len
        assert e.sum() == pytest.approx(np.sum(x[:covered] ** 2), rel=1e-12)


class TestStft:
    def test_nfft_next_pow2(self):
        assert next_pow2(200) == 256
        assert next_pow2(256) == 256
        assert next_pow2(400) == 512
        assert next_pow2(1) == 1

    def test_zero_frame_zero_spectrum(self):
        buf = AudioBuffer(np.zeros(400), FS)
        spec = stft(buf, make_grid(buf))
        assert np.all(spec.frames[0] == 0)

    def test_sine_at_bin_frequency(self):
        # 1 kHz at fs=8000, nfft=256 -> exactly bin 32; oracle is a direct DFT
        # of the windowed frame.  Adjacent bins sit on the window mainlobe
        # (about -4 dB at +/-1), so the 20 dB dominance is asserted outside it.
        x = sine(1000.0, 0.5, amp=0.8)
        buf = AudioBuffer(x, FS)
        g = make_grid(buf)
        spec = stft(buf, g)

        frame = x[: g.frame_len] * np.hamming(g.frame_len)
        n = np.arange(g.frame_len)
        k = np.arange(spec.num_bins)
        oracle = np.exp(-2j * np.pi * np.outer(k, n) / spec.nfft) @ frame

        np.testing.assert_allclose(spec.frames[0], oracle, atol=1e-9 * np.abs(oracle).max())
        mag = np.abs(spec.frames[0])
        assert np.argmax(mag) == 32
        outside = np.delete(mag, [30, 31, 32, 33, 34])
        assert 20 * np.log10(mag[32] / outside.max()) >= 20.0

    def test_parseval_one_sided(self):
        rng = np.random.default_rng(9)
        buf = AudioBuffer(rng.standard_normal(1000), FS)
        g = make_grid(buf)
        spec = stft(buf, g)
        win = np.hamming(g.frame_len)
        for m in range(g.num_frames):
            windowed = buf.samples[m * g.frame_shift : m * g.frame_shift + g.frame_len] * win
            X = spec.frames[m]
            full = np.abs(X[0]) ** 2 + np.abs(X[-1]) ** 2 + 2 * np.sum(np.abs(X[1:-1]) ** 2)
            expected = spec.nfft * np.sum(windowed**2)
            assert full == pytest.approx(expected, rel=1e-6)

    def test_bin_spacing(self):
        buf = AudioBuffer(np.zeros(400), FS)
        spec = stft(buf, make_grid(buf))
        assert spec.bin_hz == pytest.approx(FS / 256)
        assert spec.num_bins == 129


class TestStftBlocks:
    @pytest.mark.parametrize("fs", [8000, 16000, 44100, 48000])
    def test_blocks_tile_the_whole_stft(self, fs):
        # the sweeps' STFT walk, each sweep block's samples cut into STFT
        # blocks of `block_frames` frames, gives the STFT of the whole signal
        rng = np.random.default_rng(fs)
        flen, shift = int(round(0.025 * fs)), int(round(0.010 * fs))
        block = block_frames(flen)
        sweep = SWEEP_BLOCKS * block
        for frames in (0, 1, block - 1, block, block + 1, 2 * block + 1, sweep - 1, sweep, sweep + 1):
            n = (frames - 1) * shift + flen + shift // 2 if frames else flen - 1
            buf = AudioBuffer(rng.standard_normal(n), fs)
            grid = make_grid(buf)
            assert grid.num_frames == frames
            whole = stft(buf, grid)
            # each part copied as the walk yields it, so a walk that reuses
            # one spectrum's memory for the next part still shows every part
            parts = [
                (rows, Spectrogram(spec.frames.copy(), spec.nfft, spec.sample_rate_hz))
                for b in _blocks(grid)
                for rows, spec in _spectra(AudioBuffer(buf.samples[b.lo : b.hi], fs), b, grid)
            ]
            assert [rows.start for rows, _ in parts] == list(range(0, frames, block))
            assert all(rows.stop - rows.start == len(spec.frames) <= block for rows, spec in parts)
            assert all(spec.nfft == whole.nfft and spec.sample_rate_hz == fs for _, spec in parts)
            tiled = np.concatenate([spec.frames for _, spec in parts]) if parts else whole.frames
            assert tiled.tobytes() == whole.frames.tobytes()


class TestBlocks:
    @settings(max_examples=300, deadline=None)
    @given(
        flen=st.integers(1, 40),
        shift_part=st.floats(0.0, 1.0),
        total=st.integers(0, 600),
        step=st.integers(1, 30),
        bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        whole=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_tile_the_range_and_read_their_samples(self, flen, shift_part, total, step, bounds, whole, seed):
        shift = max(1, round(shift_part * flen))
        num = 0 if total < flen else (total - flen) // shift + 1
        grid = FrameGrid(flen, shift, num, total)
        if whole:
            first, stop, walk = 0, num, blocks(grid, step)
        else:
            first, stop = sorted(round(b * num) for b in bounds)
            walk = blocks(grid, step, first, stop)
        if whole and num == 0:  # one block with no frames, over the whole signal
            assert [(b.rows, b.lo, b.split, b.hi) for b in walk] == [(slice(0, 0), 0, total, total)]
        else:
            assert [b.rows.start for b in walk] == list(range(first, stop, step))
            assert [b.rows.stop for b in walk] == [min(start + step, stop) for start in range(first, stop, step)]
        samples = np.random.default_rng(seed).standard_normal(total)
        frames = frame_matrix(samples, grid)
        for b, after in zip(walk, walk[1:] + [None]):
            assert b.lo == b.rows.start * shift
            assert b.split == (total if after is None and stop == num else b.rows.stop * shift)
            if after is not None:
                assert b.split == after.lo
            last = b.rows.stop == num
            assert b.hi == (total if last else (b.rows.stop - 1) * shift + flen)
            assert b.grid == FrameGrid(flen, shift, b.rows.stop - b.rows.start, b.hi - b.lo)
            assert frame_matrix(samples[b.lo : b.hi], b.grid).tobytes() == frames[b.rows].tobytes()
        if whole:  # the [lo, split) ranges tile the samples
            assert walk[0].lo == 0 and walk[-1].split == total

    @settings(max_examples=40, deadline=None)
    @given(
        fs=st.sampled_from([8000, 16000, 44100, 48000]),
        sweeps=st.floats(0.0, 2.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sub_walk_gives_the_spectra_of_a_block(self, fs, sweeps, seed):
        # a sweep block of four STFT blocks walked in the grid's own rows
        # gives the rows of the `stft` of the block's samples
        rng = np.random.default_rng(seed)
        flen = int(round(0.025 * fs))
        step = block_frames(flen)
        buf = AudioBuffer(rng.standard_normal(flen + int(sweeps * 4 * step * round(0.010 * fs))), fs)
        grid = make_grid(buf)
        for sweep in blocks(grid, 4 * step):
            own = AudioBuffer(buf.samples[sweep.lo : sweep.hi], fs)
            expected = stft(own, sweep.grid).frames
            parts = blocks(grid, step, sweep.rows.start, sweep.rows.stop)
            assert [part.rows.start for part in parts] == list(range(sweep.rows.start, sweep.rows.stop, step))
            for part in parts:
                rows = slice(part.rows.start - sweep.rows.start, part.rows.stop - sweep.rows.start)
                got = stft(AudioBuffer(buf.samples[part.lo : part.hi], fs), part.grid).frames
                assert got.tobytes() == expected[rows].tobytes()


class TestSpectralFlatness:
    def test_flat_spectrum_is_one(self):
        spec = Spectrogram(np.full((3, 129), 0.7 + 0j), 256, FS)
        np.testing.assert_allclose(spectral_flatness(spec), 1.0, atol=1e-12)

    def test_single_bin_collapses(self):
        frames = np.zeros((1, 129), dtype=complex)
        frames[0, 40] = 1.0
        sft = spectral_flatness(Spectrogram(frames, 256, FS))
        assert sft[0] < 0.01

    def test_silence_is_flat(self):
        spec = Spectrogram(np.zeros((2, 129), dtype=complex), 256, FS)
        np.testing.assert_allclose(spectral_flatness(spec), 1.0)

    def test_white_noise_mostly_close_to_one(self):
        # noise-like frames should sit well above the 0.5 voicing threshold
        buf = AudioBuffer(white_noise(1.1, 0.1, rng=np.random.default_rng(10)), FS)
        g = make_grid(buf)
        sft = spectral_flatness(stft(buf, g))
        assert g.num_frames >= 100
        assert np.median(sft) > 0.5

    def test_bounds_on_random_spectra(self):
        rng = np.random.default_rng(11)
        frames = rng.standard_normal((50, 129)) + 1j * rng.standard_normal((50, 129))
        frames[7] = 0.0
        frames[13, :64] = 0.0
        sft = spectral_flatness(Spectrogram(frames, 256, FS))
        assert np.all(sft >= 0.0)
        assert np.all(sft <= 1.0)
