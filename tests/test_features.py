"""Noise-energy tracking, a posteriori SNR, and the weighted energy difference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvad.features import (
    central_smooth,
    compute_features,
    log_energy_ratio_db,
    rank_low_energy,
    track_noise_energy,
    weighted_energy_difference,
)

from oracles import central_smooth_whole, compute_features_whole, smooth_noise_energy_loop


def _posterior_snr(e, super_len):
    """Each frame's energy over its super-segment's smoothed noise energy, in dB."""
    return log_energy_ratio_db(e, track_noise_energy(e, super_len).e_v_smooth[np.arange(len(e)) // super_len])


class TestTrackNoiseEnergy:
    def test_constant_is_fixed_point(self):
        e = np.full(1000, 3.5)
        track = track_noise_energy(e, super_len=200)
        np.testing.assert_allclose(track.e_v, 3.5)
        np.testing.assert_allclose(track.e_v_smooth, 3.5)

    def test_smoothing_recurrence(self):
        # raw super-segment energies 0 then 10 -> smoothed 0 then 1.0
        e = np.concatenate([np.zeros(200), np.full(200, 10.0)])
        track = track_noise_energy(e, super_len=200)
        np.testing.assert_allclose(track.e_v, [0.0, 10.0])
        np.testing.assert_allclose(track.e_v_smooth, [0.0, 1.0])

    def test_rank_at_ten_percent(self):
        # sort-and-index oracle: 200 frames with energies 1..200 -> 20th lowest
        rng = np.random.default_rng(20)
        e = np.arange(1.0, 201.0)
        rng.shuffle(e)
        track = track_noise_energy(e, super_len=200)
        assert track.e_v[0] == 20.0
        assert sorted(e)[int(np.ceil(0.10 * 200)) - 1] == 20.0

    def test_partial_final_super_segment(self):
        e = np.concatenate([np.full(200, 2.0), np.full(37, 5.0)])
        track = track_noise_energy(e, super_len=200)
        assert len(track.e_v) == 2
        # rank ceil(0.1*37) = 4 (1-based) of a constant block is the constant
        assert track.e_v[1] == 5.0
        # each frame's SNR is taken against its own super-segment's noise energy
        snr_db = _posterior_snr(e, 200)
        assert len(snr_db) == 237
        for m, p in ((0, 0), (199, 0), (200, 1), (236, 1)):
            assert snr_db[m] == pytest.approx(log_energy_ratio_db(e[m : m + 1], track.e_v_smooth[p])[0], rel=1e-12)
        assert snr_db[199] == 0.0 and snr_db[200] > 0.0
        # the one frame whose difference is not zero weighs it by the SNR
        # against the second super-segment's noise energy, not the first's
        d = compute_features(e, super_len=200).d
        assert len(d) == 237 and np.count_nonzero(d) == 1
        snr_200 = log_energy_ratio_db(e[200:201], track.e_v_smooth[1])[0]
        assert d[200] == pytest.approx(np.sqrt(3.0 * snr_200), rel=1e-12)

    def test_permutation_invariance_within_super_segment(self):
        rng = np.random.default_rng(21)
        e = rng.random(400) + 0.1
        base = track_noise_energy(e, super_len=200).e_v_smooth
        shuffled = e.copy()
        rng.shuffle(shuffled[:200])
        rng.shuffle(shuffled[200:])
        np.testing.assert_allclose(track_noise_energy(shuffled, super_len=200).e_v_smooth, base)

    def test_smoothed_stays_in_hull(self):
        rng = np.random.default_rng(22)
        e = rng.random(1800) * 4
        track = track_noise_energy(e, super_len=200)
        for p in range(len(track.e_v)):
            seen = np.concatenate([track.e_v[: p + 1], [track.e_v_smooth[0]]])
            assert seen.min() - 1e-12 <= track.e_v_smooth[p] <= seen.max() + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        e=st.lists(st.floats(0.0, 1e6, allow_subnormal=False), max_size=2000).map(np.array),
        super_len=st.sampled_from([1, 3, 200]),
        forget=st.one_of(st.sampled_from([0.99, 0.5]), st.floats(0.0, 1.0, exclude_max=True)),
    )
    def test_smoothing_equals_loop_oracle(self, e, super_len, forget):
        track = track_noise_energy(e.astype(np.float64), super_len, forget)
        expected = smooth_noise_energy_loop(track.e_v, forget)
        assert track.e_v_smooth.tobytes() == expected.tobytes()

    def test_zero_frames_give_empty_tracks(self):
        track = track_noise_energy(np.zeros(0))
        assert track.e_v.shape == track.e_v_smooth.shape == (0,)
        feats = compute_features(np.zeros(0))
        for values in (feats.d, feats.d_smooth):
            assert values.shape == (0,) and values.dtype == np.float64
        with pytest.raises(ValueError):
            rank_low_energy(np.zeros(0))


class TestPosteriorSnr:
    def test_equal_energies_zero_db(self):
        e = np.full(300, 2.0)
        np.testing.assert_allclose(_posterior_snr(e, 200), 0.0, atol=1e-12)

    def test_factor_ten_is_ten_db(self):
        # the 20 frames ranked lowest (10 % of 200) set the noise energy
        e = np.full(200, 40.0)
        e[::10] = 4.0
        snr = _posterior_snr(e, 200)
        np.testing.assert_allclose(snr[e == 40.0], 10.0, atol=1e-12)
        np.testing.assert_allclose(snr[e == 4.0], 0.0, atol=1e-12)

    def test_zero_energy_floored_not_infinite(self):
        e = np.full(200, 1.0)
        e[50] = 0.0
        snr = _posterior_snr(e, 200)
        assert np.isfinite(snr[50])
        assert snr[50] < -100.0


class TestWeightedEnergyDifference:
    def test_nonpositive_snr_kills_feature(self):
        d = weighted_energy_difference(np.array([1.0, 5.0]), np.array([0.0, -3.0]))
        assert d[1] == 0.0

    def test_equal_energies_zero(self):
        d = weighted_energy_difference(np.array([2.0, 2.0]), np.array([10.0, 10.0]))
        assert d[1] == 0.0

    def test_sqrt_of_product(self):
        d = weighted_energy_difference(np.array([1.0, 5.0]), np.array([0.0, 9.0]))
        assert d[1] == pytest.approx(6.0)

    def test_first_frame_is_zero(self):
        d = weighted_energy_difference(np.array([7.0]), np.array([30.0]))
        assert d[0] == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        d = weighted_energy_difference(rng.random(100), rng.standard_normal(100) * 20)
        assert np.all(d >= 0)


class TestCentralSmooth:
    def test_constant_everywhere_including_edges(self):
        out = central_smooth(np.full(100, 4.2), 18)
        np.testing.assert_allclose(out, 4.2)

    def test_unit_impulse_window_size(self):
        x = np.zeros(200)
        x[50] = 1.0
        out = central_smooth(x, 18)
        assert out[50] == pytest.approx(1.0 / 37.0)

    def test_matches_bruteforce_window_mean(self):
        rng = np.random.default_rng(24)
        x = rng.random(313)
        out = central_smooth(x, 18)
        for m in range(len(x)):
            lo, hi = max(m - 18, 0), min(m + 18, len(x) - 1)
            assert out[m] == pytest.approx(np.mean(x[lo : hi + 1]), rel=1e-12)

    def test_n_zero_is_identity(self):
        x = np.arange(10.0)
        np.testing.assert_array_equal(central_smooth(x, 0), x)

    def test_max_never_grows(self):
        rng = np.random.default_rng(25)
        x = rng.random(500)
        assert central_smooth(x, 18).max() <= x.max() + 1e-15


class TestScaleBehavior:
    def test_gain_scales_d_linearly_and_snr_not_at_all(self):
        # scaling the waveform by g scales energies by g^2, leaves the SNR
        # ratio alone, and therefore scales d by g
        rng = np.random.default_rng(26)
        e = rng.random(600) + 0.01
        g = 17.0
        f1 = compute_features(e)
        f2 = compute_features(g**2 * e)
        np.testing.assert_allclose(_posterior_snr(g**2 * e, 200), _posterior_snr(e, 200), atol=1e-10)
        np.testing.assert_allclose(f2.d, g * f1.d, rtol=1e-10)
        np.testing.assert_allclose(f2.d_smooth, g * f1.d_smooth, rtol=1e-10)


class TestFeatureOracle:
    def test_full_stack_matches_reference_loops(self):
        # independent reference: plain python loops over the definitions
        rng = np.random.default_rng(27)
        e = (rng.random(730) * 2) ** 2

        sub = [e[i : i + 200] for i in range(0, len(e), 200)]
        e_v = [sorted(s)[int(np.ceil(0.10 * len(s))) - 1] for s in sub]
        e_v_smooth = [e_v[0]]
        for p in range(1, len(e_v)):
            e_v_smooth.append(0.9 * e_v_smooth[-1] + 0.1 * e_v[p])
        noise = []
        for p, s in enumerate(sub):
            noise.extend([e_v_smooth[p]] * len(s))
        snr = [10 * np.log10(max(x, 1e-12) / max(nv, 1e-12)) for x, nv in zip(e, noise)]
        d = [0.0] + [np.sqrt(abs(e[m] - e[m - 1]) * max(snr[m], 0.0)) for m in range(1, len(e))]
        d_bar = []
        for m in range(len(d)):
            lo, hi = max(m - 18, 0), min(m + 18, len(d) - 1)
            d_bar.append(sum(d[lo : hi + 1]) / (hi - lo + 1))

        feats = compute_features(e, super_len=200, smooth_n=18)
        np.testing.assert_allclose(_posterior_snr(e, 200), snr, rtol=1e-9)
        np.testing.assert_allclose(feats.d, d, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(feats.d_smooth, d_bar, rtol=1e-9, atol=1e-12)


class TestRankLowEnergy:
    def test_single_frame(self):
        assert rank_low_energy(np.array([3.0])) == 3.0

    def test_ten_frames(self):
        e = np.arange(10.0, 0.0, -1.0)
        assert rank_low_energy(e) == 1.0


class TestWorkInPlace:
    """The features are computed in a few arrays, with the same bits as the
    oracles' one-array-per-step forms."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(0, 300), n=st.sampled_from([0, 1, 18, 150, 400]), seed=st.integers(0, 2**32 - 1))
    def test_central_smooth_equals_oracle(self, m, n, seed):
        rng = np.random.default_rng(seed)
        x = 10.0 ** rng.uniform(-6.0, 6.0) * rng.random(m)
        x[rng.random(m) < 0.2] = 0.0
        assert central_smooth(x, n).tobytes() == central_smooth_whole(x, n).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        super_len=st.sampled_from([1, 7, 200]),
        supers=st.integers(0, 5),
        offset=st.integers(-2, 2),
        zeros=st.sampled_from([0.0, 0.1, 1.0]),
        smooth_n=st.sampled_from([0, 1, 18]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_compute_features_equals_oracle(self, super_len, supers, offset, zeros, smooth_n, seed):
        # lengths around multiples of the super-segment, energies with zeros
        rng = np.random.default_rng(seed)
        m = max(supers * super_len + offset, 0)
        e = (10.0 ** rng.uniform(-8.0, 2.0) * rng.standard_normal(m)) ** 2
        e[rng.random(m) < zeros] = 0.0
        got = compute_features(e, super_len, smooth_n)
        expected = compute_features_whole(e, super_len, smooth_n)
        for name in ("d", "d_smooth"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_ratio_against_a_scalar_noise(self):
        assert log_energy_ratio_db(np.array([10.0]), 1.0).tolist() == [10.0]
        assert log_energy_ratio_db(np.array([0.0]), 1e-12).tolist() == [0.0]
        e = np.array([0.0, 1.0, 100.0])
        assert log_energy_ratio_db(e, 1.0).tobytes() == (10.0 * np.log10(np.maximum(e, 1e-12))).tobytes()

    def test_peak_memory_of_compute_features(self):
        # at most three per-frame arrays are held at once: the SNR is dropped
        # once it has weighted the difference, where keeping it through the
        # smoothing held four, and a new array per step about eight
        frames = 1_000_000
        rng = np.random.default_rng(28)
        e = rng.random(frames) ** 4
        e[::97] = 0.0
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            compute_features(e)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * e.nbytes

    def test_peak_memory_does_not_grow_with_super_len(self):
        # one value per frame for the a posteriori SNR's noise energies:
        # repeating each super-segment's `super_len` times took 8 MB for
        # 100 frames at 10**6, where 200 takes about 7 KB
        e = np.random.default_rng(29).random(100) ** 4
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            compute_features(e, 10**6)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 1024
