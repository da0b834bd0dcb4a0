"""Deterministic synthetic signals shared by the test suite."""

from __future__ import annotations

import numpy as np

from rvad import AudioBuffer

FS = 8000


def sine(freq_hz, dur_s, fs=FS, amp=0.5, phase=0.0):
    t = np.arange(int(round(dur_s * fs))) / fs
    return amp * np.sin(2 * np.pi * freq_hz * t + phase)


def pulse_train(f0_hz, dur_s, fs=FS, amp=0.3):
    """Band-limited pulse train: harmonics of f0 up to ~0.85 Nyquist with 1/h tilt.

    Periodic and strongly harmonic, which is what the voicing detectors key on.
    """
    t = np.arange(int(round(dur_s * fs))) / fs
    h_max = max(int(0.85 * (fs / 2) / f0_hz), 1)
    x = np.zeros_like(t)
    for h in range(1, h_max + 1):
        x += np.cos(2 * np.pi * h * f0_hz * t) / h
    return amp * x / np.abs(x).max()


def white_noise(dur_s, rms, fs=FS, rng=None):
    rng = rng or np.random.default_rng(0)
    return rms * rng.standard_normal(int(round(dur_s * fs)))


def utterance(bursts, total_s, fs=FS, amp=0.3, noise_rms=0.0, rng=None):
    """Silence with pulse-train bursts dropped in; optional white noise floor.

    `bursts` is a sequence of (start_s, dur_s, f0_hz).  Returns the signal
    as an AudioBuffer.
    """
    sig = np.zeros(int(round(total_s * fs)))
    for start_s, dur_s, f0 in bursts:
        lo = int(round(start_s * fs))
        tone = pulse_train(f0, dur_s, fs, amp)
        sig[lo : lo + len(tone)] += tone
    if noise_rms > 0.0:
        sig += white_noise(total_s, noise_rms, fs, rng)
    return AudioBuffer(np.clip(sig, -1.0, 1.0), fs)


def reference_labels(bursts, total_s, fs=FS, frame_len_ms=25.0, frame_shift_ms=10.0):
    """Ground-truth frame labels: speech when at least half the frame overlaps a burst."""
    flen = int(round(frame_len_ms * fs / 1000.0))
    shift = int(round(frame_shift_ms * fs / 1000.0))
    total = int(round(total_s * fs))
    num = 0 if total < flen else (total - flen) // shift + 1
    labels = np.zeros(num, dtype=bool)
    for m in range(num):
        lo, hi = m * shift, m * shift + flen
        overlap = 0
        for start_s, dur_s, _ in bursts:
            b_lo, b_hi = int(round(start_s * fs)), int(round((start_s + dur_s) * fs))
            overlap += max(0, min(hi, b_hi) - max(lo, b_lo))
        labels[m] = overlap >= flen // 2
    return labels


def random_bursts(rng, total_s=4.0, n_min=1, n_max=3):
    """Non-overlapping pulse bursts with generous gaps, for corpus generation."""
    n = int(rng.integers(n_min, n_max + 1))
    bursts = []
    cursor = 0.4 + 0.3 * rng.random()
    for _ in range(n):
        dur = 0.4 + 0.8 * rng.random()
        if cursor + dur > total_s - 0.4:
            break
        f0 = 120.0 + 100.0 * rng.random()
        bursts.append((cursor, dur, f0))
        cursor += dur + 0.8 + 0.4 * rng.random()
    if not bursts:
        bursts = [(0.5, 1.0, 150.0)]
    return bursts


def mix_noise(clean: AudioBuffer, noise: AudioBuffer, snr_db: float) -> AudioBuffer:
    """Add noise to clean speech at the requested whole-file RMS SNR.

    Noise shorter than the speech is tiled end-to-start, longer noise is
    truncated; the gain is computed against the adjusted noise so the
    realized SNR matches the request exactly.
    """
    if clean.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError("sample-rate mismatch between clean and noise")
    if len(noise) == 0 or not np.any(noise.samples):
        raise ValueError("noise must not be silent")
    if len(clean) == 0:
        return AudioBuffer(clean.samples.copy(), clean.sample_rate_hz)

    reps = -(-len(clean) // len(noise))  # ceil division
    adjusted = np.tile(noise.samples, reps)[: len(clean)]
    rms_noise = np.sqrt(np.mean(adjusted**2))
    if rms_noise == 0.0:
        raise ValueError("noise is silent over the mixed span")
    rms_clean = np.sqrt(np.mean(clean.samples**2))
    gain = rms_clean / rms_noise * 10.0 ** (-snr_db / 20.0)
    return AudioBuffer(clean.samples + gain * adjusted, clean.sample_rate_hz)


def noisy_copy(buf, snr_db, rng):
    """Mix fresh white noise into the buffer at the requested SNR."""
    noise = AudioBuffer(white_noise(len(buf) / buf.sample_rate_hz, 1.0, buf.sample_rate_hz, rng), buf.sample_rate_hz)
    return mix_noise(buf, noise, snr_db)
