"""WAV and label file I/O, and the test corpus's noise mixing."""

import gc
import os
import pickle
import struct
import sys
import threading
import tracemalloc
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rvad.audio_io
from rvad import (
    AudioBuffer,
    AudioFormatError,
    FrameLabels,
    LabelFormatError,
    RvadConfig,
    read_labels,
    read_wav,
    run_denoise,
    run_rvad,
    write_labels,
    write_wav,
)
from rvad.dsp import block_frames
from rvad.vad import SWEEP_BLOCKS

from synth import mix_noise, pulse_train

FS = 8000


_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _write_raw_wav(path, fmt_tag, bits, channels, rate, payload: bytes, sub_format: bytes | None = None):
    """A WAV file; `sub_format` makes it WAVE_FORMAT_EXTENSIBLE with that GUID."""
    tag = fmt_tag if sub_format is None else 0xFFFE
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits)
    if sub_format is not None:
        fmt += struct.pack("<HHI", 22, bits, 0x4) + sub_format
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


class TestReadWav:
    def test_16bit_mono_direct_decode(self, tmp_path):
        p = tmp_path / "a.wav"
        data = np.zeros(800, dtype="<i2").tobytes()
        _write_raw_wav(p, 1, 16, 1, FS, data)
        buf = read_wav(p)
        assert len(buf) == 800
        assert buf.sample_rate_hz == FS

    def test_full_scale_convention(self, tmp_path):
        p = tmp_path / "fs.wav"
        _write_raw_wav(p, 1, 16, 1, FS, np.array([32767, -32768], dtype="<i2").tobytes())
        buf = read_wav(p)
        assert buf.samples[0] == pytest.approx(32767 / 32768)
        assert buf.samples[1] == pytest.approx(-1.0)

    def test_stereo_channel_average(self, tmp_path):
        p = tmp_path / "st.wav"
        left = int(0.5 * 32768)
        frames = np.array([left, -left] * 10, dtype="<i2").tobytes()
        _write_raw_wav(p, 1, 16, 2, FS, frames)
        buf = read_wav(p)
        assert len(buf) == 10
        np.testing.assert_allclose(buf.samples, 0.0, atol=1e-12)

    def test_8bit_unsigned(self, tmp_path):
        p = tmp_path / "u8.wav"
        _write_raw_wav(p, 1, 8, 1, FS, bytes([128, 255, 0]))
        buf = read_wav(p)
        np.testing.assert_allclose(buf.samples, [0.0, 127 / 128, -1.0])

    def test_float32(self, tmp_path):
        p = tmp_path / "f32.wav"
        vals = np.array([0.25, -0.5, 1.0], dtype="<f4")
        _write_raw_wav(p, 3, 32, 1, FS, vals.tobytes())
        buf = read_wav(p)
        np.testing.assert_allclose(buf.samples, vals.astype(np.float64))

    def test_24bit(self, tmp_path):
        p = tmp_path / "s24.wav"
        vals = [0, 1, -1, 2**23 - 1, -(2**23), 0x123456]
        payload = b"".join(v.to_bytes(3, "little", signed=True) for v in vals)
        _write_raw_wav(p, 1, 24, 1, FS, payload)
        np.testing.assert_array_equal(read_wav(p).samples, np.array(vals) / 2.0**23)

    def test_32bit_int(self, tmp_path):
        p = tmp_path / "s32.wav"
        vals = np.array([0, 1, -1, 2**31 - 1, -(2**31)], dtype="<i4")
        _write_raw_wav(p, 1, 32, 1, FS, vals.tobytes())
        np.testing.assert_array_equal(read_wav(p).samples, vals / 2.0**31)

    def test_float64(self, tmp_path):
        p = tmp_path / "f64.wav"
        vals = np.array([0.1, -0.75, 1.0, -0.0], dtype="<f8")
        _write_raw_wav(p, 3, 64, 1, FS, vals.tobytes())
        np.testing.assert_array_equal(read_wav(p).samples, vals)

    @pytest.mark.parametrize(
        "sub_tag, bits, payload, expected",
        [
            (1, 16, np.array([16384, -32768], dtype="<i2").tobytes(), [0.5, -1.0]),
            (1, 24, (2**22).to_bytes(3, "little") + (-(2**23)).to_bytes(3, "little", signed=True), [0.5, -1.0]),
            (3, 32, np.array([0.5, -1.0], dtype="<f4").tobytes(), [0.5, -1.0]),
        ],
        ids=["pcm16", "pcm24", "float32"],
    )
    def test_extensible(self, tmp_path, sub_tag, bits, payload, expected):
        p = tmp_path / "ext.wav"
        _write_raw_wav(p, None, bits, 1, FS, payload, sub_format=struct.pack("<H", sub_tag) + _GUID_TAIL)
        np.testing.assert_array_equal(read_wav(p).samples, expected)

    def test_extensible_unknown_sub_format_rejected(self, tmp_path):
        p = tmp_path / "ext-alaw.wav"
        _write_raw_wav(p, None, 8, 1, FS, bytes(16), sub_format=struct.pack("<H", 6) + _GUID_TAIL)
        with pytest.raises(AudioFormatError, match="sub-format"):
            read_wav(p)

    def test_extensible_without_sub_format_rejected(self, tmp_path):
        p = tmp_path / "ext-short.wav"
        _write_raw_wav(p, 0xFFFE, 16, 1, FS, bytes(4))
        with pytest.raises(AudioFormatError, match="too short"):
            read_wav(p)

    def test_zero_length_data_chunk(self, tmp_path):
        p = tmp_path / "empty.wav"
        _write_raw_wav(p, 1, 16, 1, FS, b"")
        assert len(read_wav(p)) == 0

    def test_compressed_encoding_rejected(self, tmp_path):
        p = tmp_path / "alaw.wav"
        _write_raw_wav(p, 6, 8, 1, FS, bytes(16))
        with pytest.raises(AudioFormatError):
            read_wav(p)

    @pytest.mark.parametrize(
        "tag, bits, size",
        [(1, 16, 7), (3, 32, 6), (1, 24, 7), (1, 32, 5), (3, 64, 12)],
        ids=["pcm16-7-bytes", "float32-6-bytes", "pcm24-7-bytes", "pcm32-5-bytes", "float64-12-bytes"],
    )
    def test_partial_sample_rejected(self, tmp_path, tag, bits, size):
        p = tmp_path / "partial.wav"
        _write_raw_wav(p, tag, bits, 1, FS, bytes(size))
        with pytest.raises(AudioFormatError, match="partial"):
            read_wav(p)

    def test_truncated_16bit_chunk_decodes_what_is_present(self, tmp_path):
        # the header declares 8000 samples; the file was cut after 7500
        p = tmp_path / "cut16.wav"
        vals = np.arange(-4000, 4000, dtype="<i2")
        _write_raw_wav(p, 1, 16, 1, FS, vals.tobytes())
        p.write_bytes(p.read_bytes()[: -2 * 500])
        with pytest.warns(UserWarning, match="declares 16000 bytes but the file holds 15000"):
            buf = read_wav(p)
        np.testing.assert_array_equal(buf.samples, vals[:7500] / 32768.0)

    def test_truncated_24bit_chunk_cut_mid_sample(self, tmp_path):
        # 1000 samples declared; 700 whole ones and two bytes of the next remain
        p = tmp_path / "cut24.wav"
        vals = [(37 * k) % 2**23 - 2**22 for k in range(1000)]
        payload = b"".join(v.to_bytes(3, "little", signed=True) for v in vals)
        _write_raw_wav(p, 1, 24, 1, FS, payload)
        p.write_bytes(p.read_bytes()[: -(3 * 300 - 2)])
        with pytest.warns(UserWarning, match="declares 3000 bytes but the file holds 2102"):
            buf = read_wav(p)
        np.testing.assert_array_equal(buf.samples, np.array(vals[:700]) / 2.0**23)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"this is not a wav file at all")
        with pytest.raises(AudioFormatError):
            read_wav(p)

    def test_extra_chunks_skipped(self, tmp_path):
        p = tmp_path / "chunky.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, FS, FS * 2, 2, 16)
        payload = np.array([1000], dtype="<i2").tobytes()
        body = (
            b"WAVE"
            + b"LIST"
            + struct.pack("<I", 4)
            + b"INFO"
            + b"fmt "
            + struct.pack("<I", len(fmt))
            + fmt
            + b"data"
            + struct.pack("<I", len(payload))
            + payload
        )
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        buf = read_wav(p)
        assert buf.samples[0] == pytest.approx(1000 / 32768)


@pytest.mark.parametrize("tag, bits, kind", [(1, 8, "u1"), (1, 16, "<i2"), (1, 24, None), (1, 32, "<i4"), (3, 32, "<f4"), (3, 64, "<f8")])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_read_in_pieces_equals_one_read(tmp_path, monkeypatch, tag, bits, kind, channels):
    rng = np.random.default_rng(bits + channels)
    count = 1001 * channels + 1  # with more than one channel, a partial frame is dropped
    if kind is None:
        payload = rng.integers(0, 256, 3 * count, dtype=np.uint8).tobytes()
    elif tag == 3:
        payload = rng.uniform(-1.0, 1.0, count).astype(kind).tobytes()
    else:
        info = np.iinfo(kind)
        payload = rng.integers(info.min, info.max, count, dtype=kind, endpoint=True).tobytes()
    path = tmp_path / "p.wav"
    _write_raw_wav(path, tag, bits, channels, FS, payload)
    monkeypatch.setattr(rvad.audio_io, "READ_BYTES", 1 << 30)
    whole = read_wav(path)
    n = count // channels
    assert len(whole) == n
    for read_bytes in (1, 7 * bits, 4096):
        monkeypatch.setattr(rvad.audio_io, "READ_BYTES", read_bytes)
        assert read_wav(path).samples.tobytes() == whole.samples.tobytes()
    # `read(lo, hi, out)`: a file's samples go into the front of `out` and
    # nothing past it; held samples come back as a view, `out` untouched
    held = AudioBuffer(whole.samples, FS)
    buf = read_wav(path)
    ranges = [(0, n), (n - 1, n + 5), (n, n + 3)] + [tuple(sorted(rng.integers(0, n + 10, 2))) for _ in range(20)]
    for lo, hi in ranges:
        expected = whole.samples[lo:hi]
        out = np.full(hi - lo + 4, np.nan)
        got = buf.read(lo, hi, out)
        assert got.tobytes() == expected.tobytes() == buf.read(lo, hi).tobytes()
        if len(got):
            assert got.__array_interface__["data"][0] == out.__array_interface__["data"][0]
        assert np.isnan(out[len(got) :]).all()
        out = np.full(hi - lo, np.nan)
        view = held.read(lo, hi, out)
        assert view.tobytes() == expected.tobytes() and np.isnan(out).all()
        assert len(view) == 0 or np.shares_memory(view, held.samples)
    assert buf.reads_file and not held.reads_file


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
def test_reads_from_a_pipe(tmp_path):
    source = tmp_path / "file.wav"
    write_wav(source, AudioBuffer(np.linspace(-0.5, 0.5, 3000), FS))
    pipe = tmp_path / "pipe.wav"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(source.read_bytes()))
    writer.start()
    try:
        piped = read_wav(pipe)
        out = np.full(1000, np.nan)
        assert piped.read(1000, 1500, out).tobytes() == read_wav(source).samples[1000:1500].tobytes()
        assert np.isnan(out[500:]).all()
        assert piped.samples.tobytes() == read_wav(source).samples.tobytes()
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_read_wav_peak_is_file_plus_output(tmp_path):
    # the file's bytes and the float64 samples, with no copy of the data chunk
    path = tmp_path / "long.wav"
    samples = np.random.default_rng(9).integers(-32768, 32768, 60 * 16000).astype("<i2")
    _write_raw_wav(path, 1, 16, 1, 16000, samples.tobytes())
    tracemalloc.start()
    try:
        buf = read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert buf.samples.tobytes() == (samples / 32768.0).tobytes()
    assert peak <= path.stat().st_size + buf.samples.nbytes + 2**20


_ENCODINGS = [(1, 8), (1, 16), (1, 24), (1, 32), (3, 32), (3, 64)]


def _encode(x: np.ndarray, tag: int, bits: int) -> bytes:
    """A data chunk holding x, (frames, channels) in [-1, 1], interleaved."""
    flat = x.reshape(-1)
    if tag == 3:
        return flat.astype("<f4" if bits == 32 else "<f8").tobytes()
    if bits == 8:
        return np.round(flat * 127.0 + 128.0).astype(np.uint8).tobytes()
    full = 2.0 ** (bits - 1)
    whole = np.clip(np.round(flat * full), -full, full - 1).astype("<i4")
    return whole.view(np.uint8).reshape(-1, 4)[:, : bits // 8].tobytes()


def _utterance_frames(fs: int, n: int, channels: int, seed: int) -> np.ndarray:
    """n frames of noise with voiced bursts and a loud noise burst, each
    channel at its own gain with its own noise."""
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-3.0, -1.5) * rng.standard_normal(n)
    for _ in range(int(rng.integers(0, 3))):
        lo = int(rng.integers(0, n + 1))
        tone = pulse_train(rng.uniform(100.0, 300.0), rng.uniform(0.1, 1.0), fs, amp=10.0 ** rng.uniform(-2.0, -0.5))
        x[lo : lo + len(tone)] += tone[: n - lo]
    lo = int(rng.integers(0, n + 1))
    width = min(fs // 4, n - lo)
    x[lo : lo + width] += 0.3 * rng.standard_normal(width)
    gains = 1.0 - 0.3 * np.arange(channels)
    return np.clip(x[:, None] * gains + 1e-3 * rng.standard_normal((n, channels)), -1.0, 1.0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    fs=st.sampled_from([8000, 16000, 44100, 48000]),
    encoding=st.sampled_from(_ENCODINGS),
    extensible=st.booleans(),
    channels=st.integers(1, 3),
    blocks=st.integers(0, 2),
    frames=st.integers(-1, 1),
    samples=st.integers(-2, 2),
    cut=st.sampled_from([0, 0, 1, 2, 5]),
    mode=st.sampled_from(["full", "fast"]),
    enhance=st.sampled_from(["none", "msne", "msne-mod"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_file_buffer_runs_like_its_samples(tmp_path, fs, encoding, extensible, channels, blocks, frames, samples, cut, mode, enhance, seed):
    # lengths at and around the edges of the sweeps' blocks, where a block's
    # last frames read the next block's first samples
    cfg = RvadConfig(mode=mode, enhance=enhance)
    flen, shift = round(cfg.frame_len_ms * fs / 1000), round(cfg.frame_shift_ms * fs / 1000)
    step = SWEEP_BLOCKS * block_frames(flen)
    n = max((blocks * step - 1 + frames) * shift + flen + samples, 0)
    tag, bits = encoding
    sub_format = struct.pack("<H", tag) + _GUID_TAIL if extensible else None
    path = tmp_path / "u.wav"
    _write_raw_wav(path, tag, bits, channels, fs, _encode(_utterance_frames(fs, n, channels, seed), tag, bits), sub_format)
    if cut:  # the data chunk loses its last bytes, mid-sample for most encodings
        path.write_bytes(path.read_bytes()[: -min(cut, n * channels * bits // 8) or None])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        from_file, whole = read_wav(path), read_wav(path).samples
    held = AudioBuffer(whole, fs)
    assert run_rvad(from_file, cfg).labels.tobytes() == run_rvad(held, cfg).labels.tobytes()
    out_file, noise_file = run_denoise(from_file, cfg)
    out_held, noise_held = run_denoise(held, cfg)
    assert out_file.samples.tobytes() == out_held.samples.tobytes()
    assert (noise_file is None) == (noise_held is None)
    if noise_held is not None:
        assert noise_file.shape == noise_held.shape and noise_file.tobytes() == noise_held.tobytes()
    assert from_file.samples.tobytes() == whole.tobytes()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=st.dictionaries(st.integers(0, 43), st.integers(1, 255), min_size=1, max_size=4))
# a fmt chunk that declares 2 GiB: read whole, it raised MemoryError where
# address space is capped
@example(flips={19: 0x80})
def test_mutated_header_gives_labels_or_a_documented_error(tmp_path, flips):
    # 1 to 4 bytes of a valid 0.5 s 16-bit header changed: the file runs,
    # the reader rejects it, or the pipeline names one of its two limits
    path = tmp_path / "m.wav"
    noise = 0.01 * np.random.default_rng(9).standard_normal(FS // 2)
    write_wav(path, AudioBuffer(pulse_train(150.0, 0.5, FS, amp=0.5) + noise, FS))
    data = bytearray(path.read_bytes())
    assert len(data) == 44 + FS
    for at, flip in flips.items():
        data[at] ^= flip
    path.write_bytes(bytes(data))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a data chunk declared past the file's end
            labels = run_rvad(read_wav(path), RvadConfig(mode="fast", enhance="none")).labels
    except AudioFormatError:
        return
    except ValueError as exc:
        assert str(exc) in ("sample rate must be >= 4000 Hz", "samples must be finite"), repr(exc)
        return
    assert labels.dtype == bool and labels.ndim == 1


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_wav_rejects_non_finite_float(tmp_path, bits, bad):
    # the bad sample past the first stretch the scan decodes
    path = tmp_path / "bad.wav"
    x = np.zeros(3 * rvad.audio_io.READ_BYTES // (bits // 8))
    x[-2] = bad
    _write_raw_wav(path, 3, bits, 1, FS, x.astype(f"<f{bits // 8}").tobytes())
    with pytest.raises(ValueError, match="finite"):
        read_wav(path)


def test_read_wav_rejects_channels_whose_mean_overflows(tmp_path):
    path = tmp_path / "huge.wav"
    _write_raw_wav(path, 3, 64, 2, FS, np.full(8, 1e308).tobytes())
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        read_wav(path)


def _descriptors_on(path) -> list[str]:
    """The process's open file descriptors that refer to `path`."""
    fds = Path("/proc/self/fd")
    target = os.path.realpath(path)
    open_fds = []
    for fd in os.listdir(fds):
        try:
            if os.readlink(fds / fd) == target:
                open_fds.append(fd)
        except OSError:  # the descriptor listing the directory is gone
            pass
    return open_fds


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="lists open files through /proc")
def test_no_file_left_open(tmp_path):
    # a buffer opens its file for each block it reads, so any number of
    # buffers can be held at once
    path = tmp_path / "u.wav"
    write_wav(path, AudioBuffer(_utterance_frames(16000, 3 * 16000, 1, 5)[:, 0], 16000))
    bad = tmp_path / "nan.wav"
    _write_raw_wav(bad, 3, 32, 1, FS, np.array([0.0, np.nan], dtype="<f4").tobytes())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        buffers = [read_wav(path) for _ in range(3)]
        assert not _descriptors_on(path)
        run_rvad(buffers[0])
        run_denoise(buffers[1])
        assert buffers[2].samples.size == 3 * 16000
        del buffers
        gc.collect()
        assert not _descriptors_on(path)
        with pytest.raises(ValueError):
            read_wav(bad)
        assert not _descriptors_on(bad)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_threads_share_a_file_buffer(tmp_path):
    # reads from several threads at once, switching often, each get their
    # own samples
    path = tmp_path / "u.wav"
    _write_raw_wav(path, 1, 24, 2, FS, _encode(_utterance_frames(FS, 20000, 2, 3), 1, 24))
    buf, whole = read_wav(path), read_wav(path).samples
    bounds = np.random.default_rng(4).integers(0, len(whole) + 1, (8, 200, 2))
    wrong = []

    def reader(pairs):
        for lo, hi in np.sort(pairs, axis=1):
            if buf.read(lo, hi).tobytes() != whole[lo:hi].tobytes():
                wrong.append((lo, hi))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(pairs,)) for pairs in bounds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def test_empty_read_opens_nothing(tmp_path, monkeypatch):
    # an empty range opens nothing; a file of any length is opened once per
    # read, and once for its one block
    short, long = tmp_path / "short.wav", tmp_path / "long.wav"
    write_wav(short, AudioBuffer(_utterance_frames(FS, 3 * FS, 1, 6)[:, 0], FS))
    write_wav(long, AudioBuffer(_utterance_frames(FS, 5 * FS, 1, 7)[:, 0], FS))
    cfg = RvadConfig(mode="fast", enhance="msne-mod")
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    buf = read_wav(short)
    monkeypatch.setattr(rvad.audio_io, "open", counting_open, raising=False)
    for lo, hi in [(0, 0), (5, 5), (9, 2), (3 * FS, 3 * FS + 50), (3 * FS + 7, 3 * FS + 9)]:
        assert buf.read(lo, hi).shape == (0,)
    assert not opened
    run_rvad(buf, cfg)
    assert opened == [str(short.resolve())]
    opened.clear()

    buf = read_wav(long)
    assert opened == [long]
    for lo, hi in [(0, 0), (0, 10), (5 * FS, 5 * FS + 50), (FS, 2 * FS)]:
        buf.read(lo, hi)
    run_rvad(buf, cfg)
    assert opened == [long] + 3 * [str(long.resolve())]


def test_file_buffer_pickles(tmp_path):
    path = tmp_path / "u.wav"
    write_wav(path, AudioBuffer(np.linspace(-0.5, 0.5, 3000), FS))
    back = pickle.loads(pickle.dumps(read_wav(path)))
    assert back.sample_rate_hz == FS and back.samples.tobytes() == read_wav(path).samples.tobytes()


class TestWriteWav:
    def test_round_trip_within_one_quantization_step(self, tmp_path):
        rng = np.random.default_rng(1)
        original = AudioBuffer(rng.uniform(-1, 1, 4000), FS)
        p = tmp_path / "rt.wav"
        write_wav(p, original)
        back = read_wav(p)
        assert back.sample_rate_hz == FS
        np.testing.assert_allclose(back.samples, original.samples, atol=1.0 / 32768)

    def test_clipping_to_full_scale(self, tmp_path):
        p = tmp_path / "clip.wav"
        write_wav(p, AudioBuffer(np.array([1.5, -2.0]), FS))
        with wave.open(str(p)) as w:
            raw = np.frombuffer(w.readframes(2), dtype="<i2")
        assert raw[0] == 32767
        assert raw[1] == -32768

    def test_empty_buffer_round_trip(self, tmp_path):
        p = tmp_path / "empty.wav"
        write_wav(p, AudioBuffer(np.zeros(0), FS))
        assert len(read_wav(p)) == 0

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_wav(tmp_path / "no" / "such" / "dir.wav", AudioBuffer(np.zeros(10), FS))


class TestLabels:
    def test_frame_format_read(self, tmp_path):
        p = tmp_path / "l.vad"
        p.write_text("0\n1\n1\n0\n")
        got = read_labels(p)
        np.testing.assert_array_equal(got.labels, [False, True, True, False])

    def test_segment_format_time_to_frame_mapping(self, tmp_path):
        p = tmp_path / "l.seg"
        p.write_text("0.10 0.30\n")
        got = read_labels(p, frame_shift_ms=10.0)
        assert len(got) == 30
        np.testing.assert_array_equal(np.flatnonzero(got.labels), np.arange(10, 30))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "l.vad"
        p.write_text("")
        assert len(read_labels(p)) == 0

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "l.vad"
        p.write_text("0\n2\n")
        with pytest.raises(LabelFormatError):
            read_labels(p)

    def test_negative_and_nonmonotone_segments(self, tmp_path):
        p = tmp_path / "l.seg"
        p.write_text("-0.1 0.2\n")
        with pytest.raises(LabelFormatError):
            read_labels(p)
        p.write_text("0.5 0.9\n0.2 0.4\n")
        with pytest.raises(LabelFormatError):
            read_labels(p)
        p.write_text("0.5 0.5\n")
        with pytest.raises(LabelFormatError):
            read_labels(p)

    @pytest.mark.parametrize("bad", [0.0, -10.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["frame_shift_ms"])
    @pytest.mark.parametrize("text", ["0.10 0.30\n", "0\n1\n", ""])
    def test_bad_frame_durations_rejected(self, tmp_path, bad, name, text):
        p = tmp_path / "l.lab"
        p.write_text(text)
        with pytest.raises(ValueError, match="finite and positive"):
            read_labels(p, **{name: bad})

    def test_frame_format_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        labels = FrameLabels(rng.random(257) < 0.4)
        p = tmp_path / "rt.vad"
        write_labels(p, labels, fmt="frames")
        np.testing.assert_array_equal(read_labels(p).labels, labels.labels)

    def test_segment_format_round_trip(self, tmp_path):
        # trailing non-speech frames are not representable in segment format,
        # so round-trip sequences end on a speech frame
        rng = np.random.default_rng(8)
        raw = rng.random(300) < 0.3
        raw[-1] = True
        labels = FrameLabels(raw)
        p = tmp_path / "rt.seg"
        write_labels(p, labels, fmt="segments")
        np.testing.assert_array_equal(read_labels(p).labels, labels.labels)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        raw=st.lists(st.booleans(), max_size=600),
        shift_ms=st.sampled_from([10.0, 12.5, 20.0, 32.0]),
        fmt=st.sampled_from(["frames", "segments"]),
    )
    def test_round_trip_property(self, tmp_path, raw, shift_ms, fmt):
        # frames round-trip exactly; segments cannot say how many non-speech
        # frames trail the last speech frame, so they come back cut after it
        labels = np.asarray(raw, dtype=bool)
        p = tmp_path / "rt.lab"
        write_labels(p, FrameLabels(labels, shift_ms), fmt=fmt)
        got = read_labels(p, frame_shift_ms=shift_ms)
        speech = np.flatnonzero(labels)
        end = len(labels) if fmt == "frames" else (speech[-1] + 1 if len(speech) else 0)
        assert got.labels.tobytes() == labels[:end].tobytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_labels(tmp_path / "x", FrameLabels(np.zeros(3, bool)), fmt="noise")


class TestMixNoise:
    def test_zero_db_equal_rms_gain_one(self):
        rng = np.random.default_rng(2)
        clean = AudioBuffer(rng.standard_normal(8000) * 0.1, FS)
        noise = AudioBuffer(rng.standard_normal(8000) * 0.1, FS)
        mixed = mix_noise(clean, noise, 0.0)
        added = mixed.samples - clean.samples
        rms_c = np.sqrt(np.mean(clean.samples**2))
        rms_a = np.sqrt(np.mean(added**2))
        assert rms_a == pytest.approx(rms_c, rel=1e-12)

    def test_20_db_gain(self):
        rng = np.random.default_rng(3)
        clean = AudioBuffer(rng.standard_normal(8000) * 0.2, FS)
        noise = AudioBuffer(rng.standard_normal(8000) * 0.05, FS)
        mixed = mix_noise(clean, noise, 20.0)
        added = mixed.samples - clean.samples
        expected_gain = 0.1 * np.sqrt(np.mean(clean.samples**2)) / np.sqrt(np.mean(noise.samples**2))
        np.testing.assert_allclose(added, expected_gain * noise.samples, atol=1e-12 * np.abs(added).max())

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 10.0, 20.0])
    def test_realized_snr_matches_request(self, snr_db):
        # independent check: recompute the SNR from output minus clean
        rng = np.random.default_rng(4)
        clean = AudioBuffer(rng.standard_normal(12000) * 0.3, FS)
        noise = AudioBuffer(rng.standard_normal(20000) * 0.07, FS)
        mixed = mix_noise(clean, noise, snr_db)
        added = mixed.samples - clean.samples
        realized = 10 * np.log10(np.mean(clean.samples**2) / np.mean(added**2))
        assert abs(realized - snr_db) < 0.1

    def test_short_noise_is_tiled(self):
        clean = AudioBuffer(np.ones(10) * 0.5, FS)
        noise = AudioBuffer(np.array([0.1, -0.1, 0.2]), FS)
        mixed = mix_noise(clean, noise, 0.0)
        added = mixed.samples - clean.samples
        tiled = np.tile(noise.samples, 4)[:10]
        np.testing.assert_allclose(added / added[0], tiled / tiled[0], rtol=1e-12)

    def test_sample_rate_mismatch(self):
        with pytest.raises(ValueError):
            mix_noise(AudioBuffer(np.ones(10), 8000), AudioBuffer(np.ones(10), 16000), 0.0)

    def test_silent_noise_rejected(self):
        with pytest.raises(ValueError):
            mix_noise(AudioBuffer(np.ones(10), FS), AudioBuffer(np.zeros(10), FS), 0.0)


class TestAudioBuffer:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([0.0, np.nan]), FS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_any_non_finite_sample(self, bad):
        for position in (0, 5, 9):
            samples = np.array([1e308, -1e308] * 5)
            samples[position] = bad
            with pytest.raises(ValueError):
                AudioBuffer(samples, FS)
        AudioBuffer(np.array([1e308, -1e308] * 5), FS)  # huge but finite

    def test_rejects_bad_rate(self):
        for bad in (0, -8000, 8000.7, 0.5, np.float64(16000.5), np.nan, np.inf):
            with pytest.raises(ValueError):
                AudioBuffer(np.zeros(4), bad)
        # a whole number of hertz is taken as an int, whatever its type
        for good in (16000.0, np.int64(16000), np.int32(16000), np.float32(16000)):
            rate = AudioBuffer(np.zeros(4), good).sample_rate_hz
            assert rate == 16000 and type(rate) is int

    def test_empty_is_fine(self):
        assert len(AudioBuffer(np.zeros(0), FS)) == 0
