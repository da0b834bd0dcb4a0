"""Fast checks of the benchmark's own code: python3 -m pytest perfbench -q"""

import json
import struct
import wave
from pathlib import Path

import signal
import time

import numpy as np
import pytest

import calib
import gen
import run


def loop_reference(voiced, n, fs):
    """Frame-by-frame form of the reference-label rule."""
    flen, shift = gen.frame_geometry(fs)
    out = []
    for m in range(gen.num_frames(n, fs)):
        lo, hi = m * shift, m * shift + flen
        overlap = sum(max(0, min(hi, b) - max(lo, a)) for a, b in voiced)
        out.append(overlap >= flen // 2)
    return np.array(out, dtype=bool)


def test_label_count_formula():
    assert gen.frame_geometry(8000) == (200, 80)
    assert gen.frame_geometry(48000) == (1200, 480)
    assert gen.num_frames(199, 8000) == 0
    assert gen.num_frames(200, 8000) == 1
    assert gen.num_frames(279, 8000) == 1
    assert gen.num_frames(280, 8000) == 2
    assert gen.num_frames(32000, 8000) == 398


def test_reference_labels_hand_made():
    # frame 0 covers [0, 200) and overlaps the burst by 100 = flen // 2
    assert gen.reference_labels([(0, 100)], 400, 8000).tolist() == [True, False, False]
    assert gen.reference_labels([(0, 99)], 400, 8000).tolist() == [False, False, False]
    assert gen.reference_labels([(180, 400)], 400, 8000).tolist() == [False, True, True]
    assert gen.reference_labels([], 400, 8000).tolist() == [False, False, False]


def test_reference_labels_match_loop():
    rng = np.random.default_rng(0)
    for fs in (8000, 16000, 48000):
        clip = gen.speech_clip(rng, "x", fs, 6.0, 10.0, 1)
        n = len(clip.samples)
        assert np.array_equal(gen.reference_labels(clip.voiced, n, fs), loop_reference(clip.voiced, n, fs))


@pytest.mark.parametrize("workload", ["batch8k-fast-msnemod", "clips48k-full-none"])
def test_generator_is_deterministic(workload):
    a, b, c = (gen.workload_clips(workload, s) for s in (5, 5, 6))
    assert [x.name for x in a] == [x.name for x in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.samples, y.samples) and x.voiced == y.voiced and x.kind == y.kind
    assert any(not np.array_equal(x.samples, y.samples) for x, y in zip(a, c))


def test_batch_makeup_and_faulty_files_do_not_depend_on_seed():
    a, b = gen.workload_clips("batch8k-fast-msnemod", 1), gen.workload_clips("batch8k-fast-msnemod", 2)
    kinds = [c.kind for c in a]
    assert len(a) == 204
    assert (kinds.count("silence"), kinds.count("noise"), kinds.count("faulty")) == (5, 5, 4)
    assert all(not c.samples.any() for c in a if c.kind == "silence")
    for x, y in zip(a, b):
        if x.kind == "faulty":
            assert np.array_equal(x.samples, y.samples)


def test_encode_wav_formats(tmp_path):
    x = np.array([0.0, 0.5, -0.5, -1.0, 0.999])
    path = tmp_path / "a.wav"
    path.write_bytes(gen.encode_wav(x, 8000))
    with wave.open(str(path)) as w:
        assert (w.getframerate(), w.getsampwidth(), w.getnchannels()) == (8000, 2, 1)
        q = np.frombuffer(w.readframes(5), "<i2")
    assert q.tolist() == [0, 16384, -16384, -32768, 32735]

    raw = gen.encode_wav(x, 8000, bits=24, extensible=True)
    tag, _, _, _, block, bits = struct.unpack_from("<HHIIHH", raw, 20)
    assert (tag, block, bits, struct.unpack_from("<I", raw, 16)[0]) == (0xFFFE, 3, 24, 40)
    data = raw.index(b"data")
    body = raw[data + 8 : data + 8 + 15]
    assert int.from_bytes(body[3:6], "little", signed=True) == 1 << 22


def test_parse_vad_segments():
    labels = gen.parse_vad_segments("0.000000 0.030000\n0.100000 0.120000\n", 8000, 32000)
    assert len(labels) == 398
    assert np.flatnonzero(labels).tolist() == [0, 1, 2, 10, 11]
    assert not gen.parse_vad_segments("", 8000, 32000).any()
    for bad in ("0.1 0.2 0.3\n", "0.2 0.1\n", "0.0 0.1\n0.05 0.2\n", "0.0 0.1\n0.1 0.2\n", "3.9 4.0\n"):
        with pytest.raises(ValueError):
            gen.parse_vad_segments(bad, 8000, 32000)


def test_accuracy_pct():
    ref, hyp = np.array([1, 1, 0, 0], bool), np.array([1, 0, 1, 0], bool)
    assert gen.accuracy_pct([(ref, hyp)]) == 50.0
    assert gen.accuracy_pct([(ref, ref), (ref, hyp)]) == 75.0
    assert gen.accuracy_pct([(ref, ~ref)]) == 0.0
    with pytest.raises(ValueError):
        gen.accuracy_pct([(ref, hyp[:3])])
    with pytest.raises(ValueError):
        gen.accuracy_pct([])


def test_widen():
    mask = np.zeros(10, bool)
    mask[5] = True
    assert np.flatnonzero(gen.widen(mask, 2)).tolist() == [3, 4, 5, 6, 7]
    assert not gen.widen(np.zeros(4, bool), 60).any()


def test_batch_labels_reads_cli_outcome(tmp_path):
    items = [{"name": n, "fs": 8000, "n": 32000, "kind": k, "voiced": []} for n, k in (("a", "speech"), ("b", "faulty"))]
    manifest = {"workload": run.BATCH, "items": items}
    (tmp_path / "a.vad").write_text("0.500000 1.000000\n")
    labels, failed = run.batch_labels(manifest, 1, "rvad: b.wav: AudioFormatError\nrvad: processed 1/2 file(s)\n", tmp_path)
    assert failed == 1 and list(labels) == ["a"] and labels["a"].sum() == 50
    with pytest.raises(run.BenchError):
        run.batch_labels(manifest, 0, "rvad: processed 1/2 file(s)\n", tmp_path)
    with pytest.raises(run.BenchError):
        run.batch_labels(manifest, 0, "rvad: processed 2/2 file(s)\n", tmp_path)


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS


def test_meter_takes_inside_samples_out_and_restores_sigalrm():
    def busy():
        end = time.perf_counter() + 3 * calib.INTERVAL_S
        while time.perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    out, wall, cpu, wall_scale, cpu_scale = calib.Meter(inside=True).run(busy)
    assert out == "done" and wall_scale > 0 and cpu_scale > 0
    # two or more kernel samples ran inside the loop and were taken out of its time
    assert 0 < wall <= 3 * calib.INTERVAL_S - 2 * calib.REF_S / 4
    assert time.perf_counter() - t0 > 3 * calib.INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
