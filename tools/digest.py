"""Bit-identity check of rvad's outputs: one sha256 per input, pipeline and artefact.

    python tools/digest.py --out digests.json
    python tools/digest.py --compare before.json after.json

`--out` runs the rvad of the tree this script is in on every input of
`perfbench/gen.py` at seeds 1 and 2 (its WAV workloads written to a
temporary directory and read back with `read_wav`, its 48 kHz clips in
memory), on the criterion-4 corpus of `tests/test_acceptance.py`,
built with `tests/synth.py`, clean and at 20, 10 and 5 dB SNR, and on
seeded `tests/synth.py` utterances at 22.05, 32 and 44.1 kHz, whose default
frames take the pitch search's FFT path as the 48 kHz clips do.  Each input
runs under every mode and enhancer that `rvad.config` lists.  The artefacts
are the labels of `run_rvad`, and the samples and noise track of
`run_denoise`, under the default post-processing; and the labels of
`run_rvad` under POST_PROCESS, whose near rule reaches past the extended
segments (`labels-pp`).  Each input also has the digest of the pitch
search's mask on its whole high-passed samples at the defaults (`voicing`),
so a voicing change that leaves the labels alone still shows, and each WAV
input that of its whole decoded samples, `read_wav(path).samples`
(`decoded`).  A run that raises
gives the exception's type as its digest.  The file records the
Python, numpy and scipy versions with the digests.

`--compare` lists every key whose digest differs or that one file lacks,
then, for each source and artefact with such a key, how many of its keys
differ, and exits 1 if there is any.  A key's source is its input's name
up to the last `/`, such as `batch8k-fast-msnemod/seed1` or
`criterion4/snr10`.  The bits depend on numpy and on the BLAS it
links, so a difference in the recorded versions is warned about: compare
runs of one host and one environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
for sub in ("src", "perfbench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import scipy  # noqa: E402

import gen  # noqa: E402
import synth  # noqa: E402
from rvad import AudioBuffer, RvadConfig, read_wav, run_denoise, run_rvad  # noqa: E402
from rvad.config import ENHANCERS, MODES  # noqa: E402
from rvad.dsp import highpass, make_grid  # noqa: E402
from rvad.voicing import detect_pitch_autocorr  # noqa: E402

SEEDS = (1, 2)
SNRS = (("clean", None), ("snr20", 20.0), ("snr10", 10.0), ("snr5", 5.0))
# rates between the benchmark's 16 and 48 kHz, and utterances at each
SYNTH_RATES = (22050, 32000, 44100)
SYNTH_UTTERANCES = 4
# a post-processing whose near rules reach past the segment extension
POST_PROCESS = dict(ext_frames=20, pp_near_left=30, pp_near_right=40)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def sha256(array: np.ndarray) -> str:
    """Digest of an array's dtype, shape and bytes."""
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def benchmark_inputs(tmp: Path):
    """(name, buffer, path) for every input of the benchmark's workloads at
    SEEDS; the path is None for a clip held in memory."""
    for seed in SEEDS:
        for workload in gen.WORKLOADS:
            manifest = gen.write_inputs(workload, seed, tmp / f"{workload}-{seed}")
            clips = {}
            if workload == gen.CLIPS:
                with np.load(Path(manifest["dir"]) / "clips.npz") as npz:
                    clips = {name: npz[name] for name in npz.files}
            for item in manifest["items"]:
                name = f"{workload}/seed{seed}/{item['name']}"
                if item["name"] in clips:
                    yield name, AudioBuffer(clips[item["name"]], item["fs"]), None
                else:
                    yield name, read_wav(item["path"]), item["path"]


def corpus_inputs():
    """(name, buffer, None) for the criterion-4 corpus in its four conditions."""
    rng = np.random.default_rng(2026)
    corpus = [synth.utterance(synth.random_bursts(rng, total_s=4.0), 4.0) for _ in range(25)]
    for condition, snr in SNRS:
        mix_rng = np.random.default_rng(555)
        for i, buf in enumerate(corpus):
            yield f"criterion4/{condition}/u{i}", buf if snr is None else synth.noisy_copy(buf, snr, mix_rng), None


def synth_inputs():
    """(name, buffer, None) for seeded 4 s utterances at SYNTH_RATES, every
    other one with a white-noise floor."""
    for fs in SYNTH_RATES:
        rng = np.random.default_rng(fs)
        for i in range(SYNTH_UTTERANCES):
            bursts = synth.random_bursts(rng, total_s=4.0)
            yield f"synth/fs{fs}/u{i}", synth.utterance(bursts, 4.0, fs, noise_rms=0.01 * (i % 2), rng=rng), None


def voicing(audio: AudioBuffer) -> str:
    """Digest of the pitch search's mask on the whole high-passed input at
    the defaults, or the type of what it raises."""
    try:
        filtered = highpass(audio)
        return sha256(detect_pitch_autocorr([(filtered, make_grid(filtered))]))
    except Exception as exc:
        return f"error: {type(exc).__name__}"


def labels(audio: AudioBuffer, cfg: RvadConfig) -> str:
    """Digest of the labels of `run_rvad`, or the type of what it raises."""
    try:
        return sha256(run_rvad(audio, cfg).labels)
    except Exception as exc:
        return f"error: {type(exc).__name__}"


def artefacts(audio: AudioBuffer, cfg: RvadConfig) -> dict:
    """Digest of each artefact of one input under one mode and enhancer."""
    out = {"labels": labels(audio, cfg), "labels-pp": labels(audio, replace(cfg, **POST_PROCESS))}
    try:
        enhanced, noise = run_denoise(audio, cfg)
        out["samples"] = sha256(enhanced.samples)
        if noise is not None:
            out["noise"] = sha256(noise)
    except Exception as exc:
        out["samples"] = f"error: {type(exc).__name__}"
    return out


def collect() -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for source in (benchmark_inputs(Path(tmp)), corpus_inputs(), synth_inputs()):
            for name, audio, path in source:
                if path is not None:
                    digests[f"{name}|decoded"] = sha256(read_wav(path).samples)
                digests[f"{name}|voicing"] = voicing(audio)
                for mode in MODES:
                    for enhance in ENHANCERS:
                        cfg = RvadConfig(mode=mode, enhance=enhance)
                        for artefact, digest in artefacts(audio, cfg).items():
                            digests[f"{name}|{mode}|{enhance}|{artefact}"] = digest
    return digests


def group(key: str) -> tuple[str, str]:
    """A key's source, its input's name up to the last `/`, and its artefact."""
    return key.split("|", 1)[0].rsplit("/", 1)[0], key.rsplit("|", 1)[1]


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    if a["versions"] != b["versions"]:
        print(f"warning: versions differ: {a['versions']} against {b['versions']}", file=sys.stderr)
    da, db = a["digests"], b["digests"]
    differ = sorted(key for key in da.keys() | db.keys() if da.get(key) != db.get(key))
    for key in differ:
        print(f"{key}: {da.get(key, 'absent')} -> {db.get(key, 'absent')}")
    keys = da.keys() | db.keys()
    groups = Counter(map(group, keys))
    for (source, artefact), n in sorted(Counter(map(group, differ)).items()):
        print(f"{source} {artefact}: {n}/{groups[source, artefact]} differ")
    kinds = Counter(key.rsplit("|", 1)[1] for key in keys)
    print(f"{len(differ)} differences in {len(keys)} digests ({', '.join(f'{k} {n}' for k, n in sorted(kinds.items()))})")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE", help="write this tree's digests to FILE")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list the digests that differ between A and B")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    digests = collect()
    Path(args.out).write_text(json.dumps({"versions": versions(), "digests": digests}, indent=0, sort_keys=True))
    print(f"{len(digests)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
