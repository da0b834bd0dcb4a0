"""Child process of the rvad benchmark: runs rounds of one workload in-process.

    python worker.py MANIFEST RESULT_JSON --seconds S [--trace]

A round is one pass over the workload's inputs.  Rounds repeat until S
seconds have passed (at least one), each recording its wall and CPU time
and the host-speed scale factors of a `calib.Meter` sampling inside it;
the labels are saved to `labels-plain.npz` next to the manifest.  With
--trace the worker wraps the rvad functions named in SPANS and alternates
traced and untraced rounds, starting with a traced one (so a cold first
round counts against the trace), then runs one more round under tracemalloc
for the per-layer allocation peaks.  Traced labels go to
`labels-trace.npz`.  The batch workload runs `rvad.cli.main` with one
worker, so its labels land in `.vad` files under `labels-plain/` and
`labels-trace/` instead.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import shutil
import sys
import time
import tracemalloc
from collections import defaultdict
from functools import wraps
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calib  # noqa: E402
import gen  # noqa: E402

# The public functions the pipeline calls, by defining module.  The wrapper
# replaces every name bound to the function in any rvad module, so calls
# through `from .dsp import stft` are seen as well.  A function that no
# longer exists is reported as an absent span.
SPANS = (
    ("audio_io", "read_wav"),
    ("audio_io", "write_labels"),
    ("dsp", "highpass"),
    ("dsp", "frame_energy"),
    ("dsp", "stft"),
    ("features", "compute_features"),
    ("denoise", "detect_high_energy"),
    ("denoise", "zero_segments"),
    ("denoise", "msne_noise_track"),
    ("denoise", "spectral_subtract"),
    ("denoise", "lowfreq_suppress"),
    ("denoise", "reconstruct"),
    ("voicing", "detect_pitch_autocorr"),
    ("voicing", "sft_voicing"),
    ("segments", "extend_segments"),
    ("vad", "segment_vad"),
    ("vad", "post_process"),
    ("vad", "run_rvad"),
    ("cli", "main"),
)
MEMORY_LAYERS = ("dsp", "voicing", "denoise")
VOICING = ("voicing.detect_pitch_autocorr", "voicing.sft_voicing")
BATCH_FLAGS = ("--labels", "segments")


class Tracer:
    """Spans and counts around rvad's functions, recorded from outside the program.

    Per span it sums wall time and self time (the span minus the spans it
    encloses).  With `memory` set, each outermost call into a layer of
    MEMORY_LAYERS records the tracemalloc peak above the memory held at entry.
    It also checks two properties of every `run_rvad` result: one label per
    frame, and no speech more than EXT_FRAMES frames from a voiced frame.
    """

    def __init__(self):
        self.absent = []
        self.enabled = True
        self.memory = False
        self._stack: list[float] = []
        self._in_layer = False
        self.reset()
        modules = [mod for name, mod in sys.modules.items() if name == "rvad" or name.startswith("rvad.")]
        for mod_name, fn_name in SPANS:
            original = getattr(sys.modules.get(f"rvad.{mod_name}"), fn_name, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def reset(self) -> None:
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.counts = defaultdict(float)
        self.peak_mb = defaultdict(float)
        self.errors: list[str] = []
        self.ext_checked = 0
        self._mask = None

    def _wrap(self, key: str, fn):
        layer = key.split(".")[0]
        signature = inspect.signature(fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            track = self.memory and layer in MEMORY_LAYERS and not self._in_layer
            if track:
                self._in_layer = True
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.ms[key] += 1e3 * elapsed
                self.self_ms[key] += 1e3 * (elapsed - children)
                if track:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                    self.peak_mb[layer] = max(self.peak_mb[layer], peak)
                    self._in_layer = False
            self._count(key, signature.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def _count(self, key: str, args: dict, out) -> None:
        c = self.counts
        if key == "audio_io.read_wav":
            c["audio_io.mb_read"] += os.path.getsize(next(iter(args.values()))) / 1e6
        elif key == "dsp.stft":
            c["dsp.stft_calls"] += 1
        elif key in VOICING:
            self._mask = np.asarray(out, dtype=bool)
            c["voicing.voiced_frames"] += int(np.count_nonzero(self._mask))
        elif key == "denoise.detect_high_energy":
            c["denoise.high_energy_segments"] += len(out)
        elif key == "denoise.zero_segments" and "segments" in args:
            c["denoise.zeroed_frames"] += sum(t - s + 1 for s, t in args["segments"])
        elif key == "segments.extend_segments":
            c["segments.extended_segments"] += len(out)
            c["segments.frames_in_extended"] += sum(t - s + 1 for s, t in out)
        elif key == "vad.run_rvad":
            self._check_result(next(iter(args.values())), out.labels)

    def _check_result(self, audio, labels) -> None:
        expected = gen.num_frames(len(audio.samples), audio.sample_rate_hz)
        if len(labels) != expected:
            self.errors.append(f"run_rvad gave {len(labels)} labels for {expected} frames")
        elif self._mask is not None and len(self._mask) == len(labels):
            outside = np.count_nonzero(labels & ~gen.widen(self._mask))
            if outside:
                self.errors.append(f"{outside} speech frames lie outside the widened voiced frames")
            self.ext_checked += 1
        self._mask = None

    def layer_metrics(self) -> dict:
        m = {f"{key}_ms": v for key, v in self.ms.items() if key not in ("cli.main", "segments.extend_segments")}
        m["vad.self_ms"] = self.self_ms.get("vad.run_rvad", 0.0)
        m["cli.self_ms"] = self.self_ms.get("cli.main", 0.0)
        m.update(self.counts)
        return m


def make_round(manifest: dict, rvad):
    """A function that runs one round and returns its labels by input name.

    For the batch workload it runs `rvad.cli.main` with one worker, takes
    the label directory and returns the CLI's exit code and error lines
    instead.
    """
    workload = manifest["workload"]
    mode, enhance = gen.PIPELINE[workload]
    if workload == gen.BATCH:
        listing = str(Path(manifest["dir"]) / "files.list")

        def batch_round(out_dir: Path):
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = ["vad", "--in", listing, "--out", str(out_dir), "--mode", mode, "--enhance", enhance]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = rvad.cli.main([*argv, *BATCH_FLAGS, "--workers", "1"])
            return {"exit": code, "stderr": err.getvalue()}

        return batch_round

    cfg = rvad.RvadConfig(mode=mode, enhance=enhance)
    items = manifest["items"]
    if workload == gen.CLIPS:
        with np.load(Path(manifest["dir"]) / "clips.npz") as data:
            buffers = {it["name"]: rvad.AudioBuffer(data[it["name"]], it["fs"]) for it in items}
        return lambda _: {name: rvad.run_rvad(buf, cfg).labels for name, buf in buffers.items()}
    return lambda _: {it["name"]: rvad.run_rvad(rvad.read_wav(it["path"]), cfg).labels for it in items}


def same_output(a, b) -> bool:
    return a == b if "exit" in a else gen.same_labels(a, b)


def save(out, path: Path) -> None:
    if "exit" not in out:
        np.savez(path, **out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("manifest")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text())
    work = Path(manifest["dir"])

    import rvad
    import rvad.cli

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(rvad.__file__).resolve().parents:
        raise SystemExit(f"worker: imported rvad from {rvad.__file__}, not from {src}")
    round_fn = make_round(manifest, rvad)
    tracer = Tracer() if args.trace else None
    result: dict = {"rounds": [], "absent": tracer.absent if tracer else []}
    first: dict = {}
    # Kernel samples inside a traced round would land in the spans around them.
    meter = calib.Meter(inside=tracer is None)
    start = time.perf_counter()
    while len(result["rounds"]) < (2 if tracer else 1) or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(result["rounds"]) % 2 == 0
        kind = "trace" if traced else "plain"
        if tracer:
            tracer.reset()
            tracer.enabled = traced
        out_dir = work / f"labels-{kind}"
        out, wall, cpu, wall_scale, cpu_scale = meter.run(lambda: round_fn(out_dir))
        if "exit" in out:
            out["vad"] = {path.name: path.read_text() for path in sorted(out_dir.glob("*.vad"))}
        if kind not in first:
            first[kind] = out
            save(out, work / f"labels-{kind}.npz")
        elif not same_output(first[kind], out):
            raise SystemExit("worker: a later round gave other labels than the first")
        entry = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "wall_scale": wall_scale, "cpu_scale": cpu_scale}
        if traced:
            entry.update(layers=tracer.layer_metrics(), errors=tracer.errors, ext_checked=tracer.ext_checked)
        if "exit" in out:
            entry["out"] = {"exit": out["exit"], "stderr": out["stderr"]}
        result["rounds"].append(entry)

    if tracer:
        tracer.reset()
        tracer.enabled = tracer.memory = True
        tracemalloc.start()
        try:
            round_fn(work / "labels-memory")
        finally:
            tracemalloc.stop()
        result["peak_alloc_mb"] = {f"{layer}.peak_alloc_mb": tracer.peak_mb[layer] for layer in MEMORY_LAYERS}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
