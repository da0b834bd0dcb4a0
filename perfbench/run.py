"""rvad benchmark: run one workload from a source checkout and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The inputs are generated from --seed under `.perfbench_work/` and removed at
the end.  With --trace 0 the end-to-end metrics come from untraced runs:
fresh processes that import rvad (setup_s), then either one worker process
that repeats rounds in-process.  Every timing is scaled to a reference host speed by `calib`.  With --trace 1 one worker process runs the workload with rvad's
functions wrapped and prints the per-layer metrics.  The last line of
standard output is one JSON object; `--workload all` prints one such line
per workload and mode.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import gen  # noqa: E402
from worker import MEMORY_LAYERS, VOICING  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BATCH = gen.BATCH
SETUP_REPEATS = 3
DEADLINE_S = 170.0

# Lowest acceptable frame accuracy against the generator's references.  The
# pipeline scored 87-89 % on every workload when the benchmark was written.
ACCURACY_FLOOR_PCT = 80.0

E2E_UNITS = {"setup_s": "s", "rtf": "ratio", "cpu_s": "s", "peak_rss_mb": "MB", "frame_accuracy_pct": "%"}
COUNT_UNITS = {
    "audio_io.mb_read": "MB",
    "dsp.stft_calls": "count",
    "voicing.voiced_frames": "frames",
    "denoise.high_energy_segments": "count",
    "denoise.zeroed_frames": "frames",
    "segments.extended_segments": "count",
    "segments.frames_in_extended": "frames",
}
SPAN_METRICS = (
    "audio_io.read_wav_ms",
    "audio_io.write_labels_ms",
    "dsp.highpass_ms",
    "dsp.frame_energy_ms",
    "dsp.stft_ms",
    "features.compute_features_ms",
    "denoise.detect_high_energy_ms",
    "voicing.detect_pitch_autocorr_ms",
    "voicing.sft_voicing_ms",
    "denoise.zero_segments_ms",
    "denoise.msne_noise_track_ms",
    "denoise.spectral_subtract_ms",
    "denoise.lowfreq_suppress_ms",
    "denoise.reconstruct_ms",
    "vad.segment_vad_ms",
    "vad.post_process_ms",
    "vad.run_rvad_ms",
    "vad.self_ms",
    "cli.self_ms",
)
LAYER_UNITS = {
    **{name: "ms" for name in SPAN_METRICS},
    **COUNT_UNITS,
    **{f"{layer}.peak_alloc_mb": "MB" for layer in MEMORY_LAYERS},
    "import.rvad_ms": "ms",
    "import.scipy_signal_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not run the workload to its end."""


class Session:
    """One benchmark invocation: environment, deadline and work directory."""

    def __init__(self, workload: str, seed: int):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PERFBENCH_SRC=str(SRC))
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"

    def spawn(self, cmd, stdout=subprocess.DEVNULL, stderr=None):
        """Run a child to its end; return (wall_s, exit_code, rusage).

        The rusage comes from wait4: it covers the child and any descendant
        it waited for, and not this process.
        """
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr)
        killer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"{cmd[1:3]} was killed by signal {-proc.returncode}")
        return wall, proc.returncode, usage

    def python(self, *args, stdout=subprocess.DEVNULL, stderr=None):
        return self.spawn([sys.executable, *args], stdout=stdout, stderr=stderr)

    def logged(self, name: str, *args):
        """Run python with stderr kept in a file; return (wall, code, rusage, stderr)."""
        log = self.work / f"{name}.log"
        with open(log, "w") as fh:
            wall, code, usage = self.python(*args, stderr=fh)
        return wall, code, usage, log.read_text()


def setup_seconds(session: Session, workload: str) -> tuple[float, float]:
    """Median scaled and raw time for a fresh process to start and import
    rvad; for the batch, to start the CLI and parse its arguments (`vad --help`)."""
    args = ("-m", "rvad.cli", "vad", "--help") if workload == BATCH else ("-c", "import rvad")
    scaled, raw = [], []
    meter = calib.Meter()
    for _ in range(SETUP_REPEATS):
        (wall, code, _), _, _, wall_scale, _ = meter.run(lambda: session.python(*args))
        if code != 0:
            raise BenchError(f"set-up command {args} exited with {code}")
        scaled.append(wall * wall_scale)
        raw.append(wall)
    return statistics.median(scaled), statistics.median(raw)


def import_ms(session: Session) -> dict:
    """Cumulative import times of rvad and of scipy.signal, from -X importtime."""
    _, code, _, log = session.logged("importtime", "-X", "importtime", "-c", "import rvad")
    if code != 0:
        raise BenchError(f"import rvad failed:\n{log}")
    cumulative = {}
    for line in log.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
    return {"import.rvad_ms": cumulative.get("rvad", 0.0), "import.scipy_signal_ms": cumulative.get("scipy.signal", 0.0)}


def batch_labels(manifest: dict, exit_code: int, stderr: str, label_dir: Path) -> tuple[dict, int]:
    """Labels of the files the CLI labelled, and how many it failed.

    The failed count comes from the CLI's `processed N/M` line and must
    agree with its exit status and with the `.vad` files it wrote.
    """
    found = re.findall(r"processed (\d+)/(\d+) file", stderr)
    if not found:
        raise BenchError(f"the CLI printed no 'processed N/M' line:\n{stderr[-2000:]}")
    done, total = map(int, found[-1])
    items = manifest["items"]
    if total != len(items) or exit_code != (1 if done < total else 0):
        raise BenchError(f"the CLI reported {done}/{total} for {len(items)} files with exit {exit_code}")
    labels = {}
    for it in items:
        path = label_dir / f"{it['name']}.vad"
        if path.exists():
            try:
                labels[it["name"]] = gen.parse_vad_segments(path.read_text(), it["fs"], it["n"])
            except ValueError as exc:
                raise BenchError(f"{path.name}: {exc}") from exc
    if len(labels) != done:
        raise BenchError(f"the CLI wrote {len(labels)} label files but reported {done}")
    return labels, total - done


def check_labels(manifest: dict, labels: dict, exact_count: bool) -> tuple[float, float, list[str]]:
    """Frame accuracy and labelled audio seconds, plus every check that failed."""
    errors, pairs, audio_s = [], [], 0.0
    for it in manifest["items"]:
        hyp = labels.get(it["name"])
        if hyp is None:
            if it["kind"] != "faulty":
                errors.append(f"{it['name']} ({it['kind']}) was not labelled")
            continue
        expected = gen.num_frames(it["n"], it["fs"])
        if exact_count and len(hyp) != expected:
            errors.append(f"{it['name']}: {len(hyp)} labels, expected {expected}")
            continue
        if it["kind"] in ("silence", "noise") and hyp.any():
            errors.append(f"{it['name']} ({it['kind']}) has {np.count_nonzero(hyp)} speech frames")
        pairs.append((gen.reference_labels(it["voiced"], it["n"], it["fs"]), hyp))
        audio_s += it["n"] / it["fs"]
    accuracy = gen.accuracy_pct(pairs)
    if accuracy < ACCURACY_FLOOR_PCT:
        errors.append(f"frame accuracy {accuracy:.2f}% is below the {ACCURACY_FLOOR_PCT}% floor")
    return accuracy, audio_s, errors


def npz_labels(path: Path) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def worker_labels(session: Session, manifest: dict, first_round: dict, kind: str) -> tuple[dict, int]:
    """Labels of a worker round of one kind, and how many inputs it failed."""
    if manifest["workload"] == BATCH:
        out = first_round["out"]
        return batch_labels(manifest, out["exit"], out["stderr"], session.work / f"labels-{kind}")
    return npz_labels(session.work / f"labels-{kind}.npz"), 0


def worker_result(session: Session, manifest_path: Path, seconds: float, trace: bool):
    result_path = session.work / ("trace.json" if trace else "plain.json")
    args = [str(HERE / "worker.py"), str(manifest_path), str(result_path), "--seconds", str(seconds)]
    _, code, usage, log = session.logged("worker", *args, *(["--trace"] if trace else []))
    if code != 0:
        raise BenchError(f"worker exited with {code}:\n{log[-4000:]}")
    return json.loads(result_path.read_text()), usage


def untraced(session: Session, manifest: dict, manifest_path: Path, seconds: float) -> dict:
    workload = manifest["workload"]
    setup_s, raw_setup_s = setup_seconds(session, workload)
    result, usage = worker_result(session, manifest_path, seconds, trace=False)
    rounds = result["rounds"]
    # the worker has checked that every round gave the same output
    first, failed = worker_labels(session, manifest, rounds[0], "plain")
    for r in rounds:
        r["failed"] = failed
    accuracy, audio_s, errors = check_labels(manifest, first, exact_count=workload != BATCH)
    peak_kb = usage.ru_maxrss
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if own_kb >= peak_kb:
        raise BenchError(f"the benchmark's own peak RSS ({own_kb} kB) hides the program's ({peak_kb} kB)")
    raw_rtf = statistics.median(r["wall_s"] for r in rounds) / audio_s
    raw_cpu_s = statistics.median(r["cpu_s"] for r in rounds)
    print(f"unscaled: setup_s {raw_setup_s:.4f} s, rtf {raw_rtf:.6f}, cpu_s {raw_cpu_s:.4f} s")
    metrics = {
        "setup_s": setup_s,
        "rtf": scaled_rtf(rounds, audio_s),
        "cpu_s": statistics.median(r["cpu_s"] * r["cpu_scale"] for r in rounds),
        "peak_rss_mb": peak_kb / 1024.0,
        "frame_accuracy_pct": accuracy,
    }
    return report(manifest, rounds, errors, metrics, E2E_UNITS)


def traced(session: Session, manifest: dict, manifest_path: Path, seconds: float) -> dict:
    workload = manifest["workload"]
    imports = import_ms(session)
    result, _ = worker_result(session, manifest_path, seconds, trace=True)
    rounds = result["rounds"]
    runs = {"plain": [r for r in rounds if not r["traced"]], "trace": [r for r in rounds if r["traced"]]}
    labels = {}
    for kind, kind_rounds in runs.items():
        # the worker has checked that every round of a kind gave the same output
        labels[kind], failed = worker_labels(session, manifest, kind_rounds[0], kind)
        for r in kind_rounds:
            r["failed"] = failed
    errors = [e for r in runs["trace"] for e in r["errors"]]
    if not gen.same_labels(labels["plain"], labels["trace"]):
        errors.append("traced labels differ from untraced labels")
    _, audio_s, label_errors = check_labels(manifest, labels["trace"], exact_count=workload != BATCH)
    errors += label_errors
    absent = set(result["absent"])
    if not any(r["ext_checked"] for r in runs["trace"]):
        if absent & set(VOICING):
            print("widened-voicing check skipped: a voicing span is absent")
        else:
            errors.append("no run_rvad result was checked against the widened voiced frames")

    layers = {name: statistics.median(r["layers"].get(name, 0.0) for r in runs["trace"]) for name in LAYER_UNITS}
    layers.update(result["peak_alloc_mb"])
    layers.update(imports)
    rtf = {kind: scaled_rtf(kind_rounds, audio_s) for kind, kind_rounds in runs.items()}
    print(f"trace overhead: rtf {rtf['trace']:.6f} traced - {rtf['plain']:.6f} untraced = {rtf['trace'] - rtf['plain']:+.6f}")
    if absent:
        print("absent spans (reported as 0): " + ", ".join(sorted(absent)))
    return report(manifest, rounds, errors, layers, LAYER_UNITS)


def scaled_rtf(rounds: list, audio_s: float) -> float:
    """Median round wall time at the reference host speed, over audio seconds."""
    return statistics.median(r["wall_s"] * r["wall_scale"] for r in rounds) / audio_s


def report(manifest: dict, rounds: list, errors: list, metrics: dict, units: dict) -> dict:
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    walls = ", ".join(f"{r['wall_s']:.3f}x{r['wall_scale']:.3f}" for r in rounds)
    print(f"{manifest['workload']}: {len(rounds)} rounds of {len(manifest['items'])} inputs, wall s x scale: {walls}")
    for name, value in metrics.items():
        print(f"{manifest['workload']:>22} {name:<34} {value:14.6f} {units[name]}")
    return {
        "correct": not errors,
        "attempted": len(rounds) * len(manifest["items"]),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(workload, seed)
    shutil.rmtree(session.work, ignore_errors=True)
    try:
        # Generate in a child: ru_maxrss of a child spawned later includes
        # the peak of this process, which must stay below the program's.
        manifest_path = session.work / "manifest.json"
        _, code, _ = session.python(str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(session.work))
        if code != 0:
            raise BenchError(f"input generation exited with {code}")
        manifest = json.loads(manifest_path.read_text())
        measure = traced if trace else untraced
        return measure(session, manifest, manifest_path, seconds)
    finally:
        shutil.rmtree(session.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rvad benchmark")
    ap.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rvad" / "__init__.py").is_file():
        print(f"perfbench: no rvad sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
            return 0
        for workload in gen.WORKLOADS:
            for trace in (False, True):
                out = run(workload, args.seed, args.seconds, trace)
                print(json.dumps({"workload": workload, "trace": int(trace), **out}))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
