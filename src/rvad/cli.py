"""Command-line entry points: `rvad vad`, `rvad denoise`, `rvad eval`.

Exit codes: 0 on full success, 1 when any per-file step failed, 2 on usage
errors (bad flags, unknown config keys, unpairable inputs, an input list or
reference with no files, an unreadable voicing file, inputs that share an
output name, `--workers` below 1, `--gamma` outside [0, 1]).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .audio_io import _read_labels, read_wav, write_labels, write_wav
from .config import CHOICES, RvadConfig
from .metrics import DEFAULT_GAMMA, EvalResult, aggregate, count_errors, rates_from_counts
from .vad import _process_one, run_batch, run_denoise

_CONFIG_FIELDS = {f.name: type(f.default) for f in fields(RvadConfig)}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pipeline configuration overrides")
    group.add_argument("--config", metavar="PATH", help="key = value file applied before flags")
    for name, ftype in _CONFIG_FIELDS.items():
        flag = "--" + name.replace("_", "-")
        if name in CHOICES:
            group.add_argument(flag, choices=CHOICES[name], default=None)
        else:
            group.add_argument(flag, type=ftype, default=None, metavar=ftype.__name__.upper())


def _parse_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value.strip("\"'")
    return values


def _build_config(args, parser: argparse.ArgumentParser) -> RvadConfig:
    values = {}
    if args.config:
        try:
            raw = _parse_config_file(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        for key, text in raw.items():
            if key not in _CONFIG_FIELDS:
                parser.error(f"unknown config key: {key}")
            try:
                values[key] = _CONFIG_FIELDS[key](text) if key not in CHOICES else text
            except ValueError:
                parser.error(f"bad value for config key {key}: {text!r}")
    for name in _CONFIG_FIELDS:
        flag_value = getattr(args, name)
        if flag_value is not None:
            values[name] = flag_value
    try:
        return RvadConfig(**values)
    except ValueError as exc:
        parser.error(str(exc))


def _list_file(path: Path, kind: str, parser: argparse.ArgumentParser) -> list[str]:
    """The names in a list file: its stripped lines, skipping blank and '#' ones."""
    try:
        lines = [line.strip() for line in path.read_text().splitlines()]
    except OSError as exc:
        parser.error(f"cannot read {kind} list: {exc}")
    return [line for line in lines if line and not line.startswith("#")]


def _input_wavs(spec: str, parser: argparse.ArgumentParser) -> list[str]:
    path = Path(spec)
    if path.suffix.lower() == ".wav":
        return [str(path)]
    files = _list_file(path, "input", parser)
    if not files:
        parser.error(f"input list {spec} names no files")
    # outputs are named by stem, so two inputs with one stem would collide;
    # only a repeated stem needs its paths resolved
    by_stem = {}
    for name in files:
        first = by_stem.setdefault(Path(name).stem, name)
        if first != name and Path(first).resolve() != Path(name).resolve():
            parser.error(f"inputs {first} and {name} share the output name {Path(name).stem!r}")
    return files


def _workers(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _gamma(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def _cmd_vad(args, parser) -> int:
    cfg = _build_config(args, parser)
    paths = _input_wavs(args.input, parser)
    voicing, counted = None, True
    if args.voicing_file:
        if len(paths) != 1:
            parser.error("--voicing-file requires a single wav input")
        try:
            labels, counted = _read_labels(args.voicing_file, cfg.frame_shift_ms)
            voicing = labels.labels
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read --voicing-file: {exc}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    if voicing is None:
        items = run_batch(paths, cfg, args.workers)
    else:
        # a segments-format file does not count its frames: it takes the input's
        items = [_process_one(paths[0], cfg, voicing, fit=not counted)]
    for item in items:
        if item.ok:
            try:
                write_labels(out_dir / (Path(item.path).stem + ".vad"), item.result, fmt=args.labels)
                continue
            except OSError as exc:
                item.error = f"{type(exc).__name__}: {exc}"
        print(f"rvad: {item.path}: {item.error}", file=sys.stderr)
        failures += 1
    print(f"rvad: processed {len(items) - failures}/{len(items)} file(s)", file=sys.stderr)
    return 1 if failures else 0


def _cmd_denoise(args, parser) -> int:
    cfg = _build_config(args, parser)
    if args.dump_noise_floor and cfg.enhance == "none":
        parser.error("--dump-noise-floor needs --enhance msne or msne-mod")
    paths = _input_wavs(args.input, parser)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for path in paths:
        try:
            enhanced, noise = run_denoise(read_wav(path), cfg)
            stem = Path(path).stem
            write_wav(out_dir / (stem + ".wav"), enhanced)
            if args.dump_noise_floor and noise is not None:
                np.savetxt(out_dir / (stem + ".noisefloor.csv"), noise, delimiter=",")
        except Exception as exc:
            print(f"rvad: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failures += 1
    print(f"rvad: denoised {len(paths) - failures}/{len(paths)} file(s)", file=sys.stderr)
    return 1 if failures else 0


def _label_files(spec: str, parser) -> list[Path]:
    path = Path(spec)
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.is_file())
    return [Path(name) for name in _list_file(path, "label", parser)]


def _pair_labels(ref_spec: str, hyp_spec: str, parser) -> list[tuple[str, Path, Path]]:
    refs = _label_files(ref_spec, parser)
    if not refs:
        parser.error(f"reference {ref_spec} names no label files")
    hyps = _label_files(hyp_spec, parser)
    if Path(ref_spec).is_dir() and Path(hyp_spec).is_dir():
        hyp_by_stem = {p.stem: p for p in hyps}
        pairs = []
        for ref in refs:
            if ref.stem not in hyp_by_stem:
                parser.error(f"no hypothesis labels for {ref.stem}")
            pairs.append((ref.stem, ref, hyp_by_stem[ref.stem]))
        return pairs
    if len(refs) != len(hyps):
        parser.error(f"ref and hyp lists differ in length ({len(refs)} vs {len(hyps)})")
    return [(ref.stem, ref, hyp) for ref, hyp in zip(refs, hyps)]


# the eval report's columns and their text formats: the row's file id,
# then fields of its EvalResult
_REPORT_COLUMNS = {
    "file": "{}", "n_frames": "{}", "p_miss": "{:.4f}", "p_fa": "{:.4f}", "fer": "{:.4f}", "dcf": "{:.6f}"
}


def _emit_report(rows: list[dict], fmt: str, stream) -> None:
    if fmt == "json-lines":
        for row in rows:
            stream.write(json.dumps(row) + "\n")
        return
    sep = "," if fmt == "csv" else "\t"
    stream.write(sep.join(_REPORT_COLUMNS) + "\n")
    for row in rows:
        stream.write(sep.join(spec.format(row[name]) for name, spec in _REPORT_COLUMNS.items()) + "\n")


def _report_row(file_id: str, rates: EvalResult) -> dict:
    return {name: file_id if name == "file" else getattr(rates, name) for name in _REPORT_COLUMNS}


def _cmd_eval(args, parser) -> int:
    pairs = _pair_labels(args.ref, args.hyp, parser)
    rows = []
    pooled = []
    failures = 0
    for file_id, ref_path, hyp_path in pairs:
        try:
            (ref, ref_counted), (hyp, hyp_counted) = _read_labels(ref_path), _read_labels(hyp_path)
            if ref_counted and hyp_counted:
                n = min(len(ref), len(hyp))
                if len(ref) != len(hyp):
                    print(
                        f"rvad: {file_id}: label length mismatch ({len(ref)} vs {len(hyp)}); truncating to {n} frames",
                        file=sys.stderr,
                    )
            else:
                # a segments file or an empty one does not count its frames: it takes
                # the other file's count, and of two such files the longer sets it
                n = len(ref) if ref_counted else len(hyp) if hyp_counted else max(len(ref), len(hyp))
            ref, hyp = (np.pad(x.labels[:n], (0, max(n - len(x), 0))) for x in (ref, hyp))
            counts = count_errors(ref, hyp)
            rates = rates_from_counts(counts, args.gamma)
        except Exception as exc:
            print(f"rvad: {file_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failures += 1
            continue
        pooled.append((counts, file_id))
        rows.append(_report_row(file_id, rates))
    if pooled:
        overall = aggregate(pooled, args.gamma)
        rows.append(_report_row("OVERALL", overall.pooled))
        print(
            f"rvad: scored {len(pooled)} file(s), macro-average FER {overall.macro_fer:.2f}%",
            file=sys.stderr,
        )
    _emit_report(rows, args.report, sys.stdout)
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rvad", description="Segment-based robust voice activity detection")
    sub = parser.add_subparsers(dest="command", required=True)

    vad = sub.add_parser("vad", help="run VAD and write per-file label files")
    vad.add_argument("--in", dest="input", required=True, metavar="WAV|LIST")
    vad.add_argument("--out", required=True, metavar="DIR")
    vad.add_argument("--labels", choices=("frames", "segments"), default="frames")
    vad.add_argument("--voicing-file", metavar="PATH", help="externally computed 0/1 voicing mask")
    vad.add_argument("--workers", type=_workers, default=1)
    _add_config_flags(vad)
    vad.set_defaults(func=_cmd_vad)

    den = sub.add_parser("denoise", help="write two-pass denoised wavs")
    den.add_argument("--in", dest="input", required=True, metavar="WAV|LIST")
    den.add_argument("--out", required=True, metavar="DIR")
    den.add_argument("--dump-noise-floor", action="store_true", help="also write per-frame/bin noise power CSVs")
    _add_config_flags(den)
    den.set_defaults(func=_cmd_denoise)

    ev = sub.add_parser("eval", help="score hypothesis labels against references")
    ev.add_argument("--ref", required=True, metavar="DIR|LIST")
    ev.add_argument("--hyp", required=True, metavar="DIR|LIST")
    ev.add_argument("--gamma", type=_gamma, default=DEFAULT_GAMMA)
    ev.add_argument("--report", choices=("csv", "tsv", "json-lines"), default="csv")
    ev.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
