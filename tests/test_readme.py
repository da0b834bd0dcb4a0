"""README's examples run against the library as it is."""

import re
import shlex
import shutil
from pathlib import Path

import numpy as np

from rvad import write_wav
from rvad.cli import main

from synth import utterance

README = Path(__file__).parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_use_example_runs(tmp_path, monkeypatch):
    code = re.search(r"```python\n(.*?)```", _section("Library use"), re.S).group(1)
    write_wav(tmp_path / "utterance.wav", utterance([(0.5, 1.0, 150.0)], 2.0, rng=np.random.default_rng(5)))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "utterance.vad").read_text().strip()


def test_command_line_examples_run(tmp_path, monkeypatch):
    # each line of the block as written: utt.wav a 2 s utterance, files.list
    # two of them, and ref_labels/ the labels the vad lines wrote
    block = re.search(r"```\n(.*?)```", _section("Command line"), re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert [argv[:2] for argv in commands] == [["rvad", "vad"]] * 2 + [["rvad", "denoise"], ["rvad", "eval"]]
    rng = np.random.default_rng(6)
    write_wav(tmp_path / "utt.wav", utterance([(0.5, 1.0, 150.0)], 2.0, rng=rng))
    write_wav(tmp_path / "other.wav", utterance([(0.6, 0.8, 210.0)], 2.0, rng=rng))
    (tmp_path / "files.list").write_text("utt.wav\nother.wav\n")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[1] == "eval":
            shutil.copytree("labels", "ref_labels")
        assert main(argv[1:]) == 0, argv
    assert sorted(p.name for p in (tmp_path / "labels").iterdir()) == ["other.vad", "utt.vad"]
    assert (tmp_path / "clean" / "utt.wav").exists() and (tmp_path / "clean" / "utt.noisefloor.csv").exists()
