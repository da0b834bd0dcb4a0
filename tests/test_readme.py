"""README's examples run against the library as it is."""

import re
from pathlib import Path

import numpy as np

from rvad import write_wav

from synth import utterance

README = Path(__file__).parents[1] / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch):
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    write_wav(tmp_path / "utterance.wav", utterance([(0.5, 1.0, 150.0)], 2.0, rng=np.random.default_rng(5)))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "utterance.vad").read_text().strip()
