"""The benchmark's span contract: the rvad functions its tracer wraps.

`perfbench/worker.py` times the functions it lists in SPANS by replacing
every name bound to each one in the rvad modules, and reports one it cannot
find as an absent span.  Its per-layer counts take one call per run of
`extend_segments`, `detect_high_energy` and the voicing detector.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from rvad import RvadConfig, run_rvad

from synth import utterance

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
VOICING = {"full": "detect_pitch_autocorr", "fast": "sft_voicing"}


def _spans() -> tuple:
    """SPANS as `perfbench/worker.py` assigns it, read without importing it."""
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS in {WORKER}")


def _count_calls(monkeypatch, module_name: str, name: str) -> list:
    """A list that gains an item at each call of rvad.<module_name>.<name>,
    wrapped under every name an rvad module binds it to, as the tracer does."""
    original = getattr(importlib.import_module(f"rvad.{module_name}"), name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name == "rvad" or mod_name.startswith("rvad."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_every_span_is_a_callable_of_rvad():
    spans = _spans()
    assert spans
    for module_name, name in spans:
        module = importlib.import_module(f"rvad.{module_name}")
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


@pytest.mark.parametrize("mode", ["full", "fast"])
def test_one_call_per_counted_stage(mode, monkeypatch):
    spans = set(_spans())
    counted = [("segments", "extend_segments"), ("denoise", "detect_high_energy"), ("voicing", VOICING[mode])]
    assert spans.issuperset(counted)
    calls = {span: _count_calls(monkeypatch, *span) for span in counted}
    audio = utterance([(0.5, 1.0, 150.0)], 3.0, noise_rms=0.01, rng=np.random.default_rng(7))
    result = run_rvad(audio, RvadConfig(mode=mode))
    assert result.num_speech_frames > 0
    assert {span: len(c) for span, c in calls.items()} == {span: 1 for span in counted}
