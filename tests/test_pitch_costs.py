"""`tools/pitch_costs.py` on a handful of frames."""

import importlib.util
import sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("pitch_costs", Path(__file__).parents[1] / "tools" / "pitch_costs.py")
pitch_costs = importlib.util.module_from_spec(spec)
path = list(sys.path)
spec.loader.exec_module(pitch_costs)  # it puts the tree's src first on the path
sys.path[:] = path


def test_prints_the_cost_table(capsys):
    assert pitch_costs.main(["--frames", "3", "--runs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| fs (kHz) | 8 | 16 | 22.05 | 32 | 44.1 | 48 |"
    assert lines[2] == "| q² / n·log2(n) | 7.1 | 12.7 | 24.1 | 23.1 | 43.8 | 51.9 |"
    assert [line.split(" | ")[0] for line in lines[3:]] == ["| lag-limited sum", "| chunked FFT"]
    for line in lines[3:]:
        assert all(float(us) > 0.0 for us in line.strip("| ").split(" | ")[1:])
