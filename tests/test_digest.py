"""`tools/digest.py --compare` on hand-written digest files."""

import importlib.util
import json
import sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("digest", Path(__file__).parents[1] / "tools" / "digest.py")
digest = importlib.util.module_from_spec(spec)
path = list(sys.path)
spec.loader.exec_module(digest)  # it puts the tree's src, perfbench and tests first on the path
sys.path[:] = path

VERSIONS = {"python": "3", "numpy": "2", "scipy": "1"}


def _write(path, digests):
    path.write_text(json.dumps({"versions": VERSIONS, "digests": digests}))
    return str(path)


def test_compare_counts_differences_per_source_and_artefact(tmp_path, capsys):
    a = {
        "batch8k-fast-msnemod/seed1/f0|fast|none|labels": "1",
        "batch8k-fast-msnemod/seed1/f1|fast|none|labels": "2",
        "batch8k-fast-msnemod/seed1/f1|fast|none|samples": "3",
        "criterion4/snr10/u0|full|msne|noise": "4",
        "criterion4/snr10/u1|full|msne|noise": "5",
        "criterion4/clean/u0|full|msne|noise": "6",
    }
    b = dict(a)
    b["batch8k-fast-msnemod/seed1/f1|fast|none|labels"] = "x"
    b["criterion4/snr10/u1|full|msne|noise"] = "y"
    del b["criterion4/snr10/u0|full|msne|noise"]
    assert digest.main(["--compare", _write(tmp_path / "a.json", a), _write(tmp_path / "b.json", b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "batch8k-fast-msnemod/seed1/f1|fast|none|labels: 2 -> x",
        "criterion4/snr10/u0|full|msne|noise: 4 -> absent",
        "criterion4/snr10/u1|full|msne|noise: 5 -> y",
        "batch8k-fast-msnemod/seed1 labels: 1/2 differ",
        "criterion4/snr10 noise: 2/2 differ",
        "3 differences in 6 digests (labels 2, noise 3, samples 1)",
    ]


def test_compare_of_equal_files_lists_nothing(tmp_path, capsys):
    a = {"clips48k-full-none/seed2/c0|full|none|labels": "1", "criterion4/clean/u0|fast|msne|samples": "2"}
    assert digest.main(["--compare", _write(tmp_path / "a.json", a), _write(tmp_path / "b.json", a)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 differences in 2 digests (labels 1, samples 1)"]
