import os
import sys
from pathlib import Path

from hypothesis import settings

# make tests/synth.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so that a
# property that fails in CI fails the same way on a rerun or a laptop
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "default")
