"""The pipeline's constants, each written once: `RvadConfig` and the values its string
fields take.  The kernels' defaults are its class attributes; this imports no rvad module."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["RvadConfig", "MODES", "ENHANCERS", "CHOICES"]

MODES = ("full", "fast")
ENHANCERS = ("none", "msne", "msne-mod")

# the string fields of RvadConfig and the values each takes
CHOICES = {"mode": MODES, "enhance": ENHANCERS}


@dataclass
class RvadConfig:
    """Every numeric constant of the pipeline, with production defaults.

    Out-of-range values raise `ValueError`; every float must be finite, and
    every integer field an integer (a NumPy one too, not a bool)."""

    frame_len_ms: float = 25.0
    frame_shift_ms: float = 10.0
    hpf_cutoff_hz: float = 60.0
    super_len: int = 200
    noise_forget: float = 0.9
    smooth_n: int = 18
    alpha: float = 0.25
    min_pitch_frames: int = 2
    ext_frames: int = 60
    beta: float = 0.4
    pp_far_left: int = 33
    pp_far_right: int = 47
    pp_near_left: int = 5
    pp_near_right: int = 12
    energy_ratio: float = 0.05
    theta_sft: float = 0.5
    mode: str = "full"
    enhance: str = "msne"
    pitch_f_min: float = 60.0
    pitch_f_max: float = 400.0
    pitch_rho: float = 0.6
    msne_smoothing: float = 0.85
    msne_bias: float = 1.5
    msne_window_frames: int = 150
    subtract_floor: float = 0.002
    lowfreq_cutoff_hz: float = 217.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{f.name} must be an integer")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
            if f.name in CHOICES and value not in CHOICES[f.name]:
                raise ValueError(f"{f.name} must be one of {CHOICES[f.name]}")
            # no number of the pipeline is negative; the checks below narrow this
            if type(f.default) is not str and value < 0:
                raise ValueError(f"{f.name} must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        for name in ("theta_sft", "msne_smoothing", "pitch_rho"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if not self.frame_len_ms >= self.frame_shift_ms > 0.0:
            raise ValueError("need frame_len_ms >= frame_shift_ms > 0")
        if self.msne_bias < 1.0:
            raise ValueError("msne_bias must be >= 1")
        if self.msne_window_frames < 1:
            raise ValueError("msne_window_frames must be >= 1")
        if self.super_len < 1:
            raise ValueError("super_len must be >= 1")
        # pitch_f_max < sample_rate/2 is checked per file
        if not 0.0 < self.pitch_f_min < self.pitch_f_max:
            raise ValueError("need 0 < pitch_f_min < pitch_f_max")
        if not 0.0 <= self.noise_forget <= 1.0:
            raise ValueError("noise_forget must be in [0, 1]")
