"""Uniformly sampled real-valued signals (bus voltage or per-ECU power)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampledTrace:
    """A uniformly sampled signal with its sample rate and start time.

    ``samples`` holds volts for bus traces or normalized power units for
    ECU power traces.
    """

    samples: np.ndarray
    sample_rate: float
    start_time: float = 0.0

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
