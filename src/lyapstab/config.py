"""The settable assessment configuration; every other tunable is derived per
pair (``w``, ``m_n``) or fixed (``swings.ClassifierConfig``, which holds the
swing automaton's counts and thresholds and the trend-test length)."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AssessmentConfig:
    """``sigma``: |w_g| / max|w| > sigma marks generator g severe.
    ``t_max``: seconds of data after clearing before a pair times out."""

    sigma: float = 0.7
    t_max: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be finite and > 0")
