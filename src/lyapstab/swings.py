"""Swing-pattern classification and estimator parameter selection.

The post-fault relative rotor speed of a pair falls into one of six
morphologies; the pattern fixes the temporal separation ``w`` between the
two trajectory segments compared downstream, and the first crest of the
separation distance fixes the fitting start step ``m_n``.  Everything here
is a deterministic automaton over the incoming sample stream: it emits a
decision exactly once and the decision never changes as more data arrives.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import AssessmentConfig
from .errors import (ClassificationRefused, ClassificationTimeout,
                     PeakSearchTimeout)


class SwingPattern(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"


# Patterns that keep growing from the start: fit immediately (m_n = w).
# The others oscillate: fit from the first crest of the distance series.
MONOTONE_PATTERNS = (SwingPattern.I, SwingPattern.II)


class ClassifierConfig:
    """Fixed constants (not settings) of the automaton, tuned for 120 samples/s.

    ``eps_v_rel`` scales the band around +/-v0 used for threshold crossings
    (with an absolute floor for near-zero events), ``eps_a_rel`` scales the
    curvature threshold separating sustained growth from decelerated growth,
    and the ``n_*`` counts control smoothing and extremum confirmation.
    """

    __slots__ = ()
    n_confirm = 12      # samples of evidence before the initial branch
    n_peak = 6          # +/- neighbourhood for extremum confirmation
    smooth_width = 5    # centred moving-average width
    eps_v_rel = 1e-3
    eps_v_floor = 1e-6  # rad/s
    eps_a_rel = 0.02
    escape_after = 2.0  # s of fruitless peak-waiting before Pattern I


@dataclass(frozen=True)
class EstimatorParams:
    """Everything the exponent estimator needs for one pair."""

    w: int
    m_n: int
    dt: float
    pattern: SwingPattern
    decided_at: int  # sample index at which the pattern was emitted

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("w must be at least 1")
        if self.m_n < self.w:
            raise ValueError("m_n must be at least w")
        if self.pattern in MONOTONE_PATTERNS and self.m_n != self.w:
            raise ValueError(f"pattern {self.pattern.value} requires m_n == w")


@dataclass
class DistanceSeries:
    """Separation between the two trajectory segments: d_j = |theta_{j+w} - theta_j|."""

    d: np.ndarray


def distance_series(rel_angle: np.ndarray, w: int) -> DistanceSeries:
    theta = np.asarray(rel_angle, dtype=float)
    if w < 1:
        raise ValueError("w must be at least 1")
    if len(theta) <= w:
        raise ValueError(f"need more than w={w} samples, have {len(theta)}")
    return DistanceSeries(d=np.abs(theta[w:] - theta[:-w]))


# -- the streaming primitive: smooth, then confirm the first extremum ------

class _MovingAverage:
    """Centred moving average of a sample stream, clipped at the left edge.

    ``raw`` holds the pushed samples and ``smoothed[i]`` the mean of
    ``raw[i - hw : i + hw + 1]``.  A smoothed value is appended once its
    right half-window has arrived, so appended values never change.
    """

    def __init__(self, width: int):
        self.hw = width // 2
        self.raw: list[float] = []
        self.smoothed: list[float] = []

    def push(self, x: float) -> None:
        self.raw.append(x)
        i = len(self.raw) - 1 - self.hw
        if i >= 0:
            window = self.raw[max(0, i - self.hw):]
            acc = 0.0  # left to right like np.mean; sum() compensates on 3.12+
            for v in window:
                acc += v
            self.smoothed.append(acc / len(window))


class _ExtremumScanner:
    """Streaming search for the first confirmed local extremum.

    ``sign=+1`` looks for a maximum, ``-1`` for a minimum.  Index ``j`` is
    confirmed once the smoothed value there dominates every smoothed value in
    ``[j - n_peak, j + n_peak]`` (clipped at the left edge only); ``scan``
    takes the final smoothed values seen so far, so a verdict never changes
    when more samples arrive.
    """

    def __init__(self, sign: int, n_peak: int, start: int = 1):
        self.extreme = max if sign > 0 else min
        self.n_peak = n_peak
        self.next_j = start
        self.found: int | None = None

    def scan(self, sm: list[float]) -> int | None:
        # j is decidable once smoothed index j + n_peak exists
        while self.found is None and self.next_j + self.n_peak < len(sm):
            j = self.next_j
            window = sm[max(0, j - self.n_peak):j + self.n_peak + 1]
            if sm[j] == self.extreme(window):
                self.found = j
            else:
                self.next_j += 1
        return self.found


def find_mle_start(pattern: SwingPattern, w: int, d: DistanceSeries) -> int:
    """Fitting start step m_n for the estimator.

    Growing patterns start immediately (m_n = w); oscillating patterns wait
    for the first confirmed crest of the distance series at index j* and use
    m_n = w + j*, reading the series only up to where j* confirms.  Raises
    :class:`PeakSearchTimeout` when no crest confirms within the data.
    """
    if pattern in MONOTONE_PATTERNS:
        return w
    avg = _MovingAverage(ClassifierConfig.smooth_width)
    crest = _ExtremumScanner(+1, ClassifierConfig.n_peak)
    for dj in d.d.tolist():
        avg.push(dj)
        j_star = crest.scan(avg.smoothed)
        if j_star is not None:
            return w + j_star
    raise PeakSearchTimeout(
        f"no confirmed crest in {len(d.d)} distance samples")


@dataclass(frozen=True)
class ClassifierDecision:
    pattern: SwingPattern
    w: int
    decided_at: int


class SwingClassifier:
    """Online classifier: feed relative-speed samples in order via ``step``.

    The first sample fixes v0 (which must be non-negative: pair traces are
    sign-oriented upstream).  ``step`` returns a :class:`ClassifierDecision`
    exactly once, ``None`` before and after.  Near-zero v0 raises
    :class:`ClassificationRefused`; running past ``t_max`` without a decision
    raises :class:`ClassificationTimeout`.
    """

    def __init__(self, dt: float, t_max: float = AssessmentConfig.t_max):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self.t_max = t_max
        self.max_samples = int(round(t_max / dt))
        self._avg = _MovingAverage(ClassifierConfig.smooth_width)
        self._v = self._avg.raw
        self._sm = self._avg.smoothed
        self.v0: float | None = None
        self.eps_v = 0.0
        self.eps_a = 0.0
        self.branch: str | None = None   # 'dec' | 'inc'
        self.decision: ClassifierDecision | None = None
        # decreasing-branch state
        self._armed_ii = False
        self._scan_ptr = 0
        self._dec_min = None
        self._dec_max = None
        self._j_min: int | None = None
        # increasing-branch state
        self._decelerating_at: int | None = None
        self._kappa_ptr = 1
        self._inc_peak = None
        self._peak_at: int | None = None
        self._inc_min = None

    def step(self, v_new: float) -> ClassifierDecision | None:
        if self.decision is not None:
            return None
        if not math.isfinite(v_new):
            raise ValueError("non-finite speed sample")
        if self.v0 is None:
            if v_new < 0.0:
                raise ValueError("pair traces must be oriented so v0 >= 0")
            self.v0 = v_new
            self.eps_v = max(ClassifierConfig.eps_v_rel * v_new,
                             ClassifierConfig.eps_v_floor)
            if v_new < self.eps_v:
                raise ClassificationRefused(
                    f"initial relative speed {v_new:.2e} rad/s is below the "
                    f"resolvable threshold {self.eps_v:.2e}")
            self.eps_a = (ClassifierConfig.eps_a_rel * v_new
                          / (self.dt * ClassifierConfig.n_confirm))
        self._avg.push(v_new)
        n_last = len(self._v) - 1

        if self.branch is None and n_last >= ClassifierConfig.n_confirm:
            self.branch = "dec" if self._sm[-1] < self._sm[0] else "inc"
            if self.branch == "dec":
                self._dec_min = _ExtremumScanner(-1, ClassifierConfig.n_peak)
            else:
                self._inc_peak = _ExtremumScanner(+1, ClassifierConfig.n_peak)
        if self.branch == "dec":
            self._step_decreasing(n_last)
        elif self.branch == "inc":
            self._step_increasing(n_last)

        if self.decision is None and n_last >= self.max_samples:
            raise ClassificationTimeout(
                f"no pattern decision within {self.t_max} s "
                f"({self.max_samples} samples)")
        return self.decision

    # -- decreasing initial speed: patterns II / III / IV ------------------

    def _step_decreasing(self, n_last: int) -> None:
        # extremum confirmations refer to older features, so they are
        # evaluated before the threshold crossing of the newest sample
        if self._j_min is None:
            j = self._dec_min.scan(self._sm)
            if j is not None:
                self._j_min = j
                self._dec_max = _ExtremumScanner(+1, ClassifierConfig.n_peak,
                                                 start=j + 1)
        if self._j_min is not None and self.decision is None:
            j_max = self._dec_max.scan(self._sm)
            if j_max is not None:
                self._emit(SwingPattern.IV, self._j_min, n_last)
                return
        while self.decision is None and self._scan_ptr <= n_last:
            j = self._scan_ptr
            v = self._v[j]
            if v <= -self.v0 + self.eps_v:
                self._emit(SwingPattern.III, j, max(n_last, j))
            elif self._armed_ii and v >= self.v0 - self.eps_v:
                self._emit(SwingPattern.II, j, max(n_last, j))
            elif v < self.v0 - self.eps_v:
                self._armed_ii = True
            self._scan_ptr += 1

    # -- increasing initial speed: patterns I / V / VI ---------------------

    def _step_increasing(self, n_last: int) -> None:
        # curvature of the smoothed curve; kappa index i needs sm[i-1..i+1]
        while self._decelerating_at is None and self._kappa_ptr + 1 < len(self._sm):
            i = self._kappa_ptr
            kappa = (self._sm[i + 1] - 2.0 * self._sm[i] + self._sm[i - 1]) / self.dt**2
            if kappa < -self.eps_a:
                self._decelerating_at = n_last
            self._kappa_ptr += 1

        if self._decelerating_at is None:
            # sustained non-decelerating growth: Pattern I once confirmed
            if n_last >= ClassifierConfig.n_confirm and self._sm[-1] > self._sm[0]:
                self._emit(SwingPattern.I, 1, n_last)
            return

        if self._peak_at is None:
            j = self._inc_peak.scan(self._sm)
            if j is not None:
                self._peak_at = j
                self._inc_min = _ExtremumScanner(-1, ClassifierConfig.n_peak,
                                                 start=j + 1)
            elif ((n_last - self._decelerating_at) * self.dt
                  >= ClassifierConfig.escape_after):
                # decelerated but never reversed: first-swing growth after all
                self._emit(SwingPattern.I, 1, n_last)
                return
        if self._peak_at is not None and self.decision is None:
            j_min = self._inc_min.scan(self._sm)
            if j_min is not None:
                self._emit(SwingPattern.VI, j_min, n_last)
                return
        while self.decision is None and self._scan_ptr <= n_last:
            j = self._scan_ptr
            if j > 0 and self._v[j] <= -self.v0 + self.eps_v:
                self._emit(SwingPattern.V, j, max(n_last, j))
            self._scan_ptr += 1

    def _emit(self, pattern: SwingPattern, w: int, decided_at: int) -> None:
        self.decision = ClassifierDecision(pattern=pattern, w=w,
                                           decided_at=decided_at)

    # -- convenience --------------------------------------------------------

    def run(self, speeds) -> ClassifierDecision:
        """Feed a whole series; error out if it ends without a decision."""
        for v in np.asarray(speeds, dtype=float).tolist():
            decision = self.step(v)
            if decision is not None:
                return decision
        raise ClassificationTimeout(
            f"series ended after {len(self._v)} samples without a decision")


def classify(rel_speed, dt: float,
             t_max: float = AssessmentConfig.t_max) -> ClassifierDecision:
    """One-shot classification of a complete relative-speed series."""
    return SwingClassifier(dt, t_max).run(rel_speed)
