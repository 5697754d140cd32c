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

from .errors import ClassificationRefused, ClassificationTimeout


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
    """Fixed constants (not settings) of the automata, tuned for 120 samples/s.

    ``eps_v_rel`` scales the band around +/-v0 used for threshold crossings
    (with an absolute floor for near-zero events), ``eps_a_rel`` scales the
    curvature threshold separating sustained growth from decelerated growth,
    and the ``n_*`` counts control smoothing and extremum confirmation.
    ``n_trend`` is the number of exponent updates the verdict's
    initial-trend test reads (``assess.PairAssessor``).
    """

    __slots__ = ()
    n_confirm = 12      # samples of evidence before the initial branch
    n_peak = 6          # +/- neighbourhood for extremum confirmation
    smooth_width = 5    # centred moving-average width
    n_trend = 24        # exponent updates for the initial-trend test
    eps_v_rel = 1e-3
    eps_v_floor = 1e-6  # rad/s
    eps_a_rel = 0.02
    escape_after = 2.0  # s of fruitless peak-waiting before Pattern I


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
    :class:`ClassificationTimeout` when no crest confirms within the data.
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
    raise ClassificationTimeout(
        f"no confirmed crest in {len(d.d)} distance samples")


@dataclass(frozen=True)
class ClassifierDecision:
    pattern: SwingPattern
    w: int
    decided_at: int


class SwingClassifier:
    """Online classifier: feed relative-speed samples in order via ``step``.

    The first sample fixes v0 (which must be non-negative: pair traces are
    sign-oriented upstream); ``n_confirm`` samples later the smoothed curve
    picks the branch, falling or rising.  Then two rules race:

    * the extremum chain confirms the smoothed curve's first extremum
      (minimum when falling, maximum when rising), then the opposite one
      after it: IV when falling, VI when rising, ``w`` at the minimum;
    * the crossing scan over the raw speeds: reaching -v0 gives III when
      falling and V when rising, and regaining v0 after a dip below it
      gives II when falling; ``w`` is the crossing sample.

    A rising branch first waits for the smoothed curve to decelerate,
    deciding I if it rises above its start before then or if no maximum
    confirms within ``escape_after`` s after.  ``step`` returns a
    :class:`ClassifierDecision` exactly once, ``None`` before and after.
    Near-zero v0 raises :class:`ClassificationRefused`; ``run`` raises
    :class:`ClassificationTimeout` when its series ends without a decision.
    The caller bounds the data by what it feeds.
    """

    def __init__(self, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self._avg = _MovingAverage(ClassifierConfig.smooth_width)
        self._v = self._avg.raw
        self._sm = self._avg.smoothed
        self.v0: float | None = None
        self.eps_v = 0.0
        self.eps_a = 0.0
        self.falling: bool | None = None  # the branch, once chosen
        self.decision: ClassifierDecision | None = None
        self._scanner: _ExtremumScanner | None = None  # current chain link
        self._first: int | None = None  # the chain's first extremum
        self._scan_ptr = 0    # next raw sample of the crossing scan
        self._dipped = False  # a raw sample fell below v0 (arms II)
        self._decelerating_at: int | None = None
        self._kappa_ptr = 1

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

        if self.falling is None:
            if n_last < ClassifierConfig.n_confirm:
                return None
            self.falling = self._sm[-1] < self._sm[0]
            self._scanner = _ExtremumScanner(-1 if self.falling else +1,
                                             ClassifierConfig.n_peak)
        if not self.falling:
            # the deceleration gate: curvature of the smoothed curve, where
            # kappa index i needs sm[i-1..i+1]
            sm = self._sm
            while self._decelerating_at is None and self._kappa_ptr + 1 < len(sm):
                i = self._kappa_ptr
                kappa = (sm[i + 1] - 2.0 * sm[i] + sm[i - 1]) / self.dt**2
                if kappa < -self.eps_a:
                    self._decelerating_at = n_last
                self._kappa_ptr += 1
            if self._decelerating_at is None:
                # sustained non-decelerating growth: Pattern I once confirmed
                if sm[-1] > sm[0]:
                    return self._emit(SwingPattern.I, 1, n_last)
                return None

        # extremum confirmations refer to older features, so the chain is
        # evaluated before the crossing scan reaches the newest sample
        j = self._scanner.scan(self._sm)
        if j is not None and self._first is None:
            self._first = j
            self._scanner = _ExtremumScanner(+1 if self.falling else -1,
                                             ClassifierConfig.n_peak,
                                             start=j + 1)
            j = self._scanner.scan(self._sm)
        if j is not None:
            if self.falling:
                return self._emit(SwingPattern.IV, self._first, n_last)
            return self._emit(SwingPattern.VI, j, n_last)
        if (self._first is None and not self.falling
                and (n_last - self._decelerating_at) * self.dt
                >= ClassifierConfig.escape_after):
            # decelerated but never reversed: first-swing growth after all
            return self._emit(SwingPattern.I, 1, n_last)

        for j in range(self._scan_ptr, n_last + 1):
            v = self._v[j]
            if v <= -self.v0 + self.eps_v:
                pattern = SwingPattern.III if self.falling else SwingPattern.V
                return self._emit(pattern, j, n_last)
            if v < self.v0 - self.eps_v:
                self._dipped = True
            elif self._dipped and self.falling:
                return self._emit(SwingPattern.II, j, n_last)
        self._scan_ptr = n_last + 1
        return None

    def _emit(self, pattern: SwingPattern, w: int,
              decided_at: int) -> ClassifierDecision:
        self.decision = ClassifierDecision(pattern=pattern, w=w,
                                           decided_at=decided_at)
        return self.decision

    def run(self, speeds) -> ClassifierDecision:
        """Feed a whole series; error out if it ends without a decision."""
        for v in np.asarray(speeds, dtype=float).tolist():
            decision = self.step(v)
            if decision is not None:
                return decision
        raise ClassificationTimeout(
            f"series ended after {len(self._v)} samples without a decision")

