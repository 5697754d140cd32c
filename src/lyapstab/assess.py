"""Stability criteria over exponent curves, per-pair and system verdicts.

Decision logic per pair, watching the stream of exponent estimates:

  * rising from the start          -> unstable in the first swing
  * falls, first peak positive     -> unstable after several swings
  * falls, first peak non-positive -> stable

The system is stable only if every assessable pair is stable; a single
unstable pair settles the system verdict immediately.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .config import AssessmentConfig
from .errors import (ClassificationRefused, ClassificationTimeout,
                     LyapstabWarning, NoAssessablePairError, PeakSearchTimeout)
from .ingest import AlignedDataset, EventMeta
from .mle import iter_mle
from .pairs import SdgpTrace, build_pair_trace, identify_sdgp
from .swings import (ClassifierConfig, EstimatorParams, SwingClassifier,
                     SwingPattern, _ExtremumScanner, _MovingAverage,
                     distance_series, find_mle_start)

PENDING = "PENDING"
UNSTABLE_FIRST_SWING = "UNSTABLE_FIRST_SWING"
UNSTABLE_MULTI_SWING = "UNSTABLE_MULTI_SWING"
STABLE = "STABLE"
UNDETERMINED_TIMEOUT = "UNDETERMINED_TIMEOUT"
SKIPPED = "SKIPPED"

PAIR_STATUSES = (PENDING, UNSTABLE_FIRST_SWING, UNSTABLE_MULTI_SWING, STABLE,
                 UNDETERMINED_TIMEOUT, SKIPPED)

SYSTEM_PENDING = "PENDING"
SYSTEM_STABLE = "STABLE"
SYSTEM_UNSTABLE = "UNSTABLE"
SYSTEM_UNDETERMINED = "UNDETERMINED"

UNSTABLE_STATUSES = (UNSTABLE_FIRST_SWING, UNSTABLE_MULTI_SWING)

N_TREND = 24  # exponent samples for the initial-trend test


@dataclass
class PairVerdict:
    severe: str
    least: str
    status: str = PENDING
    decision_time: float | None = None  # s after clearing
    peak_lambda: float | None = None
    pattern: SwingPattern | None = None
    w: int | None = None
    m_n: int | None = None
    note: str | None = None
    # what the verdict was computed from: the distance series over the
    # first t_max s, and the (times, lambdas) the PairAssessor consumed
    distance: np.ndarray | None = field(default=None, repr=False,
                                        compare=False)
    mle: tuple[list, list] | None = field(default=None, repr=False,
                                          compare=False)


@dataclass
class SystemVerdict:
    status: str
    decision_time: float | None


class PairAssessor:
    """Consumes (time, lambda) updates for one pair until a verdict freezes.

    The initial-trend test fires on the first ``N_TREND`` updates: positive
    fitted slope plus a net rise means first-swing instability.  Otherwise
    the first confirmed peak of the (smoothed) exponent curve decides by its
    sign.  Verdicts never change once set.
    """

    def __init__(self, severe: str, least: str):
        self.verdict = PairVerdict(severe=severe, least=least)
        self._avg = _MovingAverage(ClassifierConfig.smooth_width)
        self._lams = self._avg.raw
        self._times: list[float] = []
        self._trend_done = False
        self._scanner = _ExtremumScanner(+1, ClassifierConfig.n_peak)

    def push(self, lam: float, t: float) -> PairVerdict:
        if self.verdict.status != PENDING:
            return self.verdict
        self._avg.push(lam)
        self._times.append(t)

        if not self._trend_done and len(self._lams) == N_TREND:
            ts = np.asarray(self._times)
            ls = np.asarray(self._lams)
            tc = ts - ts.mean()
            slope = float((tc * (ls - ls.mean())).sum() / (tc * tc).sum())
            self._trend_done = True
            if slope > 0.0 and ls[-1] > ls[0]:
                self._freeze(UNSTABLE_FIRST_SWING, t)
                return self.verdict
        if self._trend_done:
            j = self._scanner.scan(self._avg.smoothed)
            if j is not None:
                peak = self._lams[j]
                self.verdict.peak_lambda = float(peak)
                self._freeze(UNSTABLE_MULTI_SWING if peak > 0.0 else STABLE, t)
        return self.verdict

    def finalize(self, t: float | None = None) -> PairVerdict:
        """Called when the stream ends or the time budget runs out."""
        if self.verdict.status == PENDING:
            self._freeze(UNDETERMINED_TIMEOUT,
                         t if t is not None else
                         (self._times[-1] if self._times else 0.0))
        return self.verdict

    def _freeze(self, status: str, t: float) -> None:
        self.verdict.status = status
        self.verdict.decision_time = float(t)


def aggregate(verdicts: list[PairVerdict]) -> SystemVerdict:
    """Combine pair verdicts: any unstable pair decides; stability needs all.

    Skipped pairs are excluded; if every pair was skipped there is nothing to
    say and :class:`NoAssessablePairError` is raised.
    """
    live = [v for v in verdicts if v.status != SKIPPED]
    if not live:
        raise NoAssessablePairError("every pair was skipped")
    unstable = [v for v in live if v.status in UNSTABLE_STATUSES]
    if unstable:
        t = min(v.decision_time for v in unstable)
        return SystemVerdict(SYSTEM_UNSTABLE, t)
    if any(v.status == PENDING for v in live):
        return SystemVerdict(SYSTEM_PENDING, None)
    if all(v.status == STABLE for v in live):
        t = max(v.decision_time for v in live)
        return SystemVerdict(SYSTEM_STABLE, t)
    # at least one timeout, none unstable
    t = max(v.decision_time for v in live if v.decision_time is not None)
    return SystemVerdict(SYSTEM_UNDETERMINED, t)


def pair_parameters(trace: SdgpTrace, pair: tuple[str, str],
                    t_max: float) -> tuple[PairVerdict, EstimatorParams | None]:
    """Swing pattern, ``w`` and ``m_n`` of one pair from its first ``t_max`` s.

    Returns the verdict so far and the estimator parameters, or a SKIPPED /
    UNDETERMINED_TIMEOUT verdict noting why, and ``None``, if there are none.
    """
    verdict = PairVerdict(*pair)
    n = int(round(t_max / trace.dt)) + 1
    try:
        decision = SwingClassifier(trace.dt, t_max).run(trace.rel_speed[:n])
        verdict.pattern, verdict.w = decision.pattern, decision.w
        d = distance_series(trace.rel_angle[:n], decision.w)
        verdict.distance = d.d
        verdict.m_n = find_mle_start(decision.pattern, decision.w, d)
    except ClassificationRefused as exc:
        return replace(verdict, status=SKIPPED, note=str(exc)), None
    except (ClassificationTimeout, PeakSearchTimeout) as exc:
        return replace(verdict, status=UNDETERMINED_TIMEOUT,
                       decision_time=t_max, note=str(exc)), None
    return verdict, EstimatorParams(w=decision.w, m_n=verdict.m_n, dt=trace.dt,
                                    pattern=decision.pattern,
                                    decided_at=decision.decided_at)


def _assess_pair(trace: SdgpTrace, pair: tuple[str, str],
                 t_max: float) -> PairVerdict:
    verdict, params = pair_parameters(trace, pair, t_max)
    if verdict.status == SKIPPED:
        warnings.warn(f"pair ({verdict.severe}, {verdict.least}) skipped: "
                      f"{verdict.note}", LyapstabWarning, stacklevel=3)
    if params is None:
        return verdict
    assessor = PairAssessor(*pair)
    verdict.mle = (assessor._times, assessor._lams)  # filled as it consumes
    try:
        for t, lam in iter_mle(trace, params):
            if t > t_max or assessor.push(lam, t).status != PENDING:
                break
    except ValueError as exc:
        return replace(verdict, status=UNDETERMINED_TIMEOUT,
                       decision_time=t_max, note=str(exc))
    result = assessor.finalize(min(t_max, (len(trace) - 1) * trace.dt))
    return replace(verdict, status=result.status,
                   decision_time=result.decision_time,
                   peak_lambda=result.peak_lambda)


@dataclass
class AssessmentReport:
    system: SystemVerdict
    pairs: list[PairVerdict] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return {SYSTEM_STABLE: 0, SYSTEM_UNSTABLE: 2}.get(self.system.status, 3)

    def to_dict(self) -> dict:
        return {
            "system": {
                "status": self.system.status,
                "decision_time_s": self.system.decision_time,
            },
            "pairs": [
                {
                    "severe": v.severe,
                    "least": v.least,
                    "pattern": v.pattern.value if v.pattern else None,
                    "w": v.w,
                    "m_n": v.m_n,
                    "status": v.status,
                    "decision_time_s": v.decision_time,
                    "peak_lambda": v.peak_lambda,
                }
                for v in self.pairs
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_assessment(dataset: AlignedDataset, meta: EventMeta,
                   config: AssessmentConfig = AssessmentConfig()) -> AssessmentReport:
    """End-to-end pipeline: pair selection, classification, exponent, verdicts.

    Per-pair failures are recorded in that pair's verdict without aborting
    the others; pair-selection failures propagate (there is nothing to run).
    """
    pairs = identify_sdgp(dataset, config.sigma)
    verdicts = [
        _assess_pair(build_pair_trace(dataset, pair), pair, config.t_max)
        for pair in pairs
    ]
    system = aggregate(verdicts)
    return AssessmentReport(system=system, pairs=verdicts)
