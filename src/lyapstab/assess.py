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
from dataclasses import dataclass, field

import numpy as np

from .config import AssessmentConfig
from .errors import (ClassificationRefused, ClassificationTimeout,
                     LyapstabError, LyapstabWarning)
from .ingest import AlignedDataset, EventMeta
from .mle import LineFit, iter_mle
from .pairs import SdgpTrace, build_pair_trace, identify_sdgp
from .swings import (ClassifierConfig, SwingClassifier, SwingPattern,
                     _ExtremumScanner, _MovingAverage, distance_series,
                     find_mle_start)

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
    decided_at: int | None = None  # sample index of the pattern decision
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

    Writes into ``verdict``: the consumed series into ``mle`` as it arrives,
    and ``status``, ``decision_time`` and ``peak_lambda`` once decided.
    The initial-trend test fires on the first ``ClassifierConfig.n_trend``
    updates: a positive least-squares slope plus a net rise means first-swing
    instability.  Otherwise the first confirmed peak of the (smoothed)
    exponent curve decides by its sign.  Verdicts never change once set.
    """

    def __init__(self, verdict: PairVerdict):
        self.verdict = verdict
        self._avg = _MovingAverage(ClassifierConfig.smooth_width)
        self._times, self._lams = verdict.mle = ([], self._avg.raw)
        self._scanner = _ExtremumScanner(+1, ClassifierConfig.n_peak)
        self._trend = LineFit()  # over the first n_trend updates

    def push(self, lam: float, t: float) -> PairVerdict:
        if self.verdict.status != PENDING:
            return self.verdict
        self._avg.push(lam)
        self._times.append(t)
        n = len(self._lams)
        if n <= ClassifierConfig.n_trend:
            self._trend.push(t, lam)
            if n < ClassifierConfig.n_trend:
                return self.verdict
            if self._trend.slope() > 0.0 and lam > self._lams[0]:
                self._freeze(UNSTABLE_FIRST_SWING, t)
                return self.verdict
        j = self._scanner.scan(self._avg.smoothed)
        if j is not None:
            peak = self._lams[j]
            self.verdict.peak_lambda = float(peak)
            self._freeze(UNSTABLE_MULTI_SWING if peak > 0.0 else STABLE, t)
        return self.verdict

    def finalize(self, t: float) -> PairVerdict:
        """Called at ``t`` when the stream ends without a decision."""
        if self.verdict.status == PENDING:
            self._freeze(UNDETERMINED_TIMEOUT, t)
        return self.verdict

    def _freeze(self, status: str, t: float) -> None:
        self.verdict.status = status
        self.verdict.decision_time = float(t)


def aggregate(verdicts: list[PairVerdict]) -> SystemVerdict:
    """Combine pair verdicts: any unstable pair decides; stability needs all.

    Skipped pairs are excluded; if every pair was skipped there is nothing to
    say and :class:`LyapstabError` is raised.
    """
    live = [v for v in verdicts if v.status != SKIPPED]
    if not live:
        raise LyapstabError("every pair was skipped")
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


def window_length(t_max: float, dt: float) -> int:
    """Samples a pair reads at step ``dt``: those at or before ``t_max`` after
    clearing, sample 0 at clearing."""
    return int(t_max / dt + 1e-9) + 1


def assess_pair(trace: SdgpTrace, t_max: float) -> PairVerdict:
    """Assess one pair on its samples at or before ``t_max`` after clearing.

    Runs the swing classifier, the distance series, the crest search, the
    exponent fit and :class:`PairAssessor` in that order, each on the slices
    taken here: this is where a pair's data budget is applied.  Builds the
    pair's only verdict.  A pair too quiet to classify is SKIPPED; a pair
    whose data ends before some stage decides times out at its last sample
    read, with that stage's ``note``.  Any other exception propagates.
    """
    verdict = PairVerdict(trace.severe, trace.least)
    n = min(len(trace), window_length(t_max, trace.dt))
    try:
        decision = SwingClassifier(trace.dt).run(trace.rel_speed[:n])
        verdict.pattern, verdict.w = decision.pattern, decision.w
        verdict.decided_at = decision.decided_at
        d = distance_series(trace.rel_angle[:n], decision.w)
        verdict.distance = d.d
        verdict.m_n = find_mle_start(decision.pattern, decision.w, d)
        assessor = PairAssessor(verdict)
        for t, lam in iter_mle(d.d, decision.w, verdict.m_n, trace.dt):
            if assessor.push(lam, t).status != PENDING:
                # dated no earlier than the classifier's decision; the crest
                # search confirms before the fit can first freeze
                verdict.decision_time = max(verdict.decision_time,
                                            decision.decided_at * trace.dt)
                return verdict
        note = f"data ended after {len(verdict.mle[1])} exponent updates"
    except ClassificationRefused as exc:
        verdict.status, verdict.note = SKIPPED, str(exc)
        return verdict
    except ClassificationTimeout as exc:
        note = str(exc)
    verdict.status, verdict.note = UNDETERMINED_TIMEOUT, note
    verdict.decision_time = (n - 1) * trace.dt
    return verdict


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
                    "decided_at": v.decided_at,
                    "note": v.note,
                }
                for v in self.pairs
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_assessment(dataset: AlignedDataset, meta: EventMeta,
                   config: AssessmentConfig = AssessmentConfig(),
                   pairs: list[tuple[str, str]] | None = None) -> AssessmentReport:
    """End-to-end pipeline: pair selection, classification, exponent, verdicts.

    Only ``pairs`` are assessed (default: those :func:`identify_sdgp` picks).
    Per-pair failures are recorded in that pair's verdict without aborting
    the others; pair-selection failures propagate (there is nothing to run).
    """
    if pairs is None:
        pairs = identify_sdgp(dataset, config.sigma)
    verdicts = []
    for pair in pairs:
        verdict = assess_pair(build_pair_trace(dataset, pair), config.t_max)
        if verdict.status == SKIPPED:
            warnings.warn(f"pair ({verdict.severe}, {verdict.least}) skipped: "
                          f"{verdict.note}", LyapstabWarning, stacklevel=2)
        verdicts.append(verdict)
    system = aggregate(verdicts)
    return AssessmentReport(system=system, pairs=verdicts)
