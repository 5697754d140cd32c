"""Verdict logic per pair, system aggregation, and the end-to-end pipeline."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from conftest import DT, two_machine_model
from lyapstab.assess import (PENDING, SKIPPED, STABLE, SYSTEM_PENDING,
                             SYSTEM_STABLE, SYSTEM_UNDETERMINED,
                             SYSTEM_UNSTABLE, UNDETERMINED_TIMEOUT,
                             UNSTABLE_FIRST_SWING, UNSTABLE_MULTI_SWING,
                             AssessmentReport, PairAssessor, PairVerdict,
                             aggregate, assess_pair, run_assessment)
from lyapstab.config import AssessmentConfig
from lyapstab.errors import LyapstabError, LyapstabWarning
from lyapstab.ingest import AlignedDataset, EventMeta, align
from lyapstab.network import FaultSpec
from lyapstab.pairs import build_pair_trace
from lyapstab.simulator import simulate
from lyapstab.swings import ClassifierConfig


def feed(lams, start_index=1):
    """Run one assessor over a hand-built exponent sequence."""
    assessor = PairAssessor(PairVerdict("A", "B"))
    t = None
    for i, lam in enumerate(lams, start=start_index):
        t = i * DT
        verdict = assessor.push(float(lam), t)
        if verdict.status != PENDING:
            return verdict
    return assessor.finalize(t)


def tail(n=40, level=0.0, step=-0.005):
    return level + step * np.arange(n)


# ---------------------------------------------------------------------------
# criterion shapes
# ---------------------------------------------------------------------------

def test_rising_exponent_is_first_swing_unstable():
    lams = 0.5 + 0.05 * np.arange(ClassifierConfig.n_trend + 6)
    verdict = feed(lams)
    assert verdict.status == UNSTABLE_FIRST_SWING
    assert verdict.decision_time == pytest.approx(
        ClassifierConfig.n_trend * DT)


def test_positive_first_peak_is_multi_swing_unstable():
    down = np.linspace(0.3, -0.2, 15)
    up = np.linspace(-0.2, 0.15, 11)[1:]
    lams = np.concatenate([down, up, tail(level=0.15)])
    verdict = feed(lams)
    assert verdict.status == UNSTABLE_MULTI_SWING
    assert verdict.peak_lambda == pytest.approx(0.15, abs=0.02)


def test_negative_first_peak_is_stable():
    down = np.linspace(0.3, -0.4, 15)
    up = np.linspace(-0.4, -0.05, 11)[1:]
    lams = np.concatenate([down, up, tail(level=-0.05)])
    verdict = feed(lams)
    assert verdict.status == STABLE
    assert verdict.peak_lambda == pytest.approx(-0.05, abs=0.02)


def test_zero_peak_counts_as_stable():
    down = np.linspace(0.2, -0.3, 15)
    up = np.linspace(-0.3, 0.0, 13)[1:]
    lams = np.concatenate([down, up, tail(level=0.0)])
    verdict = feed(lams)
    assert verdict.status == STABLE
    assert verdict.peak_lambda <= 0.0


def test_no_peak_times_out():
    lams = np.linspace(0.2, -2.0, 120)  # falls forever
    verdict = feed(lams)
    assert verdict.status == UNDETERMINED_TIMEOUT


def test_verdict_freezes_after_decision():
    lams = 0.5 + 0.05 * np.arange(ClassifierConfig.n_trend)
    assessor = PairAssessor(PairVerdict("A", "B"))
    for i, lam in enumerate(lams, start=1):
        assessor.push(float(lam), i * DT)
    frozen = assessor.verdict.status, assessor.verdict.decision_time
    for i in range(100, 160):
        assessor.push(-5.0, i * DT)  # contradictory data changes nothing
    assert (assessor.verdict.status, assessor.verdict.decision_time) == frozen


def test_replay_with_longer_stream_is_identical():
    down = np.linspace(0.3, -0.2, 15)
    up = np.linspace(-0.2, 0.15, 11)[1:]
    lams = np.concatenate([down, up, tail(60, level=0.15)])
    short = feed(lams[:50])
    long = feed(lams)
    assert short.status == long.status
    assert short.decision_time == long.decision_time
    assert short.peak_lambda == long.peak_lambda


def test_first_swing_latency_is_deterministic():
    for slope in (0.01, 0.05, 0.2):
        lams = 0.1 + slope * np.arange(ClassifierConfig.n_trend + 2)
        verdict = feed(lams)
        assert verdict.status == UNSTABLE_FIRST_SWING
        assert verdict.decision_time == pytest.approx(
        ClassifierConfig.n_trend * DT)


# ---------------------------------------------------------------------------
# aggregation: truth table
# ---------------------------------------------------------------------------

def expected_system(statuses):
    live = [s for s in statuses if s != SKIPPED]
    if not live:
        return None  # error case
    if any(s in (UNSTABLE_FIRST_SWING, UNSTABLE_MULTI_SWING) for s in live):
        return SYSTEM_UNSTABLE
    if any(s == PENDING for s in live):
        return SYSTEM_PENDING
    if all(s == STABLE for s in live):
        return SYSTEM_STABLE
    return SYSTEM_UNDETERMINED


def test_aggregate_matches_truth_table_exhaustively():
    statuses = (PENDING, UNSTABLE_FIRST_SWING, UNSTABLE_MULTI_SWING, STABLE,
                UNDETERMINED_TIMEOUT, SKIPPED)
    for n in (1, 2, 3):
        for combo in itertools.product(statuses, repeat=n):
            verdicts = [
                PairVerdict(f"S{i}", "L", status=s,
                            decision_time=None if s in (PENDING, SKIPPED)
                            else 0.5 + 0.25 * i)
                for i, s in enumerate(combo)
            ]
            want = expected_system(combo)
            if want is None:
                with pytest.raises(LyapstabError,
                                   match="every pair was skipped"):
                    aggregate(verdicts)
                continue
            got = aggregate(verdicts)
            assert got.status == want, combo


def test_aggregate_unstable_uses_earliest_unstable_time():
    verdicts = [
        PairVerdict("A", "L", status=STABLE, decision_time=0.4),
        PairVerdict("B", "L", status=UNSTABLE_MULTI_SWING, decision_time=1.2),
        PairVerdict("C", "L", status=UNSTABLE_FIRST_SWING, decision_time=0.8),
    ]
    system = aggregate(verdicts)
    assert system.status == SYSTEM_UNSTABLE
    assert system.decision_time == 0.8


def test_aggregate_unstable_does_not_wait_for_pending():
    verdicts = [
        PairVerdict("A", "L", status=PENDING),
        PairVerdict("B", "L", status=UNSTABLE_FIRST_SWING, decision_time=0.3),
    ]
    assert aggregate(verdicts).status == SYSTEM_UNSTABLE


def test_aggregate_stable_waits_for_last_pair():
    verdicts = [
        PairVerdict("A", "L", status=STABLE, decision_time=0.7),
        PairVerdict("B", "L", status=STABLE, decision_time=1.9),
    ]
    system = aggregate(verdicts)
    assert system.status == SYSTEM_STABLE
    assert system.decision_time == 1.9


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

def run_case(t_clear, horizon=12.0, **model_kw):
    model = two_machine_model(**model_kw)
    fault = FaultSpec(bus="3", t_fault=0.1, t_clear=t_clear)
    traces = simulate(model, fault, dt=DT, horizon=horizon)
    meta = EventMeta(t_fault=0.1, t_clear=t_clear)
    dataset = align(traces, meta)
    with pytest.warns(LyapstabWarning):  # symmetric event: common-mode flag
        return run_assessment(dataset, meta)


def test_pipeline_stable_case():
    report = run_case(0.2)
    assert report.system.status == SYSTEM_STABLE
    assert report.exit_code == 0
    (pair,) = report.pairs
    assert pair.status == STABLE
    assert pair.peak_lambda < 0.0
    assert pair.w >= 1 and pair.m_n >= pair.w


def test_pipeline_unstable_case():
    report = run_case(0.34, horizon=8.0)
    assert report.system.status == SYSTEM_UNSTABLE
    assert report.exit_code == 2
    (pair,) = report.pairs
    assert pair.status == UNSTABLE_FIRST_SWING
    assert pair.decision_time < 2.0


def test_pipeline_skips_undisturbed_pairs():
    # no event at all: flat series force the no-disturbance error upstream
    n = 400
    ds = AlignedDataset(gen_ids=("G1", "G2"),
                        angles=np.zeros((2, n)), speeds=np.zeros((2, n)),
                        grid_offset=0)
    meta = EventMeta(t_fault=0.0, t_clear=0.0)
    with pytest.raises(LyapstabError,
                       match="all clearing-instant speeds are zero"):
        run_assessment(ds, meta)


def test_pipeline_all_pairs_skipped_is_error():
    # disturbance exists but the pair's relative speed starts at ~zero:
    # both machines move identically, so the pair never separates
    n = 400
    t = np.arange(n) * DT
    common_speed = 1.0 + 0.5 * np.sin(2 * np.pi * t)
    angles = np.cumsum(common_speed) * DT
    ds = AlignedDataset(gen_ids=("G1", "G2"),
                        angles=np.stack([angles, angles]),
                        speeds=np.stack([common_speed, common_speed]),
                        grid_offset=0)
    meta = EventMeta(t_fault=0.0, t_clear=0.0)
    with pytest.warns(LyapstabWarning):
        with pytest.raises(LyapstabError, match="every pair was skipped"):
            run_assessment(ds, meta)


def test_pipeline_mixed_skip_uses_live_pairs():
    # two severe generators, one of which matches the reference exactly:
    # that pair starts at zero relative speed and is skipped with a warning,
    # while the other still produces the system verdict
    n = 500
    t = np.arange(n) * DT
    base = 0.3 * np.exp(-1.2 * t) * np.cos(2 * np.pi * 1.2 * t)
    speeds = np.stack([base + 1.0, np.full(n, 1.0), np.full(n, 1.0)])
    angles = np.cumsum(speeds, axis=1) * DT
    ds = AlignedDataset(gen_ids=("G1", "G2", "G3"), angles=angles,
                        speeds=speeds, grid_offset=0)
    meta = EventMeta(t_fault=0.0, t_clear=0.0)
    with pytest.warns(LyapstabWarning):
        report = run_assessment(ds, meta)
    statuses = {(v.severe, v.least): v.status for v in report.pairs}
    assert statuses[("G3", "G2")] == "SKIPPED"
    assert statuses[("G1", "G2")] in (STABLE, UNSTABLE_FIRST_SWING,
                                      UNSTABLE_MULTI_SWING)
    assert report.system.status in (SYSTEM_STABLE, SYSTEM_UNSTABLE)


@pytest.mark.parametrize("speed, note", [
    # the classifier never decides
    (np.linspace(1.0, 0.9, 130),
     "series ended after 130 samples without a decision"),
    (np.exp(-0.3 * np.arange(130) * DT) * np.cos(2 * np.pi * np.arange(130) * DT),
     "data ended after 39 exponent updates"),
    # pattern II with w = m_n = 24, decided on the last of 25 samples
    (1.0 - 0.4 * np.sin(np.pi * np.arange(25) / 24) ** 2,
     "need at least 26 angle samples to start fitting, have 25"),
    # pattern III with w = 74: the crest search runs out of distances
    (np.cos(2 * np.pi * 0.8 * np.arange(100) * DT),
     "no confirmed crest in 26 distance samples"),
], ids=["classifier-runs-out", "fit-runs-out", "fit-too-short",
        "crest-search-runs-out"])
def test_timeout_is_where_the_data_ends(speed, note):
    # the data ends well before t_max = 10 s
    n = len(speed)
    angle = np.concatenate([[0.0], np.cumsum(speed[:-1]) * DT])
    ds = AlignedDataset(gen_ids=("G1", "G2"),
                        angles=np.stack([angle, np.zeros(n)]),
                        speeds=np.stack([speed, np.zeros(n)]), grid_offset=0)
    report = run_assessment(ds, EventMeta(t_fault=0.0, t_clear=0.0),
                            AssessmentConfig(t_max=10.0))
    (pair,) = report.pairs
    assert pair.status == UNDETERMINED_TIMEOUT
    assert pair.decision_time == pytest.approx((n - 1) * DT)
    assert pair.note == note
    assert report.system.decision_time == pytest.approx((n - 1) * DT)


def test_a_fault_of_the_code_is_not_a_timeout(monkeypatch):
    # the fit-runs-out series reaches PairAssessor; only the two pair-stage
    # outcomes are caught, so a ValueError from inside propagates
    n = 130
    speed = (np.exp(-0.3 * np.arange(n) * DT)
             * np.cos(2 * np.pi * np.arange(n) * DT))
    angle = np.concatenate([[0.0], np.cumsum(speed[:-1]) * DT])
    ds = AlignedDataset(gen_ids=("G1", "G2"),
                        angles=np.stack([angle, np.zeros(n)]),
                        speeds=np.stack([speed, np.zeros(n)]), grid_offset=0)
    trace = build_pair_trace(ds, ("G1", "G2"))

    def push(self, lam, t):
        raise ValueError("fault inside the assessor")

    monkeypatch.setattr(PairAssessor, "push", push)
    with pytest.raises(ValueError, match="^fault inside the assessor$"):
        assess_pair(trace, t_max=10.0)


def test_off_grid_t_max_times_out_at_the_last_sample_read():
    # t_max = 1.505 s reads 181 samples at 120 Hz; the last is at 1.500 s
    speed = np.linspace(1.0, 0.9, 400)  # the classifier never decides
    angle = np.concatenate([[0.0], np.cumsum(speed[:-1]) * DT])
    ds = AlignedDataset(gen_ids=("G1", "G2"),
                        angles=np.stack([angle, np.zeros(400)]),
                        speeds=np.stack([speed, np.zeros(400)]), grid_offset=0)
    report = run_assessment(ds, EventMeta(t_fault=0.0, t_clear=0.0),
                            AssessmentConfig(t_max=1.505))
    (pair,) = report.pairs
    assert pair.status == UNDETERMINED_TIMEOUT
    assert pair.decision_time == pytest.approx(1.5)
    assert report.system.decision_time == pytest.approx(1.5)


def test_each_pair_builds_one_verdict(monkeypatch):
    built = []

    class CountedVerdict(PairVerdict):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr("lyapstab.assess.PairVerdict", CountedVerdict)
    report = run_case(0.2)
    assert len(built) == len(report.pairs) == 1
    assert built[0] is report.pairs[0]
    assert report.pairs[0].mle is not None  # filled in by the assessor


def test_report_json_schema():
    report = run_case(0.2)
    payload = json.loads(report.to_json())
    assert set(payload) == {"system", "pairs"}
    assert set(payload["system"]) == {"status", "decision_time_s"}
    (pair,) = payload["pairs"]
    assert set(pair) == {"severe", "least", "pattern", "w", "m_n", "status",
                         "decision_time_s", "peak_lambda", "decided_at",
                         "note"}
    assert pair["pattern"] in ("I", "II", "III", "IV", "V", "VI")


def test_config_has_exactly_two_settings():
    assert [f.name for f in dataclasses.fields(AssessmentConfig)] == [
        "sigma", "t_max"]


@pytest.mark.parametrize("t_max", [0.0, -1.0, math.inf, math.nan])
def test_t_max_validation(t_max):
    with pytest.raises(ValueError, match="t_max"):
        AssessmentConfig(t_max=t_max)


def test_undetermined_exit_code():
    report = AssessmentReport(
        system=aggregate([PairVerdict("A", "B", status=UNDETERMINED_TIMEOUT,
                                      decision_time=10.0)]),
        pairs=[])
    assert report.exit_code == 3
