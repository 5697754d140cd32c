"""Swing-pattern automaton, distance series, and fitting-start selection."""

import math

import numpy as np
import pytest

from conftest import DT, make_template, naive_first_extremum, template_suite
from lyapstab.errors import (ClassificationRefused, ClassificationTimeout,
                             PeakSearchTimeout)
from lyapstab.swings import (ClassifierConfig, DistanceSeries, EstimatorParams,
                             SwingClassifier, SwingPattern, _MovingAverage,
                             classify, distance_series, find_mle_start)


# ---------------------------------------------------------------------------
# distance series
# ---------------------------------------------------------------------------

def test_distance_of_ramp_is_constant():
    t = np.arange(0, 241) * DT
    d = distance_series(2.5 * t, w=30)
    assert d.d == pytest.approx(np.full(211, 2.5 * 30 * DT), abs=1e-14)


def test_distance_of_constant_is_zero():
    d = distance_series(np.full(100, 0.7), w=10)
    assert np.all(d.d == 0.0)


def test_distance_of_sinusoid_matches_identity():
    # |sin(a + pi/2) - sin(a)| = sqrt(2) |cos(a + pi/4)|
    t = np.arange(0, 241) * DT
    theta = np.sin(2 * np.pi * t)
    w = 30  # quarter period at 1 Hz, 120 samples/s
    d = distance_series(theta, w)
    a = 2 * np.pi * t[: len(d.d)]
    expect = math.sqrt(2.0) * np.abs(np.cos(a + math.pi / 4))
    assert np.abs(d.d - expect).max() < 1e-12


def test_distance_requires_enough_samples():
    with pytest.raises(ValueError):
        distance_series(np.zeros(10), w=10)


# ---------------------------------------------------------------------------
# the streaming moving average
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 3, 5, 7])
def test_moving_average_equals_clipped_centred_mean(width):
    hw = width // 2
    rng = np.random.default_rng(width)
    for _ in range(20):
        x = rng.normal(0.0, 1.0, 200) * 10.0 ** rng.uniform(-6, 6, 200)
        avg = _MovingAverage(width)
        for xi in x.tolist():
            avg.push(xi)
        assert len(avg.smoothed) == len(x) - hw
        for i, value in enumerate(avg.smoothed):
            assert value == np.mean(x[max(0, i - hw):i + hw + 1])


# ---------------------------------------------------------------------------
# classifier: the spec-level examples
# ---------------------------------------------------------------------------

def test_linear_growth_is_pattern_one():
    t = np.arange(0, 241) * DT
    decision = classify(1.0 + 5.0 * t, DT)
    assert decision.pattern is SwingPattern.I
    assert decision.w == 1
    assert decision.decided_at == ClassifierConfig().n_confirm


def test_cosine_reaches_minus_v0_at_half_period():
    t = np.arange(0, 241) * DT
    decision = classify(np.cos(2 * np.pi * 1.0 * t), DT)
    assert decision.pattern is SwingPattern.III
    assert decision.w == 60
    assert decision.decided_at == 60


def test_damped_cosine_is_pattern_four():
    t = np.arange(0, 481) * DT
    v = np.exp(-3.0 * t) * np.cos(2 * np.pi * 1.0 * t)
    decision = classify(v, DT)
    assert decision.pattern is SwingPattern.IV
    assert decision.w == naive_first_extremum(v, sign=-1)


# ---------------------------------------------------------------------------
# classifier: template families against the exhaustive-scan oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("template", template_suite(), ids=lambda c: c.name)
def test_template_families(template):
    decision = classify(template.v, DT)
    assert decision.pattern.value == template.pattern
    assert decision.w == template.expected_w()


# ---------------------------------------------------------------------------
# classifier: behaviour and guard rails
# ---------------------------------------------------------------------------

def test_classifier_is_deterministic_and_emits_once():
    tpl = make_template("IV", v0=1.0, f=1.0, gamma=1.0)
    first = SwingClassifier(DT)
    second = SwingClassifier(DT)
    emitted = []
    for v in tpl.v:
        r1 = first.step(v)
        if r1 is not None:
            emitted.append(r1)
    for v in tpl.v:
        r2 = second.step(v)
        if r2 is not None:
            assert r2 == emitted[0]
    assert len(emitted) == 1
    assert first.decision == second.decision


def test_near_zero_initial_speed_is_refused():
    clf = SwingClassifier(DT)
    with pytest.raises(ClassificationRefused):
        clf.step(1e-9)


def test_negative_v0_rejected():
    clf = SwingClassifier(DT)
    with pytest.raises(ValueError):
        clf.step(-0.5)


def test_timeout_without_decision():
    clf = SwingClassifier(DT, t_max=1.0)
    with pytest.raises(ClassificationTimeout):
        for v in np.linspace(1.0, 0.9, 200):  # drifts down, never decides
            clf.step(v)


def test_scale_invariance_of_w_and_m_n():
    tpl = make_template("III", v0=1.0, f=1.0, g=0.2)
    theta = np.cumsum(tpl.v) * DT
    ref = classify(tpl.v, DT)
    ref_m_n = find_mle_start(ref.pattern, ref.w, distance_series(theta, ref.w))
    for c in (0.1, 3.0, 10.0):
        scaled = classify(c * tpl.v, DT)
        assert scaled.pattern == ref.pattern
        assert scaled.w == ref.w
        m_n = find_mle_start(scaled.pattern, scaled.w,
                             distance_series(c * theta, scaled.w))
        assert m_n == ref_m_n


def test_pattern_one_escape_after_sustained_decelerating_growth():
    # rises forever but with negative curvature: no peak ever appears, so
    # the automaton falls back to the first-swing call after the escape time
    t = np.arange(0, 601) * DT
    v = 1.0 + 4.0 * np.sqrt(t)
    decision = classify(v, DT)
    assert decision.pattern is SwingPattern.I
    assert decision.w == 1


# ---------------------------------------------------------------------------
# fitting start step
# ---------------------------------------------------------------------------

def test_monotone_patterns_start_at_w():
    d = DistanceSeries(d=np.linspace(0, 2, 200))
    assert find_mle_start(SwingPattern.I, 1, d) == 1
    assert find_mle_start(SwingPattern.II, 37, d) == 37


def test_oscillating_pattern_waits_for_first_crest():
    t = np.arange(0, 481) * DT
    d = DistanceSeries(d=np.abs(np.sin(2 * np.pi * 1.0 * t)))
    j_star = naive_first_extremum(d.d, sign=+1)
    for pattern in (SwingPattern.III, SwingPattern.IV, SwingPattern.V,
                    SwingPattern.VI):
        assert find_mle_start(pattern, 25, d) == 25 + j_star
    # sanity: the crest of |sin| sits at the quarter period
    assert abs(j_star - 30) <= 2


@pytest.mark.parametrize("f,gamma", [(1.0, 0.0), (0.7, 0.5), (1.6, 1.5)])
def test_find_mle_start_needs_no_tail_past_the_crest(f, gamma):
    cfg = ClassifierConfig()
    t = np.arange(0, 1201) * DT
    d = DistanceSeries(d=np.abs(np.exp(-gamma * t) * np.sin(2 * np.pi * f * t)))
    w = 20
    m_n = find_mle_start(SwingPattern.IV, w, d)
    cut = (m_n - w) + cfg.n_peak + cfg.smooth_width // 2 + 1
    assert cut < len(d.d) // 4
    assert find_mle_start(SwingPattern.IV, w, DistanceSeries(d=d.d[:cut])) == m_n
    # one sample fewer and the crest is not yet confirmed
    with pytest.raises(PeakSearchTimeout):
        find_mle_start(SwingPattern.IV, w, DistanceSeries(d=d.d[:cut - 1]))


def test_find_mle_start_timeout_on_monotone_distance():
    d = DistanceSeries(d=np.linspace(0.0, 1.0, 300))
    with pytest.raises(PeakSearchTimeout):
        find_mle_start(SwingPattern.III, 10, d)


def test_estimator_params_invariants():
    with pytest.raises(ValueError):
        EstimatorParams(w=0, m_n=1, dt=DT, pattern=SwingPattern.I, decided_at=0)
    with pytest.raises(ValueError):
        EstimatorParams(w=5, m_n=3, dt=DT, pattern=SwingPattern.III, decided_at=0)
    with pytest.raises(ValueError):
        EstimatorParams(w=5, m_n=9, dt=DT, pattern=SwingPattern.II, decided_at=0)
