"""Growing-window line fit and exponent estimation against batch solutions."""

import math

import numpy as np
import pytest

from conftest import DT, naive_first_extremum, two_machine_model
from lyapstab.errors import ClassificationTimeout
from lyapstab.ingest import EventMeta, align
from lyapstab.mle import EPS_DISTANCE, LineFit, iter_mle, log_distance
from lyapstab.network import FaultSpec
from lyapstab.simulator import simulate
from lyapstab.swings import SwingClassifier, distance_series, find_mle_start


def batch_fit(times, values):
    """Normal-equations oracle for the straight-line fit."""
    X = np.column_stack([np.asarray(times, float), np.ones(len(times))])
    return np.linalg.solve(X.T @ X, X.T @ np.asarray(values, float))


def run_fit(times, values):
    fit = LineFit()
    for t, y in zip(times, values):
        fit.push(t, y)
    return fit


def exp_angle(lam, theta0=1.0, duration=2.0, noise=0.0, seed=0):
    t = np.arange(int(duration / DT) + 1) * DT
    theta = theta0 * np.exp(lam * t)
    if noise:
        theta = theta + np.random.default_rng(seed).normal(0.0, noise, len(t))
    return theta


# ---------------------------------------------------------------------------
# log distance
# ---------------------------------------------------------------------------

def test_log_distance_values():
    assert log_distance(1.0) == 0.0
    assert log_distance(0.0) == pytest.approx(math.log(EPS_DISTANCE))
    assert log_distance(math.e ** 2) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        log_distance(-1.0)


# ---------------------------------------------------------------------------
# line fit
# ---------------------------------------------------------------------------

def test_init_exact_line():
    fit = run_fit([1.0, 2.0], [3.0, 5.0])
    assert fit.slope() == pytest.approx(2.0)
    assert fit.intercept() == pytest.approx(1.0)
    assert fit.n == 2


def test_init_flat_line():
    # flat at the log-distance floor: the slope's sign decides verdicts, so
    # it must be exactly zero, not a rounding residue, at every prefix
    for level in (7.0, math.log(EPS_DISTANCE)):
        fit = LineFit()
        fit.push(0.25, level)
        for t in np.arange(1, 200) * DT + 0.25:
            fit.push(t, level)
            assert fit.slope() == 0.0
            assert fit.intercept() == level


def test_exact_line_is_fixed_point():
    times = np.arange(30) * 0.1
    values = 2.0 * times + 3.0
    fit = run_fit(times[:2], values[:2])
    for t, y in zip(times[2:], values[2:]):
        fit.push(t, y)
        assert fit.slope() == pytest.approx(2.0, abs=1e-10)
        assert fit.intercept() == pytest.approx(3.0, abs=1e-10)


def test_zero_innovation_leaves_estimates():
    # a new point on the current line leaves the line where it was
    fit = run_fit(np.array([0.0, 0.1, 0.2, 0.35]),
                  np.array([1.0, 0.8, 0.95, 1.1]))
    lam, c = fit.slope(), fit.intercept()
    t_new = 0.5
    fit.push(t_new, lam * t_new + c)
    assert fit.slope() == pytest.approx(lam, abs=1e-12)
    assert fit.intercept() == pytest.approx(c, abs=1e-12)


def test_recursive_matches_batch_on_noisy_data():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = rng.integers(3, 120)
        times = np.sort(rng.uniform(0.0, 5.0, n))
        times += np.arange(n) * 1e-6  # strictly increasing
        values = rng.normal(0.0, 1.0, n) + 0.7 * times
        fit = run_fit(times, values)
        lam, c = batch_fit(times, values)
        assert np.allclose([fit.slope(), fit.intercept()], [lam, c],
                           rtol=1e-9, atol=1e-12)


def test_long_run_matches_batch_fit():
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.uniform(0.5 * DT, 3 * DT, 10_000))
    values = 0.3 * times + rng.normal(0.0, 0.2, len(times))
    fit = LineFit()
    for i, (t, y) in enumerate(zip(times, values)):
        fit.push(t, y)
        if i % 251 == 1 or i == len(times) - 1:
            lam, c = batch_fit(times[:i + 1], values[:i + 1])
            assert fit.slope() == pytest.approx(lam, rel=1e-9, abs=1e-12)
            assert fit.intercept() == pytest.approx(c, rel=1e-9, abs=1e-12)


def test_fit_state_stays_plain_floats():
    fit = LineFit()
    for i in range(20):
        fit.push(np.float64(0.1 * i), np.float64(0.3 * i + 0.01 * (-1) ** i))
    assert type(fit.slope()) is float and type(fit.intercept()) is float


def test_time_shift_changes_only_intercept():
    rng = np.random.default_rng(11)
    times = np.sort(rng.uniform(0.0, 4.0, 60))
    values = -0.4 * times + rng.normal(0.0, 0.1, 60)
    lam0 = run_fit(times, values).slope()
    lam1 = run_fit(times + 17.0, values).slope()
    assert lam1 == pytest.approx(lam0, rel=1e-9, abs=1e-12)


def test_distance_scaling_changes_only_intercept():
    rng = np.random.default_rng(12)
    times = np.sort(rng.uniform(0.0, 4.0, 60))
    dists = np.exp(rng.normal(0.0, 0.5, 60))
    base = run_fit(times, np.log(dists))
    scaled = run_fit(times, np.log(50.0 * dists))
    assert scaled.slope() == pytest.approx(base.slope(), rel=1e-9, abs=1e-12)
    assert scaled.intercept() == pytest.approx(base.intercept()
                                               + math.log(50.0), rel=1e-9)


# ---------------------------------------------------------------------------
# streaming over pair traces
# ---------------------------------------------------------------------------

def test_exponential_separation_recovers_exponent():
    lam = 1.5
    _, lambdas = np.array(list(
        iter_mle(distance_series(exp_angle(lam), 12).d, 12, 12, DT))).T
    after_60 = lambdas[59:]
    assert np.abs(after_60 - lam).max() / lam < 0.01


def test_ramp_angle_gives_zero_exponent():
    t = np.arange(0, 241) * DT
    _, lambdas = np.array(list(
        iter_mle(distance_series(4.0 * t, 6).d, 6, 6, DT))).T
    assert np.abs(lambdas).max() < 1e-8


def test_stream_times_and_first_emission():
    d = distance_series(exp_angle(0.5, duration=1.0), 10).d
    times, lambdas = zip(*iter_mle(d, 10, 25, DT))
    assert times[0] == pytest.approx((25 + 1) * DT)
    assert np.all(np.diff(times) > 0)
    assert len(times) == len(lambdas)


def test_stream_requires_enough_samples():
    theta = exp_angle(0.5, duration=0.1)  # 13 samples
    with pytest.raises(ClassificationTimeout, match="angle samples"):
        next(iter_mle(distance_series(theta, 10).d, 10, 30, DT))


@pytest.mark.parametrize("w,m_n,n_d,error,message", [
    (0, 1, 100, ValueError, "w must be at least 1"),
    (5, 3, 100, ValueError, "m_n must be at least w"),
    # m_n + 2 = 32 angle samples needed, len(d) + w = 31 given: the pair's
    # data ran out, so the pair times out
    (10, 30, 21, ClassificationTimeout,
     "need at least 32 angle samples .* have 31"),
], ids=["w-zero", "m_n-below-w", "d-too-short"])
def test_iter_mle_input_rules(w, m_n, n_d, error, message):
    d = np.linspace(1.0, 2.0, n_d)
    with pytest.raises(error, match=message):
        next(iter_mle(d, w, m_n, DT))


def test_undamped_two_machine_dips_then_peaks():
    # oscillating separation: the exponent estimate first drops well below
    # its starting value, then recovers to a confirmed local maximum
    model = two_machine_model(d1=0.0, d2=0.0)
    fault = FaultSpec(bus="3", t_fault=0.1, t_clear=0.18)
    traces = simulate(model, fault, dt=DT, horizon=8.0)
    meta = EventMeta(t_fault=0.1, t_clear=0.18)
    ds = align(traces, meta)
    rel = ds.angles[0] - ds.angles[1]
    spd = ds.speeds[0] - ds.speeds[1]
    if spd[0] < 0:
        rel, spd = -rel, -spd
    decision = SwingClassifier(DT).run(spd)
    d = distance_series(rel, decision.w)
    m_n = find_mle_start(decision.pattern, decision.w, d)
    _, lambdas = np.array(list(iter_mle(d.d, decision.w, m_n, DT))).T
    dipped = np.flatnonzero(lambdas < lambdas[0])
    assert dipped.size > 0
    peak_j = naive_first_extremum(lambdas, sign=+1)
    assert peak_j is not None
    assert peak_j > dipped[0]
