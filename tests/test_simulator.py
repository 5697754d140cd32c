"""Simulator: equilibrium, integration accuracy, and the stability oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DT, chain_model, smib_equal_area_critical_time,
                      smib_fault, two_machine_model)
from lyapstab import simulator
from lyapstab.errors import LyapstabError
from lyapstab.network import (POST_FAULT, PRE_FAULT, FaultSpec,
                              load_network_file, reduce_network)
from lyapstab.simulator import (STABLE, UNSTABLE, GeneratorTrace, simulate,
                                solve_equilibrium, stability_oracle)


@pytest.fixture(scope="module")
def smib(networks_dir):
    return load_network_file(networks_dir / "smib.net")


# ---------------------------------------------------------------------------
# equilibrium and phase bookkeeping
# ---------------------------------------------------------------------------

def test_equilibrium_balances_power(smib):
    red = reduce_network(smib, PRE_FAULT)
    delta0, pm = solve_equilibrium(red)
    # analytic SMIB angle: asin(Pm * X / (E1 E2)) over the series path
    x_path = 0.3 + 0.2 + 1e-4
    expected = math.asin(0.9 * x_path / 1.1)
    assert delta0[0] == pytest.approx(expected, abs=1e-9)
    assert delta0[1] == 0.0
    assert pm[1] == pytest.approx(-0.9, abs=1e-9)  # lossless slack


def test_zero_duration_fault_stays_at_equilibrium(smib):
    fault = FaultSpec(bus="1", t_fault=0.1, t_clear=0.1)
    traces = simulate(smib, fault, dt=DT, horizon=5.0)
    for tr in traces:
        assert np.abs(tr.angles - tr.angles[0]).max() < 1e-8
        assert np.abs(tr.speeds).max() < 1e-8


def test_trace_grid_and_phase_switching(smib):
    fault = smib_fault(t_clear=0.3, t_fault=0.2)
    traces = simulate(smib, fault, dt=DT, horizon=1.0)
    tr = traces[0]
    times = tr.sample_times()
    assert times[0] == 0.0
    assert np.array_equal(times, np.arange(len(tr)) * DT)
    # before the fault instant the state is the equilibrium, after it moves
    k_f = round(0.2 / DT)
    assert np.abs(tr.angles[:k_f + 1] - tr.angles[0]).max() < 1e-9
    assert abs(tr.angles[k_f + 2] - tr.angles[0]) > 1e-6


@pytest.mark.parametrize("rate, substeps", [
    (120, 3), (60, 6), (30, 12), (240, 2), (1200, 1), (50, 8)])
def test_default_step_is_the_fewest_substeps_at_360_hz(smib, rate, substeps):
    # the default rounds dt * 360 up: 1/50 s takes 8 steps, not round(7.2)
    fault = smib_fault(t_clear=0.2)
    default = simulate(smib, fault, dt=1.0 / rate, horizon=1.0)
    pinned = simulate(smib, fault, dt=1.0 / rate, horizon=1.0,
                      substeps=substeps)
    for tr, ref in zip(default, pinned):
        assert np.array_equal(tr.angles, ref.angles)
        assert np.array_equal(tr.speeds, ref.speeds)


def test_unsolvable_equilibrium_raises():
    # demand far beyond the line's transfer capability
    model = two_machine_model(pm=5.0)
    with pytest.raises(LyapstabError, match="equilibrium iteration stalled"):
        simulate(model, FaultSpec(bus="3", t_fault=0.0, t_clear=0.1),
                 dt=DT, horizon=1.0)


@pytest.mark.parametrize("kwargs, name", [
    ({"substeps": -3}, "substeps"),
    ({"substeps": 0}, "substeps"),
    ({"substeps": 2.5}, "substeps"),
    ({"dt": 0.0}, "dt"),
    ({"dt": math.nan}, "dt"),
    ({"dt": math.inf}, "dt"),
    ({"horizon": -1.0}, "horizon"),
    ({"horizon": math.nan}, "horizon"),
    ({"horizon": math.inf}, "horizon"),
])
def test_simulate_refuses_bad_step_arguments(smib, kwargs, name):
    args = {"dt": DT, "horizon": 1.0, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        simulate(smib, smib_fault(t_clear=0.2), **args)


@pytest.mark.parametrize("t_fault, t_clear", [
    (math.nan, 0.2), (0.1, math.nan), (0.1, math.inf), (-math.inf, 0.2),
])
def test_fault_times_must_be_finite(smib, t_fault, t_clear):
    fault = smib_fault(t_clear=t_clear, t_fault=t_fault)
    with pytest.raises(LyapstabError, match="must be finite"):
        fault.validate(smib)


def test_lone_infinite_bus_stays_flat(tmp_path):
    # A network of only an infinite bus loads and simulates: one machine and
    # no machine pairs, which never moves and so is stable.
    path = tmp_path / "lone.net"
    path.write_text("[system]\nbase_mva = 100.0\nfrequency_hz = 60.0\n\n"
                    "[buses]\n1\n\n[infinite_bus]\n1  1.0  0.0001\n",
                    encoding="utf-8")
    model = load_network_file(path)
    fault = FaultSpec(bus="1", t_fault=0.1, t_clear=0.2)
    traces = simulate(model, fault, dt=DT, horizon=6.0)
    assert len(traces) == 1
    tr = traces[0]
    assert len(tr) == round(6.0 / DT) + 1 and not tr.diverged
    assert np.all(tr.angles == 0.0) and np.all(tr.speeds == 0.0)
    assert stability_oracle(traces, window=5.0) == STABLE


# ---------------------------------------------------------------------------
# integration accuracy
# ---------------------------------------------------------------------------

def test_undamped_energy_conserved(smib):
    # post-fault topology from t = 0: the pre-fault equilibrium is displaced,
    # so the machine oscillates; with D = 0 and a lossless network the energy
    #   0.5 m w^2 - sum pm_i d_i - sum_{i<j} Ei Ej B_ij cos(d_i - d_j)
    # must stay constant along the trajectory.
    fault = FaultSpec(bus="1", t_fault=0.0, t_clear=0.0,
                      removed_branches=("L2",))
    dt = 1.0 / 1200.0
    traces = simulate(smib, fault, dt=dt, horizon=10.0)
    red = reduce_network(smib, POST_FAULT, fault)
    _, pm = solve_equilibrium(reduce_network(smib, PRE_FAULT))

    angles = np.stack([tr.angles for tr in traces])
    speeds = np.stack([tr.speeds for tr in traces])
    finite = ~np.isinf(red.m)
    kinetic = 0.5 * (red.m[finite, None] * speeds[finite] ** 2).sum(axis=0)
    potential = -(pm[:, None] * angles).sum(axis=0)
    for i in range(red.n):
        for j in range(i + 1, red.n):
            potential -= (red.emf[i] * red.emf[j] * red.B[i, j]
                          * np.cos(angles[i] - angles[j]))
    energy = kinetic + potential
    drift = np.abs(energy - energy[0]).max() / abs(energy[0])
    assert drift < 1e-5


def test_rk4_convergence_under_step_halving(smib):
    fault = smib_fault(t_clear=0.2)
    coarse = simulate(smib, fault, dt=DT, horizon=5.0, substeps=10)
    fine = simulate(smib, fault, dt=DT, horizon=5.0, substeps=20)
    diff = abs(coarse[0].angles[-1] - fine[0].angles[-1])
    assert diff < 1e-4


def test_critical_clearing_brackets_equal_area_oracle(smib):
    t_cr = smib_equal_area_critical_time()
    verdicts = {}
    for k in range(10, 30):
        traces = simulate(smib, FaultSpec(bus="1", t_fault=0.0,
                                          t_clear=k * DT,
                                          removed_branches=("L2",)),
                          dt=DT, horizon=6.0)
        verdicts[k] = stability_oracle(traces, window=5.0)
    stable_ks = [k for k, v in verdicts.items() if v == STABLE]
    unstable_ks = [k for k, v in verdicts.items() if v == UNSTABLE]
    assert stable_ks and unstable_ks
    last_stable = max(stable_ks) * DT
    first_unstable = min(unstable_ks) * DT
    assert last_stable <= t_cr + DT
    assert first_unstable >= t_cr - DT
    # first-swing verdicts are monotone along the clearing-time grid
    ks = sorted(verdicts)
    flips = sum(verdicts[a] != verdicts[b] for a, b in zip(ks, ks[1:]))
    assert flips == 1


def test_coi_relative_antisymmetry(networks_dir):
    model = load_network_file(networks_dir / "twomachine.net")
    fault = FaultSpec(bus="3", t_fault=0.1, t_clear=0.2)
    traces = simulate(model, fault, dt=DT, horizon=4.0)
    m = np.array([0.0159155, 0.0159155])
    coi = (m[0] * traces[0].angles + m[1] * traces[1].angles) / m.sum()
    assert np.abs((traces[0].angles - coi) + (traces[1].angles - coi)).max() < 1e-8


# ---------------------------------------------------------------------------
# stability oracle
# ---------------------------------------------------------------------------

def _trace(gen_id, angles, dt=DT):
    angles = np.asarray(angles, dtype=float)
    speeds = np.gradient(angles, dt)
    return GeneratorTrace(gen_id=gen_id, t0=0.0, dt=dt, angles=angles,
                          speeds=speeds)


def test_oracle_stable_when_bounded():
    t = np.arange(0, 6.0, DT)
    a = _trace("A", 0.25 * np.sin(2 * np.pi * t))
    b = _trace("B", -0.25 * np.sin(2 * np.pi * t))
    assert stability_oracle([a, b], window=5.0) == STABLE


def test_oracle_unstable_past_four_pi():
    t = np.arange(0, 6.0, DT)
    a = _trace("A", 15.0 * t / t[-1])
    b = _trace("B", np.zeros_like(t))
    assert stability_oracle([a, b], window=5.0) == UNSTABLE


def test_oracle_unstable_when_growing_past_pi_at_end():
    t = np.arange(0, 6.0, DT)
    a = _trace("A", 3.5 * (t / t[-1]) ** 2)  # ends at 3.5 rad, still rising
    b = _trace("B", np.zeros_like(t))
    assert stability_oracle([a, b], window=5.0) == UNSTABLE


def test_oracle_divergence_flag_is_unstable():
    t = np.arange(0, 6.0, DT)
    a = _trace("A", 0.1 * np.sin(t))
    b = _trace("B", np.zeros_like(t))
    a.diverged = True
    assert stability_oracle([a, b], window=5.0) == UNSTABLE


def test_simulate_truncates_before_divergence():
    # negative damping on G1 amplifies the post-fault swing until it overflows
    # at every step size; simulate reports that through ``diverged`` and
    # prints no NumPy warning.  Substeps 1, 5 and the default 3 end each
    # sample in the kernel's second stage buffer, 2 in its first.
    model = two_machine_model(d1=-20.0)
    fault = FaultSpec(bus="3", t_fault=0.1, t_clear=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for substeps in (None, 1, 2, 5):
            traces = simulate(model, fault, dt=DT, horizon=8.0,
                              substeps=substeps)
            n_kept = len(traces[0])
            assert round(0.2 / DT) < n_kept < round(8.0 / DT)
            for tr in traces:
                assert tr.diverged
                assert len(tr) == n_kept
                assert np.isfinite(tr.angles).all() and np.isfinite(tr.speeds).all()
            assert stability_oracle(traces, window=5.0) == UNSTABLE
            # sample n_kept is the first bad one: a run ending just before it
            # is clean and identical, a run ending on it diverges
            clean = simulate(model, fault, dt=DT, horizon=(n_kept - 1) * DT,
                             substeps=substeps)
            assert not any(tr.diverged for tr in clean)
            for tr, ref in zip(clean, traces):
                assert np.array_equal(tr.angles, ref.angles)
                assert np.array_equal(tr.speeds, ref.speeds)
            last = simulate(model, fault, dt=DT, horizon=n_kept * DT,
                            substeps=substeps)
            assert all(tr.diverged and len(tr) == n_kept for tr in last)


def _count_kernel_calls(monkeypatch):
    """The ``n_blocks`` of every kernel call ``simulate`` makes from now."""
    kernel = simulator.rk4_swing
    n_blocks = []

    def counting_kernel(*args):
        n_blocks.append(args[9])
        kernel(*args)

    monkeypatch.setattr(simulator, "rk4_swing", counting_kernel)
    return n_blocks


@pytest.mark.parametrize("t_fault, t_clear", [
    (0.1, 0.3), (1.5, 2.75),  # phases longer than a second run in one call
    (0.0, 0.3), (0.2, 0.2), (0.0, 0.0)])  # empty phases make no call
def test_simulate_calls_the_kernel_once_per_non_empty_phase(
        smib, monkeypatch, t_fault, t_clear):
    n_blocks = _count_kernel_calls(monkeypatch)
    traces = simulate(smib, smib_fault(t_clear=t_clear, t_fault=t_fault),
                      dt=DT, horizon=4.0)
    k_fault, k_clear = round(t_fault / DT), round(t_clear / DT)
    k_end = len(traces[0]) - 1
    assert k_end == round(4.0 / DT) and not traces[0].diverged
    phases = (k_fault, k_clear - k_fault, k_end - k_clear)
    assert n_blocks == [rows for rows in phases if rows]


def test_diverging_run_stops_with_the_phase_that_blew_up(monkeypatch):
    # each phase is one kernel call, so a run that blows up 0.6 s into an
    # 8 s horizon integrates the rest of the post-fault phase and stops
    n_blocks = _count_kernel_calls(monkeypatch)
    traces = simulate(two_machine_model(d1=-20.0),
                      FaultSpec(bus="3", t_fault=0.1, t_clear=0.2),
                      dt=DT, horizon=8.0)
    first_bad = len(traces[0])
    assert traces[0].diverged and round(0.2 / DT) < first_bad < round(1.0 / DT)
    assert n_blocks == [round(0.1 / DT)] * 2 + [round(7.8 / DT)]
    assert sum(n_blocks) == round(8.0 / DT)  # the rows through the phase end
    # a blow-up while the fault is on ends the calls with the fault-on phase
    n_blocks.clear()
    traces = simulate(two_machine_model(d1=-20.0),
                      FaultSpec(bus="3", t_fault=0.1, t_clear=3.0),
                      dt=DT, horizon=8.0)
    assert traces[0].diverged and len(traces[0]) < round(3.0 / DT)
    assert n_blocks == [round(0.1 / DT), round(2.9 / DT)]


def test_divergence_during_the_fault_skips_later_phases():
    # a long fault and strongly negative damping overflow G1 while the fault
    # is still on, so the post-fault phase must not run from that state
    model = two_machine_model(d1=-20.0)
    fault = FaultSpec(bus="3", t_fault=0.1, t_clear=3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = simulate(model, fault, dt=DT, horizon=8.0)
        n_kept = len(traces[0])
        assert round(0.1 / DT) < n_kept < round(3.0 / DT)
        for tr in traces:
            assert tr.diverged
            assert len(tr) == n_kept
            assert np.isfinite(tr.angles).all() and np.isfinite(tr.speeds).all()
        assert stability_oracle(traces, window=5.0) == UNSTABLE
        # clearing on sample n_kept ends the fault-on phase there, and that
        # phase alone still diverges with the same finite samples kept
        short = FaultSpec(bus="3", t_fault=0.1, t_clear=n_kept * DT)
        cut = simulate(model, short, dt=DT, horizon=(n_kept + 1) * DT)
        for tr, ref in zip(cut, traces):
            assert tr.diverged and len(tr) == n_kept
            assert np.array_equal(tr.angles, ref.angles)
            assert np.array_equal(tr.speeds, ref.speeds)


def test_oracle_requires_window_coverage():
    t = np.arange(0, 1.0, DT)
    a = _trace("A", np.zeros_like(t) + 0.1)
    b = _trace("B", np.zeros_like(t))
    with pytest.raises(LyapstabError, match="need at least 5.0 s of data"):
        stability_oracle([a, b], window=5.0)


@pytest.mark.parametrize("window", [math.nan, math.inf, 0.0, -1.0])
def test_oracle_refuses_bad_window(window):
    # checked before the data: 1 s of traces would otherwise read STABLE
    t = np.arange(0, 1.0, DT)
    a = _trace("A", np.zeros_like(t) + 0.1)
    b = _trace("B", np.zeros_like(t))
    with pytest.raises(ValueError, match="^window must be finite and > 0"):
        stability_oracle([a, b], window=window)


def test_oracle_tolerates_large_stable_swing():
    # near-critical midpoint fault on the chain model: the generator/motor
    # pair separates beyond pi (about 3.4 rad) yet the system stays in step
    model = chain_model()
    fault = FaultSpec(bus="B", t_fault=0.1, t_clear=22.0 / 120.0)
    traces = simulate(model, fault, dt=DT, horizon=12.0)
    angles = np.stack([tr.angles for tr in traces])
    peak = max(np.abs(angles[i] - angles[j]).max()
               for i in range(3) for j in range(i + 1, 3))
    assert peak > math.pi
    assert peak < 3.8
    assert stability_oracle(traces, window=8.0) == STABLE


def _pairwise_oracle(angles, back):
    """The oracle's rule one pair at a time: the reference it must match."""
    for i in range(len(angles)):
        for j in range(i + 1, len(angles)):
            rel = np.abs(angles[i] - angles[j])
            if rel.max() > 4.0 * math.pi:
                return UNSTABLE
            if rel[-1] > math.pi and rel[-1] > rel[-1 - back]:
                return UNSTABLE
    return STABLE


# Drawn often, so that ties and differences of exactly pi and 4 pi occur.
_EDGE_ANGLES = (0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                2 * math.pi, -2 * math.pi, 3 * math.pi, 4 * math.pi,
                -4 * math.pi, math.nextafter(4 * math.pi, math.inf),
                math.nextafter(math.pi, math.inf), 1e-300, -0.0)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_oracle_matches_pairwise_rule(data):
    n_gen = data.draw(st.integers(1, 6))
    n_samples = data.draw(st.integers(2, 12))
    dt = data.draw(st.sampled_from([1.0, 0.5, 0.25]))
    value = st.one_of(st.sampled_from(_EDGE_ANGLES),
                      st.floats(-6.5, 6.5, allow_subnormal=False))
    angles = np.array(data.draw(st.lists(
        st.lists(value, min_size=n_samples, max_size=n_samples),
        min_size=n_gen, max_size=n_gen)))
    traces = [GeneratorTrace(gen_id=f"G{i}", t0=0.0, dt=dt, angles=row,
                             speeds=np.zeros(n_samples))
              for i, row in enumerate(angles)]
    back = max(1, min(round(1.0 / dt), n_samples - 1))
    assert stability_oracle(traces, window=(n_samples - 1) * dt) == \
        _pairwise_oracle(angles, back)
