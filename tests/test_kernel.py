"""The swing kernel against a plain-Python reference: same contract, same
numbers, from both of its formulations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lyapstab
from lyapstab import simulator
from lyapstab._swing_numpy import (ANGLE_DIFFERENCE_MAX_N, formulation,
                                   rk4_angle_difference, rk4_phasor,
                                   rk4_swing)

FORMS = (rk4_angle_difference, rk4_phasor)


def forms(n):
    """The formulations tested at ``n`` machines.  The angle-difference
    form's dense stage matrices grow as n^4 (55 MB at n = 24, where it runs
    ~200x slower than the phasor form), so it is tested up to n = 12."""
    return FORMS if n <= 12 else FORMS[1:]


def example_system(n=4, seed=3, infinite=(-1,), damping=(0.0, 0.1)):
    rng = np.random.default_rng(seed)
    delta = rng.normal(0.0, 0.4, n)
    omega = rng.normal(0.0, 0.5, n)
    minv = 1.0 / rng.uniform(0.01, 0.2, n)
    minv[list(infinite)] = 0.0  # infinite machines start (and stay) at rest
    omega[list(infinite)] = 0.0
    damp = rng.uniform(*damping, n)
    pm = rng.normal(0.0, 0.5, n)
    emf = rng.uniform(0.9, 1.2, n)
    b_off = rng.uniform(0.5, 2.0, (n, n))
    B = -(b_off + b_off.T) / 2.0
    np.fill_diagonal(B, -B.sum(axis=1) + np.diag(B))
    G = np.abs(rng.normal(0.0, 0.05, (n, n)))
    G = (G + G.T) / 2.0
    return delta, omega, minv, damp, pm, emf, np.ascontiguousarray(G), \
        np.ascontiguousarray(B)


def run(state, h, n_blocks, substeps, kernel=rk4_swing):
    """The recorded angles and speeds, one row a block."""
    delta, omega, minv, damp, pm, emf, G, B = state
    out = np.empty((n_blocks, 2, len(delta)))
    kernel(delta, omega, minv, damp, pm, emf, G, B, h, n_blocks, substeps, out)
    return out[:, 0], out[:, 1]


def finite_rows(d, w):
    return np.isfinite(d).all(axis=1) & np.isfinite(w).all(axis=1)


def reference_rk4(state, h, n_blocks, substeps):
    """Plain-Python RK4 with the power summed one element at a time.

    ``pe_i = E_i sum_j E_j (G_ij cos(d_i - d_j) + B_ij sin(d_i - d_j))``,
    one machine and one term at a time: the reference the kernel must match.
    """
    delta, omega, minv, damp, pm, emf, G, B = (a.tolist() for a in state)
    n = len(delta)

    def accel(d, w):
        out = []
        for i in range(n):
            pe = 0.0
            for j in range(n):
                dij = d[i] - d[j]
                pe += emf[j] * (G[i][j] * math.cos(dij) + B[i][j] * math.sin(dij))
            out.append((pm[i] - emf[i] * pe - damp[i] * w[i]) * minv[i])
        return out

    def step(base, slope, c):
        return [b + c * s for b, s in zip(base, slope)]

    out_d, out_w = [], []
    for _ in range(n_blocks):
        for _ in range(substeps):
            k1 = accel(delta, omega)
            w2 = step(omega, k1, 0.5 * h)
            k2 = accel(step(delta, omega, 0.5 * h), w2)
            w3 = step(omega, k2, 0.5 * h)
            k3 = accel(step(delta, w2, 0.5 * h), w3)
            w4 = step(omega, k3, h)
            k4 = accel(step(delta, w3, h), w4)
            delta = [d + h / 6.0 * (a + 2.0 * b + 2.0 * c + e)
                     for d, a, b, c, e in zip(delta, omega, w2, w3, w4)]
            omega = [w + h / 6.0 * (a + 2.0 * b + 2.0 * c + e)
                     for w, a, b, c, e in zip(omega, k1, k2, k3, k4)]
        out_d.append(delta)
        out_w.append(omega)
    return np.array(out_d), np.array(out_w)


def assert_matches_reference(state, n_blocks, substeps, tol):
    """Run each formulation and the reference at h = 1/1200 s; returns the
    reference angles."""
    ref_d, ref_w = reference_rk4(state, 1.0 / 1200.0, n_blocks, substeps)
    for kernel in forms(len(state[0])):
        d, w = run(state, 1.0 / 1200.0, n_blocks, substeps, kernel)
        assert np.abs(d - ref_d).max() < tol, kernel.__name__
        assert np.abs(w - ref_w).max() < tol, kernel.__name__
    return ref_d


# (machines, indices of the infinite machines).  Machine 0 fills the first
# slot and machine -1 the last of each machine block of either form's state
# (every block of the phasor form's stage buffers, [delta | omega] after the
# pair angles in the angle-difference form), and their pairs come first and
# last in each pair block, so "n4-inf0", "n24" and the smallest phasor size
# put an infinite machine at a block's start, and "n24" one at its end too
SIZES = [pytest.param(2, (-1,), id="n2"), pytest.param(3, (-1,), id="n3"),
         pytest.param(4, (-1,), id="n4"),
         pytest.param(4, (0,), id="n4-inf0"),
         pytest.param(5, (2,), id="n5"),
         pytest.param(ANGLE_DIFFERENCE_MAX_N + 1, (0, -1),
                      id=f"n{ANGLE_DIFFERENCE_MAX_N + 1}-first-phasor"),
         pytest.param(12, (4, -1), id="n12"),
         pytest.param(24, (0, -1), id="n24")]
SIZE_VALUES = [size.values for size in SIZES]
# Machine-varying damping, negative on some machines as in the negD battery
# families, which the phasor form's damping expansion must carry exactly:
# (machines, indices of the infinite machines, damping range)
NEGATIVE_DAMPING = [pytest.param(n, (1,), (-0.05, 0.1),
                                 id=f"n{n}-negative-damping")
                    for n in (6, 12)]


@pytest.mark.parametrize("n, infinite, damping", [
    pytest.param(*size.values, (0.0, 0.1), id=size.id) for size in SIZES]
    + NEGATIVE_DAMPING)
# "odd-substeps" runs each block's last step out of the second stage
# buffer, whose state is copied back before it is recorded
@pytest.mark.parametrize("n_blocks, substeps, tol",
                         [(1, 1, 1e-13), (60, 10, 1e-9), (20, 3, 1e-12)],
                         ids=["one-step", "half-second", "odd-substeps"])
def test_kernels_match_reference(n_blocks, substeps, tol, n, infinite,
                                 damping):
    assert_matches_reference(
        example_system(n, infinite=infinite, damping=damping), n_blocks,
        substeps, tol)


@pytest.mark.parametrize("n", [24, 48])
def test_one_step_matches_reference_at_large_n(n):
    assert_matches_reference(example_system(n, infinite=(0, 11, -1)), 1, 1,
                             1e-13)


def test_pole_slipping_machine_matches_reference():
    # Machine 0 starts ~24 Hz fast and undamped, so its angle passes 20 pi
    # within the half second.  Both forms take a cosine as the sine of the
    # angle (or pair angle) plus pi/2, whose rounding grows with the angle.
    delta, omega, minv, damp, pm, emf, G, B = example_system()
    omega[0], damp[0] = 150.0, 0.0
    state = (delta, omega, minv, damp, pm, emf, G, B)
    ref_d = assert_matches_reference(state, 60, 10, 1e-9)
    assert np.abs(ref_d[:, 0]).max() > 20 * np.pi


@pytest.mark.parametrize("n, infinite", SIZES)
def test_infinite_machine_never_moves(n, infinite):
    state = example_system(n, infinite=infinite)
    for kernel in forms(n):
        d, w = run(state, 1.0 / 1200.0, 30, 10, kernel)
        for i in infinite:
            assert np.all(d[:, i] == state[0][i]), kernel.__name__
            assert np.all(w[:, i] == state[1][i]), kernel.__name__


def test_call_leaves_start_state_and_hands_off_from_a_record_row():
    # simulate starts each phase from a view of the record's previous row,
    # and writes the phase into the rows after it.  The kernel must only read
    # that start state, and a hand-off from it must be a plain restart from
    # the recorded values.  A restart derives theta_a = delta + pi/2 (and the
    # pair angles) afresh, where one long run carries them on, so it matches
    # one run of k + m blocks to rounding, not bit for bit.  An odd substeps
    # ends each block in the second stage buffer.
    k, m = 4, 3
    for n, infinite in SIZE_VALUES:
        state = example_system(n, infinite=infinite)
        delta, omega, rest = state[0].copy(), state[1].copy(), state[2:]
        for kernel in forms(n):
            for substeps in (1, 3, 4):
                whole_d, whole_w = run(state, 1.0 / 1200.0, k + m, substeps,
                                       kernel)
                assert np.array_equal(state[0], delta)
                assert np.array_equal(state[1], omega)
                record = np.empty((k + m, 2, n))
                kernel(delta, omega, *rest, 1.0 / 1200.0, k, substeps,
                       record[:k])
                start = record[k - 1]
                restart_d, restart_w = run(
                    (start[0].copy(), start[1].copy()) + rest, 1.0 / 1200.0,
                    m, substeps, kernel)
                kernel(start[0], start[1], *rest, 1.0 / 1200.0, m, substeps,
                       record[k:])
                assert np.array_equal(record[:k, 0], whole_d[:k])
                assert np.array_equal(record[:k, 1], whole_w[:k])
                assert np.array_equal(record[k:, 0], restart_d)
                assert np.array_equal(record[k:, 1], restart_w)
                assert np.abs(record[:, 0] - whole_d).max() < 1e-13
                assert np.abs(record[:, 1] - whole_w).max() < 1e-13


@pytest.mark.parametrize("n, s", [
    pytest.param(n, s, id=f"{n}" if s == 4 else f"{n}-s{s}")
    for n in sorted({size.values[0] for size in SIZES + NEGATIVE_DAMPING})
    for s in (4, 3, 2, 5)])
def test_blocks_record_every_substeps_th_step_bit_for_bit(n, s):
    # Grouping steps into blocks only chooses which states are recorded:
    # n_blocks=k, substeps=s records rows s-1, 2s-1, ... of one step a block.
    # An odd s ends each block in the second stage buffer, as s = 1 ends
    # every step; s = 5 passes through both buffers twice before that.
    state = example_system(n)
    k = 9
    for kernel in forms(n):
        grouped_d, grouped_w = run(state, 1.0 / 1200.0, k, s, kernel)
        single_d, single_w = run(state, 1.0 / 1200.0, k * s, 1, kernel)
        assert np.array_equal(grouped_d, single_d[s - 1::s])
        assert np.array_equal(grouped_w, single_w[s - 1::s])


def test_nonfinite_state_reports_block_index():
    # a non-finite start state is non-finite from the first record on
    for n, infinite in SIZE_VALUES:
        state = example_system(n, infinite=infinite)
        delta = state[0].copy()
        delta[0] = np.nan
        broken = (delta,) + state[1:]
        for kernel in forms(n):
            finite = finite_rows(*run(broken, 1.0 / 1200.0, 5, 2, kernel))
            assert not finite[0], kernel.__name__


def test_overflow_reports_first_nonfinite_block():
    # Damping -60 / (minv h) on the first finite machine j makes
    # omega_j' = (60 / h) omega_j, so each RK4 step multiplies omega_j by
    # R = sum_{k <= 4} 60^k / k!.  The bounded coupling is negligible beside
    # that, so omega_j leaves the float range in the first block k with
    # |omega_j(0)| R^(10 (k + 1)) > max float.
    h, substeps = 1.0 / 1200.0, 10
    log_r = math.log10(sum(60.0 ** k / math.factorial(k) for k in range(5)))
    for n, infinite in SIZE_VALUES:
        state = list(example_system(n, infinite=infinite))
        j = int(np.flatnonzero(state[2])[0])
        damp = state[3].copy()
        damp[j] = -60.0 / (state[2][j] * h)
        state[3] = damp
        blocks_to_overflow = [
            k for k in range(12) if math.log10(abs(state[1][j]))
            + substeps * (k + 1) * log_r > math.log10(np.finfo(float).max)]
        assert blocks_to_overflow[0] == 5
        bad = blocks_to_overflow[0]
        for kernel in forms(n):
            with np.errstate(over="ignore", invalid="ignore"):
                finite = finite_rows(*run(tuple(state), h, 12, substeps,
                                          kernel))
            assert finite[:bad].all(), kernel.__name__
            assert not finite[bad], kernel.__name__


def test_overflowing_constants_run_on_without_a_warning():
    # minv = 1e200 and pm = 1e120 overflow the constants each call forms
    # (pm minv and the scaled coupling) to inf: the kernel tests nothing, so
    # it runs on quietly, and every row it records is non-finite
    for n in (2, ANGLE_DIFFERENCE_MAX_N + 1):
        state = list(example_system(n, infinite=()))
        state[2] = np.full(n, 1e200)
        state[4] = np.full(n, 1e120)
        for kernel in forms(n):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                finite = finite_rows(*run(tuple(state), 1.0 / 1200.0, 5, 3,
                                          kernel))
            assert not finite.any(), kernel.__name__


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_formulations_agree_over_one_second(n, seed, data):
    # Both forms integrate the same RK4 steps; only their rounding differs.
    # Runaway draws swing by tens of radians in the second, and both forms
    # then sit ~1e-12 rad per radian of angle from reference_rk4, so the
    # bound is 1e-12 rad per radian of the largest angle (at least 1 rad).
    infinite = data.draw(st.one_of(
        st.just(()), st.integers(0, n - 1).map(lambda i: (i,))))
    state = example_system(n, seed=seed, infinite=infinite)
    pairs_d, pairs_w = run(state, 1.0 / 360.0, 120, 3, rk4_angle_difference)
    phasor_d, phasor_w = run(state, 1.0 / 360.0, 120, 3, rk4_phasor)
    scale = max(1.0, np.abs(phasor_d).max())
    assert np.abs(pairs_d - phasor_d).max() <= 1e-12 * scale
    for i in infinite:
        assert np.all(pairs_d[:, i] == phasor_d[:, i])
        assert np.all(pairs_w[:, i] == phasor_w[:, i])


def test_rk4_swing_picks_the_form_by_machine_count():
    # the angle-difference form up to ANGLE_DIFFERENCE_MAX_N machines, the
    # phasor form from one more, and rk4_swing is that form bit for bit
    for n, kernel in ((ANGLE_DIFFERENCE_MAX_N, rk4_angle_difference),
                      (ANGLE_DIFFERENCE_MAX_N + 1, rk4_phasor)):
        assert formulation(n) is kernel
        state = example_system(n)
        for substeps in (1, 3):
            d, w = run(state, 1.0 / 360.0, 30, substeps)
            want_d, want_w = run(state, 1.0 / 360.0, 30, substeps, kernel)
            assert np.array_equal(d, want_d)
            assert np.array_equal(w, want_w)


def test_backend_name_reports_active_kernel():
    assert lyapstab.backend_name() == "numpy"
    assert simulator.rk4_swing is rk4_swing
