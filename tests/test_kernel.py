"""The swing kernel against a plain-Python reference: same contract, same
numbers."""

import math

import numpy as np
import pytest

import lyapstab
from lyapstab import simulator
from lyapstab._swing_numpy import rk4_swing


def example_system(n=4, seed=3, infinite=(-1,)):
    rng = np.random.default_rng(seed)
    delta = rng.normal(0.0, 0.4, n)
    omega = rng.normal(0.0, 0.5, n)
    minv = 1.0 / rng.uniform(0.01, 0.2, n)
    minv[list(infinite)] = 0.0  # infinite machines start (and stay) at rest
    omega[list(infinite)] = 0.0
    damp = rng.uniform(0.0, 0.1, n)
    pm = rng.normal(0.0, 0.5, n)
    emf = rng.uniform(0.9, 1.2, n)
    b_off = rng.uniform(0.5, 2.0, (n, n))
    B = -(b_off + b_off.T) / 2.0
    np.fill_diagonal(B, -B.sum(axis=1) + np.diag(B))
    G = np.abs(rng.normal(0.0, 0.05, (n, n)))
    G = (G + G.T) / 2.0
    return delta, omega, minv, damp, pm, emf, np.ascontiguousarray(G), \
        np.ascontiguousarray(B)


def run(state, h, n_blocks, substeps):
    """The recorded angles and speeds, one row a block."""
    delta, omega, minv, damp, pm, emf, G, B = state
    out = np.empty((n_blocks, 2, len(delta)))
    rk4_swing(delta, omega, minv, damp, pm, emf, G, B, h, n_blocks, substeps,
              out)
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
    """Run the kernel and the reference at h = 1/1200 s; returns the
    reference angles."""
    ref_d, ref_w = reference_rk4(state, 1.0 / 1200.0, n_blocks, substeps)
    d, w = run(state, 1.0 / 1200.0, n_blocks, substeps)
    assert np.abs(d - ref_d).max() < tol
    assert np.abs(w - ref_w).max() < tol
    return ref_d


# (machines, indices of the infinite machines); machine 0 fills the first
# slot and machine -1 the last of each block of the kernel's state
# [theta_a | theta_b | omega], so "n4-inf0" and "n24" put an infinite
# machine at a block's start, and "n24" one at its end too
SIZES = [pytest.param(2, (-1,), id="n2"), pytest.param(4, (-1,), id="n4"),
         pytest.param(4, (0,), id="n4-inf0"),
         pytest.param(12, (4, -1), id="n12"),
         pytest.param(24, (0, -1), id="n24")]


@pytest.mark.parametrize("n, infinite", SIZES)
# "odd-substeps" runs each block's last step out of the second stage
# buffer, whose state is copied back before it is recorded
@pytest.mark.parametrize("n_blocks, substeps, tol",
                         [(1, 1, 1e-13), (60, 10, 1e-9), (20, 3, 1e-12)],
                         ids=["one-step", "half-second", "odd-substeps"])
def test_kernels_match_reference(n_blocks, substeps, tol, n, infinite):
    assert_matches_reference(example_system(n, infinite=infinite), n_blocks,
                             substeps, tol)


@pytest.mark.parametrize("n", [24, 48])
def test_one_step_matches_reference_at_large_n(n):
    assert_matches_reference(example_system(n, infinite=(0, 11, -1)), 1, 1,
                             1e-13)


def test_pole_slipping_machine_matches_reference():
    # Machine 0 starts ~24 Hz fast and undamped, so its angle passes 20 pi
    # within the half second.  The kernel takes cos(delta) as
    # sin(delta + pi/2), whose rounding grows with |delta|.
    delta, omega, minv, damp, pm, emf, G, B = example_system()
    omega[0], damp[0] = 150.0, 0.0
    state = (delta, omega, minv, damp, pm, emf, G, B)
    ref_d = assert_matches_reference(state, 60, 10, 1e-9)
    assert np.abs(ref_d[:, 0]).max() > 20 * np.pi


@pytest.mark.parametrize("n, infinite", SIZES)
def test_infinite_machine_never_moves(n, infinite):
    state = example_system(n, infinite=infinite)
    d, w = run(state, 1.0 / 1200.0, 30, 10)
    for i in infinite:
        assert np.all(d[:, i] == state[0][i])
        assert np.all(w[:, i] == state[1][i])


def test_call_leaves_start_state_and_hands_off_from_a_record_row():
    # simulate starts each phase from a view of the record's previous row,
    # and writes the phase into the rows after it.  The kernel must only read
    # that start state, and a hand-off from it must be a plain restart from
    # the recorded values.  A restart derives theta_a = delta + pi/2 afresh,
    # where one long run carries theta_a on, so it matches one run of
    # k + m blocks to rounding, not bit for bit.  An odd substeps ends each
    # block in the second stage buffer.
    state = example_system()
    delta, omega, rest = state[0].copy(), state[1].copy(), state[2:]
    k, m = 4, 3
    for substeps in (1, 3, 4):
        whole_d, whole_w = run(state, 1.0 / 1200.0, k + m, substeps)
        assert np.array_equal(state[0], delta)
        assert np.array_equal(state[1], omega)
        record = np.empty((k + m, 2, len(delta)))
        rk4_swing(delta, omega, *rest, 1.0 / 1200.0, k, substeps, record[:k])
        start = record[k - 1]
        restart_d, restart_w = run((start[0].copy(), start[1].copy()) + rest,
                                   1.0 / 1200.0, m, substeps)
        rk4_swing(start[0], start[1], *rest, 1.0 / 1200.0, m, substeps,
                  record[k:])
        assert np.array_equal(record[:k, 0], whole_d[:k])
        assert np.array_equal(record[:k, 1], whole_w[:k])
        assert np.array_equal(record[k:, 0], restart_d)
        assert np.array_equal(record[k:, 1], restart_w)
        assert np.abs(record[:, 0] - whole_d).max() < 1e-13
        assert np.abs(record[:, 1] - whole_w).max() < 1e-13


@pytest.mark.parametrize("n, s", [
    pytest.param(n, s, id=f"{n}" if s == 4 else f"{n}-s{s}")
    for n in (2, 4, 12, 24) for s in (4, 3)])
def test_blocks_record_every_substeps_th_step_bit_for_bit(n, s):
    # Grouping steps into blocks only chooses which states are recorded:
    # n_blocks=k, substeps=s records rows s-1, 2s-1, ... of one step a block.
    # An odd s ends each block in the second stage buffer, as s = 1 ends
    # every step.
    state = example_system(n)
    k = 9
    grouped_d, grouped_w = run(state, 1.0 / 1200.0, k, s)
    single_d, single_w = run(state, 1.0 / 1200.0, k * s, 1)
    assert np.array_equal(grouped_d, single_d[s - 1::s])
    assert np.array_equal(grouped_w, single_w[s - 1::s])


def test_nonfinite_state_reports_block_index():
    # a non-finite start state is non-finite from the first record on
    state = example_system()
    delta = state[0].copy()
    delta[0] = np.nan
    broken = (delta,) + state[1:]
    finite = finite_rows(*run(broken, 1.0 / 1200.0, 5, 2))
    assert not finite[0]


def test_overflow_reports_first_nonfinite_block():
    # Damping -60 / (minv h) on machine 0 makes omega_0' = (60 / h) omega_0,
    # so each RK4 step multiplies omega_0 by R = sum_{k <= 4} 60^k / k!.  The
    # bounded coupling is negligible beside that, so omega_0 leaves the float
    # range in the first block k with |omega_0(0)| R^(10 (k + 1)) > max float.
    h, substeps = 1.0 / 1200.0, 10
    state = list(example_system())
    damp = state[3].copy()
    damp[0] = -60.0 / (state[2][0] * h)
    state[3] = damp
    log_r = math.log10(sum(60.0 ** k / math.factorial(k) for k in range(5)))
    blocks_to_overflow = [k for k in range(12) if math.log10(abs(state[1][0]))
                          + substeps * (k + 1) * log_r > math.log10(np.finfo(float).max)]
    assert blocks_to_overflow[0] == 5
    with np.errstate(over="ignore", invalid="ignore"):
        finite = finite_rows(*run(tuple(state), h, 12, substeps))
    bad = blocks_to_overflow[0]
    assert finite[:bad].all()
    assert not finite[bad]


def test_backend_name_reports_active_kernel():
    assert lyapstab.backend_name() == "numpy"
    assert simulator.rk4_swing is rk4_swing
