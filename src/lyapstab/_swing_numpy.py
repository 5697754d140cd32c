"""The swing-equation kernel: fixed-step RK4 in NumPy.

The electrical power of the reduced network,
``pe_i = E_i * sum_j E_j (G_ij cos(d_i - d_j) + B_ij sin(d_i - d_j))``,
is evaluated in phasor form.  Expanding the angle differences with
``c = E cos(delta)`` and ``s = E sin(delta)`` gives
``pe_i = c_i (Gc - Bs)_i + s_i (Gs + Bc)_i``.  Since
``(G + jB)(c + js) = (Gc - Bs) + j(Gs + Bc)``, that is the real part of
``(c_i - j s_i) * ((G + jB)(c + js))_i``, so with ``u = exp(1j * delta)``

    pe_i = Re(conj(u_i) * (Y u)_i),    Y = E[:, None] * (G + jB) * E[None, :]

and ``minv_i * pe_i = Re(conj(u_i) * (Z u)_i)`` for ``Z`` = ``Y`` with its
rows scaled by ``minv``.  ``Z`` is formed once per call; each RK4 stage then
needs one complex matrix-vector product and no (n, n) temporary.  NumPy call
overhead, not arithmetic, dominates at the machine counts simulated, so the
kernel is written to make as few calls per stage as it can.
"""

import numpy as np


def backend_name() -> str:
    """Name of the swing kernel, recorded with benchmark results."""
    return "numpy"


def rk4_swing(delta, omega, minv, damp, pm, emf, G, B, h, n_blocks, substeps,
              out_delta, out_omega):
    """Integrate the classical swing equations with fixed-step RK4.

    ``delta`` and ``omega`` are modified in place and hold the final state.
    After every ``substeps`` internal steps of size ``h`` the state is written
    to the next row of ``out_delta`` / ``out_omega`` (``n_blocks`` rows total).

    Returns -1 if every recorded state is finite, otherwise the index of the
    first non-finite record; rows before that index are valid.

    Machines with ``minv == 0`` (infinite inertia) have an all-zero row of
    ``Z``, ``pm * minv`` and ``damp * minv``, so they never move.
    """
    n = len(delta)
    Z = (minv * emf)[:, None] * (G + 1j * B) * emf[None, :]
    pmm = pm * minv
    dm = damp * minv
    # Row s of ``stages`` is RK4 stage s laid out as [delta_s, omega_s, accel_s]:
    # its first 2n entries are the stage state and its last 2n are the slope
    # f = [omega_s, accel_s], so writing a state also writes half its slope.
    stages = np.empty((4, 3 * n))
    x = stages[0, :2 * n]  # the integrated state [delta, omega]
    x[:n] = delta
    x[n:] = omega
    k = stages[:, n:]
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (h / 6.0)
    u = np.empty(n, dtype=complex)
    u_re, u_im = u.real, u.imag
    # (step to this stage, slope it steps along, state, delta, omega, accel)
    rows = list(zip((None, 0.5 * h, 0.5 * h, h), (None,) + tuple(k[:3]),
                    stages[:, :2 * n], stages[:, :n], stages[:, n:2 * n],
                    stages[:, 2 * n:]))
    # A diverging run overflows to inf and nan; the per-block finiteness check
    # reports it, so NumPy's floating-point warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in range(n_blocks):
            for _ in range(substeps):
                for c, k_prev, y, d, w, a in rows:
                    if c is not None:
                        np.multiply(k_prev, c, out=y)
                        y += x
                    np.cos(d, out=u_re)  # u = exp(1j * d), built in place
                    np.sin(d, out=u_im)
                    # np.dot, not @: less per-call overhead on these small arrays
                    np.subtract(pmm, (u.conj() * np.dot(Z, u)).real, out=a)
                    a -= dm * w
                x += np.dot(weights, k)
            out_delta[block] = x[:n]
            out_omega[block] = x[n:]
            if not np.isfinite(x).all():
                break
        else:
            block = -1
    delta[:] = x[:n]
    omega[:] = x[n:]
    return block
