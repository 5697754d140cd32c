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
rows scaled by ``minv``.  ``Z`` is formed once per call.

NumPy call overhead, not arithmetic, dominates at the machine counts
simulated, so each RK4 stage is laid out to need as few calls as possible.
Stage ``s`` owns one row of a ``(4, 5n + 1)`` buffer:

    row = [ a_s | omega_s | delta_s | p_s (2n) | 1 ]

with ``a_s`` the acceleration.  Three things are then views of that row:
the stage state ``y_s = [omega_s, delta_s] = row[n:3n]``, its slope
``k_s = dy/dt = [a_s, omega_s] = row[:2n]``, and the operand ``row[n:]`` of
the acceleration.  Writing ``u`` and ``Zu`` as interleaved (re, im) floats,
``p_s = u * Zu`` elementwise (one ``np.multiply`` of their float views)
holds ``[Re u_0 Re(Zu)_0, Im u_0 Im(Zu)_0, ...]``, and the sum of each
consecutive pair is ``Re(conj(u_i) (Zu)_i) = minv_i * pe_i``.  So

    a = pm * minv - minv * pe - damp * minv * omega = A @ row[n:]
    A = [ -damp * minv (diagonal) | 0 | -S | pm * minv ]

where ``S`` (n x 2n) has ``S[i, 2i] = S[i, 2i + 1] = 1`` and the zero block
skips ``delta_s``.  A stage is then: the stage state (``x + c * k_prev``,
two calls; none for the first stage), ``cos``/``sin`` into ``u``,
``Zu``, ``p_s``, and ``A @ row[n:]`` into ``a_s``: at most seven calls.
The integrated state ``x`` is stage 0's state, so the first stage reads it
without a copy.  A machine with ``minv == 0`` has an all-zero row of ``Z``,
so its ``p`` entries are zero and its row of ``A`` gives exactly zero
acceleration: it never moves.
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

    Machines with ``minv == 0`` (infinite inertia) never move.
    """
    n = len(delta)
    Z = (minv * emf)[:, None] * (G + 1j * B) * emf[None, :]
    machines = np.arange(n)
    A = np.zeros((n, 4 * n + 1))
    A[machines, machines] = -(damp * minv)
    A[machines, 2 * n + 2 * machines] = -1.0
    A[machines, 2 * n + 2 * machines + 1] = -1.0
    A[:, -1] = pm * minv
    stages = np.empty((4, 5 * n + 1))
    stages[:, -1] = 1.0
    x = stages[0, n:3 * n]  # the integrated state [omega, delta]
    x[:n] = omega
    x[n:] = delta
    k = stages[:, :2 * n]
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (h / 6.0)
    u = np.empty(n, dtype=complex)
    zu = np.empty(n, dtype=complex)
    u_re, u_im = u.real, u.imag
    u_f, zu_f = u.view(float), zu.view(float)
    # (step to this stage, slope it steps along, state, delta, p, accel, operand)
    rows = [(c, k_prev, row[n:3 * n], row[2 * n:3 * n], row[3 * n:5 * n],
             row[:n], row[n:])
            for c, k_prev, row in zip((None, 0.5 * h, 0.5 * h, h),
                                      (None,) + tuple(k[:3]), stages)]
    # A diverging run overflows to inf and nan; the per-block finiteness check
    # reports it, so NumPy's floating-point warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in range(n_blocks):
            for _ in range(substeps):
                for c, k_prev, y, d, p, a, v in rows:
                    if c is not None:
                        np.multiply(k_prev, c, out=y)
                        y += x
                    np.cos(d, out=u_re)  # u = exp(1j * d), built in place
                    np.sin(d, out=u_im)
                    # np.dot, not @: less per-call overhead on these small arrays
                    np.dot(Z, u, out=zu)
                    np.multiply(u_f, zu_f, out=p)
                    np.dot(A, v, out=a)
                x += np.dot(weights, k)
            out_delta[block] = x[n:]
            out_omega[block] = x[:n]
            if not np.isfinite(x).all():
                break
        else:
            block = -1
    delta[:] = x[n:]
    omega[:] = x[:n]
    return block
