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
The integrated state is ``x = [theta (2n) | omega (n)]``, where ``theta``
interleaves ``(delta_i + pi/2, delta_i)``: one ``np.sin`` of ``theta``
gives ``(cos delta_i, sin delta_i)``, which is ``u`` written as
interleaved (re, im) floats.  Stage ``s`` owns one row of a
``(4, 8n + 1)`` buffer:

    row = [ c_s k_s (3n) | theta_s (2n) | omega_s (n) | p_s (2n) | 1 ]

where ``y_s = [theta_s, omega_s]`` is the stage state, ``k_s`` its slope
and ``c_s`` in ``(h/2, h/2, h, h)`` the step the next stage takes along it
(the last one is never stepped along, only summed).  With ``u`` and ``Zu``
as float views, ``p_s = u * Zu`` elementwise (one ``np.multiply``) holds
``[Re u_0 Re(Zu)_0, Im u_0 Im(Zu)_0, ...]``, and the sum of each
consecutive pair is ``Re(conj(u_i) (Zu)_i) = minv_i * pe_i``.  The slope of
``theta`` is ``omega_i`` twice and that of ``omega`` is
``pm * minv - minv * pe - damp * minv * omega``, so

    c_s k_s = c_s D @ row[5n:],    row[5n:] = [ omega_s | p_s | 1 ]

    D = [ R          | 0  | 0         ]    (2n rows: R[2i, i] = R[2i + 1, i] = 1)
        [ -damp minv | -S | pm * minv ]    (n rows: S[i, 2i] = S[i, 2i + 1] = 1)

with ``-damp minv`` diagonal.  ``h D / 2`` and ``h D`` are formed once per
call, so one ``np.dot`` writes the already scaled slope.  A stage is then:
the stage state ``x + c_{s-1} k_{s-1}`` (one ``np.add``; none for the first
stage, which reads ``x`` in place), ``np.sin`` into ``u``, ``Zu``, ``p_s``
and the scaled slope: at most five calls.  The step ends with
``x += [1/3, 2/3, 1/3, 1/6] @ (c k)``, the RK4 weights ``(1, 2, 2, 1) h/6``
divided by ``c_s``, as a product into a preallocated ``acc`` and an in-place
add; 21 calls a step in all.

Each call's cost is almost all NumPy's per-call overhead, so the loop takes
the cheapest path into the same C routines.  The products are the bound
``ndarray.dot`` methods of ``Z``, ``h D / 2``, ``h D`` and the weights,
bound once per call: ``np.dot`` first passes through the
``__array_function__`` dispatcher, the method does not.  ``np.sin``,
``np.multiply`` and ``np.add`` are bound as locals and given ``out``
positionally, which skips keyword parsing.  The same C routines run
either way, so the results equal those of ``np.dot(..., out=...)`` calls bit
for bit.  Every buffer and view the loop touches, including the ``delta``
and ``omega`` slots each block records, is made once per call.

A machine with ``minv == 0`` has an all-zero row of ``Z``, so its ``p``
entries are zero and its ``omega`` row of ``D`` gives exactly zero
acceleration: it never moves.  Its ``delta`` is read back from the
``delta_i`` slot of ``theta``, so it is returned exactly; the ``+ pi/2``
slot only feeds ``np.sin``.
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
    D = np.zeros((3 * n, 3 * n + 1))
    D[2 * machines, machines] = 1.0
    D[2 * machines + 1, machines] = 1.0
    omega_rows = 2 * n + machines
    D[omega_rows, machines] = -(damp * minv)
    D[omega_rows, n + 2 * machines] = -1.0
    D[omega_rows, n + 2 * machines + 1] = -1.0
    D[omega_rows, -1] = pm * minv
    D_half, D_full = (0.5 * h) * D, h * D
    stages = np.empty((4, 8 * n + 1))
    stages[:, -1] = 1.0
    x = stages[0, 3 * n:6 * n]  # the integrated state [theta, omega]
    x[0:2 * n:2] = delta + np.pi / 2
    x[1:2 * n:2] = delta
    x[2 * n:] = omega
    ck = stages[:, :3 * n]
    ck0, ck1, ck2, ck3 = ck
    _, y1, y2, y3 = stages[:, 3 * n:6 * n]
    th0, th1, th2, th3 = stages[:, 3 * n:5 * n]
    p0, p1, p2, p3 = stages[:, 6 * n:8 * n]
    v0, v1, v2, v3 = stages[:, 5 * n:]
    weights = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    acc = np.empty(3 * n)
    u = np.empty(n, dtype=complex)
    zu = np.empty(n, dtype=complex)
    u_f, zu_f = u.view(float), zu.view(float)
    x_delta, x_omega = x[1:2 * n:2], x[2 * n:]
    z_dot, half_dot, full_dot, w_dot = Z.dot, D_half.dot, D_full.dot, weights.dot
    sin, multiply, add = np.sin, np.multiply, np.add
    # A diverging run overflows to inf and nan; the per-block finiteness check
    # reports it, so NumPy's floating-point warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in range(n_blocks):
            for _ in range(substeps):
                sin(th0, u_f)
                z_dot(u, zu)
                multiply(u_f, zu_f, p0)
                half_dot(v0, ck0)

                add(x, ck0, y1)
                sin(th1, u_f)
                z_dot(u, zu)
                multiply(u_f, zu_f, p1)
                half_dot(v1, ck1)

                add(x, ck1, y2)
                sin(th2, u_f)
                z_dot(u, zu)
                multiply(u_f, zu_f, p2)
                full_dot(v2, ck2)

                add(x, ck2, y3)
                sin(th3, u_f)
                z_dot(u, zu)
                multiply(u_f, zu_f, p3)
                full_dot(v3, ck3)

                w_dot(ck, acc)
                add(x, acc, x)
            out_delta[block] = x_delta
            out_omega[block] = x_omega
            if not np.isfinite(x).all():
                break
        else:
            block = -1
    delta[:] = x_delta
    omega[:] = x_omega
    return block
