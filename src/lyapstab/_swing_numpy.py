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
rows scaled by ``minv``.  Written over real blocks, ``Zu`` is

    [Re Zu | Im Zu] = Zr @ [cos delta | sin delta],
    Zr = [[Re Z, -Im Z], [Im Z, Re Z]]

and ``minv * pe = cos(delta) * Re Zu + sin(delta) * Im Zu``.  ``Zr`` is
formed once per call.

NumPy call overhead, not arithmetic, dominates at the machine counts
simulated, so each RK4 stage is laid out to need as few calls as possible
and no product wider than the coupling itself.  The integrated state keeps
each angle twice, in blocks: ``x = [theta_a | theta_b | omega]`` with
``theta_a = delta + pi/2`` and ``theta_b = delta``, so one ``np.sin`` of
``[theta_a | theta_b]`` gives ``[cos delta | sin delta]``.  Stage ``s`` owns
one row, ``9n`` wide, of a ``(4, 9n)`` buffer:

    row = [ theta_a | theta_b | omega | c | s | q (3n) | g ]

where ``row[:3n]`` is the stage state, ``(c, s)`` its ``(cos, sin)(delta)``
and ``g = pm * minv`` a constant.  The product ``Zr @ [c | s]`` lands in the
last ``2n`` slots of ``zbuf = [-damp minv | Re Zu | Im Zu]``, whose first
``n`` are fixed, so one ``np.multiply`` of ``row[2n:5n] = [omega | c | s]``
with ``zbuf`` writes

    q = [ -damp minv omega | c Re Zu | s Im Zu ]

and the damping term rides on the product that forms the power terms.
Both angle blocks have slope ``omega``, and ``omega`` has slope
``pm minv - minv pe - damp minv omega = q_0 - q_1 - q_2 + g``.  Read as a
``(7, n)`` matrix, ``row[2n:]`` is ``[omega, c, s, q_0, q_1, q_2, g]``, so a
constant ``3 x 7`` stencil gives the slope ``k_s`` of all three blocks:

    c_s k_s = c_s A @ row[2n:].reshape(7, n)

        A = [ 1  0  0  0   0   0  0 ]    theta_a
            [ 1  0  0  0   0   0  0 ]    theta_b
            [ 0  0  0  1  -1  -1  1 ]    omega

where ``c_s`` in ``(h/2, h/2, h, h)`` is the step the next stage takes
along ``k_s`` (the last one is never stepped along, only summed).
``h A / 2`` and ``h A`` are formed once per call, so one ``np.dot`` writes
the already scaled slope into a ``(3, n)`` view of row ``s`` of a
``(4, 3n)`` buffer ``ck``.  A stage is then: the stage state
``x + c_{s-1} k_{s-1}`` (one ``np.add``; none for the first stage, which
reads ``x`` in place), ``np.sin``, ``Zr @ [c | s]``, ``q`` and the scaled
slope: at most five calls and ``4n^2 + 21n`` multiply-adds.  The step ends
with ``x += [1/3, 2/3, 1/3, 1/6] @ ck``, the RK4 weights ``(1, 2, 2, 1) h/6``
divided by ``c_s``, as a product into a preallocated ``acc`` and an
in-place add; 21 calls a step in all.

Each call's cost is almost all NumPy's per-call overhead, so the loop takes
the cheapest path into the same C routines.  The products are the bound
``ndarray.dot`` methods of ``Zr``, ``h A / 2``, ``h A`` and the weights,
bound once per call: ``np.dot`` first passes through the
``__array_function__`` dispatcher, the method does not.  ``np.sin``,
``np.multiply`` and ``np.add`` are bound as locals and given ``out``
positionally, which skips keyword parsing.  Every buffer and view the loop
touches, including the ``delta`` and ``omega`` blocks each block records,
is made once per call.

A machine with ``minv == 0`` has all-zero rows in ``Zr`` and zero
``-damp minv`` and ``g`` entries, so its ``q`` and ``g`` entries are zero
and the stencil gives it exactly zero acceleration: it never moves.  Its
``delta`` is read back from ``theta_b``, so it is returned exactly;
``theta_a`` only feeds ``np.sin``.
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
    scale = (minv * emf)[:, None] * emf[None, :]
    re_z, im_z = scale * G, scale * B
    Zr = np.block([[re_z, -im_z], [im_z, re_z]])
    A = np.zeros((3, 7))
    A[0:2, 0] = 1.0
    A[2, 3:] = (1.0, -1.0, -1.0, 1.0)
    A_half, A_full = (0.5 * h) * A, h * A
    stages = np.empty((4, 9 * n))
    stages[:, 8 * n:] = pm * minv
    x = stages[0, :3 * n]  # the integrated state [theta_a, theta_b, omega]
    x[:n] = delta + np.pi / 2
    x[n:2 * n] = delta
    x[2 * n:] = omega
    _, y1, y2, y3 = stages[:, :3 * n]
    th0, th1, th2, th3 = stages[:, :2 * n]
    cs0, cs1, cs2, cs3 = stages[:, 3 * n:5 * n]
    v0, v1, v2, v3 = stages[:, 2 * n:5 * n]
    q0, q1, q2, q3 = stages[:, 5 * n:8 * n]
    m0, m1, m2, m3 = stages[:, 2 * n:].reshape(4, 7, n)
    ck = np.empty((4, 3 * n))
    ck0, ck1, ck2, ck3 = ck
    k0, k1, k2, k3 = ck.reshape(4, 3, n)
    zbuf = np.empty(3 * n)
    zbuf[:n] = -(damp * minv)
    zu = zbuf[n:]
    weights = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    acc = np.empty(3 * n)
    x_delta, x_omega = x[n:2 * n], x[2 * n:]
    z_dot, half_dot, full_dot, w_dot = Zr.dot, A_half.dot, A_full.dot, weights.dot
    sin, multiply, add = np.sin, np.multiply, np.add
    # A diverging run overflows to inf and nan; the per-block finiteness check
    # reports it, so NumPy's floating-point warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in range(n_blocks):
            for _ in range(substeps):
                sin(th0, cs0)
                z_dot(cs0, zu)
                multiply(v0, zbuf, q0)
                half_dot(m0, k0)

                add(x, ck0, y1)
                sin(th1, cs1)
                z_dot(cs1, zu)
                multiply(v1, zbuf, q1)
                half_dot(m1, k1)

                add(x, ck1, y2)
                sin(th2, cs2)
                z_dot(cs2, zu)
                multiply(v2, zbuf, q2)
                full_dot(m2, k2)

                add(x, ck2, y3)
                sin(th3, cs3)
                z_dot(cs3, zu)
                multiply(v3, zbuf, q3)
                full_dot(m3, k3)

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
