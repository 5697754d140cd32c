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
simulated, so each RK4 step is laid out to need as few calls as possible
and no product wider than the coupling itself.  The integrated state keeps
each angle twice, in blocks: ``x = [theta_a | theta_b | omega]`` with
``theta_a = delta + pi/2`` and ``theta_b = delta``, so one ``np.sin`` of
``[theta_a | theta_b]`` gives ``[cos delta | sin delta]``.  Stage ``s`` owns
one row, ``9n`` wide, of a ``(4, 9n)`` stage buffer:

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
``(7, n)`` matrix, ``m_s = row[2n:]`` is ``[omega, c, s, q_0, q_1, q_2, g]``,
so a constant ``3 x 7`` stencil gives the slope ``k_s = A m_s`` of all three
blocks:

        A = [ 1  0  0  0   0   0  0 ]    theta_a
            [ 1  0  0  0   0   0  0 ]    theta_b
            [ 0  0  0  1  -1  -1  1 ]    omega

Read as a ``(36, n)`` matrix, the stage buffer holds ``x`` in its first
three blocks and ``m_s`` in blocks ``9s + 2`` to ``9s + 8``.  Every RK4
update is ``x`` plus a weighted sum of slopes so far, so it is one constant
``(3, 9(s + 1))`` matrix times the view of rows ``0 .. s``: ``I_3`` on
``x`` plus ``h a_r A`` on each ``m_r``, with ``a`` row ``s`` of the
tableau ``((1/2,), (0, 1/2), (0, 0, 1), (1/6, 1/3, 1/3, 1/6))``.  For
``s < 3`` the product writes stage ``s + 1``'s state straight into a
``(3, n)`` view of its row; for ``s = 3`` it is the whole step,
``x + h/6 (k_0 + 2 k_1 + 2 k_2 + k_3)``.  A stage is ``np.sin``,
``Zr @ [c | s]``, ``q`` and that product: four calls, 16 a step, with no
slope buffer, no separate ``add`` and no weights product.  Its
``4n^2 + 3n`` multiply-adds for ``Zr @ [c | s]`` and ``q`` are as before;
the stage product makes ``27(s + 1)n``, of which only ``9n`` (``27n`` in
the last stage) are by non-zero entries.

The step's last product cannot write into ``x`` in place: NumPy would
copy the overlapping ``out``, which costs more than the product itself at
small ``n``.  So two stage buffers take turns: a step that reads one
writes the new state into the other's first row, and the next step reads
that one.  After an odd number of steps the state sits in the second
buffer, so an odd ``substeps`` copies it back once per block (one
``np.copyto``) before it is recorded.  The record ``[delta | omega]`` is
the state's last two blocks, ``[theta_b | omega]``, read as ``(2, n)``:
one row assignment into ``out`` a block.

Each call's cost is almost all NumPy's per-call overhead, so the loop takes
the cheapest path into the same C routines.  The products are the bound
``ndarray.dot`` methods of ``Zr`` and the four stage matrices, bound once
per call: ``np.dot`` first passes through the ``__array_function__``
dispatcher, the method does not.  ``np.sin`` and ``np.multiply`` are
bound as locals and given ``out`` positionally, which skips keyword
parsing.  Every buffer and view the loop touches, including the record
view, is made once per call, and the loop runs over both buffers' prebuilt
stage arguments: at n = 2 to 24 on one vCPU of a 2-vCPU Xeon that cost
1-2 % against writing the step out twice.

A machine with ``minv == 0`` has all-zero rows in ``Zr`` and zero
``-damp minv`` and ``g`` entries, so its ``q`` and ``g`` entries are zero
and the stencil gives it exactly zero acceleration: it never moves.  Its
``delta`` is recorded from ``theta_b``, so it stays exact;
``theta_a`` only feeds ``np.sin``.
"""

import numpy as np

# The stencil: rows theta_a, theta_b, omega; columns the blocks
# [omega, c, s, q_0, q_1, q_2, g] of a stage row.
_A = np.zeros((3, 7))
_A[0:2, 0] = 1.0
_A[2, 3:] = (1.0, -1.0, -1.0, 1.0)


def _stage_matrices(weights):
    """``(S, I)`` with ``x + h sum_r a_r k_r = (h S + I) @ rows 0 .. s`` of a
    stage buffer read as ``(36, n)``, for the tableau row ``a = weights``."""
    k = 9 * len(weights)
    slopes = np.zeros((3, k))
    for r, a in enumerate(weights):
        slopes[:, 9 * r + 2:9 * r + 9] = a * _A
    return slopes, np.eye(3, k)


# The classical RK4 tableau: stage s + 1's state, then the step's end.
_STAGES = [_stage_matrices(weights) for weights in
           ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0),
            (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0))]


def backend_name() -> str:
    """Name of the swing kernel, recorded with benchmark results."""
    return "numpy"


def rk4_swing(delta, omega, minv, damp, pm, emf, G, B, h, n_blocks, substeps,
              out):
    """Integrate the classical swing equations with fixed-step RK4.

    ``delta`` and ``omega`` are the initial state and are left unchanged.
    After every ``substeps`` internal steps of size ``h`` the state
    ``[delta, omega]`` is written to the next row of ``out``, of shape
    ``(n_blocks, 2, n)``.  The kernel tests nothing: a run that overflows
    goes on with non-finite values, and the caller finds the first
    non-finite row.

    Machines with ``minv == 0`` (infinite inertia) never move.
    """
    n = len(delta)
    scale = (minv * emf)[:, None] * emf[None, :]
    re_z, im_z = scale * G, scale * B
    Zr = np.empty((2 * n, 2 * n))
    Zr[:n, :n] = Zr[n:, n:] = re_z
    Zr[n:, :n] = im_z
    Zr[:n, n:] = -im_z
    stage_dots = [(h * slopes + eye).dot for slopes, eye in _STAGES]
    bufs = np.empty((2, 4, 9 * n))  # two stage buffers, taking turns
    bufs[:, :, 8 * n:] = pm * minv
    # the integrated state [theta_a, theta_b, omega], and where a step that
    # reads the first buffer leaves it
    x, x_other = bufs[:, 0, :3 * n]
    x[:n] = delta + np.pi / 2
    x[n:2 * n] = delta
    x[2 * n:] = omega
    record = x[n:].reshape(2, n)
    rows = bufs.reshape(8, 9 * n)
    heads = list(rows[:, :3 * n].reshape(8, 3, n))
    reads = bufs.reshape(2, 36, n)
    # Stage s of buffer b is row 4b + s; it reads rows 0 .. s of its buffer
    # and writes the next row's state, which after the last stage of one
    # buffer is the first row of the other.
    stages = list(zip(stage_dots * 2, rows[:, :2 * n], rows[:, 3 * n:5 * n],
                      rows[:, 2 * n:5 * n], rows[:, 5 * n:8 * n],
                      [reads[b, :9 * s + 9] for b in (0, 1) for s in range(4)],
                      heads[1:] + heads[:1]))
    steps = [stages[:4], stages[4:]]
    plan = steps * (substeps // 2) + steps[:substeps % 2]
    odd = substeps % 2
    zbuf = np.empty(3 * n)
    zbuf[:n] = -(damp * minv)
    zu = zbuf[n:]
    z_dot = Zr.dot
    sin, multiply = np.sin, np.multiply
    # A diverging run overflows to inf and nan; the caller truncates the
    # record at its first non-finite row, so NumPy's floating-point warnings
    # would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in range(n_blocks):
            for step in plan:
                for stage_dot, th, cs, v, q, read, write in step:
                    sin(th, cs)
                    z_dot(cs, zu)
                    multiply(v, zbuf, q)
                    stage_dot(read, write)
            if odd:
                np.copyto(x, x_other)
            out[block] = record
