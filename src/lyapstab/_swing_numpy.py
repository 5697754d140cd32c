"""The swing-equation kernel: fixed-step RK4 in NumPy, in two formulations.

:func:`rk4_swing` is the one entry point.  It integrates the classical
swing equations of the reduced network in the angle-difference form for up
to ``ANGLE_DIFFERENCE_MAX_N`` machines and in the phasor form above that;
the machine count alone picks the form (:func:`formulation`).  Both take
the same RK4 steps of the same equations and differ only in rounding.

NumPy call overhead, not arithmetic, dominates at the machine counts
simulated, so each RK4 step of either form is laid out to need as few
calls as possible.  The phasor form needs four a stage, 16 a step, and
no product wider than the coupling itself; the angle-difference form
needs two a stage, 8 a step, but its one product grows as ``n^4``.

Stage buffers
-------------

Each form integrates a state ``x`` whose slope is a constant matrix
``S``, formed once per call, times an operand ``m`` that a stage computes
from its own state.  Stage ``s`` owns one row of a ``(4, width)`` stage
buffer,

    row = [ x | ... ],    m = row[lead:]

where the operand starts inside the state, at its last block ``omega``.
Every RK4 update is ``x`` plus ``h`` times a weighted sum of the slopes so
far, so it is one constant matrix times the view of rows ``0 .. s``:
``I`` on row 0's state plus ``h a_r S`` on each row ``r``'s operand, with
``a`` row ``s`` of the tableau
``((1/2,), (0, 1/2), (0, 0, 1), (1/6, 1/3, 1/3, 1/6))``.  For ``s < 3``
that stage product writes stage ``s + 1``'s state straight into its row;
for ``s = 3`` it is the whole step, ``x + h/6 (k_0 + 2 k_1 + 2 k_2 + k_3)``,
with no slope buffer, no separate ``add`` and no weights product.

The step's last product cannot write into ``x`` in place: NumPy would
copy the overlapping ``out``, which costs more than the product itself at
small ``n``.  So two stage buffers take turns: a step that reads one
writes the new state into the other's first row, and the next step reads
that one.  A block of ``substeps`` steps that starts in buffer ``b`` ends
in buffer ``(b + substeps) mod 2``, so with an odd ``substeps`` the blocks
alternate between the buffers as well, and no state is copied back.  Each
buffer has its own record ``[delta | omega]``, a ``(2, n)`` view of its
state's last two blocks, and a block ends with one row assignment into
``out`` from the record of the buffer it ended in.

``_stages`` builds the buffers, the stage products and each buffer's step
for both forms.  An entry of the angle-difference form's rows is one
number; an entry of the phasor form's rows is a block of ``n``, one number
a machine, so its rows read as ``(9, n)`` matrices and its stage products
are matrix products over all machines at once.  What each form adds is its
state and operand, its ``S`` and the calls that fill the operand.

Phasor form
-----------

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

The state keeps each angle twice, in blocks:
``x = [theta_a | theta_b | omega]`` with ``theta_a = delta + pi/2`` and
``theta_b = delta``, so one ``np.sin`` of ``[theta_a | theta_b]`` gives
``[cos delta | sin delta]``.  A stage row is nine blocks:

    row = [ theta_a | theta_b | omega | c | s | q (3n) | g ]

where ``(c, s)`` is the stage's ``(cos, sin)(delta)`` and ``g = pm * minv``
a constant.  The product ``Zr @ [c | s]`` lands in the last ``2n`` slots of
``zbuf = [-damp minv | Re Zu | Im Zu]``, whose first ``n`` are fixed, so
one ``np.multiply`` of ``row[2n:5n] = [omega | c | s]`` with ``zbuf``
writes

    q = [ -damp minv omega | c Re Zu | s Im Zu ]

and the damping term rides on the product that forms the power terms.
Both angle blocks have slope ``omega``, and ``omega`` has slope
``pm minv - minv pe - damp minv omega = q_0 - q_1 - q_2 + g``.  So the
operand is the blocks ``[omega, c, s, q_0, q_1, q_2, g]`` from ``lead`` = 2
on, and ``S`` is a constant ``3 x 7`` stencil:

        A = [ 1  0  0  0   0   0  0 ]    theta_a
            [ 1  0  0  0   0   0  0 ]    theta_b
            [ 0  0  0  1  -1  -1  1 ]    omega

A stage is ``np.sin``, ``Zr @ [c | s]``, ``q`` and the stage product: four
calls, 16 a step.  Its ``4n^2 + 3n`` multiply-adds for ``Zr @ [c | s]`` and
``q`` are those of the power itself; the stage product makes
``27(s + 1)n``, of which only ``9n`` (``27n`` in the last stage) are by
non-zero entries.

A machine with ``minv == 0`` has all-zero rows in ``Zr`` and zero
``-damp minv`` and ``g`` entries, so its ``q`` and ``g`` entries are zero
and the stencil gives it exactly zero acceleration: it never moves.  Its
``delta`` is recorded from ``theta_b``, so it stays exact;
``theta_a`` only feeds ``np.sin``.

Angle-difference form
---------------------

Summed over machine pairs, the same power is the classical multimachine
form (Kundur, *Power System Stability and Control*, 1994, ch. 13):

    pe_i = E_i^2 G_ii + sum_{j != i} E_i E_j (G_ij cos d_ij + B_ij sin d_ij)

with ``d_ij = d_i - d_j``.  A pair ``p = (i, j)``, ``i < j``, of the
``P = n(n - 1)/2`` pairs has one angle ``d_p = d_ij = -d_ji``, so with
``c_p = cos d_p`` and ``s_p = sin d_p`` it adds
``E_i E_j (G_ij c_p + B_ij s_p)`` to ``pe_i`` and
``E_i E_j (G_ji c_p - B_ji s_p)`` to ``pe_j``.  The accelerations
``omega' = minv (pm - pe - damp omega)`` are therefore linear in the
operand ``m = [omega | c | s | 1]``, and so are the slopes of the angles:
``delta' = omega`` and ``d_p' = omega_i - omega_j = (D omega)_p``.  The
state carries each pair angle twice, ``theta_a = d_p + pi/2`` and
``theta_b = d_p``, so one ``np.sin`` of ``[theta_a | theta_b]`` gives
``[c | s]``, and the slope of the whole state
``x = [theta_a | theta_b | delta | omega]`` (``2P + 2n``) is ``S = L``:

        L = [  D    0    0   0 ]    theta_a
            [  D    0    0   0 ]    theta_b
            [  I    0    0   0 ]    delta
            [ -dm  -Zc  -Zs  g ]    omega

with ``dm = diag(damp minv)``, ``g = minv (pm - E^2 diag(G))``, and pair
``p``'s columns of ``Zc`` and ``Zs`` non-zero in rows ``i`` and ``j``:
``Zc_ip = minv_i E_i E_j G_ij``, ``Zc_jp = minv_j E_i E_j G_ji``,
``Zs_ip = minv_i E_i E_j B_ij`` and ``Zs_jp = -minv_j E_i E_j B_ji``.
A stage row, ``4P + 2n + 1`` numbers, is

    row = [ theta_a | theta_b | delta | omega | c | s | 1 ]

so ``np.sin`` of ``row[:2P]`` writes ``[c | s]`` and the operand starts at
``lead = 2P + n``.  A stage is that ``np.sin`` and the stage product, a
matrix-vector product that writes the next state, pair angles included:
two calls, 8 a step.  A restart (each ``simulate`` phase) derives the
pair angles afresh from ``delta``.

A machine with ``minv == 0`` has an all-zero row in ``L``, so its
``omega`` is exactly still.  Its ``delta`` is recorded from the ``delta``
block, which only ``omega`` moves, so it stays exact; the pair angles only
feed ``np.sin``.

Both forms
----------

Each call's cost is almost all NumPy's per-call overhead, so the loop takes
the cheapest path into the same C routines.  Every NumPy call of a step is
a ``functools.partial`` made once per kernel call, with all its arguments
bound and ``out`` given positionally, which skips keyword parsing: the
calls that fill a stage's operand (``np.sin``; in the phasor form also
``Zr.dot`` and ``np.multiply``), then the stage product.  The products are
the bound ``ndarray.dot`` methods of ``Zr`` and of the four stage
matrices: ``np.dot`` first passes through the ``__array_function__``
dispatcher, the method does not.  ``_stages`` lays each buffer's step out
as one flat list of these calls, and ``_integrate`` joins ``substeps``
alternating steps into one list, a block, once for each buffer a block can
start in; with an odd ``substeps`` the blocks take the two lists in turn.
One loop serves both forms: it runs a block's calls in order and assigns
the record view of the buffer the block ended in into ``out``.  Against a
loop written out per form, which unpacks prebuilt stage tuples and makes
the calls itself, with the same output bit for bit, the per-size median
time ratio was 0.95-1.04 at n = 2 to 48 in four runs of
``benchmarks/bench_kernel.py --repeats 15 --against`` on one vCPU of a
2-vCPU Xeon with NumPy 2.4.6, inside the spread between runs.  The
per-call set-up, which makes the partials, grew by 4-10 us (3-10 % in the
angle-difference form, 14-22 % in the phasor form).  ``simulate`` makes
one call a phase, three a run: at 80-150 us a call, the set-up is about
1 % of a 12 s battery run at 2-4 machines.

The angle-difference form makes ``P`` sines where the phasor form makes
``n``, and its stage product has ``(2P + 2n)(s + 1)(4P + 2n + 1)``
entries, ``O(n^4)``, against the phasor form's ``4n^2`` coupling and
``27(s + 1)n`` stencil.  So the first wins only while the calls it saves
outweigh that.  The time of the angle-difference form over the phasor
form's, per 11.75 s kernel call at 120 Hz output and 3 steps a sample (the
post-fault call ``simulate`` makes for a 12 s run cleared at 0.25 s),
median of 15 rounds (``benchmarks/bench_kernel.py --repeats 15`` prints
this table), on one vCPU of a 2-vCPU Xeon with NumPy 2.4.6:

    n        2      3      4      5      6      8      10
    ratio   0.50   0.52   0.64   0.88   1.21   2.39   5.44

The angle-difference form won 13 of the 15 rounds at n = 5 and none at
n = 6, so ``ANGLE_DIFFERENCE_MAX_N`` is 5.
Each form wins on systems that are simulated: the angle-difference form on
the 2-4 machine networks of the acceptance battery and ``sweep``,
the phasor form on the 12-48 machine rings and anything paper-scale, where
the angle-difference form's stage matrices alone would take tens of
megabytes.  Neither can serve the other's range, so both stay.
"""

from functools import partial

import numpy as np

# The phasor form's slope matrix, a stencil: rows theta_a, theta_b, omega;
# columns the blocks [omega, c, s, q_0, q_1, q_2, g] of its operand.
_A = np.zeros((3, 7))
_A[0:2, 0] = 1.0
_A[2, 3:] = (1.0, -1.0, -1.0, 1.0)

# The classical RK4 tableau: row s weights the slopes of stages 0 .. s into
# stage s + 1's state, and the last row gives the step's end.
_TABLEAU = np.array([[0.5, 0.0, 0.0, 0.0],
                     [0.0, 0.5, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]])


# The most machines the angle-difference form runs: the measured crossover.
ANGLE_DIFFERENCE_MAX_N = 5


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

    Machines with ``minv == 0`` (infinite inertia) never move.  The
    machine count alone picks the formulation (:func:`formulation`).
    """
    formulation(len(delta))(delta, omega, minv, damp, pm, emf, G, B, h,
                            n_blocks, substeps, out)


def formulation(n):
    """The formulation :func:`rk4_swing` runs for ``n`` machines."""
    return rk4_angle_difference if n <= ANGLE_DIFFERENCE_MAX_N else rk4_phasor


def _stages(slope, state, lead, h, calls, cols=()):
    """The two stage buffers, ``(2, 4, width) + cols``, and each buffer's
    step, one flat list of calls, for rows ``[state | ...]`` whose operand
    starts at ``lead`` and whose slope is ``slope @ operand``.  Stage s of
    buffer b is row 4b + s.  ``calls`` maps the rows, flattened to
    ``(8, -1)``, to each row's list of the calls that fill its operand; the
    stage product follows them, reading rows 0 .. s of its buffer and
    writing the next row's state, which after the last stage of one buffer
    is the first row of the other."""
    width = lead + slope.shape[1]
    # stage s: I on the state of row 0 plus h a_r slope on each row r's operand
    mats = np.zeros((4, state, 4 * width))
    np.multiply((h * _TABLEAU)[:, None, :, None], slope[:, None, :],
                mats.reshape(4, state, 4, width)[..., lead:])
    mats[:, :, :state] += np.eye(state)
    dots = [mats[s, :, :(s + 1) * width].copy().dot for s in range(4)]
    bufs = np.empty((2, 4, width) + cols)
    heads = list(bufs.reshape((8, width) + cols)[:, :state])
    reads = bufs.reshape((2, 4 * width) + cols)
    stages = calls(bufs.reshape(8, -1))
    for k, head in enumerate(heads[1:] + heads[:1]):
        b, s = divmod(k, 4)
        stages[k].append(partial(dots[s], reads[b, :(s + 1) * width], head))
    return bufs, [sum(stages[:4], []), sum(stages[4:], [])]


def _integrate(steps, records, n_blocks, substeps, out):
    """Run ``n_blocks`` blocks of ``substeps`` steps from the state in the
    first buffer, writing the record of the buffer block b ends in into
    ``out[b]``.  ``records[c]`` is buffer c's record view.  Steps alternate
    between the buffers, so a block that starts in buffer c ends in buffer
    ``(c + substeps) % 2``: with an odd ``substeps`` the blocks alternate
    too, and block b runs ``plan[b % 2]``."""
    odd = substeps % 2
    blocks = [(steps[c] + steps[1 - c]) * (substeps // 2) + steps[c] * odd
              for c in (0, 1)]
    plan = ((blocks[0], records[odd]), (blocks[odd], records[0]))
    for b in range(n_blocks):
        block, record = plan[b % 2]
        for call in block:
            call()
        out[b] = record


# A diverging run overflows to inf and nan, and so may a system's constants;
# the caller truncates the record at its first non-finite row, so NumPy's
# floating-point warnings would only be noise.
@np.errstate(over="ignore", invalid="ignore")
def rk4_angle_difference(delta, omega, minv, damp, pm, emf, G, B, h,
                         n_blocks, substeps, out):
    """:func:`rk4_swing` with the power summed over pair angles."""
    n = len(delta)
    machines = np.arange(n)
    i, j = np.nonzero(machines[:, None] < machines)  # the pairs, i < j
    p = len(i)
    pairs = np.arange(p)
    state = 2 * p + 2 * n  # [theta_a | theta_b | delta | omega]
    lead = 2 * p + n  # the operand [omega | c | s | 1] starts at omega
    scale = (minv * emf)[:, None] * emf[None, :]
    zg, zb = scale * G, scale * B
    # the slope of the state blocks (rows) from the operand (columns)
    L = np.zeros((state, n + 2 * p + 1))
    L[pairs, i] = L[p + pairs, i] = 1.0
    L[pairs, j] = L[p + pairs, j] = -1.0
    L[2 * p + machines, machines] = 1.0
    accel = L[lead:]
    accel[machines, machines] = -(damp * minv)
    accel[i, n + pairs] = -zg[i, j]
    accel[j, n + pairs] = -zg[j, i]
    accel[i, n + p + pairs] = -zb[i, j]
    accel[j, n + p + pairs] = zb[j, i]
    accel[:, -1] = minv * pm - np.diagonal(zg)
    bufs, steps = _stages(L, state, lead, h, lambda rows: [
        [partial(np.sin, th, cs)]
        for th, cs in zip(rows[:, :2 * p], rows[:, state:state + 2 * p])])
    bufs[:, :, -1] = 1.0
    xs = bufs[:, 0, :state]
    x = xs[0]
    d = delta[i] - delta[j]
    x[:p] = d + np.pi / 2
    x[p:2 * p] = d
    x[2 * p:lead] = delta
    x[lead:] = omega
    _integrate(steps, xs[:, 2 * p:].reshape(2, 2, n), n_blocks, substeps,
               out)


@np.errstate(over="ignore", invalid="ignore")
def rk4_phasor(delta, omega, minv, damp, pm, emf, G, B, h, n_blocks,
               substeps, out):
    """:func:`rk4_swing` with the power in phasor form."""
    n = len(delta)
    scale = (minv * emf)[:, None] * emf[None, :]
    re_z, im_z = scale * G, scale * B
    Zr = np.empty((2 * n, 2 * n))
    Zr[:n, :n] = Zr[n:, n:] = re_z
    Zr[n:, :n] = im_z
    Zr[:n, n:] = -im_z
    zbuf = np.empty(3 * n)
    zbuf[:n] = -(damp * minv)
    # a stage row is nine blocks of n: the state [theta_a, theta_b, omega]
    # and the operand from omega on
    zu = zbuf[n:]
    bufs, steps = _stages(_A, 3, 2, h, lambda rows: [
        [partial(np.sin, th, cs), partial(Zr.dot, cs, zu),
         partial(np.multiply, v, zbuf, q)]
        for th, cs, v, q in zip(rows[:, :2 * n], rows[:, 3 * n:5 * n],
                                rows[:, 2 * n:5 * n], rows[:, 5 * n:8 * n])],
        (n,))
    bufs[:, :, 8] = pm * minv
    xs = bufs[:, 0, :3]
    x = xs[0]
    x[0] = delta + np.pi / 2
    x[1] = delta
    x[2] = omega
    _integrate(steps, xs[:, 1:], n_blocks, substeps, out)
