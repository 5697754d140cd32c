"""The swing-equation kernel: fixed-step RK4 in NumPy, in two formulations.

:func:`rk4_swing` is the one entry point.  It integrates the classical
swing equations of the reduced network in the angle-difference form for up
to ``ANGLE_DIFFERENCE_MAX_N`` machines and in the phasor form above that;
the machine count alone picks the form (:func:`formulation`).  Both take
the same RK4 steps of the same equations and differ only in rounding.

NumPy call overhead, not arithmetic, dominates at the machine counts
simulated, so each RK4 step of either form is laid out to need as few
calls as possible.  The phasor form takes the four stages in two pairs of
five calls, 10 a step, with no product wider than the coupling itself;
the angle-difference form needs two calls a stage, 8 a step, but its one
product grows as ``n^4``.

Both forms keep each angle twice, ``theta_a = angle + pi/2`` and
``theta_b = angle``, so that one ``np.sin`` of ``[theta_a | theta_b]``
gives ``[cos | sin]`` of the angle.  Both end a step with a product that
writes the new state, and that product cannot write into its own input:
NumPy would copy the overlapping ``out``, which costs more than the
product itself at small ``n``.  So two stage buffers take turns: a step
that reads one writes the new state into the other, and the next step
reads that one.  A block of ``substeps`` steps that starts in buffer ``b``
ends in buffer ``(b + substeps) mod 2``, so with an odd ``substeps`` the
blocks alternate between the buffers as well, and no state is copied
back.  Each buffer has its own record ``[delta | omega]``, a ``(2, n)``
view of its state, and a block ends with one row assignment into ``out``
from the record of the buffer it ended in.

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

and ``P_i = minv_i * pe_i = Re(conj(u_i) * (Z u)_i)`` for ``Z`` = ``Y``
with its rows scaled by ``minv``.  Written over real blocks, for the rows
``[cos delta | sin delta]`` of any number of stages at once,

    [Re Zu | Im Zu] = [cos delta | sin delta] @ Zr.T,
    Zr = [[Re Z, -Im Z], [Im Z, Re Z]]

and ``P = cos(delta) * Re Zu + sin(delta) * Im Zu``.  ``Zr.T`` is formed
once per call.

*Stage pairs.*  With ``dm = damp minv`` and ``g = pm minv``, the slope of
``omega`` at stage ``s`` is ``k_s = g - P(delta_s) - dm omega_s``, and
RK4's stages are

    delta_1 = delta + h/2 omega      omega_1 = omega + h/2 k_0
    delta_2 = delta + h/2 omega_1    omega_2 = omega + h/2 k_1
    delta_3 = delta + h omega_2      omega_3 = omega + h k_2

An angle's slope is the speed, so stage 1's angles need no sine, stage 2's
need only stage 0's power and stage 3's only the power of stages 0 and 1.
So stages 0 and 1 share one ``np.sin``, one ``Zr.T`` product and one
``np.multiply`` for their power terms, and then so do stages 2 and 3.  A
pair's second stage needs ``dm`` times a speed that the pair has not
formed yet; expanded exactly, that is

    dm omega_1 = dm omega + h/2 (dm g - dm P(delta_0) - dm^2 omega)
    dm omega_3 = dm omega + h (dm g - dm P(delta_2) - dm^2 omega_2)

which is linear in the pair's first-stage terms, ``dm`` times each of them
and the constants.  A stage buffer is 36 blocks of ``n``, one number a
machine in each, and a pair owns 17 of them:

    blocks 0-3     [theta_a | theta_b] of the pair's two stages
    block  4       the first stage's speed
    blocks 5-8     [c | s] of both stages, c = cos delta, s = sin delta
    blocks 9-13    q = [-dm omega | c Re Zu | s Im Zu | c Re Zu | s Im Zu]
    blocks 14-16   r = dm q[0:3], the first stage's terms times dm

Stages 0 and 1 own blocks 0-16, with the step's state ``theta_a``,
``theta_b`` and ``omega`` in blocks 0, 1 and 4; the constants ``g`` and
``dm g`` are blocks 17 and 18; stages 2 and 3 own blocks 19-35.  A pair is
five calls:

- ``np.sin`` of blocks 0-3 writes blocks 5-8;
- one product of blocks 5-8, read as two rows ``[c | s]``, with ``Zr.T``
  writes the last four blocks of ``zbuf = [-dm | Re Zu | Im Zu | Re Zu |
  Im Zu]``, whose first is fixed;
- one ``np.multiply`` of blocks 4-8 with ``zbuf`` writes ``q``, and the
  damping term rides on the product that forms the power terms;
- one ``np.multiply`` of ``q[0:3]`` with ``[dm | dm | dm]`` writes ``r``;
- a stencil: one product of a constant scalar matrix with a range of
  blocks.  The first pair's, ``5 x 19``, reads blocks 0-18 and writes
  stages 2 and 3's angles and ``omega_2``, blocks 19-23.  The second
  pair's, ``5 x 36``, reads the whole buffer and writes the step's end and
  the next step's stage-1 angles, ``delta + h/2 omega`` of the new state,
  into the other buffer's blocks 0-4.

Every call reads and writes contiguous block ranges with ``out`` given,
and no call broadcasts, since a broadcast ``np.multiply`` costs about three
plain ones at these sizes.  ``_compose_stencils`` writes the RK4
recurrences above once, over polynomials in ``h``, at import; a call
evaluates both stencils with one product of ``[1, h, h^2, h^3]`` and their
coefficients.  Of the stencils' 95 and 180 entries, 57 % and 55 % are
zero.  A pair's ``8n^2`` multiply-adds in its ``Zr.T`` product and ``8n``
in its two multiplies are those of its two stages' power and damping; the
stencils make ``275n`` a step.

A machine with ``minv == 0`` has an all-zero column in ``Zr.T`` and zero
``dm``, ``g`` and ``dm g``, so its ``q`` and ``r`` entries are zero and the
stencils give it exactly its start speed: it never moves from rest.  Its
``delta`` is recorded from ``theta_b``, so it stays exact; ``theta_a``
only feeds ``np.sin``.

Against ``reference_rk4`` of the tests (60 blocks of 10 steps of
1/1200 s), the angles drift 6.8e-14, 1.2e-13 and 8.3e-13 rad at n = 6,
12 and 24, where the four stages taken one at a time drifted 9.2e-14,
9.6e-14 and 1.1e-12.  Against that one-stage-at-a-time form (16 calls a
step) in the same process, per 10 s kernel call at 120 Hz output and 3
steps a sample, median of 15 rounds of ``benchmarks/bench_kernel.py
--repeats 15 --against`` on one vCPU of a 2-vCPU Xeon with NumPy 2.4.6,
the time ratio was

    n        6      10     12     24     48
    ratio   0.66   0.69   0.68   0.68   0.71

and the paired form won all 15 rounds at every n.  Its per-call set-up
(``n_blocks = 0``) was 44-56 us at n = 6, 12 and 48, against 54-64 us.

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
state carries each pair angle twice, as ``theta_a`` and ``theta_b``, and
the slope of the whole state ``x = [theta_a | theta_b | delta | omega]``
(``2P + 2n``) is ``L`` times the operand:

        L = [  D    0    0   0 ]    theta_a
            [  D    0    0   0 ]    theta_b
            [  I    0    0   0 ]    delta
            [ -dm  -Zc  -Zs  g ]    omega

with ``dm = diag(damp minv)``, ``g = minv (pm - E^2 diag(G))``, and pair
``p``'s columns of ``Zc`` and ``Zs`` non-zero in rows ``i`` and ``j``:
``Zc_ip = minv_i E_i E_j G_ij``, ``Zc_jp = minv_j E_i E_j G_ji``,
``Zs_ip = minv_i E_i E_j B_ij`` and ``Zs_jp = -minv_j E_i E_j B_ji``.

Stage ``s`` owns one row, ``4P + 2n + 1`` numbers, of a ``(4, width)``
stage buffer,

    row = [ theta_a | theta_b | delta | omega | c | s | 1 ]

so ``np.sin`` of ``row[:2P]`` writes ``[c | s]``, and the operand starts
inside the state, at ``lead = 2P + n``.  Every RK4 update is ``x`` plus
``h`` times a weighted sum of the slopes so far, so it is one constant
matrix times the view of rows ``0 .. s``: ``I`` on row 0's state plus
``h a_r L`` on each row ``r``'s operand, with ``a`` row ``s`` of the
tableau ``((1/2,), (0, 1/2), (0, 0, 1), (1/6, 1/3, 1/3, 1/6))``.  For
``s < 3`` that stage product writes stage ``s + 1``'s state straight into
its row; for ``s = 3`` it is the whole step,
``x + h/6 (k_0 + 2 k_1 + 2 k_2 + k_3)``, written into the other buffer's
first row, with no slope buffer, no separate ``add`` and no weights
product.  ``_stages`` builds the buffers, the stage products and each
buffer's step.  A stage is that ``np.sin`` and the stage product: two
calls, 8 a step.  A restart (each ``simulate`` phase) derives the pair
angles afresh from ``delta``.

A machine with ``minv == 0`` has an all-zero row in ``L``, so its
``omega`` is exactly still.  Its ``delta`` is recorded from the ``delta``
block, which only ``omega`` moves, so it stays exact; the pair angles only
feed ``np.sin``.

Both forms
----------

Each call's cost is almost all NumPy's per-call overhead, so the loop takes
the cheapest path into the same C routines.  Every NumPy call of a step is
a ``functools.partial`` made once per kernel call, with all its arguments
bound and ``out`` given positionally, which skips keyword parsing.  The
products are bound ``ndarray.dot`` methods: ``np.dot`` first passes
through the ``__array_function__`` dispatcher, the method does not.  Each
form lays each buffer's step out as one flat list of these calls, and
``_integrate`` joins ``substeps`` alternating steps into one list, a
block, once for each buffer a block can start in; with an odd
``substeps`` the blocks take the two lists in turn.  One loop serves both
forms: it runs a block's calls in order and assigns the record view of
the buffer the block ended in into ``out``.  ``simulate`` makes one
kernel call a phase, three a run: at 45-100 us a call, the set-up is
under 1 % of a 12 s battery run at 2-4 machines.

The angle-difference form makes ``P`` sines where the phasor form makes
``n``, and its stage product has ``(2P + 2n)(s + 1)(4P + 2n + 1)``
entries, ``O(n^4)``, against the phasor form's ``4n^2`` coupling and
``275n`` stencil entries a step.  So the first wins only while the calls
it saves outweigh that.  The time of the angle-difference form over the
phasor form's, per 11.75 s kernel call at 120 Hz output and 3 steps a
sample (the post-fault call ``simulate`` makes for a 12 s run cleared at
0.25 s), median of 15 rounds (``benchmarks/bench_kernel.py --repeats 15``
prints this table), on one vCPU of a 2-vCPU Xeon with NumPy 2.4.6:

    n        2      3      4      5      6      8      10
    ratio   0.76   0.80   0.95   1.36   1.69   3.40   7.99

The angle-difference form won 12 of the 15 rounds at n = 4 and none at
n = 5, so ``ANGLE_DIFFERENCE_MAX_N`` is 4.  Each form wins on systems
that are simulated: the angle-difference form on the 2-4 machine networks
of the acceptance battery and ``sweep``, the phasor form on the 12-48
machine rings and anything paper-scale, where the angle-difference form's
stage matrices alone would take tens of megabytes.  Neither can serve the
other's range, so both stay.
"""

from functools import partial

import numpy as np

# The classical RK4 tableau: row s weights the slopes of stages 0 .. s into
# stage s + 1's state, and the last row gives the step's end.
_TABLEAU = np.array([[0.5, 0.0, 0.0, 0.0],
                     [0.0, 0.5, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]])


# The phasor form's stage buffer, 36 blocks of n: stages 0 and 1 own blocks
# 0-16, the constants g and dm g are blocks 17 and 18, and stages 2 and 3
# own the same 17 blocks from _SECOND on.
_SECOND = 19
_G, _DG = 17, 18
_BLOCKS = 36


def _compose_stencils():
    """Both phasor stencils' coefficients by power of h, ``(4, 5 * 19 +
    5 * 36)``: ``h^p`` times row p, summed over p, is the first stencil's
    rows and then the second's, flattened."""
    # block i as a polynomial in h: row p holds the coefficients of h^p
    block = np.eye(_BLOCKS)[:, None, :] * (np.arange(4) == 0)[:, None]
    theta_a, theta_b, omega, g, dg = block[[0, 1, 4, _G, _DG]]

    def h(poly):
        assert not poly[-1].any()
        return np.roll(poly, 1, axis=0)

    def slopes(p, c):
        """omega's slope at the pair of stages from block p, the second of
        which has the speed omega + c h (the first's slope)."""
        q, r = block[p + 9:p + 14], block[p + 14:p + 17]
        dm_first = dg + r[0] - r[1] - r[2]
        return (g + q[0] - q[1] - q[2],
                g - q[3] - q[4] + minus_dm_omega - c * h(dm_first))

    minus_dm_omega = block[9]  # -dm omega of the step's start
    k0, k1 = slopes(0, 0.5)
    omega1 = omega + 0.5 * h(k0)
    omega2 = omega + 0.5 * h(k1)
    first = np.stack([theta_a + 0.5 * h(omega1), theta_b + 0.5 * h(omega1),
                      theta_a + h(omega2), theta_b + h(omega2), omega2],
                     axis=1)
    k2, k3 = slopes(_SECOND, 1.0)
    omega2 = block[_SECOND + 4]  # from here on, the stored stage speed
    omega3 = omega + h(k2)
    d_theta = h(omega + 2.0 * omega1 + 2.0 * omega2 + omega3) / 6.0
    omega_end = omega + h(k0 + 2.0 * k1 + 2.0 * k2 + k3) / 6.0
    second = [theta_a + d_theta, theta_b + d_theta,
              theta_a + d_theta + 0.5 * h(omega_end),
              theta_b + d_theta + 0.5 * h(omega_end), omega_end]
    assert not first[..., _SECOND:].any()
    return np.concatenate((first[..., :_SECOND].reshape(4, -1),
                           np.stack(second, axis=1).reshape(4, -1)), axis=1)


_STENCILS = _compose_stencils()
_POWERS = np.arange(4.0)


# The most machines the angle-difference form runs: the measured crossover.
ANGLE_DIFFERENCE_MAX_N = 4


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


def _stages(slope, state, lead, h, calls):
    """The two stage buffers, ``(2, 4, width)``, and each buffer's step, one
    flat list of calls, for rows ``[state | ...]`` whose operand starts at
    ``lead`` and whose slope is ``slope @ operand``.  Stage s of buffer b is
    row 4b + s.  ``calls`` maps the rows, ``(8, width)``, to each row's list
    of the calls that fill its operand; the stage product follows them,
    reading rows 0 .. s of its buffer and writing the next row's state,
    which after the last stage of one buffer is the first row of the
    other."""
    width = lead + slope.shape[1]
    # stage s: I on the state of row 0 plus h a_r slope on each row r's operand
    mats = np.zeros((4, state, 4 * width))
    np.multiply((h * _TABLEAU)[:, None, :, None], slope[:, None, :],
                mats.reshape(4, state, 4, width)[..., lead:])
    mats[:, :, :state] += np.eye(state)
    dots = [mats[s, :, :(s + 1) * width].copy().dot for s in range(4)]
    bufs = np.empty((2, 4, width))
    heads = list(bufs.reshape(8, width)[:, :state])
    reads = bufs.reshape(2, 4 * width)
    stages = calls(bufs.reshape(8, width))
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
    """:func:`rk4_swing` with the power in phasor form, two stages at a
    time."""
    n = len(delta)
    scale = (minv * emf)[:, None] * emf[None, :]
    re_z, im_z = scale * G, scale * B
    zr_t = np.empty((2 * n, 2 * n))  # Zr transposed, for rows [c | s]
    zr_t[:n, :n] = zr_t[n:, n:] = re_z.T
    zr_t[:n, n:] = im_z.T
    zr_t[n:, :n] = -im_z.T
    dm = damp * minv
    zbuf = np.empty((5, n))  # [-dm | Re Zu | Im Zu] of a pair's two stages
    zbuf[0] = -dm
    zu = zbuf[1:].reshape(2, 2 * n)
    dm3 = np.stack((dm, dm, dm))
    stencils = np.power(h, _POWERS) @ _STENCILS
    first = stencils[:5 * _SECOND].reshape(5, _SECOND)
    second = stencils[5 * _SECOND:].reshape(5, _BLOCKS)
    bufs = np.empty((2, _BLOCKS, n))
    bufs[:, _G] = pm * minv
    bufs[:, _DG] = dm * bufs[0, _G]
    steps = []
    for buf, other in zip(bufs, bufs[::-1]):
        steps.append([])
        for p, stencil in (
                (0, partial(first.dot, buf[:_SECOND],
                            buf[_SECOND:_SECOND + 5])),
                (_SECOND, partial(second.dot, buf, other[:5]))):
            cs = buf[p + 5:p + 9]
            steps[-1] += [
                partial(np.sin, buf[p:p + 4], cs),
                partial(cs.reshape(2, 2 * n).dot, zr_t, zu),
                partial(np.multiply, buf[p + 4:p + 9], zbuf,
                        buf[p + 9:p + 14]),
                partial(np.multiply, buf[p + 9:p + 12], dm3,
                        buf[p + 14:p + 17]),
                stencil]
    x = bufs[0]
    x[0] = delta + np.pi / 2
    x[1] = delta
    x[2:4] = x[:2] + (0.5 * h) * omega
    x[4] = omega
    # each buffer's record [delta | omega] is its blocks 1 and 4
    _integrate(steps, bufs[:, 1:5:3], n_blocks, substeps, out)
