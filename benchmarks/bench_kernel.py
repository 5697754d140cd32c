"""Benchmark: the swing kernel.

Times the dominant workload (fixed-step RK4 over the reduced network) for a
few system sizes and horizons, at the steps a sample of 120 Hz output that
simulate() takes by default (3 at its 360 Hz internal rate) and at one step
a sample of 240 Hz output (as the ``assess-files`` benchmark workload
simulates its input traces), then a full simulate() call on the
shipped four-machine fixture.  The sizes include n = 3 to 6, on both sides
of the crossover between the kernel's two formulations, and one-second
calls at n = 2 to 6, the chunk simulate() hands the kernel, where the
per-call set-up shows.  They are timed in rounds: each round runs every
size once, starting one size later than the round before, so drift in the
host's speed spreads over all sizes instead of reading as a size effect.
Prints the formulation ``rk4_swing`` picks for each size, and the best and
the median round per size.  Then it times both formulations on one-second
calls at n = 2 to 10, in rounds the same way, and prints the crossover
table: per size, the median, quartiles and win count of the per-round
ratio, the angle-difference form's time over the phasor form's.  Run from
the repository root:

    python3 benchmarks/bench_kernel.py [--repeats ROUNDS] [--against FILE]

``--against FILE`` loads a second kernel from a copy of ``_swing_numpy.py``
(say, the one of an earlier commit) and times both in the same process.
That kernel must take the same arguments as this one, a single
``(n_blocks, 2, n)`` output array last; across a change of signature,
compare ``simulate()`` instead.  In every round each size runs both
kernels back to back, the order swapping from round to round.  Per size
it prints both kernels' best and the median, quartiles and win count of
the per-round ratio, this kernel's time over the other's.  The host's speed drifts between processes far more
than within one pair of back-to-back runs, so only these ratios can carry
a per-size comparison.
"""

import argparse
import importlib.util
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lyapstab._swing_numpy import (formulation,  # noqa: E402
                                   rk4_angle_difference, rk4_phasor,
                                   rk4_swing)
from lyapstab.network import FaultSpec, load_network_file  # noqa: E402
from lyapstab.simulator import DEFAULT_INTERNAL_RATE, simulate  # noqa: E402

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def synthetic_system(n, seed=0):
    rng = np.random.default_rng(seed)
    delta = rng.normal(0.0, 0.3, n)
    omega = np.zeros(n)
    minv = 1.0 / rng.uniform(0.01, 0.1, n)
    damp = rng.uniform(0.01, 0.08, n)
    pm = rng.normal(0.0, 0.4, n)
    emf = rng.uniform(1.0, 1.1, n)
    b = rng.uniform(0.5, 2.0, (n, n))
    B = -(b + b.T) / 2.0
    np.fill_diagonal(B, -B.sum(axis=1) + np.diag(B))
    G = np.zeros((n, n))
    return delta, omega, minv, damp, pm, emf, G, B


# simulate()'s default RK4 steps a sample of 120 Hz output
STEPS = math.ceil(DEFAULT_INTERNAL_RATE / 120)
# (machines, seconds of output, output rate in Hz, RK4 steps a sample)
KERNEL_CASES = ((2, 10.0, 120, STEPS), (3, 10.0, 120, STEPS),
                (4, 10.0, 120, STEPS), (5, 10.0, 120, STEPS),
                (6, 10.0, 120, STEPS), (10, 10.0, 120, STEPS),
                (12, 10.0, 120, STEPS),
                (24, 10.0, 120, STEPS), (48, 10.0, 120, STEPS),
                (4, 60.0, 120, STEPS), (4, 50.0, 240, 1)) + tuple(
                    (n, 1.0, 120, STEPS) for n in range(2, 7))
# one-second calls, on both sides of the crossover
FORM_CASES = tuple((n, 1.0, 120, STEPS) for n in (2, 3, 4, 5, 6, 8, 10))


def load_kernel(path):
    """``rk4_swing`` of the kernel module at ``path``."""
    spec = importlib.util.spec_from_file_location("other_kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.rk4_swing


def time_kernel(kernel, n, seconds, rate, substeps):
    """Seconds for one kernel call: n machines, ``substeps`` RK4 steps per
    sample of ``rate`` Hz output."""
    h = 1.0 / (rate * substeps)
    n_blocks = int(seconds * rate)
    delta, omega, minv, damp, pm, emf, G, B = synthetic_system(n)
    out = np.empty((n_blocks, 2, n))
    start = time.perf_counter()
    kernel(delta, omega, minv, damp, pm, emf, G, B, h, n_blocks, substeps, out)
    return time.perf_counter() - start


def time_kernel_rounds(rounds, kernels, cases=KERNEL_CASES):
    """Per case, each kernel's time in each round; round r starts at case r
    and runs the kernels in reversed order when r is odd."""
    times = {case: [[] for _ in kernels] for case in cases}
    for r in range(rounds):
        k = r % len(cases)
        order = list(enumerate(kernels))[::-1 if r % 2 else 1]
        for case in cases[k:] + cases[:k]:
            for i, kernel in order:
                times[case][i].append(time_kernel(kernel, *case))
    return times


def ratio_columns(t, other):
    """The median and quartiles of the per-round ratio ``t / other``, and
    the rounds in which ``t`` was faster."""
    ratio = np.array(t) / np.array(other)
    q1, med, q3 = np.percentile(ratio, (25, 50, 75))
    return (f"{med:>14.3f} ({q1:.3f}-{q3:.3f})"
            f"{(ratio < 1).sum():>6}/{len(ratio)}")


def time_simulate(repeats):
    model = load_network_file(NETWORKS / "fourmachine.net")
    fault = FaultSpec(bus="6", t_fault=0.1, t_clear=0.2,
                      removed_branches=("T56B",))
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        simulate(model, fault, dt=1.0 / 120.0, horizon=12.0)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="rounds over all kernel sizes; simulate() repeats")
    parser.add_argument("--against", metavar="FILE",
                        help="a second kernel module to time in alternation")
    args = parser.parse_args()

    kernels = (rk4_swing,)
    if args.against:
        kernels += (load_kernel(args.against),)
        print(f"{'workload':<32}{'form':<18}{'best':>12}{'other best':>12}"
              f"{'ratio median (quartiles)':>30}{'faster':>9}")
    else:
        print(f"{'workload':<32}{'form':<18}{'best':>12}{'median':>12}")
    for (n, seconds, rate, substeps), (t, *other) in time_kernel_rounds(
            args.repeats, kernels).items():
        label = f"rk4 n={n}, {seconds:.0f} s, {rate} Hz x {substeps}"
        form = formulation(n).__name__.removeprefix("rk4_")
        line = f"{label:<32}{form:<18}{min(t) * 1e3:>10.1f}ms"
        if other:
            line += f"{min(other[0]) * 1e3:>10.1f}ms{ratio_columns(t, *other)}"
        else:
            line += f"{np.median(t) * 1e3:>10.1f}ms"
        print(line)

    print()
    print(f"{'crossover, 1 s at 120 Hz x 3':<32}{'angle-difference / phasor':>30}"
          f"{'faster':>9}")
    for (n, *_), times in time_kernel_rounds(
            args.repeats, (rk4_angle_difference, rk4_phasor),
            FORM_CASES).items():
        print(f"{f'n={n}':<32}{ratio_columns(*times)}")

    print()
    t = time_simulate(args.repeats)
    print(f"simulate() four-machine 12 s: {t * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
