"""Benchmark: the swing kernel.

Times the dominant workload (fixed-step RK4 over the reduced network) for a
few system sizes and horizons, then a full simulate() call on the shipped
four-machine fixture.  The sizes are timed in rounds: each round runs every
size once, starting one size later than the round before, so drift in the
host's speed spreads over all sizes instead of reading as a size effect.
Prints the best and the median round per size.  Run from the repository
root:

    python3 benchmarks/bench_kernel.py [--repeats ROUNDS]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lyapstab._swing_numpy import rk4_swing  # noqa: E402
from lyapstab.network import FaultSpec, load_network_file  # noqa: E402
from lyapstab.simulator import simulate  # noqa: E402

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


KERNEL_CASES = ((2, 10.0), (4, 10.0), (10, 10.0), (12, 10.0), (48, 10.0),
                (4, 60.0))  # (machines, seconds of 120 Hz output)


def time_kernel(n, seconds):
    """Seconds for one rk4_swing call: n machines, 10 substeps per sample."""
    h = 1.0 / 1200.0
    n_blocks = int(seconds * 120)
    delta, omega, minv, damp, pm, emf, G, B = synthetic_system(n)
    out_d = np.empty((n_blocks, n))
    out_w = np.empty((n_blocks, n))
    start = time.perf_counter()
    rk4_swing(delta, omega, minv, damp, pm, emf, G, B, h, n_blocks, 10,
              out_d, out_w)
    return time.perf_counter() - start


def time_kernel_rounds(rounds):
    """Per case, its time in each round; round r starts at case r."""
    times = {case: [] for case in KERNEL_CASES}
    for r in range(rounds):
        k = r % len(KERNEL_CASES)
        for case in KERNEL_CASES[k:] + KERNEL_CASES[:k]:
            times[case].append(time_kernel(*case))
    return times


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
    args = parser.parse_args()

    print(f"{'workload':<28}{'best':>12}{'median':>12}")
    for (n, seconds), t in time_kernel_rounds(args.repeats).items():
        label = f"rk4 n={n}, {seconds:.0f} s horizon"
        print(f"{label:<28}{min(t) * 1e3:>10.1f}ms{np.median(t) * 1e3:>10.1f}ms")

    print()
    t = time_simulate(args.repeats)
    print(f"simulate() four-machine 12 s: {t * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
