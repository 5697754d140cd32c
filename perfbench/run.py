"""lyapstab benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: ``sweep``, ``assess-files``, ``wide-grid`` (see
``perfbench/README.md``).  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` every item runs once
untraced and once traced, and the JSON holds the per-layer metrics.  The
lines before it print every metric by name and unit, and the environment.

Every reported time is scaled to a reference machine speed.  The host's
cores are shared, and its speed drifts by up to 2x over minutes.  The run
pins itself to one CPU, and a fixed calibration loop of the benchmark's own
(interpreter, small-array NumPy and memory work, like the program's) runs
between items; each item's wall time is multiplied by ``CAL_REF_S`` over the
median calibration time around it.  The raw wall-clock figures are printed
beside the scaled ones.

Each item's report is checked (parses, exit code matches the verdict, pair
statuses known, decision times in [0, t_max]).  A determinism guard stores
each item's verdicts and counts under ``perfbench/out/`` and fails the run
if a later run of the same seed, traced or not, answers differently.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # results, spans and the guard's state
SETUP_REPS = 5
# Calibration: what ``calibrate()`` takes at the reference speed (about the
# faster vCPU of the 2-vCPU Xeon VM of README.md), the share of the timed
# loop spent running it between items, and how far around an item its
# samples count.  One sample is
# noisy at the scale of milliseconds; the median of those within two seconds
# of an item still follows the drift that matters, over seconds to minutes.
CAL_REF_S = 0.0035
CAL_SHARE = 0.03
CAL_WINDOW_S = 2.0

# bounded in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("throughput_per_s", "items/s"),
              ("latency_p50_ms", "ms"), ("peak_rss_mb", "MB"))
# Printed with the end-to-end metrics but not bounded.  On the NumPy kernel
# a simulation workload completes about 30 items a run, so the tail is near
# p60 and swings with machine noise.  The verdict metrics repeat exactly for
# a seed (the guard checks that) but differ between seeds by design.
PRINTED = (("latency_tail_ms", "ms"), ("setup_wall_s", "s"),
           ("throughput_wall_per_s", "items/s"), ("latency_p50_wall_ms", "ms"),
           ("calibration_ms", "ms"), ("failed_frac", "ratio"),
           ("oracle_agreement", "ratio"), ("undetermined_frac", "ratio"),
           ("decision_time_p50_s", "s"), ("decision_time_max_s", "s"))
# per-layer metric -> span whose self time it reports (per traced item)
LAYER_SPANS = {
    "core.rk4_swing_ms": "_core.rk4_swing",
    "network.load_ms": "network.load",
    "network.reduce_ms": "network.reduce",
    "simulator.equilibrium_ms": "simulator.equilibrium",
    "simulator.simulate_self_ms": "simulator.simulate",
    "simulator.oracle_ms": "simulator.oracle",
    "ingest.parse_ms": "ingest.parse",
    "ingest.align_ms": "ingest.align",
    "pairs.identify_ms": "pairs.identify",
    "pairs.build_ms": "pairs.build",
    "swings.classify_ms": "swings.classify",
    "swings.distance_ms": "swings.distance",
    "swings.crest_ms": "swings.crest",
    "mle.fit_ms": "mle.fit",
    "assess.push_ms": "assess.push",
    "assess.aggregate_ms": "assess.aggregate",
    "assess.run_self_ms": "assess.run",
    "cli.main_self_ms": "cli.main",
}
# counted over the seed's fixed items, so they repeat exactly
LAYER_COUNTS = ("core.rk4_steps", "ingest.rows", "pairs.pairs", "pairs.skipped",
                "swings.classify_samples", "mle.updates", "assess.pushes")
LAYER_RATIOS = (("core.ns_per_machine_step", "ns"),
                ("ingest.parse_us_per_row", "us"),
                ("swings.crest_useful_ratio", "ratio"),
                ("trace.overhead_frac", "ratio"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "assess-files", "wide-grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure at least this long (whole items)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: one set-up and the fewest items (smoke test)")
    return p.parse_args(argv)


def digest(files) -> str:
    """SHA-256 over the named files' paths and contents."""
    h = hashlib.sha256()
    for path in files:
        if (path.is_file() and "__pycache__" not in path.parts
                and path.suffix not in (".so", ".pyd", ".o", ".pyc")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def source_files() -> list[Path]:
    """The package sources and build files."""
    return [ROOT / "setup.py", ROOT / "pyproject.toml"] + sorted(SRC.rglob("*"))


def build(source_sha: str) -> None:
    """Build the package's optional extension in place, once per source state."""
    stamp = OUT / "build.stamp"
    if not (ROOT / "setup.py").is_file() or (
            stamp.is_file() and stamp.read_text() == source_sha):
        return
    with open(OUT / "build.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
            stdout=log, stderr=subprocess.STDOUT, timeout=850)
    if proc.returncode != 0:
        raise SystemExit(f"build failed (exit {proc.returncode}); "
                         f"see {OUT / 'build.log'}")
    stamp.write_text(source_sha)


def import_seconds() -> float:
    """Time to import lyapstab, NumPy included, in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import lyapstab.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def environment(seed: int, source_sha: str) -> dict:
    import lyapstab
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"backend": lyapstab.backend_name(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "git_commit": commit, "source_sha256": source_sha}


def quantile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = pct / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


@functools.lru_cache(maxsize=None)
def _calibration_arrays():
    import numpy as np
    a = np.linspace(0.0, 1.0, 4)
    # a multiplicative hash spreads the indices over the array
    scattered = (np.arange(1 << 15, dtype=np.int64) * 2654435761) % (1 << 20)
    return a, np.outer(a, a), np.ones(1 << 20, dtype=np.float32), scattered


def calibrate() -> float:
    """Wall time (s) of a fixed mix of the kinds of work the program does.

    A Python loop of float arithmetic and dict stores, small-array NumPy
    calls (the swing equations' right-hand side for four machines) and reads
    scattered over a 4 MB array.  Timed in turn with a short simulation, a
    48-machine one and an ``assess`` event while the host's speed drifted,
    this mix followed all three with a log-log slope of 0.93-1.04.  The
    parts alone gave slopes from 0.79 to 1.35: the small-array part slowed
    more than the program did, and the other two less.
    """
    import numpy as np
    a, m, big, scattered = _calibration_arrays()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(20000):
            acc += i * 0.25
            table[i & 255] = acc
        for _ in range(200):
            c, s = np.cos(a), np.sin(a)
            a * (c * (m @ c) + s * (m @ s)) - 0.1 * a
        for _ in range(4):
            big[scattered].sum()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Timed calibration samples: the host's speed around an interval."""

    def __init__(self):
        self.times: list[float] = []
        self.secs: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            secs = calibrate()
            self.times.append(time.perf_counter())
            self.secs.append(secs)

    def keep_share(self, start: float) -> None:
        """Sample until ``CAL_SHARE`` of the time since ``start`` went to it."""
        while sum(self.secs) < CAL_SHARE * (time.perf_counter() - start):
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """``CAL_REF_S`` over the median sample within the window of [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + CAL_WINDOW_S)
        return CAL_REF_S / statistics.median(self.secs[lo:hi] or self.secs)


def pin_to_fastest_cpu() -> int:
    """Run on one CPU, the one the calibration finds fastest now.

    The host's vCPUs run at different speeds, up to 2x apart, as other
    machines load them; a process the scheduler moves between them mixes the
    speeds, and calibration samples and items then see different ones.
    """
    cpus = sorted(os.sched_getaffinity(0))

    def speed_on(cpu):
        os.sched_setaffinity(0, {cpu})
        calibrate()
        return statistics.median(calibrate() for _ in range(5))
    best = min(cpus, key=speed_on)
    os.sched_setaffinity(0, {best})
    return best


def run_item(workload, item, tracer):
    from workloads import Outcome
    try:
        return workload.run(item, tracer)
    except Exception as exc:  # an item that raises is a failed item
        traceback.print_exc(file=sys.stderr)
        return Outcome(item.label, getattr(item, "oracle", None),
                       error="".join(traceback.format_exception_only(exc)).strip())


def measure(workload, seconds: float, traced: bool):
    """Closed loop, one caller: items back to back until time is up.

    Calibration samples are taken before the first item, after the last,
    and between items to keep their share of the loop at ``CAL_SHARE``.
    """
    from tracing import NullTracer, Tracer, instrument
    null, tracer = NullTracer(), Tracer() if traced else None
    records, speed = [], Speed()
    speed.sample(3)
    start = time.perf_counter()
    for index, item in enumerate(workload.items()):
        if index >= workload.fixed and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        outcome = run_item(workload, item, null)
        t1 = time.perf_counter()
        rec = {"index": index, "t0": t0, "t1": t1, "latency": t1 - t0,
               "outcome": outcome}
        if traced:
            tracer.begin_item(index)
            with instrument(tracer):
                t0 = time.perf_counter()
                with tracer.span("item"):
                    rec["traced"] = run_item(workload, item, tracer)
                rec["traced_latency"] = time.perf_counter() - t0
            rec["counts"] = dict(tracer.counts)
        records.append(rec)
        speed.keep_share(start)
    elapsed = time.perf_counter() - start
    speed.sample(3)
    for rec in records:
        rec["scale"] = speed.scale(rec["t0"], rec["t1"])
    return records, elapsed, tracer, speed


def end_to_end_metrics(records: list, elapsed: float, setups: list, speed: Speed):
    """Time and memory metrics, and a note naming the tail percentile.

    Times are scaled to the reference speed; the ``*_wall_*`` ones are not.
    """
    lat = sorted(r["latency"] * r["scale"] * 1e3 for r in records)
    n = len(lat)
    tail_pct = max(50.0, 100.0 * (n - 10) / n)
    tail = quantile(lat, tail_pct)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "throughput_per_s": n * 1e3 / sum(lat),
        "latency_p50_ms": quantile(lat, 50.0),
        "latency_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_wall_s": statistics.median(w for _, w in setups),
        "throughput_wall_per_s": n / elapsed,
        "latency_p50_wall_ms": statistics.median(r["latency"] * 1e3 for r in records),
        "calibration_ms": statistics.median(speed.secs) * 1e3,
    }
    beyond = sum(v > tail for v in lat)
    return metrics, f"p{tail_pct:.1f} of {n} items, {beyond} beyond"


def verdict_metrics(fixed: list) -> dict:
    ok = [o for o in fixed if o.report is not None]
    decided = [o for o in ok if o.status in ("STABLE", "UNSTABLE")]
    times = sorted(o.decision_time for o in decided)
    nan = float("nan")
    return {
        "failed_frac": (len(fixed) - len(ok)) / len(fixed),
        "oracle_agreement": (sum(o.status == o.oracle for o in decided)
                             / len(decided)) if decided else nan,
        "undetermined_frac": sum(o.status == "UNDETERMINED" for o in ok) / len(fixed),
        "decision_time_p50_s": statistics.median(times) if times else nan,
        "decision_time_max_s": times[-1] if times else nan,
    }


def layer_metrics(records: list, fixed: int, tracer, speed: Speed) -> dict:
    """Per-layer metrics; times are scaled by the run's median calibration."""
    n = len(records)
    scale = CAL_REF_S / statistics.median(speed.secs)
    self_s = {k: v * scale for k, v in tracer.self_times().items()}
    out = {name: self_s.get(span, 0.0) * 1e3 / n
           for name, span in LAYER_SPANS.items()}
    total: dict[str, int] = {}
    for rec in records:
        for key, value in rec["counts"].items():
            total[key] = total.get(key, 0) + value
    for key in LAYER_COUNTS:
        out[key] = sum(rec["counts"].get(key, 0) for rec in records[:fixed])
    rk4_ns = self_s.get("_core.rk4_swing", 0.0) * 1e9
    parse_us = self_s.get("ingest.parse", 0.0) * 1e6
    out["core.ns_per_machine_step"] = (rk4_ns / total["core.machine_steps"]
                                        if total.get("core.machine_steps") else 0.0)
    out["ingest.parse_us_per_row"] = (parse_us / total["ingest.rows"]
                                      if total.get("ingest.rows") else 0.0)
    out["swings.crest_useful_ratio"] = (
        total["swings.crest_needed"] / total["swings.crest_smoothed"]
        if total.get("swings.crest_smoothed") else 0.0)
    out["trace.overhead_frac"] = (sum(r["traced_latency"] for r in records)
                                  / sum(r["latency"] for r in records) - 1.0)
    return out


def guard(records: list, traced: bool, state_path: Path) -> list[str]:
    """Compare each item with earlier runs of this seed and with its traced run."""
    stored = (json.loads(state_path.read_text(encoding="utf-8"))
              if state_path.is_file() else {})
    problems = []
    for rec in records:
        key = str(rec["index"])
        # normalise through JSON so stored and fresh entries compare alike
        entry = json.loads(json.dumps({"sig": rec["outcome"].signature()}))
        if traced:
            entry["counts"] = rec["counts"]
            if json.loads(json.dumps(rec["traced"].signature())) != entry["sig"]:
                problems.append(f"item {key}: traced run answered differently")
        old = stored.get(key, {})
        if "sig" in old and old["sig"] != entry["sig"]:
            problems.append(f"item {key}: verdicts differ from an earlier run")
        if "counts" in old and "counts" in entry and old["counts"] != entry["counts"]:
            problems.append(f"item {key}: counts differ from an earlier run")
        stored[key] = {**old, **entry}
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True), encoding="utf-8")
    os.replace(tmp, state_path)
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lyapstab").is_dir():
        print(f"error: no lyapstab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    source_sha = digest(source_files())
    build(source_sha)

    # one BLAS thread: a single caller, and bit-identical runs of one seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    env = environment(args.seed, source_sha)
    env["cpu_pinned"] = pin_to_fastest_cpu()
    small = args.size == "small"
    tag = f"{args.workload}-{args.size}-seed{args.seed}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups, speed = [], Speed()  # (scaled, wall) seconds of each set-up
        for _ in range(1 if small else SETUP_REPS):
            speed.sample(3)
            t0 = time.perf_counter()
            import_s = import_seconds()
            t1 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, small, workdir,
                                                ROOT / "networks")
            workload.setup()
            wall = import_s + time.perf_counter() - t1
            speed.sample(3)
            setups.append((wall * speed.scale(t0, time.perf_counter()), wall))
        records, elapsed, tracer, speed = measure(workload, args.seconds,
                                                  bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # the guard's state is only comparable for the same program and benchmark
    code_sha = digest(source_files() + sorted(HERE.glob("*.py")))[:16]
    problems = guard(records, bool(args.trace),
                     OUT / f"state-{tag}-{code_sha}.json")
    outcomes = [r["outcome"] for r in records]
    failed = sum(o.report is None for o in outcomes)
    units = dict(PRINTED)
    notes = {"oracle_agreement": f"over the first {workload.fixed} items"}
    if args.trace:
        metrics = layer_metrics(records, workload.fixed, tracer, speed)
        units.update({k: "ms" for k in LAYER_SPANS})
        units.update({k: "count" for k in LAYER_COUNTS})
        units.update(LAYER_RATIOS)
        tracer.write(OUT / f"spans-{tag}.jsonl")
    else:
        metrics, notes["latency_tail_ms"] = end_to_end_metrics(
            records, elapsed, setups, speed)
        units.update(END_TO_END)
    reported = [k for k in metrics if k not in dict(PRINTED)]
    metrics.update(verdict_metrics(outcomes[:workload.fixed]))

    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps({
        "environment": env, "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": problems,
        "items": [{"index": r["index"], "latency_s": r["latency"],
                   "scale": r["scale"],
                   "signature": r["outcome"].signature(),
                   "counts": r.get("counts")} for r in records],
    }, indent=1), encoding="utf-8")

    print(f"lyapstab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size} items={len(records)} "
          f"elapsed={elapsed:.2f}s")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name in metrics:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {metrics[name]:>14.6g} {units[name]}{note}")
    for problem in problems:
        print(f"  GUARD: {problem}")
    for o in outcomes:
        if o.error:
            print(f"  FAILED {o.label}: {o.error}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in reported}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
