"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_smoke.py

Checks that each run prints every metric ``BENCHMARK.json`` names, with its
unit, that the outputs pass the benchmark's own checks, that tracing leaves
every verdict unchanged, and that each workload loads the layer it was
chosen for.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
PRINTED = ("setup_s", "throughput_per_s", "latency_p50_ms", "latency_tail_ms",
           "peak_rss_mb", "failed_frac", "oracle_agreement", "undetermined_frac",
           "decision_time_p50_s", "decision_time_max_s")
SEED = 7


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--size", "small"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result, proc.stdout


def _items(workload: str, trace: int) -> list:
    path = HERE / "out" / f"result-{workload}-small-seed{SEED}-trace{trace}.json"
    return [item["signature"] for item in
            json.loads(path.read_text(encoding="utf-8"))["items"]]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_smallest_size(workload):
    plain, text = _run(workload, 0)
    traced, _ = _run(workload, 1)

    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())
    for name in PRINTED:
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ \S+", text, re.M), name

    assert _items(workload, 0) == _items(workload, 1)

    layer = {name: m["value"] for name, m in traced["metrics"].items()}
    ms = {name: v for name, v in layer.items() if LAYER_UNITS[name] == "ms"}
    if workload == "assess-files":
        assert layer["core.rk4_swing_ms"] == 0.0
        assert layer["ingest.parse_ms"] > 0.0
    else:
        assert max(ms, key=ms.get) == "core.rk4_swing_ms"
        assert layer["ingest.parse_ms"] == 0.0
