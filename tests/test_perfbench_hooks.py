"""The benchmark's traced run still sees every stage it times.

``perfbench/tracing.py`` wraps pipeline functions by module attribute name.
A stage that is renamed, or that the pipeline stops calling through that
attribute, would silently drop out of the per-layer figures; this test runs
one event under the wrappers and checks that every span and counter fires.
"""

import importlib.util
import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import lyapstab.simulator as simulator
from lyapstab.cli import main
from lyapstab.ingest import write_traces
from lyapstab.network import FaultSpec, load_network_file

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# every span instrument() opens, and every counter its wrappers bump
SPANS = ("network.reduce", "simulator.equilibrium", "_core.rk4_swing",
         "ingest.parse", "ingest.align", "assess.run", "pairs.identify",
         "pairs.build", "swings.classify", "swings.distance", "swings.crest",
         "mle.fit", "assess.push", "assess.aggregate")
COUNTERS = ("core.rk4_steps", "core.machine_steps", "ingest.rows",
            "pairs.pairs", "swings.classify_samples", "swings.crest_needed",
            "swings.crest_smoothed", "mle.updates", "assess.pushes")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def simulate_and_assess(tmp_path, networks_dir):
    """The four-machine bus-6 event, 3 s: simulate, write, ``assess``."""
    model = load_network_file(networks_dir / "fourmachine.net")
    fault = FaultSpec(bus="6", t_fault=0.1, t_clear=0.25,
                      removed_branches=("T56B",))
    traces = simulator.simulate(model, fault, dt=1.0 / 120.0, horizon=3.0)
    path = tmp_path / "four.csv"
    write_traces(traces, path)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["assess", "--traces", str(path), "--fault-time", "0.1",
                     "--clear-time", "0.25"])
    return code, out.getvalue()


def test_traced_run_hits_every_hook(tmp_path, networks_dir):
    tracing = load_tracing()
    untraced = simulate_and_assess(tmp_path, networks_dir)

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = simulate_and_assess(tmp_path, networks_dir)

    calls = Counter()
    for rec in tracer.spans:
        calls[rec[tracing.NAME]] += rec[tracing.CALLS]
    assert sorted(calls) == sorted(SPANS)  # each span recorded a call
    assert set(COUNTERS) <= set(tracer.counts)
    assert all(count > 0 for count in tracer.counts.values()), tracer.counts
    assert traced == untraced
    assert untraced[0] in (0, 2)  # the event is decided within 3 s
