"""Workload inputs and per-item execution for the lyapstab benchmark.

Every input is drawn from the seed; the library only ever sees the generated
networks, fault cases and trace files, through its public functions.

* ``sweep``: battery-family fault cases, the per-case calls of
  ``lyapstab sweep`` (load, simulate, oracle, align, assess).
* ``assess-files``: ``lyapstab assess`` run in-process on trace files that
  set-up simulated and wrote at 240/120/60 Hz, with and without an
  absolute-speed offset.
* ``wide-grid``: the sweep calls on seeded synthetic ring networks of
  12, 24 and 48 machines.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from lyapstab import (EventMeta, FaultSpec, GeneratorTrace, align,
                      load_network_file, run_assessment, simulate,
                      stability_oracle, write_traces)
from lyapstab import cli
from lyapstab.assess import PAIR_STATUSES, SKIPPED, AssessmentConfig
from lyapstab.network import Branch, Generator, Load, NetworkModel

RATE = 120.0
T_FAULT = 0.1
T_MAX = AssessmentConfig().t_max
EXIT_CODES = {"STABLE": 0, "UNSTABLE": 2, "UNDETERMINED": 3}

# The acceptance battery's families (tests/test_acceptance.py): network,
# damping override, faulted bus, opened branches, horizon, oracle window and
# the range its clearing times span.
FAMILIES = {
    "smib": ("smib.net", {"G1": 0.038}, "1", ("L2",), 12.0, 8.0, 0.15, 0.55),
    "two": ("twomachine.net", None, "3", (), 12.0, 8.0, 0.14, 0.34),
    "two-negD": ("twomachine.net", {"G1": -0.008, "G2": -0.008}, "3", (),
                 14.0, 10.0, 0.15, 0.20),
    "three-b8": ("threemachine.net", None, "8", ("L78",), 12.0, 8.0, 0.12, 0.40),
    "three-b5": ("threemachine.net", None, "5", ("L45",), 12.0, 8.0, 0.15, 0.35),
    "three-b6": ("threemachine.net", None, "6", ("L67",), 12.0, 8.0, 0.15, 0.35),
    "four-b1": ("fourmachine.net", None, "1", ("L15A",), 12.0, 8.0, 0.15, 0.40),
    "four-b6": ("fourmachine.net", None, "6", ("T56B",), 12.0, 8.0, 0.15, 0.35),
    "four-b7": ("fourmachine.net", None, "7", ("T67B",), 12.0, 8.0, 0.20, 0.30),
    "four-negD": ("fourmachine.net", {f"G{i}": -0.024 for i in range(1, 5)},
                  "6", ("T56B",), 16.0, 12.0, 0.12, 0.20),
    "chain": ("chain.net", None, "B", (), 12.0, 8.0, 21 / 120, 26 / 120),
}

RING_SIZES = (12, 24, 48)
RING_HORIZON, RING_WINDOW = 12.0, 8.0
RING_TC = (0.25, 0.65)

INPUT_RATES = (240, 120, 60)
# assess-files simulates its 240 Hz traces with one RK4 step per sample, a
# fifth of the default internal rate, so that one case of every family fits
# in set-up on the NumPy kernel.
INPUT_SUBSTEPS = 1


@dataclass(frozen=True)
class Case:
    label: str
    network: str
    damping: dict | None
    bus: str
    removed: tuple
    t_clear: float
    horizon: float
    window: float


@dataclass(frozen=True)
class Event:
    label: str
    traces: str
    meta: str
    speed_nominal: float
    oracle: str


@dataclass
class Outcome:
    """One item's result: the checked report and what the guard compares."""

    label: str
    oracle: str
    report: dict | None = None
    error: str | None = None

    @property
    def status(self) -> str | None:
        return self.report["system"]["status"] if self.report else None

    @property
    def decision_time(self) -> float | None:
        return self.report["system"]["decision_time_s"] if self.report else None

    def signature(self) -> list:
        """Everything two runs of one seed must reproduce exactly."""
        if self.report is None:
            return [self.label, self.oracle, None, self.error]
        pairs = [[p["severe"], p["least"], p["status"], p["pattern"], p["w"],
                  p["m_n"], p["decision_time_s"]] for p in self.report["pairs"]]
        return [self.label, self.oracle, self.status, self.decision_time, pairs]


def check_report(text: str, exit_code: int) -> tuple[dict | None, str | None]:
    """Parse a JSON report and check it against the exit code and the schema."""
    try:
        report = json.loads(text)
        status = report["system"]["status"]
        times = [report["system"]["decision_time_s"]]
        pairs = report["pairs"]
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"malformed report: {exc!r}"
    if EXIT_CODES.get(status) != exit_code:
        return None, f"exit code {exit_code} for system status {status!r}"
    for p in pairs:
        if p.get("status") not in PAIR_STATUSES:
            return None, f"unknown pair status {p.get('status')!r}"
        if p["status"] != SKIPPED:
            times.append(p.get("decision_time_s"))
    for t in times:
        if not (isinstance(t, (int, float)) and 0.0 <= t <= T_MAX):
            return None, f"decision time {t!r} outside [0, {T_MAX}]"
    return report, None


# ---------------------------------------------------------------------------
# network files
# ---------------------------------------------------------------------------

def write_network(model: NetworkModel, path: Path) -> None:
    """Emit ``model`` in the ``.net`` format ``load_network_file`` reads."""
    lines = ["[system]", f"base_mva = {model.base_mva!r}",
             f"frequency_hz = {model.frequency_hz!r}", "[buses]", *model.buses,
             "[branches]"]
    lines += [f"{b.branch_id} {b.from_bus} {b.to_bus} {b.r!r} {b.x!r}"
              for b in model.branches]
    lines.append("[generators]")
    lines += [f"{g.gen_id} {g.bus} {g.m!r} {g.d!r} {g.xd!r} {g.emf!r} "
              + ("slack" if g.pm is None else repr(g.pm))
              for g in model.generators]
    lines.append("[loads]")
    lines += [f"{ld.bus} {ld.g!r} {ld.b!r}" for ld in model.loads]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def chain_model() -> NetworkModel:
    """The battery's chain family: generator and motor around a stiff machine."""
    return NetworkModel(
        buses=("A", "B", "C"),
        branches=(Branch("AB", "A", "B", 0.0, 0.7),
                  Branch("BC", "B", "C", 0.0, 0.7)),
        generators=(
            Generator("G1", "B", 0.25, 0.30, 0.10, 1.05, None),
            Generator("G2", "A", 0.0159155, 0.012, 0.25, 1.05, 0.83),
            Generator("G3", "C", 0.0159155, 0.012, 0.25, 1.05, -0.77),
        ),
    )


def ring_model(n: int, rng: random.Random) -> NetworkModel:
    """n/4 hubs on a ring of double-circuit ties, 4 machines per hub.

    Each machine reaches its hub through a double-circuit radial; each hub
    carries a load 10 % above its machines' output, and G1 is the slack.
    """
    hubs = n // 4
    buses = [f"H{h}" for h in range(1, hubs + 1)] + [f"B{i}" for i in range(1, n + 1)]
    branches, generators, loads = [], [], []
    for h in range(1, hubs + 1):
        nxt = h % hubs + 1
        branches += [Branch(f"T{h}{c}", f"H{h}", f"H{nxt}", 0.01, 0.2) for c in "AB"]
        output = 0.0
        for i in range(4 * h - 3, 4 * h + 1):
            branches += [Branch(f"R{i}{c}", f"B{i}", f"H{h}", 0.005, 0.3)
                         for c in "AB"]
            pm = None if i == 1 else round(rng.uniform(0.9, 1.3), 3)
            generators.append(Generator(f"G{i}", f"B{i}", 0.034483, 0.083, 0.2,
                                        1.06, pm))
            output += 1.0 if pm is None else pm
        loads.append(Load(f"H{h}", round(1.1 * output, 4), -0.3))
    return NetworkModel(tuple(buses), tuple(branches), tuple(generators),
                        tuple(loads))


def _grid_time(rng: random.Random, lo: float, hi: float) -> float:
    """Clearing time uniform over the 120 Hz sample instants in [lo, hi]."""
    k = rng.randint(math.ceil(lo * RATE - 1e-9), math.floor(hi * RATE + 1e-9))
    return k / RATE


# ---------------------------------------------------------------------------
# per-item calls
# ---------------------------------------------------------------------------

def run_case(case: Case, tracer) -> Outcome:
    """The calls ``lyapstab sweep`` makes for one case."""
    with tracer.span("network.load"):
        model = load_network_file(case.network)
    if case.damping:
        model = model.with_damping(case.damping)
    fault = FaultSpec(bus=case.bus, t_fault=T_FAULT, t_clear=case.t_clear,
                      removed_branches=case.removed)
    with tracer.span("simulator.simulate"):
        traces = simulate(model, fault, dt=1.0 / RATE, horizon=case.horizon)
    with tracer.span("simulator.oracle"):
        oracle = stability_oracle(traces, window=case.window)
    meta = EventMeta(t_fault=T_FAULT, t_clear=case.t_clear,
                     faulted_element=case.bus)
    with tracer.span("ingest.align"):
        dataset = align(traces, meta, rate=RATE)
    with tracer.span("assess.run"):
        report = run_assessment(dataset, meta)
    tracer.counts["pairs.skipped"] += sum(v.status == SKIPPED for v in report.pairs)
    parsed, error = check_report(report.to_json(), report.exit_code)
    return Outcome(case.label, oracle, parsed, error)


def run_event(event: Event, tracer) -> Outcome:
    """``lyapstab assess`` on one trace file, in-process, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["assess", "--traces", event.traces, "--meta", event.meta,
            "--speed-nominal", repr(event.speed_nominal)]
    with redirect_stdout(out), redirect_stderr(err), tracer.span("cli.main"):
        code = cli.main(argv)
    if code == 1:
        return Outcome(event.label, event.oracle,
                       error=f"assess failed: {err.getvalue().strip()}")
    parsed, error = check_report(out.getvalue(), code)
    if parsed is not None:
        tracer.counts["pairs.skipped"] += sum(
            p["status"] == SKIPPED for p in parsed["pairs"])
    return Outcome(event.label, event.oracle, parsed, error)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up draws the inputs; ``items()`` yields them in run order.

    The first ``fixed`` items are the same on every run of a seed, however
    long it measures; verdict metrics and counts are taken over them.
    """

    run = staticmethod(run_case)

    def __init__(self, seed: int, small: bool, workdir: Path, networks: Path):
        self.seed = seed
        self.small = small
        self.workdir = workdir
        self.networks = networks

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{type(self).__name__}/{tag}/{self.seed}")

    def family_case(self, name: str, rng: random.Random) -> Case:
        """A battery-family case with its clearing time drawn from ``rng``."""
        net, damping, bus, removed, horizon, window, lo, hi = FAMILIES[name]
        netdir = self.workdir if net == "chain.net" else self.networks
        tc = _grid_time(rng, lo, hi)
        return Case(f"{name}@{tc:.4f}", str(netdir / net), damping, bus,
                    removed, tc, horizon, window)


class Sweep(Workload):
    def setup(self) -> None:
        write_network(chain_model(), self.workdir / "chain.net")
        self.fixed = 1 if self.small else 6

    def items(self):
        rng = self.rng("cases")
        while True:
            deck = sorted(FAMILIES)
            rng.shuffle(deck)
            for name in deck:
                yield self.family_case(name, rng)


class WideGrid(Workload):
    def setup(self) -> None:
        rng = self.rng("networks")
        self.paths = {}
        for n in RING_SIZES:
            path = self.workdir / f"ring{n}.net"
            write_network(ring_model(n, rng), path)
            self.paths[n] = str(path)
        self.fixed = 1 if self.small else 6

    def items(self):
        rng = self.rng("cases")
        while True:
            sizes = list(RING_SIZES)
            rng.shuffle(sizes)
            if self.small:
                sizes = [RING_SIZES[0]]
            for n in sizes:
                if rng.random() < 0.5:
                    h = rng.randint(1, n // 4)
                    bus, removed = f"H{h}", (f"T{h}A",)
                else:
                    i = rng.randint(1, n)
                    bus, removed = f"B{i}", (f"R{i}A",)
                tc = _grid_time(rng, *RING_TC)
                yield Case(f"ring{n}-{bus}@{tc:.4f}", self.paths[n], None, bus,
                           removed, tc, RING_HORIZON, RING_WINDOW)


class AssessFiles(Workload):
    run = staticmethod(run_event)

    def setup(self) -> None:
        """One case of every family, so each seed has the same family mix."""
        rng = self.rng("cases")
        write_network(chain_model(), self.workdir / "chain.net")
        names = sorted(FAMILIES)
        if self.small:
            names = [rng.choice(names)]
        self.events = []
        for c, name in enumerate(names):
            self.events += self._write_case(c, self.family_case(name, rng))
        self.fixed = len(self.events)

    def _write_case(self, c: int, case: Case) -> list[Event]:
        model = load_network_file(case.network)
        if case.damping:
            model = model.with_damping(case.damping)
        fault = FaultSpec(bus=case.bus, t_fault=T_FAULT, t_clear=case.t_clear,
                          removed_branches=case.removed)
        fine = simulate(model, fault, dt=1.0 / INPUT_RATES[0], horizon=case.horizon,
                        substeps=INPUT_SUBSTEPS)
        oracle = stability_oracle(fine, window=case.window)
        meta = self.workdir / f"case{c}.meta.json"
        meta.write_text(EventMeta(t_fault=T_FAULT, t_clear=case.t_clear,
                                  faulted_element=case.bus).to_json() + "\n",
                        encoding="utf-8")
        offset = 2.0 * math.pi * model.frequency_hz
        events = []
        for rate in INPUT_RATES:
            step = INPUT_RATES[0] // rate
            for nominal, kind in ((0.0, "dev"), (offset, "abs")):
                traces = [GeneratorTrace(gen_id=tr.gen_id, t0=tr.t0,
                                         dt=tr.dt * step,
                                         angles=tr.angles[::step],
                                         speeds=tr.speeds[::step] + nominal)
                          for tr in fine]
                path = self.workdir / f"case{c}_{rate}hz_{kind}.csv"
                write_traces(traces, path)
                events.append(Event(f"{case.label}/{path.name}", str(path),
                                    str(meta), nominal, oracle))
        return events

    def items(self):
        rng = self.rng("order")
        while True:
            order = list(self.events)
            rng.shuffle(order)
            yield from order


WORKLOADS = {"sweep": Sweep, "assess-files": AssessFiles, "wide-grid": WideGrid}
