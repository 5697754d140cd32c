"""Network description, config-file loading, and reduction to machine nodes.

Units are per-unit on the system base throughout, except inertia ``m``
(s^2/rad * p.u.) and angles (rad).  An "infinite bus" is represented as a
regular machine with infinite inertia: it never moves, so the integrator
needs no special case for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NetworkDataError, TopologyError, utf8_fault

PRE_FAULT = "pre_fault"
FAULT_ON = "fault_on"
POST_FAULT = "post_fault"
TOPOLOGIES = (PRE_FAULT, FAULT_ON, POST_FAULT)

# A bolted three-phase fault is modelled as this shunt conductance (p.u.) at
# the faulted bus, which keeps the reduction non-singular.
FAULT_SHUNT_G = 1.0e6

INFINITE_BUS_ID = "INF"


@dataclass(frozen=True)
class Branch:
    branch_id: str
    from_bus: str
    to_bus: str
    r: float  # series resistance, p.u.
    x: float  # series reactance, p.u.


@dataclass(frozen=True)
class Generator:
    gen_id: str
    bus: str
    m: float          # inertia, s^2/rad * p.u.; math.inf marks an infinite bus
    d: float          # damping, p.u. per rad/s; may be <= 0 for test systems
    xd: float         # transient reactance x'd, p.u.
    emf: float        # internal EMF magnitude, p.u.
    pm: float | None  # mechanical power, p.u.; None = solved at equilibrium


@dataclass(frozen=True)
class Load:
    bus: str
    g: float  # shunt conductance, p.u.
    b: float  # shunt susceptance, p.u.


@dataclass(frozen=True)
class NetworkModel:
    buses: tuple[str, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    loads: tuple[Load, ...] = ()
    base_mva: float = 100.0
    frequency_hz: float = 60.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not (self.base_mva > 0.0 and self.frequency_hz > 0.0):
            raise NetworkDataError("base_mva and frequency_hz must be > 0")
        bus_set = set(self.buses)
        if len(bus_set) != len(self.buses):
            dup = next(b for i, b in enumerate(self.buses) if b in self.buses[:i])
            raise NetworkDataError(f"duplicate bus id {dup!r}")
        seen = set()
        for br in self.branches:
            if br.branch_id in seen:
                raise NetworkDataError(f"duplicate branch id {br.branch_id!r}")
            seen.add(br.branch_id)
            if math.hypot(br.r, br.x) <= 0.0:
                raise NetworkDataError(f"branch {br.branch_id!r} has zero impedance")
            if br.r < 0.0:
                raise NetworkDataError(f"branch {br.branch_id!r} needs r >= 0")
            for bus in (br.from_bus, br.to_bus):
                if bus not in bus_set:
                    raise NetworkDataError(
                        f"branch {br.branch_id!r} references unknown bus {bus!r}")
        gen_ids = set()
        for gen in self.generators:
            if gen.gen_id in gen_ids:
                raise NetworkDataError(f"duplicate generator id {gen.gen_id!r}")
            gen_ids.add(gen.gen_id)
            if gen.bus not in bus_set:
                raise NetworkDataError(
                    f"generator {gen.gen_id!r} at unknown bus {gen.bus!r}")
            if not gen.m > 0.0:
                raise NetworkDataError(f"generator {gen.gen_id!r} needs m > 0")
            if gen.xd <= 0.0:
                raise NetworkDataError(f"generator {gen.gen_id!r} needs xd > 0")
            if gen.emf <= 0.0:
                raise NetworkDataError(f"generator {gen.gen_id!r} needs emf > 0")
        for load in self.loads:
            if load.bus not in bus_set:
                raise NetworkDataError(f"load at unknown bus {load.bus!r}")
        if not self.generators:
            raise NetworkDataError("model has no generators")
        if len(self.generators) < 2 and not any(
                math.isinf(g.m) for g in self.generators):
            raise NetworkDataError(
                "a single machine is only allowed against an infinite bus")
        slacks = [g.gen_id for g in self.generators if g.pm is None]
        if len(slacks) != 1:
            raise NetworkDataError(
                "exactly one generator must have its mechanical power left to "
                f"the equilibrium solve (found {len(slacks)}: {slacks})")

    @property
    def gen_ids(self) -> tuple[str, ...]:
        return tuple(g.gen_id for g in self.generators)

    @property
    def slack_index(self) -> int:
        return next(i for i, g in enumerate(self.generators) if g.pm is None)

    def with_damping(self, damping: dict[str, float]) -> "NetworkModel":
        """Copy of the model with per-generator damping overridden."""
        gens = tuple(
            replace(g, d=damping.get(g.gen_id, g.d)) for g in self.generators)
        return replace(self, generators=gens)

    def branch(self, branch_id: str) -> Branch:
        for br in self.branches:
            if br.branch_id == branch_id:
                return br
        raise NetworkDataError(f"unknown branch id {branch_id!r}")


@dataclass(frozen=True)
class FaultSpec:
    """A three-phase fault at one bus, cleared by removing zero or more branches."""

    bus: str
    t_fault: float
    t_clear: float
    removed_branches: tuple[str, ...] = ()

    def validate(self, model: NetworkModel) -> None:
        if self.t_fault < 0.0 or self.t_clear < self.t_fault:
            raise NetworkDataError(
                f"need t_clear >= t_fault >= 0, got ({self.t_fault}, {self.t_clear})")
        if self.bus not in model.buses:
            raise NetworkDataError(f"faulted bus {self.bus!r} not in model")
        for bid in self.removed_branches:
            model.branch(bid)
        _check_connected(model, self.removed_branches)


def _check_connected(model: NetworkModel, removed: tuple[str, ...]) -> None:
    """Post-fault network must still connect every generator bus."""
    removed_set = set(removed)
    parent = {bus: bus for bus in model.buses}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for br in model.branches:
        if br.branch_id in removed_set:
            continue
        ra, rb = find(br.from_bus), find(br.to_bus)
        if ra != rb:
            parent[ra] = rb
    roots = {find(g.bus) for g in model.generators}
    if len(roots) > 1:
        raise TopologyError(
            "post-fault network splits the generator buses into "
            f"{len(roots)} islands (removed: {sorted(removed_set)})")


@dataclass
class ReducedSystem:
    """Admittance of the network reduced to the machine internal nodes.

    ``G + jB`` is the reduced bus admittance matrix; machine parameter vectors
    are carried along so one object feeds the integrator directly.
    """

    gen_ids: tuple[str, ...]
    G: np.ndarray
    B: np.ndarray
    m: np.ndarray
    d: np.ndarray
    emf: np.ndarray
    pm: np.ndarray  # slack entry is NaN until the equilibrium solve fills it

    @property
    def n(self) -> int:
        return len(self.gen_ids)


def _assemble_full_admittance(model: NetworkModel, topology: str,
                              fault: FaultSpec | None) -> np.ndarray:
    """Complex admittance over [machine internal nodes | network buses]."""
    n_gen = len(model.generators)
    bus_index = {bus: n_gen + i for i, bus in enumerate(model.buses)}
    n = n_gen + len(model.buses)
    Y = np.zeros((n, n), dtype=complex)

    def add_series(a: int, b: int, y: complex) -> None:
        Y[a, a] += y
        Y[b, b] += y
        Y[a, b] -= y
        Y[b, a] -= y

    removed = set()
    if topology == POST_FAULT and fault is not None:
        removed = set(fault.removed_branches)
    for br in model.branches:
        if br.branch_id in removed:
            continue
        add_series(bus_index[br.from_bus], bus_index[br.to_bus],
                   1.0 / complex(br.r, br.x))
    for i, gen in enumerate(model.generators):
        add_series(i, bus_index[gen.bus], 1.0 / complex(0.0, gen.xd))
    for load in model.loads:
        Y[bus_index[load.bus], bus_index[load.bus]] += complex(load.g, load.b)
    if topology == FAULT_ON:
        if fault is None:
            raise NetworkDataError("fault-on topology needs a FaultSpec")
        Y[bus_index[fault.bus], bus_index[fault.bus]] += FAULT_SHUNT_G
    return Y


def reduce_network(model: NetworkModel, topology: str,
                   fault: FaultSpec | None = None) -> ReducedSystem:
    """Eliminate all network buses, keeping the machine internal nodes.

    Standard Schur complement ``Ygg - Ygb Ybb^{-1} Ybg``.  Raises
    :class:`TopologyError` when the bus block is singular (an island with no
    path to any machine).
    """
    if topology not in TOPOLOGIES:
        raise NetworkDataError(f"unknown topology {topology!r}")
    if topology != PRE_FAULT and fault is None:
        raise NetworkDataError(f"{topology} reduction needs a FaultSpec")
    n_gen = len(model.generators)
    Y = _assemble_full_admittance(model, topology, fault)
    Ygg = Y[:n_gen, :n_gen]
    Ygb = Y[:n_gen, n_gen:]
    Ybb = Y[n_gen:, n_gen:]
    try:
        Yred = Ygg - Ygb @ np.linalg.solve(Ybb, Ygb.T)
    except np.linalg.LinAlgError as exc:
        raise TopologyError(f"singular bus admittance block ({topology})") from exc
    if not np.isfinite(Yred).all():
        raise TopologyError(f"non-finite reduced admittance ({topology})")
    asym = np.abs(Yred - Yred.T).max()
    scale = max(np.abs(Yred).max(), 1.0)
    if asym > 1e-9 * scale:
        raise TopologyError(f"reduced admittance asymmetric by {asym:.3e}")

    gens = model.generators
    return ReducedSystem(
        gen_ids=model.gen_ids,
        G=np.ascontiguousarray(Yred.real),
        B=np.ascontiguousarray(Yred.imag),
        m=np.array([g.m for g in gens]),
        d=np.array([g.d for g in gens]),
        emf=np.array([g.emf for g in gens]),
        pm=np.array([math.nan if g.pm is None else g.pm for g in gens]),
    )


# ---------------------------------------------------------------------------
# Config file loading
# ---------------------------------------------------------------------------
#
# The network file is a line-oriented UTF-8 text format: '#' starts a
# comment, blank lines are ignored, and '[section]' headers introduce
# whitespace-separated tables.  Every number must be finite.  Sections:
#
#   [system]       key = value pairs: base_mva, frequency_hz
#   [buses]        one bus id per line
#   [branches]     id  from_bus  to_bus  r_pu  x_pu
#   [generators]   id  bus  m  d  xd  emf  pm     (pm may be the word 'slack')
#   [infinite_bus] bus  emf  xs                   (at most one line)
#   [loads]        bus  g_pu  b_pu
#
# See networks/*.net for annotated examples.

SECTIONS = ("system", "buses", "branches", "generators", "infinite_bus", "loads")


def load_network_file(path) -> NetworkModel:
    """Parse a network description file into a validated :class:`NetworkModel`.

    A fault in one row (encoding, unknown section, field count, a number that
    is missing or not finite) raises :class:`NetworkDataError` naming
    ``path:line``; a fault of the model as a whole names ``path``.
    """
    sections: dict[str, list[tuple[int, list[str]]]] = {s: [] for s in SECTIONS}
    current: str | None = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fault = utf8_fault(raw)
            if fault:
                raise NetworkDataError(f"{path}:{lineno}: {fault}")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                if current not in sections:
                    raise NetworkDataError(
                        f"{path}:{lineno}: unknown section [{current}]; "
                        f"expected one of {', '.join(SECTIONS)}")
                continue
            if current is None:
                raise NetworkDataError(
                    f"{path}:{lineno}: data before any [section] header")
            sections[current].append((lineno, line.split()))

    def fval(tok: str, lineno: int) -> float:
        try:
            x = float(tok)
        except ValueError:
            raise NetworkDataError(f"{path}:{lineno}: not a number: {tok!r}") from None
        if not math.isfinite(x):
            raise NetworkDataError(f"{path}:{lineno}: not a finite number: {tok!r}")
        return x

    base_mva, freq = 100.0, 60.0
    for lineno, toks in sections["system"]:
        joined = " ".join(toks)
        if "=" not in joined:
            raise NetworkDataError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in joined.split("=", 1))
        if key == "base_mva":
            base_mva = fval(val, lineno)
        elif key == "frequency_hz":
            freq = fval(val, lineno)
        else:
            raise NetworkDataError(f"{path}:{lineno}: unknown system key {key!r}")

    buses = []
    for lineno, toks in sections["buses"]:
        if len(toks) != 1:
            raise NetworkDataError(f"{path}:{lineno}: one bus id per line")
        buses.append(toks[0])

    branches = []
    for lineno, toks in sections["branches"]:
        if len(toks) != 5:
            raise NetworkDataError(
                f"{path}:{lineno}: branch rows need: id from to r_pu x_pu")
        branches.append(Branch(toks[0], toks[1], toks[2],
                               fval(toks[3], lineno), fval(toks[4], lineno)))

    generators = []
    for lineno, toks in sections["generators"]:
        if len(toks) != 7:
            raise NetworkDataError(
                f"{path}:{lineno}: generator rows need: id bus m d xd emf pm")
        pm = None if toks[6].lower() == "slack" else fval(toks[6], lineno)
        generators.append(Generator(toks[0], toks[1], fval(toks[2], lineno),
                                    fval(toks[3], lineno), fval(toks[4], lineno),
                                    fval(toks[5], lineno), pm))

    inf_rows = sections["infinite_bus"]
    if len(inf_rows) > 1:
        raise NetworkDataError(f"{path}:{inf_rows[1][0]}: at most one infinite bus")
    for lineno, toks in inf_rows:
        if len(toks) != 3:
            raise NetworkDataError(
                f"{path}:{lineno}: infinite_bus rows need: bus emf xs")
        generators.append(Generator(INFINITE_BUS_ID, toks[0], math.inf, 0.0,
                                    fval(toks[2], lineno), fval(toks[1], lineno),
                                    None))

    loads = []
    for lineno, toks in sections["loads"]:
        if len(toks) != 3:
            raise NetworkDataError(f"{path}:{lineno}: load rows need: bus g_pu b_pu")
        loads.append(Load(toks[0], fval(toks[1], lineno), fval(toks[2], lineno)))

    try:
        return NetworkModel(buses=tuple(buses), branches=tuple(branches),
                            generators=tuple(generators), loads=tuple(loads),
                            base_mva=base_mva, frequency_hz=freq)
    except NetworkDataError as exc:
        raise NetworkDataError(f"{path}: {exc}") from None
