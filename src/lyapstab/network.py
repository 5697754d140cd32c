"""Network description, config-file loading, and reduction to machine nodes.

Units are per-unit on the system base throughout, except inertia ``m``
(s^2/rad * p.u.) and angles (rad).  An "infinite bus" is represented as a
regular machine with infinite inertia: it never moves, so the integrator
needs no special case for it.  Each simulation phase reduces the model
with its own edits: none before the fault, the fault shunt at one bus while
it is on, and the opened branches out after it is cleared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import LyapstabError, utf8_fault

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
            raise LyapstabError("base_mva and frequency_hz must be > 0")
        for kind, ids in (("bus", self.buses),
                          ("branch", [br.branch_id for br in self.branches]),
                          ("generator", self.gen_ids)):
            seen = set()
            for item in ids:  # the first repeat in file order
                if item in seen:
                    raise LyapstabError(f"duplicate {kind} id {item!r}")
                seen.add(item)
        bus_set = set(self.buses)
        for br in self.branches:
            if math.hypot(br.r, br.x) <= 0.0:
                raise LyapstabError(f"branch {br.branch_id!r} has zero impedance")
            if br.r < 0.0:
                raise LyapstabError(f"branch {br.branch_id!r} needs r >= 0")
            for bus in (br.from_bus, br.to_bus):
                if bus not in bus_set:
                    raise LyapstabError(
                        f"branch {br.branch_id!r} references unknown bus {bus!r}")
        for gen in self.generators:
            if gen.bus not in bus_set:
                raise LyapstabError(
                    f"generator {gen.gen_id!r} at unknown bus {gen.bus!r}")
            if not gen.m > 0.0:
                raise LyapstabError(f"generator {gen.gen_id!r} needs m > 0")
            if gen.xd <= 0.0:
                raise LyapstabError(f"generator {gen.gen_id!r} needs xd > 0")
            if gen.emf <= 0.0:
                raise LyapstabError(f"generator {gen.gen_id!r} needs emf > 0")
        for load in self.loads:
            if load.bus not in bus_set:
                raise LyapstabError(f"load at unknown bus {load.bus!r}")
        if not self.generators:
            raise LyapstabError("model has no generators")
        if len(self.generators) < 2 and not any(
                math.isinf(g.m) for g in self.generators):
            raise LyapstabError(
                "a single machine is only allowed against an infinite bus")
        slacks = [g.gen_id for g in self.generators if g.pm is None]
        if len(slacks) != 1:
            raise LyapstabError(
                "exactly one generator must have its mechanical power left to "
                f"the equilibrium solve (found {len(slacks)}: {slacks})")

    @property
    def gen_ids(self) -> tuple[str, ...]:
        return tuple(g.gen_id for g in self.generators)

    def with_damping(self, damping: dict[str, float]) -> "NetworkModel":
        """Copy of the model with per-generator damping overridden."""
        gens = tuple(
            replace(g, d=damping.get(g.gen_id, g.d)) for g in self.generators)
        return replace(self, generators=gens)


@dataclass(frozen=True)
class FaultSpec:
    """A three-phase fault at one bus, cleared by removing zero or more branches."""

    bus: str
    t_fault: float
    t_clear: float
    removed_branches: tuple[str, ...] = ()

    def validate(self, model: NetworkModel) -> None:
        if not (math.isfinite(self.t_fault) and math.isfinite(self.t_clear)):
            raise LyapstabError(
                f"t_fault and t_clear must be finite, got ({self.t_fault}, "
                f"{self.t_clear})")
        if self.t_fault < 0.0 or self.t_clear < self.t_fault:
            raise LyapstabError(
                f"need t_clear >= t_fault >= 0, got ({self.t_fault}, {self.t_clear})")
        _check_ids(model, self.removed_branches, self.bus)
        _check_connected(model, self.removed_branches)


def _check_ids(model: NetworkModel, removed: tuple[str, ...],
               shunt_bus: str | None) -> None:
    """Raise for ``shunt_bus`` if the model lacks it, then for the first id
    of ``removed`` that names none of its branches."""
    if shunt_bus is not None and shunt_bus not in model.buses:
        raise LyapstabError(f"faulted bus {shunt_bus!r} not in model")
    branch_ids = {br.branch_id for br in model.branches}
    for bid in removed:
        if bid not in branch_ids:
            raise LyapstabError(f"unknown branch id {bid!r}")


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
        raise LyapstabError(
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


def _assemble_full_admittance(model: NetworkModel, removed: tuple[str, ...],
                              shunt_bus: str | None) -> np.ndarray:
    """Complex admittance over [machine internal nodes | network buses], with
    the branches ``removed`` left out and the fault shunt at ``shunt_bus``."""
    n_gen = len(model.generators)
    bus_index = {bus: n_gen + i for i, bus in enumerate(model.buses)}
    n = n_gen + len(model.buses)
    Y = np.zeros((n, n), dtype=complex)

    def add_series(a: int, b: int, y: complex) -> None:
        Y[a, a] += y
        Y[b, b] += y
        Y[a, b] -= y
        Y[b, a] -= y

    for br in model.branches:
        if br.branch_id in removed:
            continue
        add_series(bus_index[br.from_bus], bus_index[br.to_bus],
                   1.0 / complex(br.r, br.x))
    for i, gen in enumerate(model.generators):
        add_series(i, bus_index[gen.bus], 1.0 / complex(0.0, gen.xd))
    for load in model.loads:
        Y[bus_index[load.bus], bus_index[load.bus]] += complex(load.g, load.b)
    if shunt_bus is not None:
        Y[bus_index[shunt_bus], bus_index[shunt_bus]] += FAULT_SHUNT_G
    return Y


def reduce_network(model: NetworkModel, removed: tuple[str, ...] = (),
                   shunt_bus: str | None = None) -> ReducedSystem:
    """Eliminate all network buses, keeping the machine internal nodes.

    The network is ``model`` with the branches ``removed`` opened and, unless
    ``shunt_bus`` is None, a bolted fault (``FAULT_SHUNT_G``) at that bus:
    ``simulate`` reduces the intact network, then the one with the fault
    shunt on, then the one with the fault's branches out.  Standard Schur
    complement ``Ygg - Ygb Ybb^{-1} Ybg``.  Raises :class:`LyapstabError` for
    an id the model lacks, and when the bus block is singular (an island
    with no path to any machine); the latter names the phase the edits make,
    ``pre_fault``, ``fault_on`` or ``post_fault``.
    """
    _check_ids(model, removed, shunt_bus)
    phase = ("fault_on" if shunt_bus is not None
             else "post_fault" if removed else "pre_fault")
    n_gen = len(model.generators)
    Y = _assemble_full_admittance(model, removed, shunt_bus)
    Ygg = Y[:n_gen, :n_gen]
    Ygb = Y[:n_gen, n_gen:]
    Ybb = Y[n_gen:, n_gen:]
    try:
        Yred = Ygg - Ygb @ np.linalg.solve(Ybb, Ygb.T)
    except np.linalg.LinAlgError as exc:
        raise LyapstabError(f"singular bus admittance block ({phase})") from exc
    if not np.isfinite(Yred).all():
        raise LyapstabError(f"non-finite reduced admittance ({phase})")
    asym = np.abs(Yred - Yred.T).max()
    scale = max(np.abs(Yred).max(), 1.0)
    if asym > 1e-9 * scale:
        raise LyapstabError(f"reduced admittance asymmetric by {asym:.3e}")

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
# whitespace-separated tables.  Every number must be finite.  [system] holds
# ``key = value`` pairs (base_mva, frequency_hz); ``_ROWS`` gives the columns
# of every other section.  A generator's pm may be the word 'slack', and
# [infinite_bus] holds at most one line.
#
# See networks/*.net for annotated examples.

# Each table section's field count, and the message a row of another count
# raises.
_ROWS = {
    "buses": (1, "one bus id per line"),
    "branches": (5, "branch rows need: id from to r_pu x_pu"),
    "generators": (7, "generator rows need: id bus m d xd emf pm"),
    "infinite_bus": (3, "infinite_bus rows need: bus emf xs"),
    "loads": (3, "load rows need: bus g_pu b_pu"),
}
SECTIONS = ("system", *_ROWS)


def load_network_file(path) -> NetworkModel:
    """Parse a network description file into a validated :class:`NetworkModel`.

    A fault in one row (encoding, unknown section, field count, a number that
    is missing or not finite) raises :class:`LyapstabError` naming
    ``path:line``; a fault of the model as a whole names ``path``.
    """
    sections: dict[str, list[tuple[int, list[str]]]] = {s: [] for s in SECTIONS}
    current: str | None = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fault = utf8_fault(raw)
            if fault:
                raise LyapstabError(f"{path}:{lineno}: {fault}")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                if current not in sections:
                    raise LyapstabError(
                        f"{path}:{lineno}: unknown section [{current}]; "
                        f"expected one of {', '.join(SECTIONS)}")
                continue
            if current is None:
                raise LyapstabError(
                    f"{path}:{lineno}: data before any [section] header")
            sections[current].append((lineno, line.split()))

    def rows(section: str):
        """A table section's ``(lineno, tokens)``; another field count raises."""
        count, message = _ROWS[section]
        for lineno, toks in sections[section]:
            if len(toks) != count:
                raise LyapstabError(f"{path}:{lineno}: {message}")
            yield lineno, toks

    def nums(tokens, lineno: int) -> list[float]:
        """``tokens`` as finite numbers; the first that is not raises."""
        values = []
        for tok in tokens:
            try:
                x = float(tok)
            except ValueError:
                raise LyapstabError(f"{path}:{lineno}: not a number: {tok!r}") from None
            if not math.isfinite(x):
                raise LyapstabError(f"{path}:{lineno}: not a finite number: {tok!r}")
            values.append(x)
        return values

    system = {"base_mva": 100.0, "frequency_hz": 60.0}
    for lineno, toks in sections["system"]:
        joined = " ".join(toks)
        if "=" not in joined:
            raise LyapstabError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in joined.split("=", 1))
        if key not in system:
            raise LyapstabError(f"{path}:{lineno}: unknown system key {key!r}")
        system[key] = nums([val], lineno)[0]

    buses = [toks[0] for _, toks in rows("buses")]
    branches = [Branch(*t[:3], *nums(t[3:], n)) for n, t in rows("branches")]
    generators = [
        Generator(*t[:2], *nums(t[2:6], n),
                  None if t[6].lower() == "slack" else nums(t[6:], n)[0])
        for n, t in rows("generators")]
    inf_rows = sections["infinite_bus"]
    if len(inf_rows) > 1:
        raise LyapstabError(f"{path}:{inf_rows[1][0]}: at most one infinite bus")
    # the infinite bus is a machine of infinite inertia behind x'd = xs
    generators += [
        Generator(INFINITE_BUS_ID, t[0], math.inf, 0.0, *nums((t[2], t[1]), n),
                  None)
        for n, t in rows("infinite_bus")]
    loads = [Load(t[0], *nums(t[1:], n)) for n, t in rows("loads")]

    try:
        return NetworkModel(buses=tuple(buses), branches=tuple(branches),
                            generators=tuple(generators), loads=tuple(loads),
                            **system)
    except LyapstabError as exc:
        raise LyapstabError(f"{path}: {exc}") from None
