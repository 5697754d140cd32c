"""Shared fixtures, template signal generators, and independent test oracles.

The oracles here deliberately re-derive expected values with naive loops and
closed forms so they stay independent of the library code paths they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from lyapstab.network import Branch, FaultSpec, Generator, NetworkModel
from lyapstab.simulator import simulate

NETWORKS = Path(__file__).resolve().parent.parent / "networks"
DT = 1.0 / 120.0


@pytest.fixture(scope="session")
def networks_dir() -> Path:
    return NETWORKS


# ---------------------------------------------------------------------------
# naive smoothing / extremum confirmation (mirrors the documented rule with
# plain loops; used to cross-check the streaming implementation)
# ---------------------------------------------------------------------------

def naive_smooth(x, width=5):
    x = np.asarray(x, dtype=float)
    hw = width // 2
    out = np.empty(len(x))
    for i in range(len(x)):
        lo = max(0, i - hw)
        hi = min(len(x), i + hw + 1)
        acc = 0.0
        for k in range(lo, hi):
            acc += x[k]
        out[i] = acc / (hi - lo)
    return out


def naive_first_extremum(x, sign, n_peak=6, width=5, start=1):
    """First index whose smoothed value dominates its +/-n_peak window."""
    hw = width // 2
    sm = naive_smooth(x, width)
    usable = len(x) - hw  # smoothed values with a full right window
    for j in range(start, usable - n_peak):
        ok = True
        for k in range(max(0, j - n_peak), j + n_peak + 1):
            if sign > 0 and sm[k] > sm[j]:
                ok = False
                break
            if sign < 0 and sm[k] < sm[j]:
                ok = False
                break
        if ok:
            return j
    return None


# ---------------------------------------------------------------------------
# swing-pattern template families
# ---------------------------------------------------------------------------

@dataclass
class Template:
    name: str
    pattern: str          # intended pattern name "I".."VI"
    v: np.ndarray         # relative speed samples at DT
    v0: float

    def expected_w(self, eps_rel=1e-3, eps_floor=1e-6) -> int:
        """Exhaustive-scan oracle for the pattern's window rule."""
        eps = max(eps_rel * self.v0, eps_floor)
        v = self.v
        if self.pattern == "I":
            return 1
        if self.pattern in ("III", "V"):
            idx = np.flatnonzero(v <= -self.v0 + eps)
            return int(idx[0])
        if self.pattern == "II":
            below = np.flatnonzero(v < self.v0 - eps)
            armed_from = below[0]
            idx = np.flatnonzero(v[armed_from:] >= self.v0 - eps) + armed_from
            return int(idx[0])
        # IV / VI: first confirmed local minimum of the smoothed curve
        j = naive_first_extremum(v, sign=-1)
        assert j is not None, f"{self.name}: no confirmed minimum"
        return j


def _times(duration, dt=DT):
    return np.arange(int(round(duration / dt)) + 1) * dt


def make_template(family: str, duration: float = 6.0, **p) -> Template:
    t = _times(duration)
    if family == "I":
        v0, a = p["v0"], p["a"]
        v = v0 + a * t
        return Template(f"I(v0={v0},a={a})", "I", v, v0)
    if family == "II":
        v0, f, s = p["v0"], p["f"], p["s"]
        g = 0.3 * s * 2.0 * math.pi * f
        v = v0 * (1.0 + g * t - s * np.sin(2.0 * math.pi * f * t))
        assert v.min() > -v0, "II template must never reach -v0"
        return Template(f"II(f={f},s={s})", "II", v, v0)
    if family == "III":
        v0, f, g = p["v0"], p["f"], p.get("g", 0.2)
        v = v0 * np.exp(g * t) * np.cos(2.0 * math.pi * f * t)
        assert v.min() < -1.02 * v0, "III template must cross -v0 cleanly"
        return Template(f"III(f={f},g={g})", "III", v, v0)
    if family == "IV":
        v0, f, gamma = p["v0"], p["f"], p["gamma"]
        v = v0 * np.exp(-gamma * t) * np.cos(2.0 * math.pi * f * t)
        return Template(f"IV(f={f},g={gamma})", "IV", v, v0)
    if family in ("V", "VI"):
        v0, f, gamma = p["v0"], p["f"], p["gamma"]
        phi0 = 0.3
        amp = v0 / math.sin(phi0)
        v = amp * np.exp(-gamma * t) * np.sin(2.0 * math.pi * f * t + phi0)
        t_trough = (1.5 * math.pi - phi0) / (2.0 * math.pi * f)
        trough = -amp * math.exp(-gamma * t_trough)
        if family == "V":
            assert trough < -1.05 * v0, f"V needs a deep trough, got {trough:.3f}"
        else:
            assert trough > -0.95 * v0, f"VI must stay above -v0, got {trough:.3f}"
        return Template(f"{family}(f={f},g={gamma})", family, v, v0)
    raise ValueError(family)


def template_suite() -> list[Template]:
    """At least ten parameterizations per family."""
    crt = []
    for v0 in (0.5, 1.0, 2.0):
        for a in (1.0, 2.5, 5.0, 8.0):
            crt.append(make_template("I", v0=v0, a=a))
    for f in (0.5, 0.75, 1.0, 1.5, 2.0):
        for s in (0.4, 0.7):
            crt.append(make_template("II", v0=1.0, f=f, s=s))
    for f in (0.5, 0.75, 1.0, 1.5, 2.0):
        for g in (0.15, 0.35):
            crt.append(make_template("III", v0=1.0, f=f, g=g))
    for f in (0.5, 1.0):
        for gamma in (0.5, 1.0, 2.0, 3.0, 5.0):
            crt.append(make_template("IV", v0=1.0, f=f, gamma=gamma))
    for f, gamma in ((1.0, 0.5), (1.0, 0.75), (1.0, 1.0), (1.5, 0.75),
                     (1.5, 1.0), (1.5, 1.5), (2.0, 1.0), (2.0, 1.5),
                     (2.0, 2.0), (0.75, 0.5)):
        crt.append(make_template("V", v0=1.0, f=f, gamma=gamma))
    for f, gamma in ((0.5, 2.0), (0.5, 3.0), (0.75, 2.0), (1.0, 2.0),
                     (1.0, 3.0), (1.0, 4.0), (1.5, 3.0), (1.5, 4.0),
                     (2.0, 4.0), (2.0, 5.0)):
        crt.append(make_template("VI", v0=1.0, f=f, gamma=gamma))
    return crt


def decision_grid() -> list[tuple[str, float, np.ndarray]]:
    """Deterministic (name, dt, speeds) grid over the classifier's branches.

    Closed-form families like ``make_template``'s, but with no intended
    pattern: oscillations that start falling or rising, drifting ramps with
    a dip, decelerating growth (the escape to Pattern I), slow drifts and
    short cuts of the oscillations (timeouts), and refused initial speeds.
    """
    grid = []
    for dt in (DT, 1.0 / 30.0):
        t = _times(6.0, dt)
        for f in (0.5, 1.0, 1.7):
            for g in (-4.0, -1.5, -0.5, 0.3):
                for phi in (-1.2, -0.6, -0.2, 0.2, 0.6):
                    v = np.exp(g * t) * np.cos(2.0 * math.pi * f * t + phi)
                    v /= math.cos(phi)
                    name = f"osc(f={f},g={g},phi={phi},dt={dt:.4f})"
                    grid.append((name, dt, v))
                    grid.append((name + "[:0.75s]", dt,
                                 v[:int(round(0.75 / dt))]))
        for a in (0.5, 2.0, 6.0):
            for s in (0.05, 0.3, 0.8):
                for f in (0.5, 1.0, 2.0):
                    v = 1.0 + a * t - s * np.sin(2.0 * math.pi * f * t)
                    grid.append((f"ramp(a={a},s={s},f={f},dt={dt:.4f})", dt, v))
        for k in (0.5, 4.0):
            for c in (-0.5, 0.0, 0.3):
                v = 1.0 + k * np.sqrt(t) + c * t
                grid.append((f"sqrt(k={k},c={c},dt={dt:.4f})", dt, v))
        for r in (-0.02, 0.0, 0.02):
            grid.append((f"drift(r={r},dt={dt:.4f})", dt, 1.0 + r * t))
        for v0 in (1e-9, 0.0):
            grid.append((f"still(v0={v0},dt={dt:.4f})", dt, v0 + 0.0 * t))
    return grid


# ---------------------------------------------------------------------------
# small builders used across test modules
# ---------------------------------------------------------------------------

def two_machine_model(d1=0.038, d2=0.038, pm=0.5) -> NetworkModel:
    return NetworkModel(
        buses=("1", "2", "3"),
        branches=(Branch("LA", "1", "3", 0.0, 0.3),
                  Branch("LB", "3", "2", 0.0, 0.3)),
        generators=(
            Generator("G1", "1", 0.0159155, d1, 0.25, 1.05, pm),
            Generator("G2", "2", 0.0159155, d2, 0.25, 1.05, None),
        ),
    )


def chain_model(pm2=0.83, pm3=-0.77, d=0.012, x=0.7) -> NetworkModel:
    """Generator and motor at opposite ends of a stiff middle machine.

    Near-critical midpoint faults produce stable swings whose pairwise
    relative angle peaks well above pi.
    """
    return NetworkModel(
        buses=("A", "B", "C"),
        branches=(Branch("AB", "A", "B", 0.0, x),
                  Branch("BC", "B", "C", 0.0, x)),
        generators=(
            Generator("G1", "B", 0.25, 0.30, 0.10, 1.05, None),
            Generator("G2", "A", 0.0159155, d, 0.25, 1.05, pm2),
            Generator("G3", "C", 0.0159155, d, 0.25, 1.05, pm3),
        ),
    )


def smib_fault(t_clear, t_fault=0.1) -> FaultSpec:
    return FaultSpec(bus="1", t_fault=t_fault, t_clear=t_clear,
                     removed_branches=("L2",))


def smib_equal_area_critical_time() -> float:
    """Closed-form first-swing limit of the smib fixture.

    During a bolted terminal fault the electrical power is ~0, so the angle
    advances as d(t) = d0 + Pm t^2 / (2 m); equating the accelerating and
    decelerating areas gives the critical angle, converted back to time.
    """
    e1, e2, pm, m = 1.1, 1.0, 0.9, 0.0159155
    x_pre = 0.3 + 0.2 + 1e-4
    x_post = 0.3 + 0.4 + 1e-4
    d0 = math.asin(pm * x_pre / (e1 * e2))
    p_post = e1 * e2 / x_post
    d_max = math.pi - math.asin(pm / p_post)
    cos_dc = (pm * (d_max - d0) + p_post * math.cos(d_max)) / p_post
    d_c = math.acos(cos_dc)
    return math.sqrt(2.0 * m * (d_c - d0) / pm)


def run_smib(model, t_clear, horizon=6.0, dt=DT, substeps=None):
    return simulate(model, smib_fault(t_clear), dt=dt, horizon=horizon,
                    substeps=substeps)
