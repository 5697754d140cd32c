"""Acceptance gate: the exit criteria of the artifact, one line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL summary
lines; each criterion also asserts, so the suite is red if any gate fails.
"""

import itertools
import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from conftest import (DT, NETWORKS, chain_model,
                      smib_equal_area_critical_time, template_suite)
from lyapstab.assess import (PENDING, SKIPPED, STABLE, SYSTEM_STABLE,
                             SYSTEM_UNDETERMINED, SYSTEM_UNSTABLE,
                             UNDETERMINED_TIMEOUT, UNSTABLE_FIRST_SWING,
                             UNSTABLE_MULTI_SWING, PairAssessor, PairVerdict,
                             aggregate, run_assessment)
from lyapstab.errors import LyapstabError
from lyapstab.ingest import ASSESSMENT_RATE, AlignedDataset, EventMeta, align
from lyapstab.mle import LineFit, iter_mle
from lyapstab.network import FaultSpec, load_network_file
from lyapstab.simulator import simulate, stability_oracle
from lyapstab.swings import SwingClassifier, distance_series

GOLDEN_VERDICTS = (Path(__file__).resolve().parent / "data"
                   / "battery_verdicts.json")


def gate(criterion: int, label: str, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {label}: {status} ({detail}) "
          f"[{elapsed:.2f}s]")
    assert ok, f"criterion {criterion} ({label}): {detail}"


# ---------------------------------------------------------------------------
# 1. recursive fit == batch fit
# ---------------------------------------------------------------------------

def test_criterion_1_rls_matches_batch():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_seq = 1000
    for _ in range(n_seq):
        # jittered sampling grids: random spacing and per-step jitter, the
        # way observations actually arrive (coincident times would leave the
        # two-point line undefined)
        n = int(rng.integers(3, 501))
        spacing = rng.uniform(0.002, 0.05)
        gaps = rng.uniform(0.5, 1.5, n - 1) * spacing
        times = rng.uniform(-2.0, 2.0) + np.concatenate([[0.0], np.cumsum(gaps)])
        values = (rng.normal(0.0, 1.0) * times + rng.normal(0.0, 1.0)
                  + rng.normal(0.0, 0.3, n))
        fit = LineFit()
        for t, y in zip(times, values):
            fit.push(t, y)
        X = np.column_stack([times, np.ones(n)])
        batch = np.linalg.solve(X.T @ X, X.T @ values)
        rec = np.array([fit.slope(), fit.intercept()])
        rel = np.abs(rec - batch).max() / max(np.abs(batch).max(), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    gate(1, "recursive vs batch fit", worst < 1e-9 and elapsed < 5.0,
         f"{n_seq} sequences, worst rel dev {worst:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 2. known-exponent recovery
# ---------------------------------------------------------------------------

def test_criterion_2_known_exponent_recovery():
    start = time.perf_counter()
    t = np.arange(0, 121) * DT  # exactly one second of data
    worst_clean, worst_noisy = 0.0, 0.0
    rng = np.random.default_rng(42)
    for lam in (-2.0, -0.5, 0.5, 2.0):
        theta = np.exp(lam * t)
        est = list(iter_mle(distance_series(theta, 12).d, 12, 12, DT))[-1][1]
        worst_clean = max(worst_clean, abs(est - lam) / abs(lam))
        noisy_theta = theta + rng.normal(0.0, 1e-3, len(t))
        est = list(iter_mle(distance_series(noisy_theta, 12).d, 12, 12,
                            DT))[-1][1]
        worst_noisy = max(worst_noisy, abs(est - lam) / abs(lam))
    elapsed = time.perf_counter() - start
    ok = worst_clean < 0.01 and worst_noisy < 0.10 and elapsed < 5.0
    gate(2, "known-exponent recovery", ok,
         f"clean {worst_clean:.2e}, noisy {worst_noisy:.2e}", elapsed)


# ---------------------------------------------------------------------------
# 3. swing-pattern fixture suite
# ---------------------------------------------------------------------------

def test_criterion_3_pattern_suite():
    start = time.perf_counter()
    suite = template_suite()
    failures = []
    for tpl in suite:
        decision = SwingClassifier(DT).run(tpl.v)
        if decision.pattern.value != tpl.pattern:
            failures.append(f"{tpl.name}: pattern {decision.pattern.value}")
        elif decision.w != tpl.expected_w():
            failures.append(f"{tpl.name}: w {decision.w} != {tpl.expected_w()}")
    per_family = {f: sum(t.pattern == f for t in suite)
                  for f in ("I", "II", "III", "IV", "V", "VI")}
    enough = all(v >= 10 for v in per_family.values())
    elapsed = time.perf_counter() - start
    ok = not failures and enough and elapsed < 10.0
    gate(3, "pattern fixture suite", ok,
         f"{len(suite)} templates, failures: {failures or 'none'}", elapsed)


# ---------------------------------------------------------------------------
# 4. criterion shapes and the aggregation truth table
# ---------------------------------------------------------------------------

def _run_shape(lams):
    assessor = PairAssessor(PairVerdict("A", "B"))
    t = 0.0
    for i, lam in enumerate(lams, start=1):
        t = i * DT
        if assessor.push(float(lam), t).status != PENDING:
            break
    return assessor.finalize(t)


def _shape_cases():
    tail = lambda n, level, step=-0.005: level + step * np.arange(n)
    rise = lambda a, b, n: np.linspace(a, b, n)
    cases = []
    # first-swing shapes: the exponent climbs from the first samples
    cases.append((0.5 + 0.05 * np.arange(30), UNSTABLE_FIRST_SWING))
    cases.append((np.concatenate([rise(-0.1, 0.4, 30)]), UNSTABLE_FIRST_SWING))
    jitter = 0.3 + 0.02 * np.arange(30) + 0.004 * np.cos(np.arange(30))
    cases.append((jitter, UNSTABLE_FIRST_SWING))
    # multi-swing shapes: dip then a positive first peak
    cases.append((np.concatenate([rise(0.3, -0.2, 15), rise(-0.2, 0.15, 11)[1:],
                                  tail(40, 0.15)]), UNSTABLE_MULTI_SWING))
    cases.append((np.concatenate([rise(0.1, -0.5, 20), rise(-0.5, 0.8, 14)[1:],
                                  tail(40, 0.8)]), UNSTABLE_MULTI_SWING))
    cases.append((np.concatenate([rise(0.4, -0.1, 26), rise(-0.1, 0.02, 9)[1:],
                                  tail(40, 0.02)]), UNSTABLE_MULTI_SWING))
    # stable shapes: dip then a non-positive first peak
    cases.append((np.concatenate([rise(0.3, -0.4, 15), rise(-0.4, -0.05, 11)[1:],
                                  tail(40, -0.05)]), STABLE))
    cases.append((np.concatenate([rise(0.2, -0.3, 15), rise(-0.3, 0.0, 13)[1:],
                                  tail(40, 0.0)]), STABLE))
    cases.append((np.concatenate([rise(0.0, -1.0, 30), rise(-1.0, -0.6, 15)[1:],
                                  tail(40, -0.6)]), STABLE))
    return cases


def _expected_system(statuses):
    live = [s for s in statuses if s != SKIPPED]
    if not live:
        return None
    if any(s in (UNSTABLE_FIRST_SWING, UNSTABLE_MULTI_SWING) for s in live):
        return SYSTEM_UNSTABLE
    if any(s == PENDING for s in live):
        return "PENDING"
    if all(s == STABLE for s in live):
        return SYSTEM_STABLE
    return SYSTEM_UNDETERMINED


def test_criterion_4_verdict_shapes_and_truth_table():
    start = time.perf_counter()
    shape_fails = []
    for i, (lams, want) in enumerate(_shape_cases()):
        got = _run_shape(lams).status
        if got != want:
            shape_fails.append(f"shape {i}: {got} != {want}")

    statuses = (PENDING, UNSTABLE_FIRST_SWING, UNSTABLE_MULTI_SWING, STABLE,
                UNDETERMINED_TIMEOUT, SKIPPED)
    table_fails = 0
    n_combos = 0
    for n in (1, 2, 3):
        for combo in itertools.product(statuses, repeat=n):
            n_combos += 1
            verdicts = [
                PairVerdict(f"S{i}", "L", status=s,
                            decision_time=None if s in (PENDING, SKIPPED)
                            else 1.0 + 0.1 * i)
                for i, s in enumerate(combo)
            ]
            want = _expected_system(combo)
            try:
                got = aggregate(verdicts).status
            except LyapstabError:
                got = None
            if got != want:
                table_fails += 1
    elapsed = time.perf_counter() - start
    ok = not shape_fails and table_fails == 0
    gate(4, "criterion shapes + truth table", ok,
         f"9 shapes ({shape_fails or 'all ok'}), "
         f"{n_combos} aggregation combos, {table_fails} mismatches", elapsed)


# ---------------------------------------------------------------------------
# 5 & 6. simulator battery vs the time-domain oracle
# ---------------------------------------------------------------------------

@dataclass
class CaseResult:
    label: str
    oracle: str
    verdict: str
    decision_time: float | None
    pair_statuses: tuple
    pair_times: tuple
    pair_params: tuple  # (pattern, w, m_n, peak_lambda) per pair
    # system verdict of the same simulation re-aligned at each LOW_RATES rate
    low_rate_verdicts: dict
    meta: EventMeta
    dataset: AlignedDataset  # the simulation aligned at ASSESSMENT_RATE


def _battery_families():
    """Each battery family: label, network, faulted bus, opened branches,
    horizon, oracle window and the battery's own clearing times."""
    smib = load_network_file(NETWORKS / "smib.net").with_damping({"G1": 0.038})
    two = load_network_file(NETWORKS / "twomachine.net")
    two_neg = two.with_damping({"G1": -0.008, "G2": -0.008})
    three = load_network_file(NETWORKS / "threemachine.net")
    four = load_network_file(NETWORKS / "fourmachine.net")
    four_neg = four.with_damping({g: -0.024 for g in four.gen_ids})
    return [
        ("smib", smib, "1", ("L2",), 12.0, 8.0,
         (0.15, 0.20, 0.25, 0.30, 0.35, 0.45, 0.55)),
        ("two", two, "3", (), 12.0, 8.0, (0.14, 0.18, 0.22, 0.26, 0.30, 0.34)),
        ("two-negD", two_neg, "3", (), 14.0, 10.0, (0.15, 0.20)),
        ("three-b8", three, "8", ("L78",), 12.0, 8.0,
         (0.12, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)),
        ("three-b5", three, "5", ("L45",), 12.0, 8.0, (0.15, 0.25, 0.35)),
        ("three-b6", three, "6", ("L67",), 12.0, 8.0, (0.15, 0.25, 0.35)),
        ("four-b1", four, "1", ("L15A",), 12.0, 8.0,
         (0.15, 0.20, 0.25, 0.30, 0.35, 0.40)),
        ("four-b6", four, "6", ("T56B",), 12.0, 8.0, (0.15, 0.25, 0.35)),
        ("four-b7", four, "7", ("T67B",), 12.0, 8.0, (0.20, 0.30)),
        ("four-negD", four_neg, "6", ("T56B",), 16.0, 12.0, (0.12, 0.20)),
        ("chain", chain_model(), "B", (), 12.0, 8.0, (21 / 120.0, 26 / 120.0)),
    ]


def _battery_cases(clearing_times=None):
    """One case per family and clearing time: the family's own times, or
    ``clearing_times`` for every family."""
    return [(label, model, bus, tc, removed, horizon, window)
            for label, model, bus, removed, horizon, window, times
            in _battery_families()
            for tc in clearing_times or times]


# The dense grid: every family at every clearing time from 0.12 to 0.60 s
GRID_CLEARING_TIMES = tuple(round(0.12 + 0.02 * k, 2) for k in range(25))

LOW_RATES = (60.0, 30.0)  # Hz: PMU reporting rates below the 120 Hz grid


def _assess(dataset, meta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_assessment(dataset, meta)


def _run_cases(cases):
    results = []
    start = time.perf_counter()
    for label, model, bus, tc, removed, horizon, window in cases:
        fault = FaultSpec(bus=bus, t_fault=0.1, t_clear=tc,
                          removed_branches=removed)
        traces = simulate(model, fault, dt=DT, horizon=horizon)
        oracle = stability_oracle(traces, window=window)
        meta = EventMeta(t_fault=0.1, t_clear=tc, faulted_element=bus)
        dataset = align(traces, meta)
        report = _assess(dataset, meta)
        results.append(CaseResult(
            label=f"{label}@{tc:.3f}", oracle=oracle,
            verdict=report.system.status,
            decision_time=report.system.decision_time,
            pair_statuses=tuple(v.status for v in report.pairs),
            pair_times=tuple(v.decision_time for v in report.pairs),
            pair_params=tuple((v.pattern.value if v.pattern else None,
                               v.w, v.m_n, v.peak_lambda)
                              for v in report.pairs),
            low_rate_verdicts={
                rate: _assess(align(traces, meta, rate=rate), meta).system.status
                for rate in LOW_RATES},
            meta=meta, dataset=dataset))
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def battery():
    return _run_cases(_battery_cases())


def _verdict_rows(results) -> list[dict]:
    """Per-pair verdicts of the battery in the golden file's layout."""
    return [
        {"label": r.label, "verdict": r.verdict,
         "decision_time": r.decision_time,
         "pairs": [{"status": s, "decision_time": t, "pattern": p, "w": w,
                    "m_n": m_n, "peak_lambda": peak}
                   for s, t, (p, w, m_n, peak)
                   in zip(r.pair_statuses, r.pair_times, r.pair_params)]}
        for r in results
    ]


def _agreement(results, verdicts):
    """Criterion 5's bounds on one system verdict per result: whether they
    hold, and a summary that names every case that disagrees."""
    n = len(results)
    undetermined = sum(v == SYSTEM_UNDETERMINED for v in verdicts)
    decided = [(r, v) for r, v in zip(results, verdicts)
               if v in (SYSTEM_STABLE, SYSTEM_UNSTABLE)]
    wrong = [f"{r.label}: {v} vs oracle {r.oracle}"
             for r, v in decided if v != r.oracle]
    agree = len(decided) - len(wrong)
    ok = undetermined <= 0.05 * n and agree >= 0.95 * len(decided)
    return ok, (f"{n} cases, {agree}/{len(decided)} agree, "
                f"{undetermined} undetermined"
                + (f"; disagreements: {wrong}" if wrong else ""))


def _verdicts_at(results, rate):
    return [r.verdict if rate == ASSESSMENT_RATE else r.low_rate_verdicts[rate]
            for r in results]


def test_criterion_5_battery_agreement(battery):
    results, elapsed = battery
    ok, detail = _agreement(results, _verdicts_at(results, ASSESSMENT_RATE))
    gate(5, "battery vs time-domain oracle",
         ok and len(results) >= 40 and elapsed < 120.0, detail, elapsed)


@pytest.mark.xfail(strict=True, reason=(
    "the automaton's sample counts are tuned at 120 Hz; false alarms at "
    "60 Hz (38/43 agree): two@0.140, two@0.180, three-b8@0.150, "
    "four-b7@0.200, four-b7@0.300; at 30 Hz (37/43): smib@0.150, "
    "two@0.260, three-b5@0.150, three-b5@0.250, four-b7@0.200, "
    "four-b7@0.300"))
def test_rate_criterion_battery_agreement_at_low_rates(battery):
    """Criterion 5's bounds on the battery re-aligned at 60 and 30 Hz."""
    results, _ = battery
    start = time.perf_counter()
    failed, details = False, []
    for rate in LOW_RATES:
        ok, detail = _agreement(results, _verdicts_at(results, rate))
        failed |= not ok
        details.append(f"{rate:g} Hz: {detail}")
    gate(5, "battery vs oracle at 60 and 30 Hz", not failed,
         "; ".join(details), time.perf_counter() - start)


@pytest.fixture(scope="module")
def dense_grid():
    return _run_cases(_battery_cases(GRID_CLEARING_TIMES))


def _first_unstable(results, verdicts):
    """Per family, the clearing time of its first UNSTABLE verdict."""
    first = {}
    for r, v in zip(results, verdicts):
        if v == SYSTEM_UNSTABLE:
            family, _, tc = r.label.partition("@")
            first.setdefault(family, tc)
    return first


@pytest.mark.parametrize("rate", [
    ASSESSMENT_RATE,
    pytest.param(60.0, marks=pytest.mark.xfail(strict=True, reason=(
        "the automaton's sample counts are tuned at 120 Hz; at 60 Hz 236/265 "
        "agree, with false alarms at smib 0.14, 0.22; two 0.12-0.20; "
        "three-b8 0.14, 0.16; four-b7 0.16-0.26, 0.30-0.40, 0.48, "
        "0.52-0.56; chain 0.12-0.16 and a missed instability at "
        "four-b1 0.56"))),
    pytest.param(30.0, marks=pytest.mark.xfail(strict=True, reason=(
        "the automaton's sample counts are tuned at 120 Hz; at 30 Hz 214/265 "
        "agree, with false alarms at smib 0.14-0.18, 0.22, 0.24, 0.28; "
        "two 0.20, 0.24, 0.26; three-b5 0.14-0.32, 0.36, 0.40, 0.56; "
        "four-b6 0.22, 0.28, 0.32; four-b7 0.16-0.60; "
        "chain 0.12, 0.14, 0.18"))),
], ids=lambda rate: f"{rate:g}hz")
def test_dense_grid_agreement(dense_grid, rate):
    """Criterion 5's bounds on every battery family at every clearing time
    from 0.12 to 0.60 s in 0.02 s steps, assessed at ``rate``."""
    results, elapsed = dense_grid
    verdicts = _verdicts_at(results, rate)
    ok, detail = _agreement(results, verdicts)
    oracle = _first_unstable(results, [r.oracle for r in results])
    assessed = _first_unstable(results, verdicts)
    families = dict.fromkeys(r.label.partition("@")[0] for r in results)
    cct = ", ".join(f"{f} {oracle.get(f, '-')} / {assessed.get(f, '-')}"
                    for f in families)
    gate(5, f"dense grid vs oracle at {rate:g} Hz", ok,
         f"{detail}; first UNSTABLE clearing time per family, oracle / "
         f"assessed: {cct}",
         elapsed)


@pytest.mark.parametrize("fixture", ["battery", "dense_grid"],
                         ids=["battery-all", "dense-grid-all"])
def test_verdict_survives_a_cut_right_after_its_decision(request, fixture):
    """An online assessor knows the verdict at its decision time: cut the
    aligned 120 Hz data right after the system's decision sample and assess
    again, and the system status and decision time stay the same, for every
    decided case."""
    results, _ = request.getfixturevalue(fixture)
    start = time.perf_counter()
    decided = [r for r in results
               if r.verdict in (SYSTEM_STABLE, SYSTEM_UNSTABLE)]
    moved = []
    for r in decided:
        d = r.dataset
        end = round(r.decision_time * d.rate) + 1
        cut = AlignedDataset(d.gen_ids, d.angles[:, :end], d.speeds[:, :end],
                             d.grid_offset, d.rate)
        system = _assess(cut, r.meta).system
        if (system.status, system.decision_time) != (r.verdict,
                                                     r.decision_time):
            moved.append(f"{r.label}: {r.verdict} at {r.decision_time:.3f} s "
                         f"-> {system.status} at {system.decision_time:.3f} s")
    gate(6, f"verdicts cut at their decision ({fixture})",
         bool(decided) and not moved,
         f"{len(decided) - len(moved)}/{len(decided)} decided cases keep "
         f"status and decision time" + (f"; moved: {moved}" if moved else ""),
         time.perf_counter() - start)


def test_criterion_6_decision_latencies(battery):
    results, _ = battery
    start = time.perf_counter()
    first_swing, multi_swing = [], []
    for r in results:
        for status, t in zip(r.pair_statuses, r.pair_times):
            if status == UNSTABLE_FIRST_SWING:
                first_swing.append((r.label, t))
            elif status in (UNSTABLE_MULTI_SWING, STABLE):
                multi_swing.append((r.label, t))
    late_first = [(lbl, t) for lbl, t in first_swing if t > 2.0]
    late_multi = [(lbl, t) for lbl, t in multi_swing if t > 5.0]
    ok = (first_swing and multi_swing
          and not late_first and not late_multi)
    worst_first = max(t for _, t in first_swing) if first_swing else None
    worst_multi = max(t for _, t in multi_swing) if multi_swing else None
    gate(6, "decision latency", bool(ok),
         f"{len(first_swing)} first-swing (max {worst_first:.2f}s <= 2.0), "
         f"{len(multi_swing)} multi-swing (max {worst_multi:.2f}s <= 5.0)",
         time.perf_counter() - start)


def test_battery_matches_golden_verdicts(battery):
    """Every pair verdict of the battery is pinned; rewrite the file with
    ``PYTHONPATH=src python tests/test_acceptance.py`` only on purpose."""
    results, _ = battery
    got = _verdict_rows(results)
    want = json.loads(GOLDEN_VERDICTS.read_text(encoding="utf-8"))
    assert [r["label"] for r in got] == [r["label"] for r in want]
    for g, w in zip(got, want):
        g_peaks = [p.pop("peak_lambda") for p in g["pairs"]]
        w_peaks = [p.pop("peak_lambda") for p in w["pairs"]]
        assert g == w, g["label"]
        for gp, wp in zip(g_peaks, w_peaks):
            assert (gp is None) == (wp is None), g["label"]
            if wp is not None:
                assert gp == pytest.approx(wp, rel=1e-9), g["label"]


# ---------------------------------------------------------------------------
# 7. simulator validity
# ---------------------------------------------------------------------------

def test_criterion_7_simulator_validity(networks_dir):
    start = time.perf_counter()
    smib = load_network_file(networks_dir / "smib.net")

    t_cr = smib_equal_area_critical_time()
    verdicts = {}
    for k in range(12, 28):
        traces = simulate(smib, FaultSpec(bus="1", t_fault=0.0,
                                          t_clear=k * DT,
                                          removed_branches=("L2",)),
                          dt=DT, horizon=6.0)
        verdicts[k] = stability_oracle(traces, window=5.0)
    last_stable = max(k for k, v in verdicts.items() if v == "STABLE") * DT
    first_unstable = min(k for k, v in verdicts.items()
                         if v == "UNSTABLE") * DT
    cct_ok = (last_stable <= t_cr + DT) and (first_unstable >= t_cr - DT)

    fault = FaultSpec(bus="1", t_fault=0.0, t_clear=0.0,
                      removed_branches=("L2",))
    traces = simulate(smib, fault, dt=1.0 / 1200.0, horizon=10.0)
    from lyapstab.network import reduce_network
    from lyapstab.simulator import solve_equilibrium
    red = reduce_network(smib, removed=fault.removed_branches)
    _, pm = solve_equilibrium(reduce_network(smib))
    angles = np.stack([tr.angles for tr in traces])
    speeds = np.stack([tr.speeds for tr in traces])
    finite = ~np.isinf(red.m)
    energy = 0.5 * (red.m[finite, None] * speeds[finite] ** 2).sum(axis=0)
    energy -= (pm[:, None] * angles).sum(axis=0)
    for i in range(red.n):
        for j in range(i + 1, red.n):
            energy -= (red.emf[i] * red.emf[j] * red.B[i, j]
                       * np.cos(angles[i] - angles[j]))
    drift = np.abs(energy - energy[0]).max() / abs(energy[0])

    elapsed = time.perf_counter() - start
    ok = cct_ok and drift < 1e-5
    gate(7, "simulator validity", ok,
         f"clearing bracket [{last_stable:.4f}, {first_unstable:.4f}] around "
         f"{t_cr:.4f} (+-{DT:.4f}); energy drift {drift:.2e}", elapsed)


def test_criterion_7_default_step_accuracy():
    """The accuracy rule of ``simulate``'s default step: over the first 3 s
    after clearing, every battery case's angles stay within 1 mrad of a run
    with a step 4x finer."""
    start = time.perf_counter()
    worst, worst_label = 0.0, None
    for label, model, bus, tc, removed, _, _ in _battery_cases():
        fault = FaultSpec(bus=bus, t_fault=0.1, t_clear=tc,
                          removed_branches=removed)
        default = simulate(model, fault, dt=DT, horizon=tc + 3.0)
        fine = simulate(model, fault, dt=DT, horizon=tc + 3.0, substeps=20)
        err = max(np.abs(a.angles - b.angles).max()
                  for a, b in zip(default, fine))
        if err > worst:
            worst, worst_label = err, f"{label}@{tc:.3f}"
    gate(7, "default step accuracy", worst < 1e-3,
         f"max angle error {worst:.1e} rad ({worst_label}) < 1e-3 against "
         f"substeps=20", time.perf_counter() - start)


if __name__ == "__main__":
    GOLDEN_VERDICTS.parent.mkdir(exist_ok=True)
    GOLDEN_VERDICTS.write_text(
        json.dumps(_verdict_rows(_run_cases(_battery_cases())[0]), indent=1)
        + "\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN_VERDICTS}")
