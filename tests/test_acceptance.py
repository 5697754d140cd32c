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
from lyapstab.errors import NoAssessablePairError
from lyapstab.ingest import EventMeta, align
from lyapstab.mle import estimate_stream, rls_init, rls_update
from lyapstab.network import FaultSpec, load_network_file
from lyapstab.pairs import SdgpTrace
from lyapstab.simulator import simulate, stability_oracle
from lyapstab.swings import EstimatorParams, SwingPattern, classify

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
        # way observations actually arrive (coincident times would make the
        # two-point initialisation itself ill-posed)
        n = int(rng.integers(3, 501))
        spacing = rng.uniform(0.002, 0.05)
        gaps = rng.uniform(0.5, 1.5, n - 1) * spacing
        times = rng.uniform(-2.0, 2.0) + np.concatenate([[0.0], np.cumsum(gaps)])
        values = (rng.normal(0.0, 1.0) * times + rng.normal(0.0, 1.0)
                  + rng.normal(0.0, 0.3, n))
        state = rls_init(values[0], values[1], times[0], times[1])
        for t, y in zip(times[2:], values[2:]):
            rls_update(state, y, t)
        X = np.column_stack([times, np.ones(n)])
        batch = np.linalg.solve(X.T @ X, X.T @ values)
        rec = np.array([state.lambda_hat, state.c_hat])
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
    params = EstimatorParams(w=12, m_n=12, dt=DT, pattern=SwingPattern.I,
                             decided_at=0)
    t = np.arange(0, 121) * DT  # exactly one second of data
    worst_clean, worst_noisy = 0.0, 0.0
    rng = np.random.default_rng(42)
    for lam in (-2.0, -0.5, 0.5, 2.0):
        theta = np.exp(lam * t)
        clean = SdgpTrace("A", "B", theta, np.gradient(theta, DT), DT)
        est = estimate_stream(clean, params).lambdas[-1]
        worst_clean = max(worst_clean, abs(est - lam) / abs(lam))
        noisy_theta = theta + rng.normal(0.0, 1e-3, len(t))
        noisy = SdgpTrace("A", "B", noisy_theta,
                          np.gradient(noisy_theta, DT), DT)
        est = estimate_stream(noisy, params).lambdas[-1]
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
        decision = classify(tpl.v, DT)
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
    assessor = PairAssessor("A", "B")
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
            except NoAssessablePairError:
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


def _battery_cases():
    smib = load_network_file(NETWORKS / "smib.net").with_damping({"G1": 0.038})
    two = load_network_file(NETWORKS / "twomachine.net")
    two_neg = two.with_damping({"G1": -0.008, "G2": -0.008})
    three = load_network_file(NETWORKS / "threemachine.net")
    four = load_network_file(NETWORKS / "fourmachine.net")
    four_neg = four.with_damping({g: -0.024 for g in four.gen_ids})
    chain = chain_model()

    cases = []
    for tc in (0.15, 0.20, 0.25, 0.30, 0.35, 0.45, 0.55):
        cases.append(("smib", smib, "1", tc, ("L2",), 12.0, 8.0))
    for tc in (0.14, 0.18, 0.22, 0.26, 0.30, 0.34):
        cases.append(("two", two, "3", tc, (), 12.0, 8.0))
    for tc in (0.15, 0.20):
        cases.append(("two-negD", two_neg, "3", tc, (), 14.0, 10.0))
    for tc in (0.12, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40):
        cases.append(("three-b8", three, "8", tc, ("L78",), 12.0, 8.0))
    for tc in (0.15, 0.25, 0.35):
        cases.append(("three-b5", three, "5", tc, ("L45",), 12.0, 8.0))
    for tc in (0.15, 0.25, 0.35):
        cases.append(("three-b6", three, "6", tc, ("L67",), 12.0, 8.0))
    for tc in (0.15, 0.20, 0.25, 0.30, 0.35, 0.40):
        cases.append(("four-b1", four, "1", tc, ("L15A",), 12.0, 8.0))
    for tc in (0.15, 0.25, 0.35):
        cases.append(("four-b6", four, "6", tc, ("T56B",), 12.0, 8.0))
    for tc in (0.20, 0.30):
        cases.append(("four-b7", four, "7", tc, ("T67B",), 12.0, 8.0))
    for tc in (0.12, 0.20):
        cases.append(("four-negD", four_neg, "6", tc, ("T56B",), 16.0, 12.0))
    for tc in (21 / 120.0, 26 / 120.0):
        cases.append(("chain", chain, "B", tc, (), 12.0, 8.0))
    return cases


def _run_battery():
    results = []
    start = time.perf_counter()
    for label, model, bus, tc, removed, horizon, window in _battery_cases():
        fault = FaultSpec(bus=bus, t_fault=0.1, t_clear=tc,
                          removed_branches=removed)
        traces = simulate(model, fault, dt=DT, horizon=horizon)
        oracle = stability_oracle(traces, window=window)
        meta = EventMeta(t_fault=0.1, t_clear=tc, faulted_element=bus)
        dataset = align(traces, meta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_assessment(dataset, meta)
        results.append(CaseResult(
            label=f"{label}@{tc:.3f}", oracle=oracle,
            verdict=report.system.status,
            decision_time=report.system.decision_time,
            pair_statuses=tuple(v.status for v in report.pairs),
            pair_times=tuple(v.decision_time for v in report.pairs),
            pair_params=tuple((v.pattern.value if v.pattern else None,
                               v.w, v.m_n, v.peak_lambda)
                              for v in report.pairs)))
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def battery():
    return _run_battery()


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


def test_criterion_5_battery_agreement(battery):
    results, elapsed = battery
    n = len(results)
    undetermined = [r for r in results if r.verdict == SYSTEM_UNDETERMINED]
    decided = [r for r in results if r.verdict in (SYSTEM_STABLE,
                                                   SYSTEM_UNSTABLE)]
    agree = [r for r in decided if r.verdict == r.oracle]
    disagreements = [f"{r.label}: {r.verdict} vs oracle {r.oracle}"
                     for r in decided if r.verdict != r.oracle]
    ok = (n >= 40
          and len(undetermined) <= 0.05 * n
          and len(agree) >= 0.95 * len(decided)
          and elapsed < 120.0)
    gate(5, "battery vs time-domain oracle", ok,
         f"{n} cases, {len(agree)}/{len(decided)} agree, "
         f"{len(undetermined)} undetermined"
         + (f"; disagreements: {disagreements}" if disagreements else ""),
         elapsed)


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
    from lyapstab.network import POST_FAULT, PRE_FAULT, reduce_network
    from lyapstab.simulator import solve_equilibrium
    red = reduce_network(smib, POST_FAULT, fault)
    _, pm = solve_equilibrium(reduce_network(smib, PRE_FAULT))
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


if __name__ == "__main__":
    GOLDEN_VERDICTS.parent.mkdir(exist_ok=True)
    GOLDEN_VERDICTS.write_text(
        json.dumps(_verdict_rows(_run_battery()[0]), indent=1) + "\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN_VERDICTS}")
