"""Command-line front end: simulate, classify, assess, sweep.

Every command is deterministic given its flags; output files are fully
regenerable, so configs are the only experiment state worth keeping.
Exit codes: 0 success/stable, 1 input or runtime error, 2 unstable,
3 undetermined (assess and sweep propagate the assessment outcome).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

from . import assess as assess_mod
from .assess import AssessmentConfig, pair_parameters, run_assessment
from .errors import LyapstabError
from .ingest import (ASSESSMENT_RATE, EventMeta, align, parse_traces,
                     write_traces)
from .network import FaultSpec, load_network_file
from .pairs import build_pair_trace, identify_sdgp
from .simulator import simulate, stability_oracle
from .swings import SwingPattern

PATTERN_NAMES = tuple(p.value for p in SwingPattern)


def _resolve_meta(args) -> EventMeta:
    meta = EventMeta.from_file(args.meta) if args.meta else None
    t_f = args.fault_time if args.fault_time is not None else (
        meta.t_fault if meta else None)
    t_c = args.clear_time if args.clear_time is not None else (
        meta.t_clear if meta else None)
    if t_f is None or t_c is None:
        raise LyapstabError(
            "need --meta or both --fault-time and --clear-time")
    return EventMeta(t_fault=t_f, t_clear=t_c,
                     faulted_element=meta.faulted_element if meta else None)


def _positive(value: str) -> float:
    x = float(value)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return x


def _jobs(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return n


def _setting(name: str):
    """argparse type for one AssessmentConfig field, checked by its own rule."""
    def parse(value: str) -> float:
        x = float(value)
        try:
            AssessmentConfig(**{name: x})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}, got {value}") from None
        return x
    parse.__name__ = name  # argparse's "invalid <name> value" message
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one.

    Parsing leaves the parser unchanged, so one instance serves every
    ``main()`` call in a process; callers must not modify it.
    """
    p = argparse.ArgumentParser(
        prog="lyapstab",
        description="Rotor-angle stability assessment from post-fault rotor "
                    "traces, plus a classical swing-equation simulator.")
    sub = p.add_subparsers(dest="command", required=True)

    # flags shared by the assessing commands, each declared once
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--rate", type=_positive, default=ASSESSMENT_RATE,
                          help="sample rate the assessment runs at, Hz")
    settings.add_argument("--sigma", type=_setting("sigma"),
                          default=AssessmentConfig.sigma,
                          help="a generator is severe if |w| / max|w| exceeds it")
    settings.add_argument("--t-max", type=_setting("t_max"),
                          default=AssessmentConfig.t_max,
                          help="seconds of data per pair after clearing")
    event = argparse.ArgumentParser(add_help=False)
    event.add_argument("--traces", required=True)
    event.add_argument("--meta", help="event metadata JSON (from `simulate`)")
    event.add_argument("--fault-time", type=float, help="overrides metadata")
    event.add_argument("--clear-time", type=float, help="overrides metadata")
    event.add_argument("--speed-nominal", type=float, default=0.0,
                       help="subtract this absolute speed (rad/s) at parse time")
    event.add_argument("--dump-distance", metavar="PREFIX",
                       help="write per-pair distance series CSVs")

    sim = sub.add_parser("simulate", help="run a fault case and write traces")
    sim.add_argument("--network", required=True, help="network description file")
    sim.add_argument("--fault-bus", required=True)
    sim.add_argument("--fault-time", type=float, default=0.1)
    sim.add_argument("--clear-time", type=float, required=True)
    sim.add_argument("--open-branch", action="append", default=[],
                     help="branch removed at clearing; repeatable")
    sim.add_argument("--rate", type=_positive, default=ASSESSMENT_RATE,
                     help="output sample rate, Hz")
    sim.add_argument("--horizon", type=_positive, default=12.0,
                     help="simulated seconds from t=0")
    sim.add_argument("--out", required=True, help="trace CSV path")
    sim.add_argument("--meta-out", help="metadata path (default: <out>.meta.json)")

    cls = sub.add_parser("classify", parents=[event, settings],
                         help="swing pattern and fit parameters")
    cls.add_argument("--pair", help="SEVERE,LEAST ids; default: all identified")

    ass = sub.add_parser("assess", parents=[event, settings],
                         help="full stability assessment, JSON report")
    ass.add_argument("--dump-mle", metavar="PREFIX",
                     help="write per-pair exponent series CSVs")
    ass.add_argument("--out", help="also write the JSON report here")

    swp = sub.add_parser("sweep", parents=[settings],
                         help="grid of fault cases vs the oracle")
    swp.add_argument("--network", required=True)
    swp.add_argument("--fault-bus", action="append", required=True,
                     help="repeatable")
    swp.add_argument("--clear-time", action="append", type=float, required=True,
                     help="repeatable")
    swp.add_argument("--fault-time", type=float, default=0.1)
    swp.add_argument("--open-branch", default="auto",
                     help="'auto' (first branch at the faulted bus), 'none', "
                          "or a branch id")
    swp.add_argument("--horizon", type=_positive, default=12.0)
    swp.add_argument("--oracle-window", type=_positive, default=5.0)
    swp.add_argument("--jobs", type=_jobs, default=1,
                     help="worker processes, at most one per case")
    swp.add_argument("--out", required=True, help="per-case rows CSV")
    swp.add_argument("--summary-out",
                     help="pattern-count table (default: <out stem>_summary.csv)")
    return p


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    meta = EventMeta(t_fault=args.fault_time, t_clear=args.clear_time,
                     faulted_element=args.fault_bus)
    model = load_network_file(args.network)
    fault = FaultSpec(bus=args.fault_bus, t_fault=args.fault_time,
                      t_clear=args.clear_time,
                      removed_branches=tuple(args.open_branch))
    traces = simulate(model, fault, dt=1.0 / args.rate, horizon=args.horizon)
    write_traces(traces, args.out)
    out = Path(args.out)
    meta_path = Path(args.meta_out or out.with_name(out.stem + ".meta.json"))
    meta_path.write_text(meta.to_json() + "\n", encoding="utf-8")
    print(f"wrote {args.out} and {meta_path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _load_aligned(args):
    traces = parse_traces(args.traces, speed_offset=args.speed_nominal)
    meta = _resolve_meta(args)
    return align(traces, meta, rate=args.rate), meta


def _dump_series(prefix: str, kind: str, verdict, header: str, rows) -> None:
    path = Path(f"{prefix}{kind}_{verdict.severe}-{verdict.least}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _dump_distance(prefix: str, verdict, dt: float) -> None:
    _dump_series(prefix, "distance", verdict, "t,d",
                 ((j * dt, dj) for j, dj in enumerate(verdict.distance)))


def cmd_classify(args) -> int:
    """Report the pattern, ``w`` and ``m_n`` that ``assess`` fits with."""
    dataset, _ = _load_aligned(args)
    if args.pair:
        severe, _, least = args.pair.partition(",")
        if not least:
            raise LyapstabError("--pair wants SEVERE,LEAST")
        pair_list = [(severe.strip(), least.strip())]
        unknown = [g for g in pair_list[0] if g not in dataset.gen_ids]
        if unknown:
            raise LyapstabError(f"unknown generator id {unknown[0]!r}; the "
                                f"traces have {', '.join(dataset.gen_ids)}")
    else:
        pair_list = identify_sdgp(dataset, args.sigma)

    results = []
    for pair in pair_list:
        trace = build_pair_trace(dataset, pair)
        verdict, params = pair_parameters(trace, pair, args.t_max)
        if params is None:
            raise LyapstabError(f"pair ({pair[0]}, {pair[1]}) has no fit "
                                f"parameters: {verdict.note}")
        results.append({"severe": pair[0], "least": pair[1],
                        "pattern": params.pattern.value, "w": params.w,
                        "m_n": params.m_n, "decided_at": params.decided_at})
        if args.dump_distance:
            _dump_distance(args.dump_distance, verdict, dataset.dt)
    payload = results[0] if args.pair else results
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# assess
# ---------------------------------------------------------------------------

def cmd_assess(args) -> int:
    dataset, meta = _load_aligned(args)
    report = run_assessment(dataset, meta, AssessmentConfig(args.sigma, args.t_max))
    for verdict in report.pairs:
        if args.dump_distance and verdict.distance is not None:
            _dump_distance(args.dump_distance, verdict, dataset.dt)
        if args.dump_mle and verdict.mle is not None:
            _dump_series(args.dump_mle, "mle", verdict, "t,lambda",
                         zip(*verdict.mle))
    text = report.to_json()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return report.exit_code


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _auto_branch(model, bus: str) -> tuple[str, ...]:
    incident = sorted(br.branch_id for br in model.branches
                      if bus in (br.from_bus, br.to_bus))
    return (incident[0],) if incident else ()


def _sweep_case(payload) -> dict:
    (network_path, bus, t_clear, t_fault, open_branch, rate, horizon,
     oracle_window, config) = payload
    row = {"bus": bus, "clear_time_s": t_clear, "patterns": "",
           "verdict": "", "oracle": "", "agree": "", "decision_time_s": "",
           "error": ""}
    try:
        meta = EventMeta(t_fault=t_fault, t_clear=t_clear, faulted_element=bus)
        model = load_network_file(network_path)
        if open_branch == "auto":
            removed = _auto_branch(model, bus)
        elif open_branch == "none":
            removed = ()
        else:
            removed = (open_branch,)
        fault = FaultSpec(bus=bus, t_fault=t_fault, t_clear=t_clear,
                          removed_branches=removed)
        traces = simulate(model, fault, dt=1.0 / rate, horizon=horizon)
        oracle = stability_oracle(traces, window=oracle_window)
        dataset = align(traces, meta, rate=rate)
        report = run_assessment(dataset, meta, config)
        patterns = [v.pattern.value for v in report.pairs if v.pattern]
        row["patterns"] = "|".join(patterns)
        row["verdict"] = report.system.status
        row["oracle"] = oracle
        undetermined = report.system.status == assess_mod.SYSTEM_UNDETERMINED
        row["agree"] = "" if undetermined else str(report.system.status == oracle)
        row["decision_time_s"] = (
            "" if report.system.decision_time is None
            else repr(report.system.decision_time))
    except (LyapstabError, ValueError) as exc:
        row["error"] = str(exc)
    return row


SWEEP_FIELDS = ("bus", "clear_time_s", "patterns", "verdict", "oracle",
                "agree", "decision_time_s", "error")


def cmd_sweep(args) -> int:
    config = AssessmentConfig(args.sigma, args.t_max)
    payloads = [
        (args.network, bus, t_c, args.fault_time, args.open_branch, args.rate,
         args.horizon, args.oracle_window, config)
        for bus in args.fault_bus
        for t_c in args.clear_time
    ]
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        # imported here: every other command starts faster without it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_case, payloads))
    else:
        rows = [_sweep_case(p) for p in payloads]

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    # pattern occurrence counts per clearing time plus the agreement rate
    summary_path = (Path(args.summary_out) if args.summary_out
                    else Path(args.out).with_name(Path(args.out).stem
                                                  + "_summary.csv"))
    by_tc: dict[float, dict[str, int]] = {}
    for row in rows:
        counts = by_tc.setdefault(row["clear_time_s"],
                                  {name: 0 for name in PATTERN_NAMES})
        for pat in row["patterns"].split("|"):
            if pat in counts:
                counts[pat] += 1
    decided = [r for r in rows if r["agree"] != ""]
    agreements = sum(r["agree"] == "True" for r in decided)
    undetermined = sum(1 for r in rows
                       if r["verdict"] == assess_mod.SYSTEM_UNDETERMINED)
    failures = sum(1 for r in rows if r["error"])
    rate = agreements / len(decided) if decided else float("nan")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["clear_time_s", *PATTERN_NAMES])
        for t_c in sorted(by_tc):
            writer.writerow([t_c, *(by_tc[t_c][name] for name in PATTERN_NAMES)])
        writer.writerow([])
        writer.writerow(["cases", "agreements", "undetermined", "errors",
                         "success_rate"])
        writer.writerow([len(rows), agreements, undetermined, failures,
                         f"{rate:.4f}" if decided else "n/a"])
    print(f"{len(rows)} cases, {agreements}/{len(decided)} agree with the "
          f"oracle, {undetermined} undetermined, {failures} errors",
          file=sys.stderr)
    print(f"wrote {args.out} and {summary_path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage error: argparse's 2 would read UNSTABLE
        return 1 if exc.code == 2 else exc.code
    handlers = {"simulate": cmd_simulate, "classify": cmd_classify,
                "assess": cmd_assess, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except (LyapstabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
